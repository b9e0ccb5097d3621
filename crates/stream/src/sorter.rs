//! The bounded-memory streaming sorter.

use crate::spill::{PodValue, SpillValue, VarValue};
use crate::spiller::{or_panic, RunBuilder, RunMerge, Spiller, RUN_SORT_ID_BYTES};
use crate::spillio::SpillIoHandle;
use dtsort::{sort_run_pairs_with, IntegerKey, RunReport, SortConfig, StreamConfig};
use std::io;
use std::marker::PhantomData;

/// Total read buffering a final merge splits across its spilled runs
/// ([`crate::spill::per_run_reader_budget`]): 64 runs get 128 KiB each.
pub(crate) const MERGE_READ_BUFFER_BYTES: usize = 8 << 20;

/// Upper bound on the heavy keys carried from one run's sampling into the
/// next (each carried key costs one bucket in the next run's root
/// distribution).
const MAX_CARRIED_HEAVY_KEYS: usize = 1024;

/// Counters describing what a [`StreamSorter`] did.
///
/// `records_pushed` and `carried_heavy_keys` are always exact.  With
/// pipelined spilling, `spilled_runs` / `spilled_bytes` count only runs
/// *confirmed durable*, reconciled lazily at each `push`: a run still in
/// flight to the background writer is not yet counted.  [`is_settled`]
/// reports whether that lag currently exists; calling
/// [`StreamSorter::flush_spills`] drains it, after which every counter is
/// exact (and `is_settled` is `true`).
///
/// [`is_settled`]: StreamStats::is_settled
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamStats {
    /// Records accepted by `push` / `push_record` so far.  Counted per
    /// accepted chunk, so a failed spill mid-push leaves every record the
    /// sorter still owns counted (`records_pushed` always equals
    /// [`StreamSorter::len`]).
    pub records_pushed: u64,
    /// Runs spilled to disk so far.
    pub spilled_runs: usize,
    /// Bytes written to spill files so far (on-disk, post-compression).
    pub spilled_bytes: u64,
    /// Bytes the same runs would have occupied in the uncompressed (flat)
    /// spill encoding.  Equal to `spilled_bytes` when
    /// [`StreamConfig::spill_compression`] is off (up to the flat format's
    /// lack of block headers); the ratio `spilled_bytes /
    /// spilled_raw_bytes` is the on-disk compression win.
    pub spilled_raw_bytes: u64,
    /// Heavy keys currently carried into the next run's sampling.
    pub carried_heavy_keys: usize,
    /// Transient spill-write failures (interrupted or timed-out calls)
    /// that were retried and eventually succeeded — up to 3 retries per
    /// write, with a backoff of 2 ms doubling to at most 50 ms — across
    /// both the synchronous and the pipelined writer.
    pub spill_retries: u64,
    /// Runs spilled synchronously while pipelining was on probation after
    /// a writer failure.  Stops growing once [`crate::PROBATION_SPILLS`]
    /// runs are served and pipelining resumes.
    pub degraded_syncs: u64,
    /// Whether the spill counters are exact right now: `false` while runs
    /// are in flight to the background spill writer (their bytes are not
    /// yet in `spilled_runs` / `spilled_bytes`), `true` once reconciliation
    /// has caught up.  [`StreamSorter::flush_spills`] forces it back to
    /// `true`.
    pub is_settled: bool,
}

impl Default for StreamStats {
    fn default() -> Self {
        Self {
            records_pushed: 0,
            spilled_runs: 0,
            spilled_bytes: 0,
            spilled_raw_bytes: 0,
            carried_heavy_keys: 0,
            spill_retries: 0,
            degraded_syncs: 0,
            // Nothing in flight before the first pipelined spill.
            is_settled: true,
        }
    }
}

/// A bounded-memory, out-of-core stable sorter over pushed record batches.
///
/// Records are buffered up to the run capacity derived from
/// [`StreamConfig::memory_budget_bytes`]; each full buffer is stably sorted
/// with DovetailSort into a *run* and spilled to disk.  Heavy keys
/// confirmed by one run seed the next run's heavy-key detection
/// ([`dtsort::sort_run_pairs_with`]), so duplicate-dominated streams keep
/// DovetailSort's `O(n)` fast path in every run regardless of how the
/// stream is chunked.  [`StreamSorter::finish`] k-way merges all runs with
/// a loser tree into a sorted iterator; [`StreamSorter::finish_vec`]
/// drains the same merge into a vector.
///
/// Values may be fixed-size [`PodValue`]s (spilled as raw byte images) or
/// variable-length [`VarValue`]s such as `String` and `Vec<u8>` (spilled
/// length-prefixed); see [`SpillValue`].  For variable-length values the
/// sorter additionally tracks the buffered payload bytes and spills early
/// once they reach one budget share (a third of the budget), so a stream
/// of large values cannot overshoot the budget through the record-count
/// heuristic.
///
/// ```
/// use stream::StreamSorter;
/// use dtsort::StreamConfig;
///
/// // A tiny budget forces several spilled runs even for small inputs.
/// let mut sorter: StreamSorter<u32, u32> =
///     StreamSorter::with_config(StreamConfig::with_memory_budget(16 << 10));
/// for batch in 0..10u32 {
///     let records: Vec<(u32, u32)> =
///         (0..1000u32).map(|i| (i.wrapping_mul(2654435761).rotate_left(7), batch * 1000 + i)).collect();
///     sorter.push(&records).unwrap();
/// }
/// let sorted: Vec<(u32, u32)> = sorter.finish().unwrap().collect();
/// assert_eq!(sorted.len(), 10_000);
/// assert!(sorted.windows(2).all(|w| w[0].0 <= w[1].0));
/// ```
pub struct StreamSorter<K: IntegerKey, V: SpillValue = ()> {
    pub(crate) core: Spiller<SortRuns<K, V>>,
}

/// The sorter's half of the spill lifecycle: a full buffer becomes a run
/// by a stable DovetailSort seeded with the heavy keys the previous run
/// confirmed.
pub(crate) struct SortRuns<K, V> {
    carry: Vec<u64>,
    /// Runs sorted so far (labels the `sort_run` trace spans).
    runs_sorted: usize,
    _records: PhantomData<fn() -> (K, V)>,
}

impl<K: IntegerKey, V: SpillValue> RunBuilder for SortRuns<K, V> {
    type Key = K;
    type Value = V;
    type RunKey = K;
    type RunValue = V;
    type Stats = StreamStats;
    const FILE_STEM: &'static str = "run";

    // One share of records buffered and one of sort scratch, with its
    // bucket-id cache.
    const BUILD_BYTES: usize = 2 * std::mem::size_of::<(K, V)>() + RUN_SORT_ID_BYTES;

    /// Sorts the buffer in place, updates the carry from the sort's
    /// report, and hands the sorted buffer over as the run (`out` becomes
    /// the new buffer).
    fn build_run(
        &mut self,
        cfg: &StreamConfig,
        run_capacity: usize,
        buffer: &mut Vec<(K, V)>,
        out: Vec<(K, V)>,
        stats: &mut StreamStats,
    ) -> Vec<(K, V)> {
        let traced = obs::enabled() && !buffer.is_empty();
        let start = traced.then(std::time::Instant::now);
        let report = {
            let _span = traced.then(|| obs::span!("sort_run", run = self.runs_sorted));
            V::sort_spill_run(buffer, &cfg.sort, &self.carry)
        };
        if let Some(start) = start {
            let metrics = crate::metrics::m();
            metrics.sort_ns.record_duration(start.elapsed());
            metrics
                .run_fill_pct
                .record((buffer.len() * 100 / run_capacity.max(1)) as u64);
        }
        if !buffer.is_empty() {
            self.runs_sorted += 1;
        }
        self.carry = report.heavy_keys;
        self.carry.truncate(MAX_CARRIED_HEAVY_KEYS);
        stats.carried_heavy_keys = self.carry.len();
        std::mem::replace(buffer, out)
    }
}

impl<K: IntegerKey, V: SpillValue> Default for StreamSorter<K, V> {
    fn default() -> Self {
        Self::with_config(StreamConfig::default())
    }
}

impl<K: IntegerKey, V: SpillValue> StreamSorter<K, V> {
    /// Sorter with the default [`StreamConfig`] (256 MiB budget).
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_config(cfg: StreamConfig) -> Self {
        let io = SpillIoHandle::from_config(&cfg);
        Self::with_config_and_io(cfg, io)
    }

    /// Like [`StreamSorter::with_config`], but spilling through a
    /// caller-provided I/O backend — this is how a multi-session server
    /// shares one batched worker pool (and its queue-depth budget) across
    /// every engine instead of giving each session its own pool.
    pub fn with_config_and_io(cfg: StreamConfig, io: SpillIoHandle) -> Self {
        let builder = SortRuns {
            carry: Vec::new(),
            runs_sorted: 0,
            _records: PhantomData,
        };
        Self {
            core: Spiller::new(cfg, io, builder),
        }
    }

    /// Applies the current budget grant immediately: re-reads the
    /// (possibly shrunk) [`dtsort::BudgetHandle`] and spills the buffered
    /// run early if it no longer fits the grant.  `push` re-checks per
    /// chunk anyway; this hook exists for granters (e.g. a memory
    /// governor) reclaiming from a session that is idle between pushes.
    pub fn shrink_to_budget(&mut self) -> io::Result<()> {
        self.core.shrink_to_budget()
    }

    /// Total records accepted so far (buffered, in flight to the writer,
    /// pending retry, or spilled).
    pub fn len(&self) -> usize {
        let core = &self.core;
        core.runs.iter().map(|r| r.len).sum::<usize>()
            + core.in_flight_records
            + core.pending_runs.iter().map(Vec::len).sum::<usize>()
            + core.buffer.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of runs the final merge will see: spilled runs (including
    /// those still in flight to the writer), runs pending a spill retry,
    /// plus the in-memory tail, if any records are currently buffered.
    pub fn run_count(&self) -> usize {
        self.core.run_count()
    }

    /// Counters (spills, carried heavy keys, ...).
    ///
    /// With pipelined spilling, `spilled_runs` / `spilled_bytes` count runs
    /// confirmed durable, reconciled at every `push`;
    /// [`StreamStats::is_settled`] tells whether they are exact right now,
    /// and [`StreamSorter::flush_spills`] makes them exact.
    pub fn stats(&self) -> &StreamStats {
        &self.core.stats
    }

    /// Blocks until the run in flight to the background spill writer is
    /// durable on disk, surfacing any writer-side error.  Afterwards
    /// [`StreamSorter::stats`] is exact.  A no-op when no run is in
    /// flight.
    pub fn flush_spills(&mut self) -> io::Result<()> {
        self.core.flush_spills()
    }

    /// Heavy keys (ordered-`u64` domain) carried into the next run.
    pub fn carried_heavy_keys(&self) -> &[u64] {
        &self.core.builder.carry
    }

    /// Appends a batch of records, spilling full runs to disk as needed.
    ///
    /// On a spill error the sorter still takes ownership of the *whole*
    /// slice before the error surfaces: the un-consumed tail is buffered
    /// (transiently past the run capacity, bounded by the slice length),
    /// so a caller that treats the error as transient and keeps pushing
    /// never loses the records it already handed over.
    pub fn push(&mut self, records: &[(K, V)]) -> io::Result<()> {
        self.core.push(records)
    }

    /// Appends a single record (no clone of the value).
    pub fn push_record(&mut self, key: K, value: V) -> io::Result<()> {
        self.core.push_record(key, value)
    }

    /// Finishes the sort, returning a streaming sorted iterator.
    ///
    /// The iterator holds one read buffer per spilled run (together 8 MiB
    /// of read buffering, split evenly) plus the final in-memory run, so
    /// its footprint stays bounded no matter how large the dataset grew.
    /// Every spilled run reaches the loser tree as decoded blocks.  On a
    /// host with more than one CPU the blocks are decoded ahead of the
    /// merge by tasks on the spill I/O pool (2 threads, whatever the run
    /// count), so the tree pops from prefetched blocks instead of waiting
    /// on cold reads; runs beyond the pool's queue depth decode inline.  On
    /// one CPU the decode tasks could not overlap the merge, so the merging
    /// thread decodes each block itself when it needs it.  Read-ahead also
    /// gives way to inline decoding once the per-run buffer share drops
    /// below 4 KiB (past 2048 runs), which the `prefetch.disabled_merges`
    /// metric counts.
    ///
    /// Each run's first block is decoded here, so a read error in it comes
    /// back as `Err` from `finish` itself.  Transient read failures
    /// (interrupted or timed-out calls) are retried, up to 3 times per
    /// read with a backoff of 2 ms doubling to at most 50 ms: the run is
    /// reopened and the records it already served are skipped.  Only a
    /// permanent read error (or one that outlasts the retries) in a later
    /// block panics mid-iteration; see [`SortedStream`], and
    /// [`StreamSorter::finish_vec`] for the same merge returning it as
    /// `Err`.
    pub fn finish(self) -> io::Result<SortedStream<K, V>> {
        let remaining = self.len();
        let (merge, _) = self.core.into_merge(MERGE_READ_BUFFER_BYTES)?;
        Ok(SortedStream { merge, remaining })
    }

    /// Finishes the sort into a vector: [`StreamSorter::finish`]'s merge,
    /// drained, with a spill read error that survived the retries returned
    /// as `Err` instead of a panic.
    pub fn finish_vec(self) -> io::Result<Vec<(K, V)>> {
        let mut stream = self.finish()?;
        let mut out = Vec::with_capacity(stream.remaining);
        while let Some(record) = stream.try_next()? {
            out.push(record);
        }
        Ok(out)
    }
}

/// Pod-path run sort: records move through DovetailSort directly (the
/// pre-variable-length fast path, byte-for-byte).
pub(crate) fn pod_sort_run<K: IntegerKey, V: PodValue>(
    buffer: &mut [(K, V)],
    cfg: &SortConfig,
    carry: &[u64],
) -> RunReport {
    sort_run_pairs_with(buffer, cfg, carry)
}

/// Var-path run sort: DovetailSort moves only `(ordered key, index)` tags;
/// the owned values are permuted once afterwards.  Stable because the sort
/// is stable and tags are unique.  The permutation goes through a
/// transient slot vector (one extra inline-size copy of the run) rather
/// than in-place cycle-following: two straight-line passes beat chased
/// cycles on large runs, and the inline records are a small fraction of a
/// var-length run's footprint.
pub(crate) fn var_sort_run<K: IntegerKey, V: VarValue>(
    buffer: &mut Vec<(K, V)>,
    cfg: &SortConfig,
    carry: &[u64],
) -> RunReport {
    let mut tags: Vec<(u64, u64)> = buffer
        .iter()
        .enumerate()
        .map(|(i, (k, _))| (k.to_ordered_u64(), i as u64))
        .collect();
    let report = sort_run_pairs_with(&mut tags, cfg, carry);
    let mut slots: Vec<Option<(K, V)>> = buffer.drain(..).map(Some).collect();
    buffer.extend(
        tags.iter()
            .map(|&(_, i)| slots[i as usize].take().expect("each slot moved once")),
    );
    report
}

/// Streaming sorted output of a [`StreamSorter`] (ascending, stable).
///
/// Holds the spill directory alive until dropped; the directory and its
/// run files are deleted on drop.  Errors opening a run or decoding its
/// first block surface from [`StreamSorter::finish`].  Transient read
/// failures mid-iteration are retried; a permanent one (or one that
/// outlasts the retries) panics before any record past the failed run's
/// last good one is served, so the records yielded so far are an exact
/// prefix of the sorted output (the spill files live in a directory this
/// process just wrote).
pub struct SortedStream<K: IntegerKey, V: SpillValue> {
    pub(crate) merge: RunMerge<K, V>,
    remaining: usize,
}

impl<K: IntegerKey, V: SpillValue> SortedStream<K, V> {
    /// The next record, or the spill read error that ended a run.
    pub(crate) fn try_next(&mut self) -> io::Result<Option<(K, V)>> {
        let Some((key, value)) = self.merge.try_pop()? else {
            return Ok(None);
        };
        self.remaining -= 1;
        Ok(Some((K::from_ordered_u64(key), value)))
    }
}

impl<K: IntegerKey, V: SpillValue> Iterator for SortedStream<K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        or_panic(self.try_next())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<K: IntegerKey, V: SpillValue> ExactSizeIterator for SortedStream<K, V> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::MIN_PREFETCH_RUN_BUDGET;
    use crate::spill::{per_run_reader_budget, RunReader, SpilledRun};
    use crate::{CountAgg, FaultKind, FaultPlan, StreamGroupBy, StringStreamSorter};
    use dtsort::SpillIoMode;
    use parlay::random::Rng;

    fn tiny_cfg(budget: usize) -> StreamConfig {
        StreamConfig {
            memory_budget_bytes: budget,
            sort: dtsort::SortConfig {
                base_case_threshold: 64,
                ..Default::default()
            },
            ..StreamConfig::default()
        }
    }

    /// A sorter over `cfg`'s backend whose merges read ahead or not as
    /// `read_ahead` says, whatever the host — so the read-ahead merge path
    /// runs even on single-CPU machines.
    fn pinned_sorter<K: IntegerKey, V: SpillValue>(
        cfg: StreamConfig,
        read_ahead: bool,
    ) -> StreamSorter<K, V> {
        let io = SpillIoHandle::from_config(&cfg).reading_ahead(read_ahead);
        StreamSorter::with_config_and_io(cfg, io)
    }

    #[test]
    fn in_memory_only_path() {
        let mut sorter: StreamSorter<u32, u32> = StreamSorter::new();
        let input: Vec<(u32, u32)> = vec![(5, 0), (3, 1), (5, 2), (1, 3)];
        sorter.push(&input).unwrap();
        assert_eq!(sorter.len(), 4);
        assert_eq!(sorter.stats().spilled_runs, 0);
        let got: Vec<(u32, u32)> = sorter.finish().unwrap().collect();
        assert_eq!(got, vec![(1, 3), (3, 1), (5, 0), (5, 2)]);
    }

    #[test]
    fn spills_and_merges_more_data_than_budget() {
        let n = 50_000usize;
        let rng = Rng::new(11);
        let input: Vec<(u32, u32)> = (0..n)
            .map(|i| (rng.ith_in(i as u64, 1 << 20) as u32, i as u32))
            .collect();
        // 8-byte records, ~2k records per run => ~25 spilled runs.
        let mut sorter: StreamSorter<u32, u32> = pinned_sorter(tiny_cfg(32 << 10), true);
        for batch in input.chunks(997) {
            sorter.push(batch).unwrap();
        }
        assert!(
            sorter.stats().spilled_runs > 5,
            "expected spills, got {:?}",
            sorter.stats()
        );
        let got: Vec<(u32, u32)> = sorter.finish().unwrap().collect();
        let mut want = input;
        want.sort_by_key(|r| r.0);
        assert_eq!(got, want, "stable sorted permutation expected");
    }

    #[test]
    fn finish_vec_matches_iterator() {
        let n = 20_000usize;
        let rng = Rng::new(12);
        let input: Vec<(u64, u64)> = (0..n)
            .map(|i| (rng.ith_in(i as u64, 500), i as u64))
            .collect();
        let mk = || {
            let mut s: StreamSorter<u64, u64> = pinned_sorter(tiny_cfg(64 << 10), true);
            s.push(&input).unwrap();
            s
        };
        let via_iter: Vec<(u64, u64)> = mk().finish().unwrap().collect();
        let via_vec = mk().finish_vec().unwrap();
        let mut want = input;
        want.sort_by_key(|r| r.0);
        assert_eq!(via_iter, want);
        assert_eq!(via_vec, want);
    }

    #[test]
    fn heavy_keys_are_carried_across_runs() {
        // 70% of every batch is key 42: after the first spilled run the
        // carry must contain 42's ordered image.
        let rng = Rng::new(13);
        let mut sorter: StreamSorter<u32, u32> = pinned_sorter(tiny_cfg(64 << 10), true);
        let mut pushed = 0u32;
        while sorter.stats().spilled_runs < 3 {
            let batch: Vec<(u32, u32)> = (0..1024u32)
                .map(|i| {
                    let k = if rng.ith_f64((pushed + i) as u64) < 0.7 {
                        42
                    } else {
                        rng.ith((pushed + i) as u64) as u32
                    };
                    (k, pushed + i)
                })
                .collect();
            sorter.push(&batch).unwrap();
            pushed += 1024;
        }
        assert!(
            sorter.carried_heavy_keys().contains(&42),
            "carry: {:?}",
            sorter.carried_heavy_keys()
        );
        let got: Vec<(u32, u32)> = sorter.finish().unwrap().collect();
        assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn unit_values_and_signed_keys() {
        let rng = Rng::new(14);
        let mut sorter: StreamSorter<i64> = pinned_sorter(tiny_cfg(32 << 10), true);
        let keys: Vec<i64> = (0..30_000).map(|i| rng.ith(i) as i64).collect();
        for k in &keys {
            sorter.push_record(*k, ()).unwrap();
        }
        assert!(sorter.stats().spilled_runs > 0);
        let got: Vec<i64> = sorter.finish().unwrap().map(|(k, ())| k).collect();
        let mut want = keys;
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let sorter: StreamSorter<u32, u32> = StreamSorter::new();
        assert!(sorter.is_empty());
        assert_eq!(sorter.finish().unwrap().count(), 0);

        let mut one: StreamSorter<u32, u32> = StreamSorter::new();
        one.push_record(9, 1).unwrap();
        assert_eq!(one.finish_vec().unwrap(), vec![(9, 1)]);
    }

    #[test]
    fn spill_directory_is_removed_on_drop() {
        let base = std::env::temp_dir().join(format!("pisort-droptest-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let cfg = StreamConfig {
            spill_dir: Some(base.clone()),
            ..tiny_cfg(16 << 10)
        };
        let mut sorter: StreamSorter<u32, u32> = pinned_sorter(cfg, true);
        let batch: Vec<(u32, u32)> = (0..20_000u32).map(|i| (i % 100, i)).collect();
        sorter.push(&batch).unwrap();
        assert!(sorter.stats().spilled_runs > 0);
        let stream = sorter.finish().unwrap();
        assert!(std::fs::read_dir(&base).unwrap().count() > 0);
        drop(stream);
        assert_eq!(std::fs::read_dir(&base).unwrap().count(), 0);
        std::fs::remove_dir_all(&base).ok();
    }

    /// Deterministic variable-length payload embedding the record index.
    fn payload(i: usize) -> String {
        let filler = "abcdefghijklmnop"
            .chars()
            .cycle()
            .take((i * 37) % 120)
            .collect::<String>();
        format!("v{i:06}-{filler}")
    }

    #[test]
    fn string_values_spill_and_merge_stably() {
        let n = 30_000usize;
        let rng = Rng::new(21);
        let input: Vec<(u64, String)> = (0..n)
            .map(|i| (rng.ith_in(i as u64, 300), payload(i)))
            .collect();
        let mut sorter: StreamSorter<u64, String> = pinned_sorter(tiny_cfg(64 << 10), true);
        for chunk in input.chunks(997) {
            sorter.push(chunk).unwrap();
        }
        assert!(
            sorter.stats().spilled_runs > 2,
            "stats: {:?}",
            sorter.stats()
        );
        let got: Vec<(u64, String)> = sorter.finish().unwrap().collect();
        let mut want = input;
        want.sort_by_key(|r| r.0);
        assert_eq!(got, want, "stable sorted permutation of string records");
    }

    #[test]
    fn string_finish_paths_agree() {
        let n = 12_000usize;
        let rng = Rng::new(22);
        let input: Vec<(u32, String)> = (0..n)
            .map(|i| (rng.ith_in(i as u64, 64) as u32, payload(i)))
            .collect();
        let mk = || {
            let mut s: StreamSorter<u32, String> = pinned_sorter(tiny_cfg(32 << 10), true);
            s.push(&input).unwrap();
            assert!(s.stats().spilled_runs > 0);
            s
        };
        let via_iter: Vec<(u32, String)> = mk().finish().unwrap().collect();
        let via_vec = mk().finish_vec().unwrap();
        let mut want = input;
        want.sort_by_key(|r| r.0);
        assert_eq!(via_iter, want);
        assert_eq!(via_vec, want);
    }

    #[test]
    fn byte_vec_values_roundtrip_including_empty_and_multi_kb() {
        let rng = Rng::new(23);
        let input: Vec<(u32, Vec<u8>)> = (0..4_000usize)
            .map(|i| {
                let len = match i % 3 {
                    0 => 0,
                    1 => (i * 13) % 200,
                    _ => 2048 + (i % 1024),
                };
                let payload = (0..len).map(|j| (i + j) as u8).collect();
                (rng.ith_in(i as u64, 40) as u32, payload)
            })
            .collect();
        let mut sorter: StreamSorter<u32, Vec<u8>> = pinned_sorter(tiny_cfg(64 << 10), true);
        sorter.push(&input).unwrap();
        assert!(sorter.stats().spilled_runs > 0);
        let got = sorter.finish_vec().unwrap();
        let mut want = input;
        want.sort_by_key(|r| r.0);
        assert_eq!(got, want);
    }

    #[test]
    fn large_var_values_spill_by_bytes_not_record_count() {
        // 100 records fit the record-count capacity comfortably, but their
        // multi-KiB payloads exceed half the budget many times over; the
        // byte tracker must force spills anyway.
        let mut sorter: StreamSorter<u64, String> = pinned_sorter(tiny_cfg(64 << 10), true);
        assert!(
            sorter.core.run_capacity > 100,
            "premise: count would not spill"
        );
        for i in 0..100u64 {
            sorter.push_record(i % 7, "z".repeat(2 << 10)).unwrap();
        }
        assert!(
            sorter.stats().spilled_runs > 3,
            "payload bytes must trigger spills: {:?}",
            sorter.stats()
        );
        let got = sorter.finish_vec().unwrap();
        assert_eq!(got.len(), 100);
        assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn records_pushed_counts_accepted_records_when_spill_fails() {
        // Point the spill directory below a regular *file*: creating the
        // unique spill subdirectory fails, so the first spill errors out.
        let base = std::env::temp_dir().join(format!("pisort-failtest-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let blocker = base.join("not-a-directory");
        std::fs::write(&blocker, b"x").unwrap();
        let cfg = StreamConfig {
            spill_dir: Some(blocker.clone()),
            ..tiny_cfg(16 << 10)
        };
        let mut sorter: StreamSorter<u32, u32> = pinned_sorter(cfg, true);
        let batch: Vec<(u32, u32)> = (0..20_000u32).map(|i| (i, i)).collect();
        let err = sorter
            .push(&batch)
            .expect_err("spill into a file must fail");
        assert_ne!(err.kind(), io::ErrorKind::NotFound);
        // Regression (stats drift): every record the sorter still owns is
        // counted, even though the batch failed part-way.
        assert!(sorter.stats().records_pushed > 0);
        assert_eq!(
            sorter.stats().records_pushed,
            sorter.len() as u64,
            "records_pushed must track exactly the records the sorter holds"
        );
        assert_eq!(sorter.stats().spilled_runs, 0);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn flush_spills_makes_stats_exact() {
        let mut sorter: StreamSorter<u32, u32> = pinned_sorter(tiny_cfg(32 << 10), true);
        let batch: Vec<(u32, u32)> = (0..40_000u32).map(|i| (i.rotate_left(16), i)).collect();
        sorter.push(&batch).unwrap();
        sorter.flush_spills().unwrap();
        // After a flush nothing is in flight: every spilled run is durable
        // and counted, and the byte meter matches the files on disk.
        assert_eq!(sorter.core.in_flight_records, 0);
        let on_disk: u64 = sorter.core.runs.iter().map(|r| r.bytes).sum();
        assert_eq!(sorter.stats().spilled_bytes, on_disk);
        assert_eq!(sorter.stats().spilled_runs, sorter.core.runs.len());
        for run in &sorter.core.runs {
            assert_eq!(std::fs::metadata(&run.path).unwrap().len(), run.bytes);
        }
        let got = sorter.finish_vec().unwrap();
        let mut want = batch;
        want.sort_by_key(|r| r.0);
        assert_eq!(got, want);
    }

    #[test]
    fn budget_shrink_is_respected_by_every_later_push() {
        // Regression (governor reclaim): `run_capacity` was read once at
        // construction, so shrinking a live grant changed nothing.  Now a
        // [`dtsort::BudgetHandle`] shrink must take effect on the next
        // chunk: buffered + in-flight bytes never exceed the current
        // grant once the pre-shrink backlog drains.
        let handle = dtsort::BudgetHandle::new(64 << 10);
        let cfg = StreamConfig {
            sort: dtsort::SortConfig {
                base_case_threshold: 64,
                ..Default::default()
            },
            ..StreamConfig::with_budget_handle(handle.clone())
        };
        let record_size = std::mem::size_of::<(u64, u64)>();
        let mut sorter: StreamSorter<u64, u64> = pinned_sorter(cfg, true);
        let initial_capacity = sorter.core.run_capacity;
        let rng = Rng::new(31);
        let mut pushed: Vec<(u64, u64)> = Vec::new();
        for step in 0..40usize {
            if step == 15 {
                // The governor reclaims 7/8 of the grant from a live
                // session: the hook spills early rather than erroring,
                // and the old in-flight backlog is drained right here.
                handle.set(8 << 10);
                sorter.shrink_to_budget().unwrap();
                sorter.flush_spills().unwrap();
                assert!(
                    sorter.core.run_capacity < initial_capacity,
                    "capacity must track the shrunk grant"
                );
            }
            let batch: Vec<(u64, u64)> = (0..512u64)
                .map(|i| {
                    let tag = (step as u64) * 512 + i;
                    (rng.ith(tag), tag)
                })
                .collect();
            pushed.extend_from_slice(&batch);
            sorter.push(&batch).unwrap();
            if step >= 15 {
                let held_bytes =
                    (sorter.core.buffer.len() + sorter.core.in_flight_records) * record_size;
                assert!(
                    held_bytes <= handle.get(),
                    "step {step}: {held_bytes} held bytes exceed the \
                     {} byte grant",
                    handle.get()
                );
            }
        }
        let got = sorter.finish_vec().unwrap();
        let mut want = pushed;
        want.sort_by_key(|r| r.0);
        assert_eq!(got, want, "shrink must not perturb the sorted output");
    }

    #[test]
    fn concurrent_sorters_in_one_process_use_distinct_spill_dirs() {
        // Regression (spill-dir collision): the spill directory name was
        // derived from the pid alone, so two live sorters in one process
        // shared a directory and `remove_dir_all` on one stream's drop
        // deleted the other's runs mid-merge.
        let mk = |seed: u64| {
            let s: StreamSorter<u32, u32> = pinned_sorter(tiny_cfg(16 << 10), true);
            let rng = Rng::new(seed);
            let input: Vec<(u32, u32)> = (0..20_000usize)
                .map(|i| (rng.ith(i as u64) as u32, i as u32))
                .collect();
            // Interleave pushes so both spill spaces are live at once.
            (s, input)
        };
        let (mut a, input_a) = mk(41);
        let (mut b, input_b) = mk(42);
        for (ca, cb) in input_a.chunks(997).zip(input_b.chunks(997)) {
            a.push(ca).unwrap();
            b.push(cb).unwrap();
        }
        assert!(a.stats().spilled_runs > 0 && b.stats().spilled_runs > 0);
        let dir_a = a.core.space.as_ref().unwrap().dir.clone();
        let dir_b = b.core.space.as_ref().unwrap().dir.clone();
        assert_ne!(dir_a, dir_b, "two live sorters must not share a dir");
        // Dropping one sorter's finished stream (deleting its directory)
        // must leave the other's runs readable.
        let got_a: Vec<(u32, u32)> = a.finish().unwrap().collect();
        assert!(!dir_a.exists(), "finished stream cleans its own dir");
        assert!(dir_b.exists(), "the sibling's dir must survive");
        let got_b: Vec<(u32, u32)> = b.finish().unwrap().collect();
        let sort = |mut v: Vec<(u32, u32)>| {
            v.sort_by_key(|r| r.0);
            v
        };
        assert_eq!(got_a, sort(input_a));
        assert_eq!(got_b, sort(input_b));
    }

    // -----------------------------------------------------------------
    // Failure injection: a value whose serializer panics after a chosen
    // number of writes, modelling a mid-spill crash.
    // -----------------------------------------------------------------

    use crate::spill::sealed::Sealed;
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::Arc;

    /// A var-length value that panics inside `spill_encode` when its shared
    /// fuse counts down to zero (exactly once).
    #[derive(Debug, Clone)]
    struct Grenade {
        fuse: Arc<AtomicI64>,
        payload: Vec<u8>,
    }

    impl Grenade {
        fn new(fuse: &Arc<AtomicI64>, i: u64) -> Self {
            Self {
                fuse: Arc::clone(fuse),
                payload: format!("payload-{i:06}-{}", "g".repeat((i as usize * 11) % 64))
                    .into_bytes(),
            }
        }
    }

    impl VarValue for Grenade {
        fn as_spill_bytes(&self) -> &[u8] {
            &self.payload
        }
        fn from_spill_bytes(bytes: &[u8]) -> io::Result<Self> {
            Ok(Self {
                fuse: Arc::new(AtomicI64::new(i64::MAX)),
                payload: bytes.to_vec(),
            })
        }
    }

    impl Sealed for Grenade {}
    impl SpillValue for Grenade {
        const SPILL_FIXED_SIZE: Option<usize> = None;
        fn spill_size(&self) -> usize {
            4 + self.payload.len()
        }
        fn spill_encode(&self, out: &mut Vec<u8>) -> io::Result<()> {
            if self.fuse.fetch_sub(1, Ordering::SeqCst) == 1 {
                panic!("injected spill-write failure");
            }
            self.payload.spill_encode(out)
        }
        fn spill_decode(src: &mut &[u8]) -> io::Result<Self> {
            Vec::<u8>::spill_decode(src).map(|payload| Self {
                fuse: Arc::new(AtomicI64::new(i64::MAX)),
                payload,
            })
        }
        fn sort_spill_run<K: IntegerKey>(
            buffer: &mut Vec<(K, Self)>,
            cfg: &SortConfig,
            carry: &[u64],
        ) -> RunReport {
            var_sort_run(buffer, cfg, carry)
        }
    }

    #[test]
    fn panic_mid_spill_leaves_every_recorded_run_complete_on_disk() {
        // A synchronous spill (the path probation takes) panics in the
        // middle of its write, through `write_run`'s `BufWriter` — the
        // classic silent-truncation shape.  The panic must come back as an
        // error with the run still queued and its partial file removed, so
        // every run the sorter *recorded* as spilled is fully on disk.
        let mut sorter: StreamSorter<u64, Grenade> = pinned_sorter(tiny_cfg(16 << 10), false);
        let capacity = sorter.core.run_capacity;
        sorter.core.degraded = Some(crate::PROBATION_SPILLS);
        // Detonate in the middle of the second run's write.
        let fuse = Arc::new(AtomicI64::new(capacity as i64 + (capacity / 2) as i64));
        let n = 4 * capacity;
        let mut input: Vec<(u64, Grenade)> = Vec::new();
        let mut errors = 0usize;
        for i in 0..n as u64 {
            let record = (i % 97, Grenade::new(&fuse, i));
            input.push(record.clone());
            if let Err(e) = sorter.push_record(record.0, record.1) {
                assert!(e.to_string().contains("panicked"), "unexpected error: {e}");
                errors += 1;
                // The interrupted run is queued for a retry, not recorded,
                // and its partial file is gone.
                assert_eq!(sorter.core.runs.len(), 1, "one run recorded");
                assert_eq!(sorter.core.pending_runs.len(), 1, "the run is kept");
                let dir = sorter.core.runs[0].path.parent().unwrap();
                assert!(!dir.join("run-000001.bin").exists(), "partial file removed");
            }
        }
        assert_eq!(errors, 1, "the fuse must have gone off mid-write once");
        assert_eq!(sorter.stats().records_pushed, n as u64);
        // Every recorded run reads back completely — byte size, record
        // count and payloads all intact.
        assert!(sorter.core.runs.len() > 2);
        for run in &sorter.core.runs {
            assert_eq!(std::fs::metadata(&run.path).unwrap().len(), run.bytes);
            let records: Vec<(u64, Grenade)> =
                RunReader::<Grenade>::open(&SpillIoHandle::blocking(), run, 0, 4096)
                    .unwrap()
                    .read_all()
                    .unwrap();
            assert_eq!(records.len(), run.len);
            assert!(records
                .iter()
                .all(|(_, g)| g.payload.starts_with(b"payload-")));
        }
        let got = sorter.finish_vec().unwrap();
        let mut want = input;
        want.sort_by_key(|r| r.0);
        let got_payloads: Vec<&[u8]> = got.iter().map(|(_, g)| g.payload.as_slice()).collect();
        let want_payloads: Vec<&[u8]> = want.iter().map(|(_, g)| g.payload.as_slice()).collect();
        assert_eq!(got_payloads, want_payloads, "stable, lossless recovery");
    }

    #[test]
    fn writer_thread_panic_surfaces_as_error_and_loses_no_records() {
        // Pipelined mode: the same injected panic happens on the writer
        // thread, where it must convert to an io::Error surfaced by a
        // later push or by finish — never a hang — and the failed run's
        // records must still come out of the final merge.
        let mut sorter: StreamSorter<u64, Grenade> = pinned_sorter(tiny_cfg(16 << 10), true);
        let capacity = sorter.core.run_capacity;
        let fuse = Arc::new(AtomicI64::new(capacity as i64 + (capacity / 2) as i64));
        let n = 6 * capacity;
        let mut input: Vec<(u64, Grenade)> = Vec::new();
        let mut saw_error = false;
        for i in 0..n as u64 {
            let record = (i % 89, Grenade::new(&fuse, i));
            input.push(record.clone());
            match sorter.push_record(record.0, record.1) {
                Ok(()) => {}
                Err(e) => {
                    assert!(e.to_string().contains("panicked"), "unexpected error: {e}");
                    // At the moment the error surfaces, the failed run's
                    // records are reclaimed, none are lost in flight, and
                    // the sorter has fallen back to synchronous spilling
                    // (which will retry the reclaimed runs).
                    assert!(!sorter.core.pending_runs.is_empty(), "records reclaimed");
                    assert_eq!(sorter.core.in_flight_records, 0);
                    assert!(sorter.core.degraded.is_some(), "probation engaged");
                    saw_error = true;
                }
            }
        }
        assert!(saw_error, "the writer panic must surface on a push");
        // The fuse only fires once, so the sorter (now in synchronous
        // fallback) finishes the sort with zero data loss.
        let got = sorter.finish_vec().unwrap();
        assert_eq!(got.len(), input.len());
        let mut want = input;
        want.sort_by_key(|r| r.0);
        let got_payloads: Vec<&[u8]> = got.iter().map(|(_, g)| g.payload.as_slice()).collect();
        let want_payloads: Vec<&[u8]> = want.iter().map(|(_, g)| g.payload.as_slice()).collect();
        assert_eq!(got_payloads, want_payloads, "stable, lossless recovery");
    }

    // -----------------------------------------------------------------
    // Spill-I/O backends: read-ahead fan-in, failure injection.
    // -----------------------------------------------------------------

    fn batched_cfg(budget: usize) -> StreamConfig {
        StreamConfig {
            spill_io: SpillIoMode::Batched,
            ..tiny_cfg(budget)
        }
    }

    /// Drains the stream [`StreamSorter::finish`] returns, but with
    /// `read_bytes` of read buffering split across the runs instead of
    /// [`MERGE_READ_BUFFER_BYTES`].
    fn merge_with_read_budget<V: SpillValue>(
        sorter: StreamSorter<u32, V>,
        read_bytes: usize,
    ) -> io::Result<Vec<(u32, V)>> {
        let remaining = sorter.len();
        let (merge, _) = sorter.core.into_merge(read_bytes)?;
        let stream = SortedStream { merge, remaining };
        Ok(stream.collect())
    }

    #[test]
    fn below_floor_merge_reads_synchronously_and_counts_it() {
        // A per-run share of the read budget under the 4 KiB floor turns
        // the read-ahead off even on a handle that reads ahead: the feeds
        // decode inline, the fallback is counted, and every run still
        // merges exactly.
        let _obs = obs::scoped_enable();
        let rng = Rng::new(23);
        let input: Vec<(u32, u32)> = (0..40_000usize)
            .map(|i| (rng.ith_in(i as u64, 5_000) as u32, i as u32))
            .collect();
        let mut want = input.clone();
        want.sort_by_key(|r| r.0);
        let mut sorter: StreamSorter<u32, u32> = pinned_sorter(tiny_cfg(32 << 10), true);
        for chunk in input.chunks(997) {
            sorter.push(chunk).unwrap();
        }
        sorter.flush_spills().unwrap();
        let runs = sorter.stats().spilled_runs;
        assert!(runs > 2, "got {runs} runs");
        let read_bytes = runs * (MIN_PREFETCH_RUN_BUDGET - 1);
        assert!(per_run_reader_budget(read_bytes, runs) < MIN_PREFETCH_RUN_BUDGET);
        let disabled = || obs::global().snapshot().counter("prefetch.disabled_merges");
        let before = disabled();
        let got = merge_with_read_budget(sorter, read_bytes).unwrap();
        assert!(disabled() > before, "the below-floor merge must be counted");
        assert_eq!(got, want);
    }

    #[test]
    fn read_ahead_runs_past_the_queue_depth_on_both_backends() {
        // One worker, two queue slots, many more runs: read-ahead stays on
        // (feeds past the depth decode inline on the merge thread instead
        // of being capped off) and the output is the std stable sort.
        let rng = Rng::new(51);
        let input: Vec<(u32, u32)> = (0..50_000usize)
            .map(|i| (rng.ith(i as u64) as u32, i as u32))
            .collect();
        let mut want = input.clone();
        want.sort_by_key(|r| r.0);
        for spill_io in [SpillIoMode::Blocking, SpillIoMode::Batched] {
            let io = SpillIoHandle::new(spill_io, 1, 2).reading_ahead(true);
            let mut sorter: StreamSorter<u32, u32> =
                StreamSorter::with_config_and_io(tiny_cfg(32 << 10), io);
            for chunk in input.chunks(997) {
                sorter.push(chunk).unwrap();
            }
            sorter.flush_spills().unwrap();
            let runs = sorter.stats().spilled_runs;
            assert!(runs > 2, "{spill_io:?}");
            assert!(
                per_run_reader_budget(MERGE_READ_BUFFER_BYTES, runs) >= MIN_PREFETCH_RUN_BUDGET,
                "{spill_io:?}: the merge must read ahead"
            );
            let got: Vec<(u32, u32)> = sorter.finish().unwrap().collect();
            assert_eq!(got, want, "{spill_io:?}");
        }
    }

    #[test]
    fn batched_short_write_surfaces_on_push_and_loses_no_records() {
        // An injected short write (the full-disk shape) under the batched
        // backend: the failing spill surfaces on a push, the run's records
        // are reclaimed, and the final merge loses nothing.
        let io = SpillIoHandle::batched(2, 8).reading_ahead(false);
        let mut sorter: StreamSorter<u64, u64> =
            StreamSorter::with_config_and_io(batched_cfg(16 << 10), io.clone());
        let capacity = sorter.core.run_capacity;
        let run_bytes = (capacity * 16) as u64; // flat: 8B key + 8B value
        io.inject_write_failure_after(run_bytes + run_bytes / 2);
        let n = 4 * capacity;
        let input: Vec<(u64, u64)> = (0..n as u64).map(|i| (i % 101, i)).collect();
        let mut saw_error = false;
        for &(k, v) in &input {
            if let Err(e) = sorter.push_record(k, v) {
                assert!(e.to_string().contains("injected"), "unexpected: {e}");
                saw_error = true;
            }
        }
        assert!(saw_error, "the fused write must surface on a push");
        assert_eq!(
            sorter.stats().records_pushed,
            sorter.len() as u64,
            "every accepted record stays owned and counted"
        );
        // The fuse stays blown, so later retries keep failing — but the
        // merge reads the durable run and serves the reclaimed ones from
        // memory: zero loss.
        let got = sorter.finish_vec().unwrap();
        let mut want = input;
        want.sort_by_key(|r| r.0);
        assert_eq!(got, want, "stable, lossless recovery after short write");
    }

    #[test]
    fn failed_sync_retry_names_the_run_the_writer_failed_on() {
        // Regression: a synchronous write named its file and errors by its
        // own counter, which starts at 0, so the synchronous retry of the
        // engine's run k reported run 0.  Run 0 is written; the fuse fails
        // the pipelined write of run 1 and stays armed, so the synchronous
        // retry of run 1 fails too — and both errors must name run 1.
        let cfg = batched_cfg(16 << 10);
        let io = SpillIoHandle::batched(2, 8);
        let mut sorter: StreamSorter<u64, u64> = StreamSorter::with_config_and_io(cfg, io.clone());
        let capacity = sorter.core.run_capacity;
        let run_bytes = (capacity * 16) as u64; // flat: 8B key + 8B value
        io.inject_write_failure_after(run_bytes + run_bytes / 2);
        let mut errors = Vec::new();
        for i in 0..8 * capacity as u64 {
            if let Err(e) = sorter.push_record(i % 101, i) {
                errors.push(e);
                if errors.len() == 2 {
                    break;
                }
            }
        }
        assert_eq!(errors.len(), 2, "a writer failure, then a failed retry");
        assert_eq!(sorter.core.runs.len(), 1, "only run 0 is durable");
        for e in &errors {
            let spill = crate::SpillError::from_io(e).expect("typed spill error");
            assert_eq!(spill.run_index, 1, "{e}");
        }
    }

    #[test]
    fn probation_reenables_pipelining_after_clean_sync_spills() {
        // A writer failure no longer demotes the sorter to synchronous
        // spilling forever: after `PROBATION_SPILLS` clean synchronous
        // spills the pipeline restarts, and `degraded_syncs` stops
        // growing — the observable signature of a served probation.
        let cfg = batched_cfg(16 << 10);
        let io = SpillIoHandle::batched(2, 8);
        let mut sorter: StreamSorter<u64, u64> = StreamSorter::with_config_and_io(cfg, io.clone());
        let capacity = sorter.core.run_capacity;
        let run_bytes = (capacity * 16) as u64; // flat: 8B key + 8B value
        io.inject_write_failure_after(run_bytes + run_bytes / 2);
        let n = 24 * capacity;
        let input: Vec<(u64, u64)> = (0..n as u64).map(|i| (i % 101, i)).collect();
        let mut saw_error = false;
        for &(k, v) in &input {
            match sorter.push_record(k, v) {
                Ok(()) => {}
                Err(e) => {
                    assert!(e.to_string().contains("injected"), "unexpected: {e}");
                    assert!(sorter.core.degraded.is_some(), "probation engaged");
                    saw_error = true;
                    // Heal the disk: the fault was transient after all.
                    io.clear_write_failures();
                }
            }
        }
        assert!(saw_error, "the fused write must surface on a push");
        let probation = u64::from(crate::PROBATION_SPILLS);
        assert_eq!(
            sorter.stats().degraded_syncs,
            probation,
            "probation served exactly once, then degraded counting stopped"
        );
        assert!(sorter.core.degraded.is_none(), "probation lifted");
        assert!(
            sorter.core.pipeline.is_some(),
            "pipelining resumed after probation"
        );
        let got = sorter.finish_vec().unwrap();
        let mut want = input;
        want.sort_by_key(|r| r.0);
        assert_eq!(got, want, "lossless through failure, probation, resume");
    }

    #[test]
    fn batched_writer_panic_surfaces_as_error_and_loses_no_records() {
        // The Grenade detonates inside the spill-writer thread while it is
        // streaming into the batched backend: same error contract as the
        // blocking run of this scenario above.
        let mut sorter: StreamSorter<u64, Grenade> = pinned_sorter(batched_cfg(16 << 10), true);
        let capacity = sorter.core.run_capacity;
        let fuse = Arc::new(AtomicI64::new(capacity as i64 + (capacity / 2) as i64));
        let n = 6 * capacity;
        let mut input: Vec<(u64, Grenade)> = Vec::new();
        let mut saw_error = false;
        for i in 0..n as u64 {
            let record = (i % 89, Grenade::new(&fuse, i));
            input.push(record.clone());
            match sorter.push_record(record.0, record.1) {
                Ok(()) => {}
                Err(e) => {
                    assert!(e.to_string().contains("panicked"), "unexpected error: {e}");
                    assert_eq!(sorter.core.in_flight_records, 0);
                    assert!(sorter.core.degraded.is_some(), "probation engaged");
                    saw_error = true;
                }
            }
        }
        assert!(saw_error, "the writer panic must surface on a push");
        let got = sorter.finish_vec().unwrap();
        assert_eq!(got.len(), input.len());
        let mut want = input;
        want.sort_by_key(|r| r.0);
        let got_payloads: Vec<&[u8]> = got.iter().map(|(_, g)| g.payload.as_slice()).collect();
        let want_payloads: Vec<&[u8]> = want.iter().map(|(_, g)| g.payload.as_slice()).collect();
        assert_eq!(got_payloads, want_payloads, "stable, lossless recovery");
    }

    #[test]
    fn batched_deltalz_merge_survives_fan_in_above_the_worker_count() {
        // Regression for a pool deadlock: decode tasks run on the same
        // bounded workers as the batched preads they wait on, and with a
        // merge read buffer this tight every DeltaLz block decode spans
        // several read chunks, so each task needs preads submitted
        // mid-task.  With fan-in above the worker count, every worker
        // could once block on a queued pread no worker was free to run —
        // the claimable-pread discipline must service them inline and
        // finish the merge.  The blocking backend's decode tasks share the
        // pool too, so both backends must finish.
        let rng = Rng::new(87);
        let input: Vec<(u32, u32)> = (0..30_000usize)
            .map(|i| (rng.ith(i as u64) as u32, i as u32))
            .collect();
        let mut want = input.clone();
        want.sort_by_key(|r| r.0);
        let read_bytes = 128 << 10;
        for spill_io in [SpillIoMode::Batched, SpillIoMode::Blocking] {
            let cfg = StreamConfig {
                spill_io,
                spill_compression: dtsort::SpillCompression::DeltaLz,
                ..tiny_cfg(32 << 10)
            };
            let mut sorter: StreamSorter<u32, u32> = pinned_sorter(cfg, true);
            for chunk in input.chunks(997) {
                sorter.push(chunk).unwrap();
            }
            sorter.flush_spills().unwrap();
            let runs = sorter.stats().spilled_runs;
            assert!(
                runs > 2,
                "the deadlock regime needs fan-in above the 2 workers, got {runs} [{spill_io:?}]"
            );
            assert!(
                per_run_reader_budget(read_bytes, runs) >= MIN_PREFETCH_RUN_BUDGET,
                "the deadlock regime needs engaged read-ahead [{spill_io:?}]"
            );
            let got = merge_with_read_budget(sorter, read_bytes).unwrap();
            assert_eq!(got, want, "{spill_io:?}");
        }
    }

    #[test]
    fn batched_merge_surfaces_a_corrupted_block_checksum() {
        // Bit rot between spill and merge, read back through the batched
        // feeds: the block CRC must turn it into an error, never silently
        // wrong output.
        let cfg = StreamConfig {
            spill_compression: dtsort::SpillCompression::DeltaLz,
            ..batched_cfg(32 << 10)
        };
        let mut sorter: StreamSorter<u32, u32> = pinned_sorter(cfg, true);
        let batch: Vec<(u32, u32)> = (0..30_000u32).map(|i| (i.rotate_left(13), i)).collect();
        sorter.push(&batch).unwrap();
        sorter.flush_spills().unwrap();
        assert!(sorter.stats().spilled_runs > 0);
        flip_last_byte(&sorter.core.runs[0]);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sorter.finish().map(|s| s.count())
        }));
        let message = match outcome {
            Ok(Ok(_)) => panic!("corrupted run must not merge cleanly"),
            Ok(Err(e)) => e.to_string(),
            Err(panic) => panic
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic".to_string()),
        };
        assert!(
            message.contains("checksum"),
            "corruption must be named a checksum failure, got: {message}"
        );

        // The same bit rot in a later block of a multi-block run, read once
        // the merge is under way (read-ahead off: the inline feeds decode a
        // sixth of each run's share per block, so with five runs the first
        // block primes the cursor and the bad one is decoded mid-merge).
        // `finish_vec` returns it as `Err`, for the sorter, the group-by
        // and the string-keyed sorter alike.
        let cfg = StreamConfig {
            spill_compression: dtsort::SpillCompression::DeltaLz,
            ..batched_cfg(1 << 20)
        };
        let keys = || (0..240_000u32).map(|i| i.rotate_left(13));
        let io = || SpillIoHandle::from_config(&cfg).reading_ahead(false);
        let sorter = || {
            let mut sorter: StreamSorter<u32, u32> =
                StreamSorter::with_config_and_io(cfg.clone(), io());
            for k in keys() {
                sorter.push_record(k, k).unwrap();
            }
            sorter.flush_spills().unwrap();
            assert!(sorter.core.runs.len() >= 5, "{:?}", sorter.stats());
            flip_last_byte(&sorter.core.runs[0]);
            sorter
        };
        assert!(
            sorter().finish().is_ok(),
            "sorter: primed before the bad block"
        );
        assert_checksum_err(sorter().finish_vec(), "sorter");

        let group_by = || {
            let mut gb: StreamGroupBy<u32, CountAgg> =
                StreamGroupBy::with_config_and_io(CountAgg, cfg.clone(), io());
            for k in keys() {
                gb.push_record(k, ()).unwrap();
            }
            gb.flush_spills().unwrap();
            assert!(gb.core.runs.len() >= 5, "{:?}", gb.stats());
            flip_last_byte(&gb.core.runs[0]);
            gb
        };
        assert!(
            group_by().finish().is_ok(),
            "group-by: primed before the bad block"
        );
        assert_checksum_err(group_by().finish_vec(), "group-by");

        let strings = || {
            let mut sorter: StringStreamSorter<String, u32> =
                StringStreamSorter::with_config_and_io(cfg.clone(), io());
            for k in keys() {
                sorter.push_record(format!("{k:08x}"), k).unwrap();
            }
            sorter.flush_spills().unwrap();
            let runs = &sorter.inner.core.runs;
            assert!(runs.len() >= 5, "{:?}", sorter.stats());
            flip_last_byte(&runs[0]);
            sorter
        };
        assert!(
            strings().finish().is_ok(),
            "strings: primed before the bad block"
        );
        assert_checksum_err(strings().finish_vec(), "string sorter");
    }

    #[test]
    fn a_corrupted_first_block_fails_finish_on_either_read_path() {
        // A decode error in a run's first block is met while the merge
        // primes its cursors, so `finish()` itself returns it, and so does
        // `finish_vec`: for the sorter and the group-by, with the feeds
        // decoding ahead on the pool or inline.  Run 1 is corrupted, so
        // every run before and after it is primed too.
        let cfg = StreamConfig {
            spill_compression: dtsort::SpillCompression::DeltaLz,
            ..tiny_cfg(64 << 10)
        };
        let keys = || (0..20_000u32).map(|i| i.rotate_left(13));
        for read_ahead in [false, true] {
            let io = || SpillIoHandle::from_config(&cfg).reading_ahead(read_ahead);
            let sorter = || {
                let mut sorter: StreamSorter<u32, u32> =
                    StreamSorter::with_config_and_io(cfg.clone(), io());
                for k in keys() {
                    sorter.push_record(k, k).unwrap();
                }
                sorter.flush_spills().unwrap();
                assert!(sorter.core.runs.len() > 2, "{:?}", sorter.stats());
                flip_byte(&sorter.core.runs[1], |_| FIRST_BLOCK_KEY_BYTE);
                sorter
            };
            let ctx = format!("sorter, read-ahead {read_ahead}");
            assert_checksum_err(sorter().finish().map(drop), &ctx);
            assert_checksum_err(sorter().finish_vec(), &ctx);

            let group_by = || {
                let mut gb: StreamGroupBy<u32, CountAgg> =
                    StreamGroupBy::with_config_and_io(CountAgg, cfg.clone(), io());
                for k in keys() {
                    gb.push_record(k, ()).unwrap();
                }
                gb.flush_spills().unwrap();
                assert!(gb.core.runs.len() > 2, "{:?}", gb.stats());
                flip_byte(&gb.core.runs[1], |_| FIRST_BLOCK_KEY_BYTE);
                gb
            };
            let ctx = format!("group-by, read-ahead {read_ahead}");
            assert_checksum_err(group_by().finish().map(drop), &ctx);
            assert_checksum_err(group_by().finish_vec(), &ctx);
        }
    }

    /// A byte of a compressed run's first block key stream, just past the
    /// block's 21-byte header.
    const FIRST_BLOCK_KEY_BYTE: usize = 22;

    /// Asserts that `result` is the `InvalidData` error of a failed block
    /// checksum.
    fn assert_checksum_err<T>(result: io::Result<T>, what: &str) {
        let Err(err) = result else {
            panic!("{what}: a corrupted run must not merge cleanly");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        assert!(err.to_string().contains("checksum"), "{what}: {err}");
    }

    /// Flips a bit of byte `at(len)` of `run`'s `len`-byte file.
    fn flip_byte(run: &SpilledRun, at: fn(usize) -> usize) {
        let mut bytes = std::fs::read(&run.path).unwrap();
        let i = at(bytes.len());
        bytes[i] ^= 0x40;
        std::fs::write(&run.path, &bytes).unwrap();
    }

    /// Flips a bit of `run`'s last byte, which lies in its last block.
    fn flip_last_byte(run: &SpilledRun) {
        flip_byte(run, |len| len - 1);
    }

    #[test]
    fn streaming_merge_absorbs_one_mid_run_transient_read() {
        // Regression: only opening a run was retried, so one transient
        // read failure after the cursors were primed panicked the streaming
        // merge.  The reader now reopens the run and skips what it served.
        let rng = Rng::new(61);
        let input: Vec<(u32, u32)> = (0..120_000usize)
            .map(|i| (rng.ith(i as u64) as u32, i as u32))
            .collect();
        let mut want = input.clone();
        want.sort_by_key(|r| r.0);
        // Two spilled runs of about 40k records, each read a window (flat)
        // or a block's three sections (compressed) per call.  A clean pass
        // counts the merge's reads; the fault lands at half of them, so
        // mid-run in both runs (their uniform keys interleave) and well
        // past the reads that prime the cursors.
        for compression in [
            dtsort::SpillCompression::Off,
            dtsort::SpillCompression::DeltaLz,
        ] {
            for read_ahead in [false, true] {
                let ctx = format!("{compression:?}, read-ahead {read_ahead}");
                let merge = |plan: &FaultPlan| {
                    let io = SpillIoHandle::blocking()
                        .with_faults(plan.clone())
                        .reading_ahead(read_ahead);
                    let cfg = StreamConfig {
                        spill_compression: compression,
                        ..tiny_cfg(1 << 20)
                    };
                    let mut sorter: StreamSorter<u32, u32> =
                        StreamSorter::with_config_and_io(cfg, io);
                    for chunk in input.chunks(4096) {
                        sorter.push(chunk).unwrap();
                    }
                    sorter.flush_spills().unwrap();
                    let runs = sorter.stats().spilled_runs;
                    assert_eq!(runs, 2, "{ctx}");
                    assert!(
                        sorter.core.runs[0].len > crate::spill::BLOCK_MAX_RECORDS,
                        "{ctx}"
                    );
                    merge_with_read_budget(sorter, runs * (8 << 10)).unwrap()
                };
                let counter = FaultPlan::nth(FaultKind::ReadTransient, u64::MAX);
                assert_eq!(merge(&counter), want, "{ctx}");
                let reads = counter.operations(FaultKind::ReadTransient);
                let n = reads / 2;
                // Priming takes at most one block, three reads, per run.
                assert!(n > 3 * 2, "{ctx}: {reads} reads leave no mid-run read");
                let plan = FaultPlan::nth(FaultKind::ReadTransient, n);
                let got = merge(&plan);
                assert_eq!(got, want, "{ctx}");
                assert_eq!(plan.injected(), 1, "{ctx}");
            }
        }
    }
}
