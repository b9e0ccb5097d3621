//! Streaming group-by: bounded-memory aggregation over pushed records.
//!
//! [`StreamGroupBy`] is the group-by counterpart of [`crate::StreamSorter`]
//! and the streaming face of the `semisort` engine.  Where the sorter
//! spills every *record* of a run, the group-by **aggregates each run
//! before spilling**: a full buffer is semisorted (heavy duplicate keys
//! collapse into dedicated buckets in one pass), each group is folded into
//! one `(key, partial-aggregate)` record, and only those partials — one per
//! distinct key per run — reach disk.  A key that dominates the stream
//! therefore costs one spilled record per run no matter how many million
//! occurrences it has: heavy-key streams never materialize their
//! duplicates.
//!
//! At read time the per-run partials (each run spilled sorted by key) are
//! k-way merged with a loser tree and equal-key partials are combined on
//! the fly, so the output is one `(key, aggregate)` pair per distinct key,
//! in increasing key order, produced with a footprint bounded by the read
//! buffers.
//!
//! Accumulators may be variable-length ([`crate::VarValue`]: `String`,
//! `Vec<u8>`, `Box<[u8]>`) as well as fixed-size pods; the semisort always
//! runs over `(key, index)` tags, so owned payloads are moved, never
//! copied, through the grouping pass.
//!
//! ```
//! use stream::{CountAgg, StreamGroupBy};
//! use dtsort::StreamConfig;
//!
//! // A tiny budget forces several aggregated runs.
//! let mut gb: StreamGroupBy<u32, CountAgg> =
//!     StreamGroupBy::with_config(CountAgg, StreamConfig::with_memory_budget(16 << 10));
//! for i in 0..30_000u32 {
//!     gb.push_record(i % 100, ()).unwrap();
//! }
//! let counts: Vec<(u32, u64)> = gb.finish().unwrap().collect();
//! assert_eq!(counts.len(), 100);
//! assert!(counts.iter().all(|&(_, c)| c == 300));
//! assert!(counts.windows(2).all(|w| w[0].0 < w[1].0), "key-ordered output");
//! ```

use crate::sorter::MERGE_READ_BUFFER_BYTES;
use crate::spill::SpillValue;
use crate::spiller::{or_panic, RunBuilder, RunMerge, Spiller};
use crate::spillio::SpillIoHandle;
use dtsort::{IntegerKey, StreamConfig};
use semisort::semisort_pairs_with;
use std::io;
use std::marker::PhantomData;

/// A streaming aggregation: how one value becomes a partial aggregate, and
/// how two partial aggregates merge.
///
/// `combine` must be associative; partials are combined in push order, so
/// commutativity is not required.  The accumulator is spilled to disk
/// between runs, hence the [`SpillValue`] bound (fixed-size pods and
/// variable-length `String` / `Vec<u8>` / `Box<[u8]>` all qualify).
pub trait Aggregator: Send + Sync {
    /// The pushed value type.  The [`SpillValue`] bound exists so the
    /// group-by can meter buffered variable-length payload *bytes* (not
    /// just record count) and spill early, like the streaming sorter.
    type Input: SpillValue;
    /// The partial-aggregate type (spilled to disk between runs).
    type Acc: SpillValue;
    /// Lifts one value into a partial aggregate.
    fn lift(&self, v: Self::Input) -> Self::Acc;
    /// Merges two partial aggregates (earlier-pushed partial first).
    fn combine(&self, a: Self::Acc, b: Self::Acc) -> Self::Acc;
}

/// Counts records per key.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountAgg;

impl Aggregator for CountAgg {
    type Input = ();
    type Acc = u64;
    fn lift(&self, _: ()) -> u64 {
        1
    }
    fn combine(&self, a: u64, b: u64) -> u64 {
        a + b
    }
}

/// Sums `u64` values per key.
#[derive(Debug, Clone, Copy, Default)]
pub struct SumAgg;

impl Aggregator for SumAgg {
    type Input = u64;
    type Acc = u64;
    fn lift(&self, v: u64) -> u64 {
        v
    }
    fn combine(&self, a: u64, b: u64) -> u64 {
        a + b
    }
}

/// Minimum `u64` value per key.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinAgg;

impl Aggregator for MinAgg {
    type Input = u64;
    type Acc = u64;
    fn lift(&self, v: u64) -> u64 {
        v
    }
    fn combine(&self, a: u64, b: u64) -> u64 {
        a.min(b)
    }
}

/// Maximum `u64` value per key.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxAgg;

impl Aggregator for MaxAgg {
    type Input = u64;
    type Acc = u64;
    fn lift(&self, v: u64) -> u64 {
        v
    }
    fn combine(&self, a: u64, b: u64) -> u64 {
        a.max(b)
    }
}

/// Keeps the *first* value pushed for each key (streaming dedup).
///
/// Works for any spillable value type, including variable-length payloads:
/// `FirstAgg<String>` turns the group-by into a bounded-memory
/// first-payload-per-key dedup.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstAgg<V>(PhantomData<fn() -> V>);

impl<V> FirstAgg<V> {
    pub fn new() -> Self {
        Self(PhantomData)
    }
}

impl<V: SpillValue> Aggregator for FirstAgg<V> {
    type Input = V;
    type Acc = V;
    fn lift(&self, v: V) -> V {
        v
    }
    fn combine(&self, a: V, _b: V) -> V {
        a
    }
}

/// Concatenates `Vec<u8>` payloads per key, in push order.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConcatAgg;

impl Aggregator for ConcatAgg {
    type Input = Vec<u8>;
    type Acc = Vec<u8>;
    fn lift(&self, v: Vec<u8>) -> Vec<u8> {
        v
    }
    fn combine(&self, mut a: Vec<u8>, b: Vec<u8>) -> Vec<u8> {
        a.extend_from_slice(&b);
        a
    }
}

/// A custom fold built from two closures: `lift` turns a value into a
/// partial aggregate, `combine` merges two partials.
pub struct FoldAgg<I, A, L, C> {
    lift: L,
    combine: C,
    _marker: PhantomData<fn(I) -> A>,
}

impl<I, A, L, C> FoldAgg<I, A, L, C>
where
    I: SpillValue,
    A: SpillValue,
    L: Fn(I) -> A + Send + Sync,
    C: Fn(A, A) -> A + Send + Sync,
{
    /// Builds the aggregator; `combine` must be associative.
    pub fn new(lift: L, combine: C) -> Self {
        Self {
            lift,
            combine,
            _marker: PhantomData,
        }
    }
}

impl<I, A, L, C> Aggregator for FoldAgg<I, A, L, C>
where
    I: SpillValue,
    A: SpillValue,
    L: Fn(I) -> A + Send + Sync,
    C: Fn(A, A) -> A + Send + Sync,
{
    type Input = I;
    type Acc = A;
    fn lift(&self, v: I) -> A {
        (self.lift)(v)
    }
    fn combine(&self, a: A, b: A) -> A {
        (self.combine)(a, b)
    }
}

/// Counters describing what a [`StreamGroupBy`] did.
///
/// `records_pushed` and `partial_aggregates` are always exact.  With
/// pipelined spilling, `spilled_runs` / `spilled_bytes` count only runs
/// *confirmed durable*, reconciled lazily at each `push`; [`is_settled`]
/// reports whether that lag currently exists, and
/// [`StreamGroupBy::flush_spills`] drains it.
///
/// [`is_settled`]: GroupByStats::is_settled
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupByStats {
    /// Records accepted by `push` / `push_record` so far.  Counted per
    /// accepted chunk, so a failed spill mid-push leaves every record the
    /// group-by still owns counted.
    pub records_pushed: u64,
    /// Aggregated runs spilled to disk so far.
    pub spilled_runs: usize,
    /// Bytes of partial aggregates written to spill files so far (on-disk,
    /// post-compression).
    pub spilled_bytes: u64,
    /// Bytes the same runs would have occupied in the uncompressed (flat)
    /// spill encoding; see
    /// [`crate::StreamStats::spilled_raw_bytes`].
    pub spilled_raw_bytes: u64,
    /// Partial-aggregate records produced so far (spilled runs + tail);
    /// `records_pushed − partial_aggregates` records were collapsed before
    /// ever reaching disk.
    pub partial_aggregates: u64,
    /// Transient spill-write failures retried (and eventually succeeded);
    /// see [`crate::StreamStats::spill_retries`].
    pub spill_retries: u64,
    /// Runs spilled synchronously while pipelining was on probation after
    /// a writer failure; see [`crate::StreamStats::degraded_syncs`].
    pub degraded_syncs: u64,
    /// Whether the spill counters are exact right now: `false` while
    /// aggregated runs are in flight to the background spill writer,
    /// `true` once reconciliation has caught up;
    /// [`StreamGroupBy::flush_spills`] forces it back to `true`.
    pub is_settled: bool,
}

impl Default for GroupByStats {
    fn default() -> Self {
        Self {
            records_pushed: 0,
            spilled_runs: 0,
            spilled_bytes: 0,
            spilled_raw_bytes: 0,
            partial_aggregates: 0,
            spill_retries: 0,
            degraded_syncs: 0,
            // Nothing in flight before the first pipelined spill.
            is_settled: true,
        }
    }
}

/// Bounded-memory streaming group-by over pushed `(key, value)` records.
///
/// See the module docs for the design; in short: buffer → semisort
/// → fold per group → spill one partial per distinct key → merge-combine
/// partials at read time.
pub struct StreamGroupBy<K: IntegerKey, G: Aggregator> {
    pub(crate) core: Spiller<AggRuns<K, G>>,
}

/// The group-by's half of the spill lifecycle: a full buffer becomes a run
/// of one partial aggregate per distinct key.
pub(crate) struct AggRuns<K, G> {
    agg: G,
    /// Runs aggregated so far (labels the `aggregate_run` trace spans).
    runs_aggregated: usize,
    _key: PhantomData<fn() -> K>,
}

impl<K: IntegerKey, G: Aggregator> RunBuilder for AggRuns<K, G> {
    type Key = K;
    type Value = G::Input;
    type RunKey = u64;
    type RunValue = G::Acc;
    type Stats = GroupByStats;
    const FILE_STEM: &'static str = "agg";

    // Peak transient footprint per buffered record: the pushed record
    // itself, plus the `(key, index)` tag pair the semisort moves (and the
    // scratch copy of it the semisort engine allocates), plus the lifted
    // accumulator slot.  Sizing the run from that sum (not just the input
    // record) keeps aggregation within the configured budget.
    // Variable-length payloads count their inline struct size only (see
    // `StreamConfig`).  A run in flight to the writer adds one `(u64, Acc)`
    // partial per buffered record (see `spiller::run_capacity`).
    const BUILD_BYTES: usize = std::mem::size_of::<(K, G::Input)>()
        + 2 * std::mem::size_of::<(u64, u64)>()
        + std::mem::size_of::<Option<G::Acc>>();

    /// Semisorts the buffer and folds each group into one partial
    /// aggregate, returned sorted by (ordered) key.
    ///
    /// The semisort moves only `(ordered key, index)` tags; lifted
    /// accumulators sit in index-addressed slots and are *moved* into the
    /// fold, so variable-length accumulators are never copied here.
    fn build_run(
        &mut self,
        cfg: &StreamConfig,
        _run_capacity: usize,
        buffer: &mut Vec<(K, G::Input)>,
        mut out: Vec<(u64, G::Acc)>,
        stats: &mut GroupByStats,
    ) -> Vec<(u64, G::Acc)> {
        let traced = obs::enabled() && !buffer.is_empty();
        let start = traced.then(std::time::Instant::now);
        let _span = traced.then(|| obs::span!("aggregate_run", run = self.runs_aggregated));
        if !buffer.is_empty() {
            self.runs_aggregated += 1;
        }
        let agg = &self.agg;
        let mut tags: Vec<(u64, u64)> = Vec::with_capacity(buffer.len());
        let mut accs: Vec<Option<G::Acc>> = Vec::with_capacity(buffer.len());
        for (i, (k, v)) in buffer.drain(..).enumerate() {
            tags.push((k.to_ordered_u64(), i as u64));
            accs.push(Some(agg.lift(v)));
        }
        let mut groups = semisort_pairs_with(&mut tags, &cfg.sort);
        // Runs must be spilled sorted by key for the k-way merge; only the
        // distinct keys of the run are sorted, not its records.
        dtsort::sort_by_key(&mut groups, |g| g.key);
        for g in &groups {
            let group_tags = &tags[g.start..g.end];
            // An ordered-`u64` key need not be injective: a string key's
            // 8-byte prefix collides for keys sharing their first 8 bytes.
            // Accumulators that embed the full key
            // ([`SpillValue::spill_embedded_key`]) are therefore
            // sub-grouped by those bytes before folding; plain integer
            // keys (no embedded key) fold the whole group at once.
            let has_embedded = accs[group_tags[0].1 as usize]
                .as_ref()
                .expect("slot folded once")
                .spill_embedded_key()
                .is_some();
            if !has_embedded {
                let mut tag_iter = group_tags.iter();
                let first = tag_iter.next().expect("groups are never empty");
                let mut acc = accs[first.1 as usize].take().expect("slot folded once");
                for &(_, idx) in tag_iter {
                    // Tags keep push order within a group (stable
                    // semisort), so partials combine in push order.
                    acc = agg.combine(acc, accs[idx as usize].take().expect("slot folded once"));
                }
                out.push((g.key, acc));
                continue;
            }
            // Stable sort by embedded key: sub-groups come out in the
            // order the merge's tie-break expects, and push order is kept
            // within each sub-group.
            fn embedded_of<A: SpillValue>(accs: &[Option<A>], i: u64) -> &[u8] {
                accs[i as usize]
                    .as_ref()
                    .expect("slot folded once")
                    .spill_embedded_key()
                    .unwrap_or(&[])
            }
            let mut idxs: Vec<u64> = group_tags.iter().map(|&(_, i)| i).collect();
            idxs.sort_by(|&a, &b| embedded_of(&accs, a).cmp(embedded_of(&accs, b)));
            let mut s = 0usize;
            while s < idxs.len() {
                let mut e = s + 1;
                while e < idxs.len() && embedded_of(&accs, idxs[e]) == embedded_of(&accs, idxs[s]) {
                    e += 1;
                }
                let mut acc = accs[idxs[s] as usize].take().expect("slot folded once");
                for &idx in &idxs[s + 1..e] {
                    acc = agg.combine(acc, accs[idx as usize].take().expect("slot folded once"));
                }
                out.push((g.key, acc));
                s = e;
            }
        }
        stats.partial_aggregates += out.len() as u64;
        if let Some(start) = start {
            let metrics = crate::metrics::m();
            metrics.gb_aggregate_ns.record_duration(start.elapsed());
            metrics.gb_partial_aggregates.add(out.len() as u64);
        }
        out
    }
}

impl<K: IntegerKey, G: Aggregator> StreamGroupBy<K, G> {
    /// Group-by with the default [`StreamConfig`] (256 MiB budget).
    pub fn new(agg: G) -> Self {
        Self::with_config(agg, StreamConfig::default())
    }

    pub fn with_config(agg: G, cfg: StreamConfig) -> Self {
        let io = SpillIoHandle::from_config(&cfg);
        Self::with_config_and_io(agg, cfg, io)
    }

    /// Like [`StreamGroupBy::with_config`], but spilling through a
    /// caller-provided I/O backend — this is how a multi-session server
    /// shares one batched worker pool across every engine.
    pub fn with_config_and_io(agg: G, cfg: StreamConfig, io: SpillIoHandle) -> Self {
        let builder = AggRuns {
            agg,
            runs_aggregated: 0,
            _key: PhantomData,
        };
        Self {
            core: Spiller::new(cfg, io, builder),
        }
    }

    /// Applies the current budget grant immediately: re-reads the
    /// (possibly shrunk) [`dtsort::BudgetHandle`] and aggregates + spills
    /// the buffered run early if it no longer fits the grant.  `push`
    /// re-checks per chunk anyway; this hook exists for granters (e.g. a
    /// memory governor) reclaiming from a session that is idle between
    /// pushes.
    pub fn shrink_to_budget(&mut self) -> io::Result<()> {
        self.core.shrink_to_budget()
    }

    /// Counters (spills, collapse ratio, ...).
    ///
    /// With pipelined spilling, `spilled_runs` / `spilled_bytes` count runs
    /// confirmed durable, reconciled at every `push`;
    /// [`GroupByStats::is_settled`] tells whether they are exact right
    /// now, and [`StreamGroupBy::flush_spills`] makes them exact.
    pub fn stats(&self) -> &GroupByStats {
        &self.core.stats
    }

    /// Blocks until the aggregated run in flight to the background spill
    /// writer is durable on disk, surfacing any writer-side error.
    /// Afterwards [`StreamGroupBy::stats`] is exact.  A no-op when no run
    /// is in flight.
    pub fn flush_spills(&mut self) -> io::Result<()> {
        self.core.flush_spills()
    }

    /// Number of runs the final merge will see (spilled runs, runs in
    /// flight to the writer, pending runs whose spill write failed, and
    /// the in-memory tail).
    pub fn run_count(&self) -> usize {
        self.core.run_count()
    }

    /// Appends a batch of records, aggregating and spilling full runs.
    pub fn push(&mut self, records: &[(K, G::Input)]) -> io::Result<()> {
        self.core.push(records)
    }

    /// Appends a single record (no clone of the value).
    pub fn push_record(&mut self, key: K, value: G::Input) -> io::Result<()> {
        self.core.push_record(key, value)
    }

    /// Finishes the group-by: merges all per-run partials, combining equal
    /// keys, into a stream of `(key, aggregate)` pairs in increasing key
    /// order (one pair per distinct key of the whole stream).
    ///
    /// A writer-side spill error that has not surfaced on a `push` yet
    /// surfaces here.  Mid-merge reads retry transient failures; a read
    /// error that survives the retries panics the stream (see
    /// [`crate::SortedStream`]), or comes back as `Err` from
    /// [`StreamGroupBy::finish_vec`].
    pub fn finish(self) -> io::Result<GroupedStream<K, G>> {
        let (merge, builder) = self.core.into_merge(MERGE_READ_BUFFER_BYTES)?;
        Ok(GroupedStream {
            merge,
            agg: builder.agg,
            pending: None,
            _key: PhantomData,
        })
    }

    /// [`StreamGroupBy::finish`]'s merge drained into a vector, with a
    /// spill read error that survived the retries returned as `Err`.
    pub fn finish_vec(self) -> io::Result<Vec<(K, G::Acc)>> {
        let mut stream = self.finish()?;
        let mut out = Vec::new();
        while let Some(group) = stream.try_next()? {
            out.push(group);
        }
        Ok(out)
    }
}

/// Streaming output of a [`StreamGroupBy`]: `(key, aggregate)` pairs in
/// increasing key order.  Holds the spill directory alive until dropped.
pub struct GroupedStream<K: IntegerKey, G: Aggregator> {
    merge: RunMerge<G::Acc>,
    agg: G,
    /// The first partial of the *next* key, already popped from the tree.
    pending: Option<(u64, G::Acc)>,
    _key: PhantomData<K>,
}

impl<K: IntegerKey, G: Aggregator> GroupedStream<K, G> {
    /// The next group, or the spill read error that ended a run.
    pub(crate) fn try_next(&mut self) -> io::Result<Option<(K, G::Acc)>> {
        let first = match self.pending.take() {
            Some(partial) => Some(partial),
            None => self.merge.try_pop()?,
        };
        let Some((key, mut acc)) = first else {
            return Ok(None);
        };
        loop {
            match self.merge.try_pop()? {
                // The loser tree yields equal keys in run order, so partials
                // combine in push order.  Accumulators carrying an embedded
                // full key (string-keyed streams, where the ordered `u64`
                // is only an 8-byte prefix) must also agree on those bytes:
                // prefix-colliding keys are distinct groups.
                Some((k, a)) if k == key && a.spill_embedded_key() == acc.spill_embedded_key() => {
                    acc = self.agg.combine(acc, a)
                }
                other => {
                    self.pending = other;
                    break;
                }
            }
        }
        Ok(Some((K::from_ordered_u64(key), acc)))
    }
}

impl<K: IntegerKey, G: Aggregator> Iterator for GroupedStream<K, G> {
    type Item = (K, G::Acc);

    fn next(&mut self) -> Option<(K, G::Acc)> {
        or_panic(self.try_next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlay::random::Rng;
    use std::collections::HashMap;

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

    /// A group-by whose merges read ahead whatever the host, so the
    /// read-ahead merge path runs even on single-CPU machines.
    fn pinned_group_by<K: IntegerKey, G: Aggregator>(
        agg: G,
        cfg: StreamConfig,
    ) -> StreamGroupBy<K, G> {
        let io = SpillIoHandle::from_config(&cfg).reading_ahead(true);
        StreamGroupBy::with_config_and_io(agg, cfg, io)
    }

    #[test]
    fn counts_match_hashmap_across_spilled_runs() {
        let rng = Rng::new(1);
        let n = 40_000usize;
        let keys: Vec<u64> = (0..n).map(|i| rng.ith_in(i as u64, 777)).collect();
        let mut gb: StreamGroupBy<u64, CountAgg> = pinned_group_by(CountAgg, tiny_cfg(16 << 10));
        for chunk in keys.chunks(997) {
            let recs: Vec<(u64, ())> = chunk.iter().map(|&k| (k, ())).collect();
            gb.push(&recs).unwrap();
        }
        assert!(gb.stats().spilled_runs > 2, "stats: {:?}", gb.stats());
        let mut want: HashMap<u64, u64> = HashMap::new();
        for &k in &keys {
            *want.entry(k).or_default() += 1;
        }
        let got = gb.finish_vec().unwrap();
        assert_eq!(got.len(), want.len());
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "key-ordered");
        for &(k, c) in &got {
            assert_eq!(c, want[&k], "key {k}");
        }
    }

    #[test]
    fn heavy_key_stream_never_materializes_duplicates() {
        // 80% of the stream is one key; each run spills at most one partial
        // for it, so the spilled volume collapses.
        let rng = Rng::new(2);
        let n = 60_000usize;
        let mut gb: StreamGroupBy<u32, CountAgg> = pinned_group_by(CountAgg, tiny_cfg(16 << 10));
        for i in 0..n {
            let k = if rng.ith_f64(i as u64) < 0.8 {
                7
            } else {
                rng.ith_in(i as u64, 200) as u32
            };
            gb.push_record(k, ()).unwrap();
        }
        let stats = gb.stats().clone();
        assert!(stats.spilled_runs > 2);
        assert!(
            stats.partial_aggregates < stats.records_pushed / 4,
            "duplicates must collapse before spilling: {stats:?}"
        );
        let got = gb.finish_vec().unwrap();
        let seven = got.iter().find(|&&(k, _)| k == 7).unwrap();
        assert!(seven.1 >= (n as u64) * 7 / 10);
        assert_eq!(got.iter().map(|&(_, c)| c).sum::<u64>(), n as u64);
    }

    #[test]
    fn sum_min_max_aggregations() {
        let rng = Rng::new(3);
        let n = 30_000usize;
        let records: Vec<(u32, u64)> = (0..n)
            .map(|i| {
                (
                    rng.ith_in(i as u64, 50) as u32,
                    rng.fork(9).ith_in(i as u64, 1000),
                )
            })
            .collect();
        let mut want_sum: HashMap<u32, u64> = HashMap::new();
        let mut want_min: HashMap<u32, u64> = HashMap::new();
        let mut want_max: HashMap<u32, u64> = HashMap::new();
        for &(k, v) in &records {
            *want_sum.entry(k).or_default() += v;
            want_min
                .entry(k)
                .and_modify(|m| *m = (*m).min(v))
                .or_insert(v);
            want_max
                .entry(k)
                .and_modify(|m| *m = (*m).max(v))
                .or_insert(v);
        }
        let run = |agg: &dyn Fn() -> Vec<(u32, u64)>| agg();
        let sums = run(&|| {
            let mut gb = pinned_group_by(SumAgg, tiny_cfg(16 << 10));
            gb.push(&records).unwrap();
            gb.finish_vec().unwrap()
        });
        let mins = run(&|| {
            let mut gb = pinned_group_by(MinAgg, tiny_cfg(16 << 10));
            gb.push(&records).unwrap();
            gb.finish_vec().unwrap()
        });
        let maxs = run(&|| {
            let mut gb = pinned_group_by(MaxAgg, tiny_cfg(16 << 10));
            gb.push(&records).unwrap();
            gb.finish_vec().unwrap()
        });
        for &(k, s) in &sums {
            assert_eq!(s, want_sum[&k]);
        }
        for &(k, m) in &mins {
            assert_eq!(m, want_min[&k]);
        }
        for &(k, m) in &maxs {
            assert_eq!(m, want_max[&k]);
        }
    }

    #[test]
    fn custom_fold_aggregator() {
        // Track (count, sum) pairs through a custom fold.
        let agg = FoldAgg::new(
            |v: u64| [1u64, v],
            |a: [u64; 2], b: [u64; 2]| [a[0] + b[0], a[1] + b[1]],
        );
        let mut gb: StreamGroupBy<u64, _> = pinned_group_by(agg, tiny_cfg(16 << 10));
        for i in 0..20_000u64 {
            gb.push_record(i % 10, i).unwrap();
        }
        let got = gb.finish_vec().unwrap();
        assert_eq!(got.len(), 10);
        for &(k, [cnt, sum]) in &got {
            assert_eq!(cnt, 2000);
            // Sum of the arithmetic progression k, k+10, ..., k+19990.
            let want: u64 = (0..2000u64).map(|j| k + 10 * j).sum();
            assert_eq!(sum, want, "key {k}");
        }
    }

    #[test]
    fn signed_keys_and_in_memory_only() {
        let mut gb: StreamGroupBy<i32, CountAgg> = StreamGroupBy::new(CountAgg);
        for &k in &[-5i32, 3, -5, 0, 3, -5] {
            gb.push_record(k, ()).unwrap();
        }
        assert_eq!(gb.stats().spilled_runs, 0);
        let got = gb.finish_vec().unwrap();
        assert_eq!(got, vec![(-5, 3), (0, 1), (3, 2)]);
    }

    #[test]
    fn empty_group_by_stream() {
        let gb: StreamGroupBy<u64, CountAgg> = StreamGroupBy::new(CountAgg);
        assert_eq!(gb.run_count(), 0);
        assert_eq!(gb.finish().unwrap().count(), 0);
    }

    #[test]
    fn first_agg_keeps_first_string_payload_per_key() {
        let rng = Rng::new(4);
        let n = 25_000usize;
        let records: Vec<(u64, String)> = (0..n)
            .map(|i| (rng.ith_in(i as u64, 400), format!("payload-{i}")))
            .collect();
        let mut gb: StreamGroupBy<u64, FirstAgg<String>> =
            pinned_group_by(FirstAgg::new(), tiny_cfg(16 << 10));
        for chunk in records.chunks(997) {
            gb.push(chunk).unwrap();
        }
        assert!(gb.stats().spilled_runs > 2, "stats: {:?}", gb.stats());
        let mut want: HashMap<u64, &str> = HashMap::new();
        for (k, v) in &records {
            want.entry(*k).or_insert(v.as_str());
        }
        let got = gb.finish_vec().unwrap();
        assert_eq!(got.len(), want.len());
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "key-ordered");
        for (k, v) in &got {
            assert_eq!(v, want[k], "key {k}: first payload in push order");
        }
    }

    #[test]
    fn concat_agg_preserves_push_order_across_runs() {
        // Few keys, many records: per-key concatenations grow to multi-KB
        // variable-length accumulators that are spilled and re-merged, and
        // the final bytes must equal the push-order concatenation.
        let n = 9_000usize;
        let records: Vec<(u32, Vec<u8>)> = (0..n)
            .map(|i| ((i % 5) as u32, format!("[{i}]").into_bytes()))
            .collect();
        let mut gb: StreamGroupBy<u32, ConcatAgg> = pinned_group_by(ConcatAgg, tiny_cfg(16 << 10));
        for chunk in records.chunks(613) {
            gb.push(chunk).unwrap();
        }
        assert!(gb.stats().spilled_runs > 1, "stats: {:?}", gb.stats());
        let mut want: HashMap<u32, Vec<u8>> = HashMap::new();
        for (k, v) in &records {
            want.entry(*k).or_default().extend_from_slice(v);
        }
        let got = gb.finish_vec().unwrap();
        assert_eq!(got.len(), 5);
        for (k, v) in &got {
            assert!(v.len() > 1 << 10, "accumulators must grow multi-KB");
            assert_eq!(v, &want[k], "key {k}: push-order concatenation");
        }
    }

    #[test]
    fn pending_partial_from_failed_spill_merges_in_finish() {
        // Simulate a run whose spill *write* failed (ENOSPC-style): the
        // aggregates were stashed in `pending_runs`.  `finish` must
        // merge them from memory, before the current tail.
        let mut gb: StreamGroupBy<u64, SumAgg> = StreamGroupBy::new(SumAgg);
        gb.push(&[(2, 10), (4, 1)]).unwrap();
        gb.core.pending_runs.push_back(vec![(1, 5), (2, 7)]);
        assert_eq!(gb.run_count(), 2, "pending run counts toward the merge");
        let got = gb.finish_vec().unwrap();
        assert_eq!(got, vec![(1, 5), (2, 17), (4, 1)]);
    }

    #[test]
    fn pending_partial_is_retried_by_the_next_push() {
        let mut gb: StreamGroupBy<u64, SumAgg> = pinned_group_by(SumAgg, tiny_cfg(16 << 10));
        gb.core.pending_runs.push_back(vec![(9, 3)]);
        gb.push_record(9, 2).unwrap();
        assert_eq!(
            gb.stats().spilled_runs,
            1,
            "the stashed run must be written to disk by the next push"
        );
        let got = gb.finish_vec().unwrap();
        assert_eq!(got, vec![(9, 5)]);
    }

    #[test]
    fn large_var_inputs_spill_by_bytes_not_record_count() {
        // 120 distinct-keyed records fit the record-count capacity many
        // times over, but their multi-KiB payloads exceed half the budget;
        // the byte tracker must force aggregated spills anyway.
        let mut gb: StreamGroupBy<u64, FirstAgg<String>> =
            pinned_group_by(FirstAgg::new(), tiny_cfg(64 << 10));
        assert!(gb.core.run_capacity > 120, "premise: count would not spill");
        for i in 0..120u64 {
            gb.push_record(i, "q".repeat(2 << 10)).unwrap();
        }
        assert!(
            gb.stats().spilled_runs > 3,
            "payload bytes must trigger spills: {:?}",
            gb.stats()
        );
        let got = gb.finish_vec().unwrap();
        assert_eq!(got.len(), 120);
    }

    #[test]
    fn records_pushed_counts_accepted_records_when_spill_fails() {
        // Same regression as the sorter: a spill failure mid-push must not
        // leave buffered records uncounted.
        let base = std::env::temp_dir().join(format!("pisort-gbfailtest-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let blocker = base.join("not-a-directory");
        std::fs::write(&blocker, b"x").unwrap();
        let cfg = StreamConfig {
            spill_dir: Some(blocker.clone()),
            ..tiny_cfg(16 << 10)
        };
        let mut gb: StreamGroupBy<u64, SumAgg> = pinned_group_by(SumAgg, cfg);
        let batch: Vec<(u64, u64)> = (0..20_000u64).map(|i| (i, i)).collect();
        let err = gb.push(&batch).expect_err("spill into a file must fail");
        assert_ne!(err.kind(), io::ErrorKind::NotFound);
        // Regression (stats drift): the records accepted before the failed
        // spill stay counted — and stay *buffered*, because the spill
        // directory is secured before the buffer is drained.
        assert!(gb.stats().records_pushed > 0);
        assert_eq!(gb.stats().spilled_runs, 0);
        assert_eq!(gb.stats().partial_aggregates, 0, "buffer must survive");
        assert_eq!(gb.run_count(), 1, "the failed run is still buffered");
        std::fs::remove_dir_all(&base).ok();
    }
}
