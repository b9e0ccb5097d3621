//! The spill lifecycle both streaming engines share.
//!
//! [`crate::StreamSorter`] and [`crate::StreamGroupBy`] differ only in how
//! a full record buffer becomes one key-sorted run ([`RunBuilder`]): the
//! sorter sorts it with DovetailSort, carrying heavy keys into the next
//! run; the group-by semisorts it and folds each group into one partial
//! aggregate.  Everything else lives here, once: the push loop and its
//! budget checks, the spill directory, the background run writer, runs
//! reclaimed from failed writes, degradation probation, the retried
//! synchronous write, the spill accounting, and opening the final merge.
//!
//! At most one run is in flight to the writer thread: run `N + 1` is
//! built while run `N` is written, and run `N` settles (accounted, or
//! reclaimed on failure) before run `N + 1` is handed over.  While on
//! probation after a writer failure, every run is written synchronously
//! on the pushing thread instead.
//!
//! The budget split lives here too: the budget is divided into
//! [`SPILL_SHARES`] equal shares, and a run holds as many records as the
//! budget pays for at the engine's per-record footprint
//! ([`RunBuilder::BUILD_BYTES`] plus one run record for the run in flight;
//! see [`run_capacity`]).

use crate::metrics::m;
use crate::pipeline::{open_run_cursors, RunCursor};
use crate::spill::{
    panic_message, wrap_spill_err, write_run_with_retry, SpillSpace, SpillValue, SpilledRun,
};
use crate::spillio::SpillIoHandle;
use crate::{GroupByStats, StreamStats};
use dtsort::{IntegerKey, SpillCompression, StreamConfig};
use parlay::kway::{LoserTree, MergeOrder};
use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Clean synchronous spills an engine serves on *probation* after a
/// writer failure before it restarts its background writer: a transient
/// burst degrades throughput for this many runs (each counted by the
/// `spill.degraded_syncs` metric and the engines' `degraded_syncs` stat),
/// not for the rest of the engine's life.
pub const PROBATION_SPILLS: u32 = 4;

/// Bytes per record of the bucket-id cache a DovetailSort run holds next
/// to its scratch buffer (one `u16` per record; see
/// [`parlay::counting_sort::counting_sort_with_ids`]).
pub(crate) const RUN_SORT_ID_BYTES: usize = std::mem::size_of::<u16>();

/// Number of equal shares the budget splits into: one filling buffer,
/// one sort scratch, and one for the run in flight to the writer, which
/// buffers real bytes and so is paid for out of the same budget.
pub(crate) const SPILL_SHARES: usize = 3;

/// Records one of `B`'s runs may hold under the budget in force right now:
/// each buffered record costs [`RunBuilder::BUILD_BYTES`] plus one run
/// record in the run in flight to the writer (a built run holds at most
/// one record per buffered record).
///
/// The floor is a single record, so a degenerate budget still makes
/// progress but cannot silently multiply: the worst-case resident record
/// memory is `max(budget, per_record)` — one record per share — never the
/// `64 · per_record` an old `.max(64)` floor admitted (e.g. 64 records ×
/// 3 shares × a 1 KiB record ≈ 192 KiB against a 1 KiB budget).
fn run_capacity<B: RunBuilder>(cfg: &StreamConfig) -> usize {
    let per_record = B::BUILD_BYTES + std::mem::size_of::<(B::RunKey, B::RunValue)>();
    (cfg.effective_budget_bytes() / per_record).max(1)
}

/// The engine-specific half of the spill lifecycle.
pub(crate) trait RunBuilder {
    /// Key of a pushed record.
    type Key: IntegerKey;
    /// Value of a pushed record.
    type Value: SpillValue;
    /// Key of a spilled run's records.
    type RunKey: IntegerKey;
    /// Value of a spilled run's records.
    type RunValue: SpillValue;
    /// The engine's public counters.
    type Stats: SpillStats;
    /// File-name stem of the engine's run files (`{stem}-000000.bin`, by
    /// run position).
    const FILE_STEM: &'static str;

    /// Bytes one buffered record costs at the peak of building its run:
    /// the buffered record plus whatever the build allocates per record.
    const BUILD_BYTES: usize;

    /// Drains `buffer` into one run sorted by key, reusing `out` (an empty,
    /// possibly recycled vector) for the run when it can.
    fn build_run(
        &mut self,
        cfg: &StreamConfig,
        run_capacity: usize,
        buffer: &mut Vec<(Self::Key, Self::Value)>,
        out: Vec<(Self::RunKey, Self::RunValue)>,
        stats: &mut Self::Stats,
    ) -> Vec<(Self::RunKey, Self::RunValue)>;
}

/// The spill counters the engines' public stats structs share.  Each
/// update is mirrored into the engine's own metric family (`stream.*` or
/// `groupby.*`), behind an [`obs::enabled`] check.
pub(crate) trait SpillStats: Default {
    fn note_pushed(&mut self, records: usize);
    /// A run confirmed durable on disk.
    fn note_spilled(&mut self, run: &SpilledRun);
    /// A synchronous spill served while on probation.
    fn note_degraded_sync(&mut self);
    fn set_settled(&mut self, settled: bool);
}

macro_rules! impl_spill_stats {
    ($stats:ty, $pushed:ident, $runs:ident, $bytes:ident) => {
        impl SpillStats for $stats {
            fn note_pushed(&mut self, records: usize) {
                self.records_pushed += records as u64;
                if obs::enabled() {
                    crate::metrics::m().$pushed.add(records as u64);
                }
            }

            fn note_spilled(&mut self, run: &SpilledRun) {
                self.spilled_runs += 1;
                self.spilled_bytes += run.bytes;
                self.spilled_raw_bytes += run.raw_bytes;
                self.spill_retries += u64::from(run.retries);
                if obs::enabled() {
                    let metrics = crate::metrics::m();
                    metrics.$runs.incr();
                    metrics.$bytes.add(run.bytes);
                }
            }

            fn note_degraded_sync(&mut self) {
                self.degraded_syncs += 1;
                if obs::enabled() {
                    crate::metrics::m().degraded_syncs.incr();
                }
            }

            fn set_settled(&mut self, settled: bool) {
                self.is_settled = settled;
            }
        }
    };
}

impl_spill_stats!(StreamStats, records_pushed, spilled_runs, spilled_bytes);
impl_spill_stats!(
    GroupByStats,
    gb_records_pushed,
    gb_spilled_runs,
    gb_spilled_bytes
);

/// A run handed to the writer: its file, its position and its records.
type WriteJob<K, V> = (PathBuf, usize, Vec<(K, V)>);
/// The writer's reply: the run's records back, and the durable file or
/// why there is none.
type WriteReply<K, V> = (Vec<(K, V)>, io::Result<SpilledRun>);

/// The background spill writer: one thread that writes each run it
/// receives and hands the run back with the outcome.  It keeps no state;
/// the [`Spiller`] has at most one run in flight and settles it before
/// handing over the next, so write order, reclaiming a failed run and
/// reusing a written run's buffer all follow from who owns the run.
pub(crate) struct RunWriter<K, V> {
    jobs: Option<Sender<WriteJob<K, V>>>,
    replies: Receiver<WriteReply<K, V>>,
    thread: Option<JoinHandle<()>>,
}

impl<K: IntegerKey, V: SpillValue> RunWriter<K, V> {
    fn start(io: SpillIoHandle, compression: SpillCompression) -> Self {
        let (jobs, job_rx) = channel::<WriteJob<K, V>>();
        let (reply_tx, replies) = channel();
        let thread = std::thread::Builder::new()
            .name("pisort-spill-writer".to_string())
            .spawn(move || {
                for (path, index, run) in job_rx {
                    let result = write_spill_run(&io, &path, index, &run, compression);
                    if reply_tx.send((run, result)).is_err() {
                        break;
                    }
                }
            })
            .expect("failed to spawn spill-writer thread");
        Self {
            jobs: Some(jobs),
            replies,
            thread: Some(thread),
        }
    }
}

impl<K, V> Drop for RunWriter<K, V> {
    fn drop(&mut self) {
        // Closing the job channel ends the thread after its current write;
        // joining keeps the spill directory alive until that write is done.
        self.jobs = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Writes `run` to `path` as run `index`, retrying transient failures.
/// A failed write leaves no file behind and surfaces as a typed
/// [`crate::SpillError`] naming the run.  A panicking value serializer is
/// such a failure too, on the writer thread and the pushing thread alike,
/// so the run's records always stay with the engine.
fn write_spill_run<K: IntegerKey, V: SpillValue>(
    io: &SpillIoHandle,
    path: &Path,
    index: usize,
    run: &[(K, V)],
    compression: SpillCompression,
) -> io::Result<SpilledRun> {
    let start = obs::enabled().then(Instant::now);
    let _span = start.map(|_| obs::span!("spill_write", run = index));
    let write = AssertUnwindSafe(|| write_run_with_retry(io, path, run, compression));
    let result = catch_unwind(write)
        .unwrap_or_else(|panic| {
            let msg = panic_message(panic.as_ref());
            Err(io::Error::other(format!("spill writer panicked: {msg}")))
        })
        .map_err(|e| {
            std::fs::remove_file(path).ok();
            let attempted = run.iter().map(|(_, v)| 8 + v.spill_size() as u64).sum();
            wrap_spill_err(path, index, attempted, e)
        });
    if let Some(start) = start {
        m().write_ns.record_duration(start.elapsed());
    }
    result
}

/// One engine's buffer, spilled runs and spill machinery.
pub(crate) struct Spiller<B: RunBuilder> {
    pub(crate) cfg: StreamConfig,
    /// The spill I/O backend every read and write goes through
    /// ([`dtsort::StreamConfig::spill_io`]); possibly shared with sibling
    /// engines.
    pub(crate) io: SpillIoHandle,
    pub(crate) run_capacity: usize,
    pub(crate) buffer: Vec<(B::Key, B::Value)>,
    /// Spilled payload bytes currently buffered (tracked only for
    /// variable-length values; always 0 on the pod path).
    buffered_value_bytes: usize,
    pub(crate) runs: Vec<SpilledRun>,
    /// Runs whose spill write failed, reclaimed with their records intact
    /// (in run order): retried by the next spill, merged from memory by
    /// `finish` otherwise.
    pub(crate) pending_runs: VecDeque<Vec<(B::RunKey, B::RunValue)>>,
    /// Records of the run in flight to the writer thread; 0 when none is
    /// (a run is never empty).
    pub(crate) in_flight_records: usize,
    /// The cleared buffer of the last run the writer wrote, reused as the
    /// next run's storage.
    recycled: Vec<(B::RunKey, B::RunValue)>,
    /// `Some(n)` after a writer-side error surfaced: the engine is on
    /// *probation*, spilling synchronously until `n` more clean
    /// synchronous spills have succeeded, after which pipelining is
    /// re-enabled ([`PROBATION_SPILLS`]).
    pub(crate) degraded: Option<u32>,
    pub(crate) builder: B,
    pub(crate) stats: B::Stats,
    // Field order matters: the writer must drop (joining its thread)
    // before the spill space deletes the directory under it.
    pub(crate) pipeline: Option<RunWriter<B::RunKey, B::RunValue>>,
    pub(crate) space: Option<SpillSpace>,
}

impl<B: RunBuilder> Spiller<B> {
    pub(crate) fn new(cfg: StreamConfig, io: SpillIoHandle, builder: B) -> Self {
        let run_capacity = run_capacity::<B>(&cfg);
        Self {
            cfg,
            io,
            run_capacity,
            buffer: Vec::new(),
            buffered_value_bytes: 0,
            runs: Vec::new(),
            pending_runs: VecDeque::new(),
            in_flight_records: 0,
            recycled: Vec::new(),
            degraded: None,
            builder,
            stats: B::Stats::default(),
            pipeline: None,
            space: None,
        }
    }

    /// Re-reads the budget (which a live [`dtsort::BudgetHandle`] may have
    /// resized since the last check) into the run capacity.  Called on
    /// every push chunk, so a shrunk grant takes effect mid-stream as an
    /// early spill instead of an over-budget buffer.
    fn refresh_run_capacity(&mut self) {
        if self.cfg.budget.is_some() {
            self.run_capacity = run_capacity::<B>(&self.cfg);
        }
    }

    /// Applies the current budget grant immediately, spilling the buffered
    /// run (and retrying pending runs) if due.
    pub(crate) fn shrink_to_budget(&mut self) -> io::Result<()> {
        self.refresh_run_capacity();
        if self.should_spill() {
            self.spill_run()?;
        }
        Ok(())
    }

    /// Runs the final merge will see: spilled (including in flight),
    /// pending a spill retry, and the in-memory tail, if any.
    pub(crate) fn run_count(&self) -> usize {
        self.runs.len()
            + usize::from(self.in_flight_records > 0)
            + self.pending_runs.len()
            + usize::from(!self.buffer.is_empty())
    }

    /// Blocks until the run in flight to the writer, if any, is durable,
    /// surfacing any writer-side error; afterwards the stats are exact.
    pub(crate) fn flush_spills(&mut self) -> io::Result<()> {
        self.settle(true)
    }

    /// Settles the run in flight to the writer, if any, once the writer
    /// has replied — waiting for the reply if `wait`, else only taking one
    /// that is ready.  A written run is accounted and its buffer kept for
    /// the next run.  A failed one is reclaimed as pending, the writer
    /// stops, and the engine goes on probation.
    fn settle(&mut self, wait: bool) -> io::Result<()> {
        if self.in_flight_records == 0 {
            return Ok(());
        }
        let writer = self
            .pipeline
            .as_ref()
            .expect("a run in flight has a writer");
        let reply = if wait {
            Some(
                writer
                    .replies
                    .recv()
                    .expect("the writer replies to every run"),
            )
        } else {
            writer.replies.try_recv().ok()
        };
        let Some((mut run, result)) = reply else {
            return Ok(());
        };
        self.in_flight_records = 0;
        self.stats.set_settled(true);
        if obs::enabled() {
            m().queue_depth.set(0);
        }
        match result {
            Ok(spilled) => {
                self.stats.note_spilled(&spilled);
                self.runs.push(spilled);
                run.clear();
                self.recycled = run;
                Ok(())
            }
            Err(e) => {
                self.pending_runs.push_back(run);
                self.pipeline = None;
                // Probation, not a life sentence: spill synchronously until
                // enough clean spills prove the fault was transient, then
                // restart the writer.
                self.degraded = Some(PROBATION_SPILLS);
                Err(e)
            }
        }
    }

    /// Spills are due when the record count hits capacity or buffered
    /// variable-length payloads reach one budget share (without which
    /// large payloads could pile up far past the budget; fixed-size
    /// values are bounded by the record count alone).
    fn buffer_needs_spill(&self) -> bool {
        !self.buffer.is_empty()
            && (self.buffer.len() >= self.run_capacity
                || (B::Value::SPILL_FIXED_SIZE.is_none()
                    && self.buffered_value_bytes
                        >= self.cfg.effective_budget_bytes() / SPILL_SHARES))
    }

    fn should_spill(&self) -> bool {
        !self.pending_runs.is_empty() || self.buffer_needs_spill()
    }

    /// Appends a batch of records, spilling full runs as needed.
    ///
    /// On a spill error the engine still takes ownership of the *whole*
    /// slice before the error surfaces: the un-consumed tail is buffered
    /// (transiently past the run capacity, bounded by the slice length),
    /// so a caller that treats the error as transient and keeps pushing
    /// never loses the records it already handed over.
    pub(crate) fn push(&mut self, records: &[(B::Key, B::Value)]) -> io::Result<()> {
        let mut rest = records;
        loop {
            self.refresh_run_capacity();
            if self.should_spill() {
                if let Err(e) = self.spill_run() {
                    self.buffer_chunk(rest);
                    return Err(e);
                }
            }
            if rest.is_empty() {
                return Ok(());
            }
            // A shrunk grant can put the buffer over the new capacity; the
            // saturating space is then 0 and the spill above drains it on
            // the next iteration.
            let space = self.run_capacity.saturating_sub(self.buffer.len());
            let take = space.min(rest.len());
            let (chunk, tail) = rest.split_at(take);
            self.buffer_chunk(chunk);
            rest = tail;
        }
    }

    /// Moves `chunk` into the buffer, keeping byte and record accounting
    /// exact (`records_pushed` counts every record the engine owns, even
    /// on error paths).
    fn buffer_chunk(&mut self, chunk: &[(B::Key, B::Value)]) {
        if chunk.is_empty() {
            return;
        }
        self.buffer.extend_from_slice(chunk);
        if B::Value::SPILL_FIXED_SIZE.is_none() {
            self.buffered_value_bytes += chunk.iter().map(|(_, v)| v.spill_size()).sum::<usize>();
        }
        self.stats.note_pushed(chunk.len());
    }

    /// Appends a single record (no clone of the value).
    pub(crate) fn push_record(&mut self, key: B::Key, value: B::Value) -> io::Result<()> {
        // Buffer the record *before* any spill attempt: on a spill error
        // the caller's (possibly only) copy of the value is then owned by
        // the engine rather than dropped on the error return.
        self.buffer_record((key, value));
        self.shrink_to_budget()
    }

    /// Moves one record into the buffer without a spill attempt, with the
    /// same accounting as [`Spiller::buffer_chunk`].
    pub(crate) fn buffer_record(&mut self, record: (B::Key, B::Value)) {
        if B::Value::SPILL_FIXED_SIZE.is_none() {
            self.buffered_value_bytes += record.1.spill_size();
        }
        self.buffer.push(record);
        self.stats.note_pushed(1);
    }

    /// Turns the buffer into one run, reusing the buffer of the last run
    /// the writer wrote, if it handed one back.
    fn build_run(&mut self) -> Vec<(B::RunKey, B::RunValue)> {
        let out = std::mem::take(&mut self.recycled);
        let run = self.builder.build_run(
            &self.cfg,
            self.run_capacity,
            &mut self.buffer,
            out,
            &mut self.stats,
        );
        self.buffered_value_bytes = 0;
        run
    }

    fn spill_run(&mut self) -> io::Result<()> {
        // The directory is secured before the buffer is touched, so a
        // failure here leaves every record buffered (and counted).
        if self.space.is_none() {
            self.space = Some(SpillSpace::create(self.cfg.spill_dir.as_ref())?);
        }
        // Runs reclaimed from a failed write are retried first, in run
        // order, so the merge's smaller-index-wins tie rule keeps encoding
        // push order.  A refilled buffer follows on the push loop's next
        // iteration.
        self.retry_pending_runs()?;
        if !self.buffer_needs_spill() {
            return Ok(());
        }
        if self.degraded.is_some() {
            // The queue is empty here, so this writes exactly the new run
            // and, on failure, keeps it queued for the next attempt.
            let run = self.build_run();
            self.pending_runs.push_back(run);
            self.retry_pending_runs()
        } else {
            self.spill_run_pipelined()
        }
    }

    /// The next run's file and position: the number of runs durable
    /// before it.  Nothing is in flight when a run is written or handed
    /// over, so synchronous and pipelined writes share one numbering.
    fn next_run_file(&self) -> (PathBuf, usize) {
        debug_assert_eq!(self.in_flight_records, 0);
        let index = self.runs.len();
        let dir = &self.space.as_ref().expect("spill space secured").dir;
        (dir.join(format!("{}-{index:06}.bin", B::FILE_STEM)), index)
    }

    /// Writes the pending runs inline on the calling thread, in run order;
    /// a run whose write fails stays at the front of the queue.
    fn retry_pending_runs(&mut self) -> io::Result<()> {
        while let Some(run) = self.pending_runs.pop_front() {
            if let Err(e) = self.write_run_sync(&run) {
                self.pending_runs.push_front(run);
                return Err(e);
            }
        }
        Ok(())
    }

    fn write_run_sync(&mut self, run: &[(B::RunKey, B::RunValue)]) -> io::Result<()> {
        let (path, index) = self.next_run_file();
        let spilled = write_spill_run(&self.io, &path, index, run, self.cfg.spill_compression)?;
        self.stats.note_spilled(&spilled);
        self.runs.push(spilled);
        // One clean synchronous spill while on probation: count it, and
        // once enough have succeeded, lift the probation so the next spill
        // restarts the writer.
        if let Some(left) = self.degraded {
            self.stats.note_degraded_sync();
            self.degraded = Some(left.saturating_sub(1)).filter(|&left| left > 0);
        }
        Ok(())
    }

    /// Builds the next run while the previous one is still being written,
    /// then settles the previous one and hands the new one to the writer.
    fn spill_run_pipelined(&mut self) -> io::Result<()> {
        // A previous run the writer has already finished settles first, so
        // its buffer takes the next run: a writer that keeps up needs two
        // run buffers, not three.
        self.settle(false)?;
        let run = self.build_run();
        // Waiting for the previous run is the backpressure: one sample per
        // handoff, zero-length when the writer is already idle.
        let start = obs::enabled().then(Instant::now);
        let settled = {
            let _bp = start.map(|_| obs::span!("backpressure"));
            self.settle(true)
        };
        if let Some(start) = start {
            m().backpressure_ns.record_duration(start.elapsed());
        }
        if let Err(e) = settled {
            // Queued behind the reclaimed run, so run order holds.
            self.pending_runs.push_back(run);
            return Err(e);
        }
        let (path, index) = self.next_run_file();
        let writer = self
            .pipeline
            .get_or_insert_with(|| RunWriter::start(self.io.clone(), self.cfg.spill_compression));
        self.in_flight_records = run.len();
        // The run's bytes reach the spill counters once it settles.
        self.stats.set_settled(false);
        if obs::enabled() {
            m().queue_depth.set(1);
        }
        writer
            .jobs
            .as_ref()
            .expect("open job channel")
            .send((path, index, run))
            .expect("the writer thread lives as long as its job channel");
        Ok(())
    }

    /// Ends spilling: settles the run in flight, stops the writer, and
    /// turns the buffered tail into the last run.  No run follows, so the
    /// recycled buffer is freed before the merge allocates its own.
    pub(crate) fn finish_spilling(&mut self) -> io::Result<Vec<(B::RunKey, B::RunValue)>> {
        self.flush_spills()?;
        self.pipeline = None;
        self.recycled = Vec::new();
        Ok(self.build_run())
    }

    /// Finishes the lifecycle: ends spilling and opens the final merge
    /// over the spilled runs, the runs reclaimed from failed writes and
    /// the tail, in run order (so equal keys come out in push order),
    /// splitting `read_bytes` of read buffering across the spilled runs
    /// (the engines pass [`crate::sorter::MERGE_READ_BUFFER_BYTES`]).
    /// Hands the builder back to the engine.
    pub(crate) fn into_merge(
        mut self,
        read_bytes: usize,
    ) -> io::Result<(RunMerge<B::RunValue>, B)> {
        let tail = self.finish_spilling()?;
        let failed = Arc::<ReadErrorSlot>::default();
        let mut cursors =
            open_run_cursors::<B::RunValue>(&self.runs, &self.io, read_bytes, &failed)?;
        // The cursors hold their first blocks: a run that failed in its
        // first block is reported here, before the merge starts.
        if let Some(e) = failed.take() {
            return Err(e);
        }
        // Each in-memory run (reclaimed or the tail) is its cursor's one
        // block.
        let in_memory = self.pending_runs.drain(..).chain(Some(tail));
        for run in in_memory.filter(|run| !run.is_empty()) {
            let mut block = Some(
                run.into_iter()
                    .map(|(k, v)| (k.to_ordered_u64(), v))
                    .collect(),
            );
            cursors.push(RunCursor::new(Box::new(move || block.take())));
        }
        let merge = RunMerge {
            tree: LoserTree::new(cursors, SpillOrder),
            failed,
            _merge_span: obs::enabled().then(|| obs::span!("merge")),
            _space: self.space.take(),
        };
        Ok((merge, self.builder))
    }
}

/// The final merge's record order: the ordered-`u64` key, then — for
/// values whose equal keys are not equivalent
/// ([`SpillValue::SPILL_TIE_BREAK`]) — the embedded full key, then run
/// order (push order).
struct SpillOrder;

impl<V: SpillValue> MergeOrder<(u64, V)> for SpillOrder {
    const TIE_BREAK: bool = V::SPILL_TIE_BREAK;

    #[inline]
    fn key(&self, record: &(u64, V)) -> u64 {
        record.0
    }

    fn tie_lt(&self, a: &(u64, V), b: &(u64, V)) -> bool {
        a.1.spill_embedded_key() < b.1.spill_embedded_key()
    }
}

type MergeTree<V> = LoserTree<RunCursor<V>, SpillOrder>;

/// The first read error any cursor of one merge hit.  A cursor whose
/// spilled run fails records the error here and ends its run;
/// [`Spiller::into_merge`] reports one from a run's first block, and
/// [`RunMerge::try_pop`] one from a later block.
#[derive(Default)]
pub(crate) struct ReadErrorSlot {
    /// Stored (`Release`) once `error` holds the error, so the per-pop
    /// check (`Acquire`) takes the lock only after a failure.
    set: AtomicBool,
    error: Mutex<Option<io::Error>>,
}

impl ReadErrorSlot {
    #[cold]
    pub(crate) fn record(&self, e: io::Error) {
        self.error.lock().expect("read error slot").get_or_insert(e);
        self.set.store(true, Ordering::Release);
    }

    fn take(&self) -> Option<io::Error> {
        if !self.set.load(Ordering::Acquire) {
            return None;
        }
        self.error.lock().expect("read error slot").take()
    }
}

/// The streaming iterators' end of [`RunMerge::try_pop`]: `next` has no
/// error channel, so a spill read error that survived the retries panics.
pub(crate) fn or_panic<T>(result: io::Result<T>) -> T {
    result.unwrap_or_else(|e| panic!("I/O error reading spilled run: {e}"))
}

/// The final k-way merge of a finished engine, plus what must outlive it.
/// Field order matters: the cursors (and their read-ahead) drop before the
/// spill directory is deleted.
pub(crate) struct RunMerge<V: SpillValue> {
    tree: MergeTree<V>,
    failed: Arc<ReadErrorSlot>,
    /// Open `merge` span over the stream's lifetime, so prefetch spans can
    /// be shown (and asserted) to overlap it; recorded when it drops.
    _merge_span: Option<obs::SpanGuard>,
    _space: Option<SpillSpace>,
}

impl<V: SpillValue> RunMerge<V> {
    /// Pops the smallest record left, or the read error that ended one of
    /// the runs.  The check follows the pop, so no record past a failed
    /// run's last good one is ever returned.
    pub(crate) fn try_pop(&mut self) -> io::Result<Option<(u64, V)>> {
        let record = self.tree.pop();
        match self.failed.take() {
            Some(e) => Err(e),
            None => Ok(record),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groupby::AggRuns;
    use crate::sorter::SortRuns;
    use crate::{StreamGroupBy, StreamSorter, SumAgg};
    use dtsort::BudgetHandle;

    #[test]
    fn run_capacity_splits_the_budget_into_shares() {
        // 8-byte records: one share buffers them, one is sort scratch, and
        // one pays for the run in flight to the writer thread.
        let cfg = StreamConfig::with_memory_budget(1 << 20);
        assert_eq!(
            run_capacity::<SortRuns<u32, u32>>(&cfg),
            (1 << 20) / (24 + RUN_SORT_ID_BYTES)
        );
        // Degenerate budgets clamp to a record floor.
        let empty = StreamConfig::with_memory_budget(0);
        assert_eq!(run_capacity::<SortRuns<u32, u32>>(&empty), 1);
        assert!(StreamConfig::default().memory_budget_bytes > 0);
    }

    /// Asserts that `B`'s runs of `record_size`-byte records never hold
    /// more than the budget pays for, and as much as it does.
    fn assert_runs_fit_the_budget<B: RunBuilder>(record_size: usize) {
        for budget in [0usize, 1, 100, 4096, 1 << 20, 3 << 20] {
            let cfg = StreamConfig::with_memory_budget(budget);
            let run = run_capacity::<B>(&cfg);
            let per_record = SPILL_SHARES * record_size + RUN_SORT_ID_BYTES;
            let resident = run * per_record;
            let worst = budget.max(per_record);
            assert!(
                resident <= worst,
                "budget {budget}, record {record_size}: resident {resident} > worst-case {worst}"
            );
            // The run is as large as the budget allows.
            assert!((run + 1) * per_record > budget);
        }
    }

    #[test]
    fn run_capacity_never_overshoots_the_budget() {
        // Regression: the old `.max(64)` floor admitted 64 records per
        // budget share under a degenerate budget — buffer + scratch +
        // in-flight runs far above `memory_budget_bytes`.  The worst case
        // is now one record per share.  Resident bytes at the peak of a
        // run sort: one share of records per buffer, scratch copy and
        // in-flight run, plus the sort's `u16` bucket id per record.
        assert_runs_fit_the_budget::<SortRuns<u8, ()>>(1);
        assert_runs_fit_the_budget::<SortRuns<u32, u32>>(8);
        assert_runs_fit_the_budget::<SortRuns<u64, u64>>(16);
        assert_runs_fit_the_budget::<SortRuns<u64, u128>>(32);
        assert_runs_fit_the_budget::<SortRuns<u64, String>>(32);
    }

    #[test]
    fn group_by_runs_pay_for_the_partial_in_flight() {
        // A group-by's buffered record costs its build footprint plus one
        // `(u64, Acc)` partial of the aggregated run in flight.
        use std::mem::size_of;
        let budget = 1 << 20;
        let gb: StreamGroupBy<u32, SumAgg> =
            StreamGroupBy::with_config(SumAgg, StreamConfig::with_memory_budget(budget));
        let build =
            size_of::<(u32, u64)>() + 2 * size_of::<(u64, u64)>() + size_of::<Option<u64>>();
        assert_eq!(AggRuns::<u32, SumAgg>::BUILD_BYTES, build);
        assert_eq!(
            gb.core.run_capacity,
            budget / (build + size_of::<(u64, u64)>())
        );
    }

    #[test]
    fn budget_handle_resizes_the_run_capacity_live() {
        let handle = BudgetHandle::new(1 << 20);
        let cfg = StreamConfig {
            memory_budget_bytes: 64, // must be ignored while a handle is attached
            budget: Some(handle.clone()),
            ..StreamConfig::default()
        };
        // 16-byte records, 3 shares.
        let per_record = SPILL_SHARES * 16 + RUN_SORT_ID_BYTES;
        let mut sorter: StreamSorter<u64, u64> = StreamSorter::with_config(cfg.clone());
        assert_eq!(sorter.core.run_capacity, (1 << 20) / per_record);
        // A shrink through the handle reaches the running engine and every
        // clone of the config without rebuilding anything.
        handle.set(32 << 10);
        sorter.shrink_to_budget().unwrap();
        assert_eq!(sorter.core.run_capacity, (32 << 10) / per_record);
        assert_eq!(
            run_capacity::<SortRuns<u64, u64>>(&cfg),
            (32 << 10) / per_record
        );
    }

    #[test]
    fn pipelined_spill_reuses_the_buffer_the_writer_hands_back() {
        let mut sorter: StreamSorter<u64, u64> =
            StreamSorter::with_config(StreamConfig::with_memory_budget(16 << 10));
        let capacity = sorter.core.run_capacity;
        let batch: Vec<(u64, u64)> = (0..capacity as u64).map(|i| (i % 13, i)).collect();
        // Run 0's storage, reserved up front so filling it never moves it.
        sorter.core.buffer.reserve_exact(capacity);
        let run0 = sorter.core.buffer.as_ptr();
        sorter.push(&batch).unwrap();
        assert_eq!(sorter.core.in_flight_records, capacity, "run 0 in flight");
        sorter.flush_spills().unwrap();
        let recycled = &sorter.core.recycled;
        assert!(recycled.is_empty() && recycled.capacity() >= capacity);
        assert_eq!(recycled.as_ptr(), run0, "the writer handed run 0 back");
        // The second spill builds its run in that allocation: it is the
        // filling buffer now, and no new one was made for it.
        sorter.push(&batch).unwrap();
        assert_eq!(sorter.core.runs.len(), 1);
        assert_eq!(sorter.core.buffer.as_ptr(), run0);
        assert!(sorter.core.recycled.capacity() == 0, "no third buffer");
        let got = sorter.finish_vec().unwrap();
        assert_eq!(got.len(), 2 * capacity);
        assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
