//! The spill lifecycle both streaming engines share.
//!
//! [`crate::StreamSorter`] and [`crate::StreamGroupBy`] differ only in how
//! a full record buffer becomes one key-sorted run ([`RunBuilder`]): the
//! sorter sorts it with DovetailSort, carrying heavy keys into the next
//! run; the group-by semisorts it and folds each group into one partial
//! aggregate.  Everything else lives here, once: the push loop and its
//! budget checks, the spill directory, the background writer pipeline,
//! runs reclaimed from failed writes, degradation probation, the retried
//! synchronous write, the spill accounting, and opening the final merge.
//!
//! [`StreamConfig::spill_pipeline_depth`] `== 0` writes every run
//! synchronously on the pushing thread — the same path probation takes
//! after a writer failure.

use crate::pipeline::SpillPipeline;
use crate::sorter::{open_run_cursors, RunCursor};
use crate::spill::{wrap_spill_err, write_run_with_retry, SpillSpace, SpillValue, SpilledRun};
use crate::spillio::SpillIoHandle;
use crate::{GroupByStats, StreamStats};
use dtsort::{IntegerKey, StreamConfig};
use parlay::kway::LoserTree;
use std::collections::VecDeque;
use std::io;

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
    /// File-name stem of the engine's run files (`{stem}-s000000.bin` for
    /// synchronous writes, `{stem}-p{generation}-000000.bin` for the
    /// pipeline).
    const FILE_STEM: &'static str;

    /// Records one run may hold under the budget in force right now.
    fn run_capacity(cfg: &StreamConfig) -> usize;

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
    /// Run records currently in flight to the spill-writer thread.
    pub(crate) in_flight_records: usize,
    /// Runs currently in flight to the spill-writer thread.
    pub(crate) in_flight_runs: usize,
    /// Distinct name counter for synchronously written run files (the
    /// pipelined writer numbers its own namespace).
    sync_run_seq: usize,
    /// `Some(n)` after a writer-side error surfaced: the engine is on
    /// *probation*, spilling synchronously until `n` more clean
    /// synchronous spills have succeeded, after which pipelining is
    /// re-enabled ([`dtsort::SpillRetryPolicy::probation_spills`]).
    pub(crate) degraded: Option<u32>,
    /// Pipeline incarnations started so far.  Each gets its own run-file
    /// namespace, so a pipeline restarted after probation cannot collide
    /// with a previous incarnation's files.
    pipeline_generation: usize,
    pub(crate) builder: B,
    pub(crate) stats: B::Stats,
    // Field order matters: the pipeline must drop (joining its writer)
    // before the spill space deletes the directory under it.
    pub(crate) pipeline: Option<SpillPipeline<B::RunKey, B::RunValue>>,
    pub(crate) space: Option<SpillSpace>,
    /// Scoped obs enable for [`StreamConfig::trace`]; transferred to the
    /// finished stream so recording covers the merge drain too.
    trace_guard: Option<obs::EnableGuard>,
}

impl<B: RunBuilder> Spiller<B> {
    pub(crate) fn new(cfg: StreamConfig, io: SpillIoHandle, builder: B) -> Self {
        // Scoped, not sticky: tracing reverts when this engine (and any
        // stream it returns) is dropped.
        let trace_guard = cfg.trace.then(obs::scoped_enable);
        let run_capacity = B::run_capacity(&cfg);
        Self {
            cfg,
            io,
            run_capacity,
            buffer: Vec::new(),
            buffered_value_bytes: 0,
            runs: Vec::new(),
            pending_runs: VecDeque::new(),
            in_flight_records: 0,
            in_flight_runs: 0,
            sync_run_seq: 0,
            degraded: None,
            pipeline_generation: 0,
            builder,
            stats: B::Stats::default(),
            pipeline: None,
            space: None,
            trace_guard,
        }
    }

    /// Re-reads the budget (which a live [`dtsort::BudgetHandle`] may have
    /// resized since the last check) into the run capacity.  Called on
    /// every push chunk, so a shrunk grant takes effect mid-stream as an
    /// early spill instead of an over-budget buffer.
    fn refresh_run_capacity(&mut self) {
        if self.cfg.budget.is_some() {
            self.run_capacity = B::run_capacity(&self.cfg);
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
            + self.in_flight_runs
            + self.pending_runs.len()
            + usize::from(!self.buffer.is_empty())
    }

    /// Blocks until every run handed to the background writer is durable,
    /// surfacing any writer-side error; afterwards the stats are exact.
    pub(crate) fn flush_spills(&mut self) -> io::Result<()> {
        if let Some(pipeline) = &self.pipeline {
            pipeline.flush();
        }
        self.reconcile_pipeline()
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
                        >= self.cfg.effective_budget_bytes() / self.cfg.spill_shares()))
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
        if B::Value::SPILL_FIXED_SIZE.is_none() {
            self.buffered_value_bytes += value.spill_size();
        }
        self.buffer.push((key, value));
        self.stats.note_pushed(1);
        self.shrink_to_budget()
    }

    /// Turns the buffer into one run, reusing a buffer the pipeline
    /// recycled from an already-written run, if one is pooled.
    pub(crate) fn build_run(&mut self) -> Vec<(B::RunKey, B::RunValue)> {
        let out = self
            .pipeline
            .as_ref()
            .and_then(|p| p.recycled_buffer())
            .unwrap_or_default();
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
        if self.cfg.spill_pipeline_depth == 0 || self.degraded.is_some() {
            // The queue is empty here, so this writes exactly the new run
            // and, on failure, keeps it queued for the next attempt.
            let run = self.build_run();
            self.pending_runs.push_back(run);
            self.retry_pending_runs()
        } else {
            self.spill_run_pipelined()
        }
    }

    /// Writes the pending runs inline on the calling thread, in run order;
    /// a run whose write fails stays at the front of the queue.
    fn retry_pending_runs(&mut self) -> io::Result<()> {
        while let Some(run) = self.pending_runs.pop_front() {
            if let Err(e) = self.write_run_sync_inner(&run) {
                self.pending_runs.push_front(run);
                return Err(e);
            }
        }
        Ok(())
    }

    fn write_run_sync_inner(&mut self, run: &[(B::RunKey, B::RunValue)]) -> io::Result<()> {
        let dir = &self.space.as_ref().expect("spill space secured").dir;
        let seq = self.sync_run_seq;
        let path = dir.join(format!("{}-s{seq:06}.bin", B::FILE_STEM));
        let _span = obs::enabled().then(|| obs::span!("spill_write", run = seq));
        let spilled = match write_run_with_retry(
            &self.io,
            &path,
            run,
            self.cfg.spill_compression,
            &self.cfg.spill_retry,
        ) {
            Ok(spilled) => spilled,
            Err(e) => {
                std::fs::remove_file(&path).ok();
                let attempted: u64 = run.iter().map(|(_, v)| 8 + v.spill_size() as u64).sum();
                return Err(wrap_spill_err(&path, seq, attempted, e));
            }
        };
        self.sync_run_seq += 1;
        self.stats.note_spilled(&spilled);
        self.runs.push(spilled);
        // One clean synchronous spill while on probation: count it, and
        // once enough have succeeded, lift the probation so the next spill
        // restarts the pipeline.  Depth 0 is a choice, not a degradation.
        if let Some(left) = self.degraded {
            self.stats.note_degraded_sync();
            self.degraded = Some(left.saturating_sub(1)).filter(|&left| left > 0);
        }
        Ok(())
    }

    /// Hands the next run to the background writer and keeps going with a
    /// recycled buffer: run `N + 1` is built while run `N` streams to disk.
    fn spill_run_pipelined(&mut self) -> io::Result<()> {
        if self.pipeline.is_none() {
            let dir = self
                .space
                .as_ref()
                .expect("spill space secured")
                .dir
                .clone();
            let generation = self.pipeline_generation;
            self.pipeline_generation += 1;
            self.pipeline = Some(SpillPipeline::start(
                self.io.clone(),
                dir,
                self.cfg.spill_pipeline_depth,
                format!("{}-p{generation}-", B::FILE_STEM),
                self.cfg.spill_compression,
                self.cfg.spill_retry,
            ));
        }
        let run = self.build_run();
        self.in_flight_records += run.len();
        self.in_flight_runs += 1;
        // The run's bytes will not reach the spill counters until the
        // writer confirms them durable.
        self.stats.set_settled(false);
        self.pipeline
            .as_mut()
            .expect("pipeline just started")
            .submit(run); // blocks while the pipeline is at depth
        self.reconcile_pipeline()
    }

    /// Accounts runs the writer has completed and surfaces any writer-side
    /// error; on error the pipeline is torn down, its unwritten runs are
    /// reclaimed as pending, and the engine goes on probation.
    fn reconcile_pipeline(&mut self) -> io::Result<()> {
        let (completed, error) = match &self.pipeline {
            None => return Ok(()),
            Some(p) => (p.drain_completed(), p.poll_error()),
        };
        self.account_completed(completed);
        match error {
            // The writer keeps only its first error, so closing cannot
            // report another one.
            Some(e) => self.close_pipeline().and(Err(e)),
            None => Ok(()),
        }
    }

    fn account_completed(&mut self, completed: Vec<SpilledRun>) {
        for run in completed {
            self.in_flight_records -= run.len;
            self.in_flight_runs -= 1;
            self.stats.note_spilled(&run);
            self.runs.push(run);
        }
        if self.in_flight_runs == 0 {
            self.stats.set_settled(true);
        }
    }

    /// Joins the writer, reclaims everything it did not write, and starts
    /// probation; a writer error that never got the chance to surface on a
    /// `push` surfaces here.  A no-op without a pipeline.
    pub(crate) fn close_pipeline(&mut self) -> io::Result<()> {
        let Some(pipeline) = self.pipeline.take() else {
            return Ok(());
        };
        let closed = pipeline.close();
        self.account_completed(closed.completed);
        for run in closed.failed {
            self.in_flight_records -= run.len();
            self.in_flight_runs -= 1;
            self.pending_runs.push_back(run);
        }
        // Nothing is in flight any more: completed runs were accounted
        // above and failed ones reclaimed as pending.
        self.stats.set_settled(true);
        // Probation, not a life sentence: spill synchronously until enough
        // clean spills prove the fault was transient, then re-pipeline.
        self.degraded = Some(self.cfg.spill_retry.probation_spills.max(1));
        closed.error.map_or(Ok(()), Err)
    }

    /// Finishes the lifecycle: closes the pipeline, turns the buffered
    /// tail into a last run, and opens the final merge over the spilled
    /// runs, the runs reclaimed from failed writes and the tail, in run
    /// order (so equal keys come out in push order).  Hands the builder
    /// back to the engine.
    pub(crate) fn into_merge(mut self) -> io::Result<(RunMerge<B::RunValue>, B)> {
        self.close_pipeline()?;
        let tail = self.build_run();
        let (mut cursors, read_ahead_disabled) =
            open_run_cursors::<B::RunValue>(&self.runs, &self.cfg, &self.io)?;
        let in_memory = self.pending_runs.drain(..).chain(Some(tail));
        for run in in_memory.filter(|run| !run.is_empty()) {
            let run = run
                .into_iter()
                .map(|(k, v)| (k.to_ordered_u64(), v))
                .collect();
            cursors.push(RunCursor::from_memory(run));
        }
        let merge = RunMerge {
            tree: LoserTree::new(cursors, B::RunValue::spill_record_lt),
            read_ahead_disabled,
            _merge_span: obs::enabled().then(|| obs::span!("merge")),
            _trace: self.trace_guard.take(),
            _space: self.space.take(),
        };
        Ok((merge, self.builder))
    }
}

type MergeTree<V> = LoserTree<RunCursor<V>, fn(&(u64, V), &(u64, V)) -> bool>;

/// The final k-way merge of a finished engine, plus what must outlive it.
/// Field order matters: the cursors (and their read-ahead) drop before the
/// spill directory is deleted.
pub(crate) struct RunMerge<V: SpillValue> {
    pub(crate) tree: MergeTree<V>,
    pub(crate) read_ahead_disabled: bool,
    /// Open `merge` span over the stream's lifetime, so prefetch spans can
    /// be shown (and asserted) to overlap it; recorded when it drops.
    _merge_span: Option<obs::SpanGuard>,
    /// Keeps [`StreamConfig::trace`]'s scoped enable alive through the
    /// merge drain (the span above is recorded on drop, while tracing is
    /// still on: [`obs::SpanGuard`] captures its enable state at start).
    _trace: Option<obs::EnableGuard>,
    _space: Option<SpillSpace>,
}
