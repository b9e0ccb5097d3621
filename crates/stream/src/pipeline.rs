//! The final merge's read path: every spilled run reaches the loser tree
//! as record blocks from a [`RunFeed`].
//!
//! A [`RunFeed`] decodes its run in steps sized by the run's share of the
//! merge read budget.  When the spill I/O handle reads ahead
//! ([`SpillIoHandle::reads_ahead`]: the host has more than one CPU) and
//! the share clears [`MIN_PREFETCH_RUN_BUDGET`], the steps are
//! resubmit-on-consume tasks on the handle's job pool under either
//! backend, so the loser tree pops from warm memory while the next block
//! decodes, and a k-way merge needs the pool's 2 threads instead of k.
//! Otherwise the merging thread runs each step itself when it needs the
//! next block.  Either way each step is one block decode,
//! [`decode_one_block`]: a single [`RunReader::read_block`] call that
//! decodes whole records from the run's read window (flat) or decoded
//! block payload (compressed), never a call per record.  Every cursor
//! ([`RunCursor`]) has the same shape: the blocks of a feed, or an
//! in-memory run as a single block.  The write
//! side of spill pipelining (one run in flight to a background writer)
//! lives in the crate-private `spiller` module.

use crate::metrics::m;
use crate::spill::{panic_message, per_run_reader_budget, RunReader, SpillValue, SpilledRun};
use crate::spiller::ReadErrorSlot;
use crate::spillio::{JobPool, SpillIoHandle};
use parlay::kway::BlockSource;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Below this per-run share of the merge read buffer the feeds decode
/// inline even on a handle that reads ahead: a pooled feed keeps up to
/// three blocks of its share alive, and at a few hundred bytes per block
/// the task overhead dwarfs the read it hides.  Merges that would have
/// read ahead but lost it to this floor bump the
/// `prefetch.disabled_merges` metric.  With
/// [`crate::sorter::MERGE_READ_BUFFER_BYTES`] that takes more than 2048
/// runs.
pub(crate) const MIN_PREFETCH_RUN_BUDGET: usize = 4096;

/// Where a [`RunCursor`] gets its next block; `None` ends the run.
pub(crate) type Refill<V> = Box<dyn FnMut() -> Option<Vec<(u64, V)>> + Send>;

/// One run's cursor in the final merge ([`parlay::kway::RunSource`]),
/// shared by the sorter and the group-by: the blocks of a spilled run's
/// [`RunFeed`] ([`RunFeed::into_cursor`]), or an in-memory run as its one
/// block.
pub(crate) type RunCursor<V> = BlockSource<(u64, V), Refill<V>>;

/// Opens one merge cursor per spilled run, in run order, splitting
/// `read_bytes` of read buffering across them (the engines pass
/// [`crate::sorter::MERGE_READ_BUFFER_BYTES`]).  Each run gets a
/// [`RunFeed`]: decoding ahead on the spill I/O pool when `io` reads
/// ahead and the per-run share is at least [`MIN_PREFETCH_RUN_BUDGET`]
/// (a merge that loses read-ahead to the floor is counted in the
/// `prefetch.disabled_merges` metric), inline on the merging thread
/// otherwise.  Every feed submits its first decode step before any cursor
/// waits for one, so the first blocks decode in parallel.  A read error
/// ends its run and goes to `failed`, also one in a run's first block,
/// which the cursor reads here.
pub(crate) fn open_run_cursors<V: SpillValue>(
    runs: &[SpilledRun],
    io: &SpillIoHandle,
    read_bytes: usize,
    failed: &Arc<ReadErrorSlot>,
) -> io::Result<Vec<RunCursor<V>>> {
    let reader_budget = per_run_reader_budget(read_bytes, runs.len());
    let ahead = io.reads_ahead() && reader_budget >= MIN_PREFETCH_RUN_BUDGET;
    if io.reads_ahead() && !ahead && !runs.is_empty() && obs::enabled() {
        m().prefetch_disabled_merges.incr();
    }
    let feeds = runs
        .iter()
        .enumerate()
        .map(|(i, run)| RunFeed::open(io, run, reader_budget, i, ahead))
        .collect::<io::Result<Vec<_>>>()?;
    Ok(feeds
        .into_iter()
        .map(|feed| feed.into_cursor(failed))
        .collect())
}

/// Decodes the next batch of records (roughly `block_bytes` of encoded
/// bytes) from `reader` in one [`RunReader::read_block`] call; returns
/// the batch and whether the run is now exhausted.
fn decode_one_block<V: SpillValue>(
    reader: &mut RunReader<V>,
    block_bytes: usize,
) -> io::Result<(Vec<(u64, V)>, bool)> {
    let refill_start = obs::enabled().then(Instant::now);
    // Fixed-size records fill a block of known length; size it once.
    let records = V::SPILL_FIXED_SIZE.map_or(0, |size| block_bytes.div_ceil(8 + size));
    let mut block = Vec::with_capacity(records);
    let end_of_run = reader.read_block(block_bytes, &mut block)?;
    if let Some(start) = refill_start {
        m().prefetch_refill_ns.record_duration(start.elapsed());
        if !block.is_empty() {
            m().blocks_prefetched.incr();
        }
    }
    Ok((block, end_of_run))
}

/// One message per decode step: the batch, and whether it is the run's
/// last (error or end of run).
struct FeedMsg<V> {
    block: io::Result<Vec<(u64, V)>>,
    last: bool,
}

/// The per-run producer state a decode step operates on.  `None` once the
/// run is exhausted or failed.
struct FeedWork<V: SpillValue> {
    reader: RunReader<V>,
    block_bytes: usize,
    tx: SyncSender<FeedMsg<V>>,
    index: usize,
}

/// The read path of the final merge for one spilled run: decode steps
/// that each send exactly one block into a capacity-1 channel.
///
/// On the pool the steps are short-lived tasks, **resubmitted on
/// consume**: at most one task per run is ever in flight, so a task
/// never blocks a worker on its output side and at most ~three batches
/// are alive per run (queued, decoding, being consumed).  On the input
/// side a `Batched` decode step may span several read chunks; the
/// claimable-pread discipline in `spillio.rs` services those inline on
/// the decoding worker (and `submit` never blocks on a full queue), so a
/// task cannot wedge the pool waiting on I/O jobs queued behind it — even
/// with merge fan-in at or above the worker count.  A submit that finds
/// the queue at depth runs the step inline on the merge thread instead,
/// so there is no fan-in cap.  An inline feed (no pool) runs each step in
/// [`RunFeed::recv`], on the merging thread.
pub(crate) struct RunFeed<V: SpillValue> {
    rx: Receiver<FeedMsg<V>>,
    state: Arc<Mutex<Option<FeedWork<V>>>>,
    /// The pool decode steps run on; `None` decodes inline in `recv`.
    pool: Option<JobPool>,
    done: bool,
}

impl<V: SpillValue> RunFeed<V> {
    /// Opens `run` through `io` (surfacing open-time validation errors
    /// synchronously) and, if `ahead`, submits its first decode step to
    /// the handle's pool.  `reader_budget` is this run's share of the
    /// merge read budget, split so the total stays within the share: half
    /// for the run's reader (a flat run's read window, and `Batched`'s
    /// read-ahead; see `RunReader::open`), the rest for the decoded
    /// batches — of which up to three are alive at once, hence sixths.
    /// `index` is the run's position in the merge, which labels the
    /// `prefetch` trace spans and names the run in errors.
    ///
    /// The 64-byte floors keep a tiny share functional without
    /// re-inflating a real one: from a 384-byte share up, the splits stay
    /// within what the caller granted.
    pub fn open(
        io: &SpillIoHandle,
        run: &SpilledRun,
        reader_budget: usize,
        index: usize,
        ahead: bool,
    ) -> io::Result<Self> {
        let reader: RunReader<V> = RunReader::open(io, run, index, (reader_budget / 2).max(64))?;
        let block_bytes = (reader_budget / 6).max(64);
        let (tx, rx) = sync_channel::<FeedMsg<V>>(1);
        let feed = Self {
            rx,
            state: Arc::new(Mutex::new(Some(FeedWork {
                reader,
                block_bytes,
                tx,
                index,
            }))),
            pool: ahead.then(|| io.pool().clone()),
            done: false,
        };
        feed.submit();
        Ok(feed)
    }

    /// Submits the next decode step to the pool (an inline feed decodes
    /// in `recv` instead).
    fn submit(&self) {
        if let Some(pool) = &self.pool {
            let state = Arc::clone(&self.state);
            pool.submit(Box::new(move || pump_feed(&state)));
        }
    }

    /// The next decoded batch: `None` is clean end of run, `Some(Err)` a
    /// read error (terminal — no further batches follow).
    pub fn recv(&mut self) -> Option<io::Result<Vec<(u64, V)>>> {
        if self.done {
            return None;
        }
        if self.pool.is_none() {
            pump_feed(&self.state);
        }
        let msg = match self.rx.recv() {
            Ok(msg) => msg,
            Err(_) => {
                // Unreachable by construction (the work state owns the
                // sender until the last message); surface it rather than
                // serving a silently short run.
                self.done = true;
                return Some(Err(io::Error::other("spill prefetch task lost its feed")));
            }
        };
        if msg.last {
            self.done = true;
        } else {
            // Resubmit before handing the batch out, so the next decode
            // overlaps with the consumer working through this one.
            self.submit();
        }
        match msg.block {
            Ok(block) if block.is_empty() => None, // clean end of run
            other => Some(other),
        }
    }

    /// The merge cursor over this feed's blocks; it receives the first
    /// block here.  A read error ends the run and is recorded in `failed`,
    /// which the merge checks after priming its cursors and after every
    /// pop.
    pub(crate) fn into_cursor(mut self, failed: &Arc<ReadErrorSlot>) -> RunCursor<V> {
        let failed = Arc::clone(failed);
        BlockSource::new(Box::new(move || {
            // The receive is where the merge waits for a block that is not
            // decoded yet (an inline feed decodes it here); time it so the
            // read path's cost is measurable.
            let stall_start = obs::enabled().then(Instant::now);
            let received = self.recv();
            if let Some(start) = stall_start {
                m().prefetch_stall_ns.record_duration(start.elapsed());
            }
            match received? {
                Ok(block) => {
                    if obs::enabled() {
                        m().blocks_consumed.incr();
                    }
                    Some(block)
                }
                Err(e) => {
                    failed.record(e);
                    None
                }
            }
        }))
    }
}

/// One decode step of a [`RunFeed`], run on a pool worker, or on the merge
/// thread for an inline feed or a full queue.  A panic inside a value
/// deserializer is converted to an error message (the worker survives;
/// the consumer sees `Some(Err)`).
fn pump_feed<V: SpillValue>(state: &Mutex<Option<FeedWork<V>>>) {
    let mut guard = state.lock().expect("prefetch feed state");
    let Some(work) = guard.as_mut() else { return };
    let _span = obs::span!("prefetch", run = work.index);
    let block_bytes = work.block_bytes;
    let decoded = catch_unwind(AssertUnwindSafe(|| {
        decode_one_block(&mut work.reader, block_bytes)
    }));
    let (msg, keep) = match decoded {
        Ok(Ok((block, end))) => (
            FeedMsg {
                block: Ok(block),
                last: end,
            },
            !end,
        ),
        Ok(Err(e)) => (
            FeedMsg {
                block: Err(e),
                last: true,
            },
            false,
        ),
        Err(panic) => {
            let what = panic_message(panic.as_ref());
            (
                FeedMsg {
                    block: Err(io::Error::other(format!("spill prefetch panicked: {what}"))),
                    last: true,
                },
                false,
            )
        }
    };
    let tx = work.tx.clone();
    if !keep {
        *guard = None; // drop the reader: the run is finished or failed
    }
    drop(guard);
    // Capacity-1 channel with exactly one task in flight per run: this
    // send never blocks the worker.
    let _ = tx.send(msg);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::write_run;
    use dtsort::SpillCompression;
    use std::path::{Path, PathBuf};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pisort-pipe-{}-{}", name, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn bio() -> SpillIoHandle {
        SpillIoHandle::blocking()
    }

    /// The feed shapes a merge uses: decoding ahead on the pool under
    /// either backend (`ahead` true), or inline on the receiving thread.
    fn feed_inputs(batched_workers: usize, batched_depth: usize) -> [(SpillIoHandle, bool); 3] {
        [
            (bio(), true),
            (SpillIoHandle::batched(batched_workers, batched_depth), true),
            (bio(), false),
        ]
    }

    #[test]
    fn feed_streams_a_run_in_blocks() {
        let dir = tmp_dir("prefetch");
        let path: &Path = &dir.join("run.bin");
        let records: Vec<(u64, u64)> = (0..10_000u64).map(|i| (i, i * 3)).collect();
        // Both encodings × both backends, and the inline feed, must stream
        // identical batches.
        for (io, ahead) in feed_inputs(2, 8) {
            for compression in [SpillCompression::Off, SpillCompression::DeltaLz] {
                let run = write_run(&io, path, &records, compression).unwrap();
                // A tiny budget forces many small blocks through the channel.
                let mut src = RunFeed::<u64>::open(&io, &run, 8 << 10, 0, ahead).unwrap();
                let mut got: Vec<(u64, u64)> = Vec::new();
                let mut blocks = 0usize;
                while let Some(block) = src.recv() {
                    got.extend(block.expect("clean run must not error"));
                    blocks += 1;
                }
                assert!(blocks > 5, "expected several blocks, got {blocks}");
                assert_eq!(got, records);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn feed_resumes_at_the_next_unserved_record_after_a_transient_read() {
        use crate::{FaultKind, FaultPlan};
        let dir = tmp_dir("resume");
        let path = dir.join("run.bin");
        let records: Vec<(u64, u64)> = (0..10_000u64).map(|i| (i, i * 3)).collect();
        for (clean, ahead) in feed_inputs(2, 8) {
            for compression in [SpillCompression::Off, SpillCompression::DeltaLz] {
                let run = write_run(&clean, &path, &records, compression).unwrap();
                let drain = |plan: &FaultPlan| {
                    let io = clean.with_faults(plan.clone());
                    let mut feed = RunFeed::<u64>::open(&io, &run, 8 << 10, 0, ahead).unwrap();
                    let mut got: Vec<(u64, u64)> = Vec::new();
                    while let Some(block) = feed.recv() {
                        got.extend(block.expect("a transient read must be absorbed"));
                    }
                    got
                };
                // A clean pass counts the run's reads; then one transient
                // failure at its first, a middle and its last read.  Any
                // record served twice or skipped changes the stream.
                let counter = FaultPlan::nth(FaultKind::ReadTransient, u64::MAX);
                assert_eq!(drain(&counter), records);
                let reads = counter.operations(FaultKind::ReadTransient);
                assert!(reads >= 3, "{compression:?}: only {reads} reads");
                for n in [0, reads / 2, reads - 1] {
                    let ctx = format!("{compression:?}, ahead {ahead}, read {n} of {reads}");
                    let plan = FaultPlan::nth(FaultKind::ReadTransient, n);
                    assert_eq!(drain(&plan), records, "{ctx}");
                    assert_eq!(plan.injected(), 1, "{ctx}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn feed_forwards_read_errors() {
        for (io, ahead) in feed_inputs(1, 4) {
            let dir = tmp_dir("prefetch-err");
            let path = dir.join("run.bin");
            let records: Vec<(u64, u64)> = (0..1000u64).map(|i| (i, i)).collect();
            let good = write_run(&io, &path, &records, SpillCompression::Off).unwrap();
            // Lie about the record count: the reader must hit the in-stream
            // guard and the feed must forward it (not hang or panic).
            let run = SpilledRun {
                path,
                len: records.len() + 1,
                bytes: good.bytes + 16,
                raw_bytes: good.raw_bytes + 16,
                compression: SpillCompression::Off,
                retries: 0,
            };
            match RunFeed::<u64>::open(&io, &run, 4096, 0, ahead) {
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
                Ok(mut src) => {
                    let mut saw_error = false;
                    while let Some(block) = src.recv() {
                        if block.is_err() {
                            saw_error = true;
                            break;
                        }
                    }
                    assert!(saw_error, "overcount must surface as a read error");
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
