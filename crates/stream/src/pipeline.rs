//! Pipelined spill I/O: a background run writer and merge read-ahead.
//!
//! The streaming engines are CPU/disk alternators when run synchronously:
//! `push` blocks while a full run is sorted *and* written, and the final
//! merge issues blocking reads from inside the loser-tree hot loop, so the
//! hardware is never sorting and doing I/O at the same time.  This module
//! provides the two stages that overlap them:
//!
//! * [`SpillPipeline`] — a dedicated **writer thread** behind a bounded
//!   channel.  The producer hands over a frozen, sorted run and immediately
//!   starts filling a recycled buffer from the pipeline's pool; the writer
//!   streams the run to disk (fsync included) in the background.  The
//!   channel bound is the backpressure: at most
//!   [`dtsort::StreamConfig::spill_pipeline_depth`] runs are in flight, and
//!   each one is paid for by a budget share
//!   ([`dtsort::StreamConfig::spill_shares`]).
//! * [`RunFeed`] — per-run **merge read-ahead** that decodes record
//!   blocks ahead of the k-way merge in steps sized by the per-run share
//!   of the merge read budget, so the loser tree pops from warm memory
//!   instead of cold reads.  Decode steps are resubmit-on-consume tasks
//!   on the spill I/O handle's job pool under either backend, so a k-way
//!   merge needs `spill_io_workers` threads instead of k; the writer
//!   thread above is the only thread this module spawns.
//!
//! ## Error and ordering contract
//!
//! The writer preserves **submission order**: completed runs are recorded
//! in the order they were submitted, and after the first failure no later
//! run is written — subsequent submissions are stashed (with their
//! records intact) in order, so the owner can reclaim `completed ++
//! failed` as an order-preserving partition of everything it submitted.
//! A writer-side error is never dropped: it is returned by the next
//! [`SpillPipeline::poll_error`] / [`SpillPipeline::close`], which the
//! engines call on every `push` and on `finish`.  Writer panics (e.g. a
//! poisoned value serializer) are caught and converted to errors with the
//! same guarantees.

use crate::metrics::m;
use crate::spill::{wrap_spill_err, write_run_with_retry, RunReader, SpillValue, SpilledRun};
use crate::spillio::{JobPool, SpillIoHandle};
use dtsort::{IntegerKey, SpillCompression, SpillRetryPolicy};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Everything the writer thread and the owning engine share.
struct Shared<K, V> {
    state: Mutex<State<K, V>>,
    /// Signalled by the writer after every finished job (for
    /// [`SpillPipeline::flush`]).
    idle: Condvar,
}

struct State<K, V> {
    /// Runs written and synced, in submission order.
    completed: Vec<SpilledRun>,
    /// Runs *not* written (everything submitted after the first error, plus
    /// the failing run itself), in submission order, records intact.
    failed: Vec<Vec<(K, V)>>,
    /// First writer-side error; later errors are dropped (the first is the
    /// root cause and the pipeline stops writing after it).
    error: Option<io::Error>,
    /// Sticky failure flag: stays set even after the error itself is taken
    /// by [`SpillPipeline::poll_error`], so the writer keeps stashing
    /// (never resumes writing out of order) until the owner closes it.
    broken: bool,
    /// Cleared buffers of written runs, for the producer to reuse.
    pool: Vec<Vec<(K, V)>>,
    /// Jobs handed to [`SpillPipeline::submit`] so far.
    submitted: usize,
    /// Jobs the writer has fully processed (written or stashed).
    finished: usize,
    /// Set by [`SpillPipeline::abandon`]: stash instead of writing (the
    /// owner is being dropped unfinished, the bytes will never be read).
    abandoned: bool,
}

/// What a closed pipeline hands back to its owner.
pub(crate) struct ClosedPipeline<K, V> {
    /// Runs on disk, in submission order (always a prefix of the
    /// submissions).
    pub completed: Vec<SpilledRun>,
    /// Submitted runs that never reached disk, in submission order.
    pub failed: Vec<Vec<(K, V)>>,
    /// The first writer-side error, if any.
    pub error: Option<io::Error>,
}

/// Background spill-writer stage: see the module docs.
pub(crate) struct SpillPipeline<K: IntegerKey, V: SpillValue> {
    tx: Option<SyncSender<Vec<(K, V)>>>,
    worker: Option<JoinHandle<()>>,
    shared: Arc<Shared<K, V>>,
}

impl<K: IntegerKey, V: SpillValue> SpillPipeline<K, V> {
    /// Starts the writer thread over `dir`, naming run files
    /// `{prefix}NNNNNN.bin` and encoding them with `compression`.  `depth`
    /// bounds the in-flight runs (queued + being written); the buffer pool
    /// keeps at most `depth + 1` cleared run buffers for reuse.  `retry`
    /// governs how the writer handles transient I/O failures: each run is
    /// retried from scratch per the policy before it counts as failed.
    pub fn start(
        io: SpillIoHandle,
        dir: PathBuf,
        depth: usize,
        prefix: String,
        compression: SpillCompression,
        retry: SpillRetryPolicy,
    ) -> Self {
        let depth = depth.max(1);
        let (tx, rx) = sync_channel::<Vec<(K, V)>>(depth - 1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                completed: Vec::new(),
                failed: Vec::new(),
                error: None,
                broken: false,
                pool: Vec::new(),
                submitted: 0,
                finished: 0,
                abandoned: false,
            }),
            idle: Condvar::new(),
        });
        let worker_shared = Arc::clone(&shared);
        let pool_limit = depth + 1;
        let worker = std::thread::Builder::new()
            .name("pisort-spill-writer".to_string())
            .spawn(move || {
                writer_loop(
                    io,
                    rx,
                    dir,
                    prefix,
                    compression,
                    retry,
                    worker_shared,
                    pool_limit,
                )
            })
            .expect("failed to spawn spill-writer thread");
        Self {
            tx: Some(tx),
            worker: Some(worker),
            shared,
        }
    }

    /// Hands a sorted run to the writer, blocking while the pipeline is at
    /// depth (backpressure).  The handoff itself cannot fail: if the writer
    /// has already errored, the run is stashed — in order — for reclaim at
    /// [`SpillPipeline::close`]; call [`SpillPipeline::poll_error`]
    /// afterwards to learn about failures.
    pub fn submit(&mut self, run: Vec<(K, V)>) {
        {
            let mut st = self.shared.state.lock().expect("spill state");
            st.submitted += 1;
            if obs::enabled() {
                m().queue_depth.set((st.submitted - st.finished) as i64);
            }
        }
        let tx = self.tx.as_ref().expect("pipeline already closed");
        // The bounded send is the backpressure point: it blocks while the
        // pipeline is at depth.  Record the wait so budget tuning can see
        // when the producer outruns the disk.
        let send_result = if obs::enabled() {
            let start = std::time::Instant::now();
            let _bp = obs::span!("backpressure");
            let r = tx.send(run);
            m().backpressure_ns.record_duration(start.elapsed());
            r
        } else {
            tx.send(run)
        };
        if let Err(send) = send_result {
            // The writer thread is gone without draining the channel —
            // only possible if it aborted outside `catch_unwind`.  Keep
            // the records and surface an error rather than losing either.
            let mut st = self.shared.state.lock().expect("spill state");
            st.failed.push(send.0);
            st.finished += 1;
            if st.error.is_none() {
                st.error = Some(io::Error::other(
                    "spill writer thread terminated unexpectedly",
                ));
            }
            st.broken = true;
            self.shared.idle.notify_all();
        }
    }

    /// A cleared, capacity-bearing buffer recycled from a written run, if
    /// one is pooled (so steady-state spilling allocates no new run
    /// buffers).
    pub fn recycled_buffer(&self) -> Option<Vec<(K, V)>> {
        self.shared.state.lock().expect("spill state").pool.pop()
    }

    /// Moves the runs completed so far (in submission order) out of the
    /// pipeline.
    pub fn drain_completed(&self) -> Vec<SpilledRun> {
        std::mem::take(&mut self.shared.state.lock().expect("spill state").completed)
    }

    /// Takes the writer-side error, if one has occurred.  The caller is
    /// expected to tear the pipeline down ([`SpillPipeline::close`]) after
    /// seeing one.
    pub fn poll_error(&self) -> Option<io::Error> {
        self.shared.state.lock().expect("spill state").error.take()
    }

    /// Blocks until every submitted run has been written (or stashed), so
    /// spill statistics are exact and the data is durable.
    pub fn flush(&self) {
        let mut st = self.shared.state.lock().expect("spill state");
        while st.finished < st.submitted {
            st = self.shared.idle.wait(st).expect("spill state");
        }
    }

    /// Stops accepting runs, waits for the writer to drain the queue, and
    /// returns everything it produced.
    pub fn close(mut self) -> ClosedPipeline<K, V> {
        self.tx = None; // disconnect: the writer drains the queue and exits
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        let mut st = self.shared.state.lock().expect("spill state");
        ClosedPipeline {
            completed: std::mem::take(&mut st.completed),
            failed: std::mem::take(&mut st.failed),
            error: st.error.take(),
        }
    }

    /// Marks the pipeline as abandoned (owner dropped without `finish`):
    /// still-queued runs are stashed instead of written, since nothing will
    /// ever read them.
    fn abandon(&self) {
        self.shared.state.lock().expect("spill state").abandoned = true;
    }
}

impl<K: IntegerKey, V: SpillValue> Drop for SpillPipeline<K, V> {
    fn drop(&mut self) {
        // `close` consumed the worker already in the normal path.  If the
        // owner is dropped mid-stream, skip the queued writes and join so
        // the spill directory is not deleted under a live writer.
        if self.worker.is_some() {
            self.abandon();
            self.tx = None;
            if let Some(worker) = self.worker.take() {
                let _ = worker.join();
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn writer_loop<K: IntegerKey, V: SpillValue>(
    io: SpillIoHandle,
    rx: Receiver<Vec<(K, V)>>,
    dir: PathBuf,
    prefix: String,
    compression: SpillCompression,
    retry: SpillRetryPolicy,
    shared: Arc<Shared<K, V>>,
    pool_limit: usize,
) {
    let mut seq = 0usize;
    while let Ok(buf) = rx.recv() {
        let skip = {
            let st = shared.state.lock().expect("spill state");
            st.broken || st.abandoned
        };
        if skip {
            // Ordering: stashing happens here, on the single writer
            // thread, so failed runs line up FIFO after the failing one.
            let mut st = shared.state.lock().expect("spill state");
            st.failed.push(buf);
            st.finished += 1;
            shared.idle.notify_all();
            continue;
        }
        let path = dir.join(format!("{prefix}{seq:06}.bin"));
        // A panic inside a value serializer must neither kill the channel
        // (hanging the producer's bounded send) nor drop the run's records:
        // convert it to an error with the run stashed like any I/O failure.
        let result = if obs::enabled() {
            let start = std::time::Instant::now();
            let _span = obs::span!("spill_write", run = seq);
            let r = catch_unwind(AssertUnwindSafe(|| {
                write_run_with_retry(&io, &path, &buf, compression, &retry)
            }));
            m().write_ns.record_duration(start.elapsed());
            r
        } else {
            catch_unwind(AssertUnwindSafe(|| {
                write_run_with_retry(&io, &path, &buf, compression, &retry)
            }))
        };
        let mut st = shared.state.lock().expect("spill state");
        match result {
            Ok(Ok(run)) => {
                st.completed.push(run);
                seq += 1;
                if st.pool.len() < pool_limit {
                    let mut recycled = buf;
                    recycled.clear();
                    st.pool.push(recycled);
                }
            }
            Ok(Err(e)) => {
                std::fs::remove_file(&path).ok();
                if st.error.is_none() {
                    // Attach the typed spill context without disturbing the
                    // error's kind, so callers can still tell ENOSPC from
                    // corruption after the pipeline relays it.
                    let attempted: u64 = buf.iter().map(|(_, v)| 8 + v.spill_size() as u64).sum();
                    st.error = Some(wrap_spill_err(&path, seq, attempted, e));
                }
                st.broken = true;
                st.failed.push(buf);
            }
            Err(panic) => {
                std::fs::remove_file(&path).ok();
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                if st.error.is_none() {
                    st.error = Some(io::Error::other(format!("spill writer panicked: {msg}")));
                }
                st.broken = true;
                st.failed.push(buf);
            }
        }
        st.finished += 1;
        if obs::enabled() {
            m().queue_depth.set((st.submitted - st.finished) as i64);
        }
        shared.idle.notify_all();
    }
}

/// Decodes the next batch of records (roughly `block_bytes` of decoded
/// payload) from `reader`; returns the batch and whether the run is now
/// exhausted.
fn decode_one_block<V: SpillValue>(
    reader: &mut RunReader<V>,
    block_bytes: usize,
) -> io::Result<(Vec<(u64, V)>, bool)> {
    let refill_start = obs::enabled().then(std::time::Instant::now);
    let mut block: Vec<(u64, V)> = Vec::new();
    let mut bytes = 0usize;
    let mut end_of_run = false;
    loop {
        match reader.next_record()? {
            Some((key, value)) => {
                bytes += 8 + value.spill_size();
                block.push((key, value));
                if bytes >= block_bytes {
                    break;
                }
            }
            None => {
                end_of_run = true;
                break;
            }
        }
    }
    if let Some(start) = refill_start {
        m().prefetch_refill_ns.record_duration(start.elapsed());
        if !block.is_empty() {
            m().blocks_prefetched.incr();
        }
    }
    Ok((block, end_of_run))
}

/// One message per decode task: the batch, and whether it is the run's
/// last (error or end of run).
struct FeedMsg<V> {
    block: io::Result<Vec<(u64, V)>>,
    last: bool,
}

/// The per-run producer state a decode task operates on.  `None` once the
/// run is exhausted or failed.
struct FeedWork<V: SpillValue> {
    reader: RunReader<V>,
    block_bytes: usize,
    tx: SyncSender<FeedMsg<V>>,
    index: usize,
}

/// Read-ahead stage of the final merge for one spilled run: short-lived
/// decode tasks on the spill I/O handle's job pool, **resubmitted on
/// consume** — at most one task per run is ever in flight, and each task
/// sends exactly one message into a capacity-1 channel, so a task never
/// blocks a worker on its output side and at most ~three batches are
/// alive per run (queued, decoding, being consumed).  On the input side a
/// `Batched` decode step may span several read chunks; the claimable-pread
/// discipline in `spillio.rs` services those inline on the decoding worker
/// (and `submit` never blocks on a full queue), so a task cannot wedge
/// the pool waiting on I/O jobs queued behind it — even with merge fan-in
/// at or above the worker count.  A submit that finds the queue at depth
/// runs the decode step inline on the merge thread instead, so there is
/// no fan-in cap: past the queue depth, read-ahead degrades to
/// synchronous decode rather than starving.
pub(crate) struct RunFeed<V: SpillValue> {
    rx: Receiver<FeedMsg<V>>,
    state: Arc<Mutex<Option<FeedWork<V>>>>,
    pool: JobPool,
    done: bool,
}

impl<V: SpillValue> RunFeed<V> {
    /// Opens `run` through `io` (surfacing open-time validation errors
    /// synchronously) and submits its first decode step.  `reader_budget`
    /// is this run's share of the merge read budget, split so the total
    /// stays within the share: half for the underlying buffered reader,
    /// the rest for the decoded batches — of which up to three are alive
    /// at once, hence sixths.  `index` is the run's position in the merge,
    /// used only to label the `prefetch` trace spans.
    ///
    /// The floors below keep the reader functional without re-inflating a
    /// small share: merges only engage read-ahead when the per-run budget
    /// is at least [`crate::sorter::MIN_PREFETCH_RUN_BUDGET`], so the
    /// splits here stay within the share the caller granted.
    pub fn open(
        io: &SpillIoHandle,
        run: &SpilledRun,
        reader_budget: usize,
        index: usize,
    ) -> io::Result<Self> {
        let reader: RunReader<V> = RunReader::open(io, run, (reader_budget / 2).max(64))?;
        let block_bytes = (reader_budget / 6).max(64);
        let pool = io.pool().clone();
        let (tx, rx) = sync_channel::<FeedMsg<V>>(1);
        let state = Arc::new(Mutex::new(Some(FeedWork {
            reader,
            block_bytes,
            tx,
            index,
        })));
        let task_state = Arc::clone(&state);
        pool.submit(Box::new(move || pump_feed(&task_state)));
        Ok(Self {
            rx,
            state,
            pool,
            done: false,
        })
    }

    /// The next decoded batch: `None` is clean end of run, `Some(Err)` a
    /// read error (terminal — no further batches follow).
    pub fn recv(&mut self) -> Option<io::Result<Vec<(u64, V)>>> {
        if self.done {
            return None;
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
            let state = Arc::clone(&self.state);
            self.pool.submit(Box::new(move || pump_feed(&state)));
        }
        match msg.block {
            Ok(block) if block.is_empty() => None, // clean end of run
            other => Some(other),
        }
    }
}

/// One decode step of a [`RunFeed`], run on a pool worker (or inline on
/// the merge thread when the queue is at depth).  A panic
/// inside a value deserializer is converted to an error message (the
/// worker survives; the consumer sees `Some(Err)`).
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
            let what = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
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
    use std::path::Path;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pisort-pipe-{}-{}", name, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn bio() -> SpillIoHandle {
        SpillIoHandle::blocking()
    }

    fn read_back(run: &SpilledRun) -> Vec<(u64, u64)> {
        RunReader::<u64>::open(&bio(), run, 4096)
            .unwrap()
            .read_all::<u64>()
            .unwrap()
    }

    #[test]
    fn writes_runs_in_submission_order_and_recycles_buffers() {
        let dir = tmp_dir("order");
        let mut pipe: SpillPipeline<u64, u64> = SpillPipeline::start(
            bio(),
            dir.clone(),
            2,
            "run-p".to_string(),
            SpillCompression::Off,
            SpillRetryPolicy::default(),
        );
        for r in 0..6u64 {
            let run: Vec<(u64, u64)> = (0..100).map(|i| (i, r)).collect();
            pipe.submit(run);
        }
        pipe.flush();
        assert!(pipe.recycled_buffer().is_some(), "pool must recycle");
        let closed = pipe.close();
        assert!(closed.error.is_none());
        assert!(closed.failed.is_empty());
        assert_eq!(closed.completed.len(), 6);
        for (r, run) in closed.completed.iter().enumerate() {
            assert_eq!(run.len, 100);
            let records = read_back(run);
            // The r-th completed run is exactly the r-th submitted run.
            assert!(records.iter().all(|&(_, tag)| tag == r as u64));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_stops_writing_and_stashes_later_runs_in_order() {
        let dir = tmp_dir("err");
        let mut pipe: SpillPipeline<u64, u64> = SpillPipeline::start(
            bio(),
            dir.clone(),
            2,
            "run-p".to_string(),
            SpillCompression::Off,
            SpillRetryPolicy::default(),
        );
        pipe.submit(vec![(1, 0)]);
        pipe.flush();
        // Break the spill directory under the writer: every later write
        // must fail, and no later run may be partially written.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"blocked").unwrap();
        for r in 1..5u64 {
            pipe.submit(vec![(1, r)]);
        }
        pipe.flush();
        assert!(pipe.poll_error().is_some(), "writer error must surface");
        let closed = pipe.close();
        assert_eq!(closed.completed.len(), 1, "only the pre-error run");
        assert_eq!(closed.failed.len(), 4, "every post-error run reclaimed");
        for (i, run) in closed.failed.iter().enumerate() {
            assert_eq!(run[0].1, 1 + i as u64, "stash preserves order");
        }
        std::fs::remove_file(&dir).ok();
    }

    #[test]
    fn close_surfaces_the_error_when_not_polled() {
        let dir = tmp_dir("close-err");
        let blocked = dir.join("blocked-file");
        std::fs::write(&blocked, b"x").unwrap();
        // Point the pipeline *at a file*: the very first write fails.
        let mut pipe: SpillPipeline<u64, u64> = SpillPipeline::start(
            bio(),
            blocked.clone(),
            1,
            "run-p".to_string(),
            SpillCompression::Off,
            SpillRetryPolicy::default(),
        );
        pipe.submit(vec![(9, 9)]);
        let closed = pipe.close();
        assert!(closed.error.is_some(), "close must never drop the error");
        assert_eq!(closed.failed.len(), 1);
        assert_eq!(closed.failed[0], vec![(9, 9)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn feed_streams_a_run_in_blocks() {
        let dir = tmp_dir("prefetch");
        let path: &Path = &dir.join("run.bin");
        let records: Vec<(u64, u64)> = (0..10_000u64).map(|i| (i, i * 3)).collect();
        // Both encodings × both backends must stream identical batches.
        for io in [bio(), SpillIoHandle::batched(2, 8)] {
            for compression in [SpillCompression::Off, SpillCompression::DeltaLz] {
                let run = write_run(&io, path, &records, compression).unwrap();
                // A tiny budget forces many small blocks through the channel.
                let mut src = RunFeed::<u64>::open(&io, &run, 8 << 10, 0).unwrap();
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
    fn feed_forwards_read_errors() {
        for io in [bio(), SpillIoHandle::batched(1, 4)] {
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
            match RunFeed::<u64>::open(&io, &run, 4096, 0) {
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
