//! Merge read-ahead: [`RunFeed`] decodes each spilled run's next block
//! ahead of the final k-way merge.
//!
//! A synchronous merge issues blocking reads from inside the loser-tree
//! hot loop, so the hardware is never decoding and merging at the same
//! time.  A [`RunFeed`] decodes record blocks ahead of the merge in steps
//! sized by the per-run share of the merge read budget, so the loser tree
//! pops from warm memory instead of cold reads.  Decode steps are
//! resubmit-on-consume tasks on the spill I/O handle's job pool under
//! either backend, so a k-way merge needs the pool's 2 threads
//! instead of k.  The write side of spill pipelining (one run in flight
//! to a background writer) lives in the crate-private `spiller` module.

use crate::metrics::m;
use crate::spill::{panic_message, RunReader, SpillValue, SpilledRun};
use crate::spillio::{JobPool, SpillIoHandle};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};

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
    /// which labels the `prefetch` trace spans and names the run in
    /// errors.
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
        let reader: RunReader<V> = RunReader::open(io, run, index, (reader_budget / 2).max(64))?;
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
