//! Pluggable spill I/O backends behind the sealed [`SpillIo`] trait.
//!
//! Every spilled byte the streaming engines read or write flows through a
//! [`SpillIoHandle`], so `spill.rs`, `pipeline.rs` and the engines never
//! name `File`/`BufWriter` directly.  Two backends exist, selected by
//! [`dtsort::StreamConfig::spill_io`]:
//!
//! * [`SpillIoMode::Blocking`] — plain file calls: a `BufWriter` over
//!   `File::create` for runs, and reads from `File::open` straight into
//!   the caller's buffer for merges (the run reader reads a window of the
//!   run per call, so a second buffer would only add a copy).  This is
//!   the differential reference.
//! * [`SpillIoMode::Batched`] — positioned-I/O jobs over pooled, recycled
//!   buffers, in the queue-pair discipline of userspace-NVMe runtimes:
//!   bounded queue depth, poll completions, recycle buffers.  Writers
//!   chunk their stream into `pwrite` jobs and fsync on
//!   [`SpillWrite::finish`]; readers double-buffer `pread` jobs one chunk
//!   ahead.
//!
//! Every handle owns one [`JobPool`] — [`SPILL_IO_WORKERS`] threads
//! behind one bounded queue of [`SPILL_IO_QUEUE_DEPTH`] jobs — started on
//! its first submit, so an engine that never merges with read-ahead (and
//! never spills through `Batched`) spawns no I/O threads.  The merge
//! read-ahead of `pipeline.rs` runs on this pool under *both* backends, so
//! a k-way merge uses at most [`SPILL_IO_WORKERS`] decode threads
//! regardless of the run count; `Batched` adds its `pwrite`/`pread` jobs
//! to the same queue.  [`SpillIoHandle::with_faults`] views share the pool
//! of the handle they wrap.
//!
//! Whether merges read ahead at all is the handle's decision, made once
//! when it is built: only on a host with more than one CPU.  On one CPU
//! the decode tasks cannot run while the merge does, and page-cache-warm
//! reads make them pure overhead, so the merging thread decodes each
//! block itself.
//!
//! ## No pool thread ever blocks on pool work
//!
//! Because the merge read-ahead tasks of `pipeline.rs` run *on* the pool
//! and, under `Batched`, themselves read through [`BatchedRead`], a pool
//! thread must never wait for a job that only another pool thread could
//! run — with fan-in at or above the worker count that wait is a
//! permanent deadlock.  Two rules enforce it:
//!
//! * `pread` jobs are **claimable**: whichever thread needs the result
//!   first — a worker dequeuing the job or the consumer calling
//!   [`Read::read`] — claims and services it inline.  A consumer only
//!   ever sleeps on a read another thread is *actively executing*, and
//!   the executing thread never blocks, so the wait is bounded.
//! * [`JobPool::submit`] never blocks: when the bounded queue is at
//!   depth, the submitter runs the job inline on its own thread
//!   (backpressure by inline execution), so worker-originated
//!   submissions cannot wedge the pool either — and a merge with more
//!   runs than queue slots decodes the overflow inline instead of
//!   starving it.
//!
//! ## Error contract
//!
//! Batched writes complete asynchronously, but no error is ever dropped:
//! a failed chunk is recorded in the writer's shared state and surfaces
//! on the next [`Write::write`] or at [`SpillWrite::finish`] — which also
//! orders the durability step (`sync_data`) strictly after every chunk
//! has landed, preserving the fsync-before-record spill contract.  A
//! panicking job is caught by the worker (the pool survives) and turns
//! into an `io::Error` at the consumer.

use crate::metrics::m;
use dtsort::{SpillIoMode, StreamConfig};
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::os::unix::fs::FileExt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Bytes a batched writer accumulates before handing one positioned-write
/// job to the workers.
const WRITE_CHUNK_BYTES: usize = 256 << 10;

/// Worker threads of every handle's job pool: they run the merge
/// read-ahead's decode tasks and, under `Batched`, the positioned reads
/// and writes.
const SPILL_IO_WORKERS: usize = 2;

/// Bound of every handle's job-pool queue.  A job submitted while it is
/// full runs inline on its submitter instead of blocking, so this caps
/// queued work, not merge fan-in: runs past the depth decode on the
/// merging thread.
const SPILL_IO_QUEUE_DEPTH: usize = 32;

pub(crate) mod sealed_io {
    pub trait Sealed {}
}

/// Sink for one spill run.  `Write` feeds the encoded bytes;
/// [`SpillWrite::finish`] makes them durable.
pub(crate) trait SpillWrite: Write + Send {
    /// Completes the file: drains everything buffered or in flight and
    /// syncs the data to disk.  Errors from earlier asynchronous chunk
    /// writes surface here at the latest.
    fn finish(self: Box<Self>) -> io::Result<()>;
}

/// Sequential source over one spill run.
pub(crate) trait SpillRead: Read + Send {}

/// The sealed backend interface: open/create files for spill traffic.
pub(crate) trait SpillIo: Send + Sync + sealed_io::Sealed {
    fn create(&self, path: &Path) -> io::Result<Box<dyn SpillWrite>>;
    /// Opens `path` for sequential reading; returns the reader and the
    /// file's current length (for the caller's truncation check).
    /// `Batched` reads ahead in positioned-read chunks of `buffer_bytes`
    /// (two in flight); `Blocking` keeps no buffer of its own.
    fn open(&self, path: &Path, buffer_bytes: usize) -> io::Result<(Box<dyn SpillRead>, u64)>;
    fn mode(&self) -> SpillIoMode;
    /// Failure injection: error every write after `bytes` more bytes
    /// (no-op on `Blocking`).  Only reachable from `#[cfg(test)]` code.
    #[cfg_attr(not(test), allow(dead_code))]
    fn set_write_fuse(&self, _bytes: u64) {}
    /// Failure injection: make a tripped write fuse *panic* on the worker
    /// instead of erroring (exercises the pool's worker-panic hardening).
    #[cfg_attr(not(test), allow(dead_code))]
    fn set_write_fuse_panics(&self, _on: bool) {}
}

/// A cloneable, shareable handle to one spill I/O backend and its job
/// pool.  Engines default to [`SpillIoHandle::from_config`]; the server
/// shares one handle across sessions, so every session's merges and
/// batched I/O run on one set of workers.
#[derive(Clone)]
pub struct SpillIoHandle {
    inner: Arc<dyn SpillIo>,
    /// Merge read-ahead (both backends) and `Batched`'s positioned I/O;
    /// started on first submit.
    pool: JobPool,
    /// Whether merges over this handle decode ahead of the loser tree,
    /// decided when the handle is built.
    read_ahead: bool,
}

impl std::fmt::Debug for SpillIoHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillIoHandle")
            .field("mode", &self.inner.mode())
            .field("read_ahead", &self.read_ahead)
            .finish()
    }
}

impl SpillIoHandle {
    /// The blocking backend (`BufWriter` writes, unbuffered reads).
    pub fn blocking() -> Self {
        Self::new(
            SpillIoMode::Blocking,
            SPILL_IO_WORKERS,
            SPILL_IO_QUEUE_DEPTH,
        )
    }

    /// The backend `cfg` selects (`spill_io`), over a pool of 2 threads
    /// and 32 queue slots, reading ahead of merges when the host has more
    /// than one CPU.
    pub fn from_config(cfg: &StreamConfig) -> Self {
        Self::new(cfg.spill_io, SPILL_IO_WORKERS, SPILL_IO_QUEUE_DEPTH)
    }

    /// `mode` over a pool of `workers` threads and `queue_depth` slots.
    pub(crate) fn new(mode: SpillIoMode, workers: usize, queue_depth: usize) -> Self {
        let pool = JobPool::new(workers, queue_depth);
        let inner: Arc<dyn SpillIo> = match mode {
            SpillIoMode::Blocking => Arc::new(BlockingIo),
            SpillIoMode::Batched => Arc::new(BatchedIo::new(pool.clone())),
        };
        Self {
            inner,
            pool,
            // One CPU (as this process's affinity sees it) cannot decode
            // while it merges.
            read_ahead: std::thread::available_parallelism().is_ok_and(|p| p.get() > 1),
        }
    }

    /// The batched backend over a pool of `workers` threads and
    /// `queue_depth` slots, for unit tests that need a tight pool.
    #[cfg(test)]
    pub(crate) fn batched(workers: usize, queue_depth: usize) -> Self {
        Self::new(SpillIoMode::Batched, workers, queue_depth)
    }

    /// This handle with read-ahead pinned on or off whatever the host, so
    /// unit tests reach either merge path on any machine.
    #[cfg(test)]
    pub(crate) fn reading_ahead(mut self, on: bool) -> Self {
        self.read_ahead = on;
        self
    }

    pub fn mode(&self) -> SpillIoMode {
        self.inner.mode()
    }

    /// Whether merges over this handle decode each run ahead of the loser
    /// tree on the job pool: decided once, when the handle was built, by
    /// whether the host has more than one CPU.
    pub(crate) fn reads_ahead(&self) -> bool {
        self.read_ahead
    }

    /// Wraps this handle in a deterministic fault-injection layer (the
    /// crate-private `FaultIo`): the returned handle shares the same
    /// backend and job pool underneath — workers, recycled buffers, queue
    /// depth — but
    /// filters every create/open/write/read through `plan`.  Fault scope
    /// is therefore per *handle*: a server can hand one session a faulted
    /// view of the shared pool while every other session keeps the clean
    /// view, which is exactly how the chaos tests prove cross-session
    /// isolation.
    pub fn with_faults(&self, plan: crate::fault::FaultPlan) -> Self {
        Self {
            inner: Arc::new(crate::fault::FaultIo::new(Arc::clone(&self.inner), plan)),
            pool: self.pool.clone(),
            read_ahead: self.read_ahead,
        }
    }

    pub(crate) fn create(&self, path: &Path) -> io::Result<Box<dyn SpillWrite>> {
        self.inner.create(path)
    }

    pub(crate) fn open(
        &self,
        path: &Path,
        buffer_bytes: usize,
    ) -> io::Result<(Box<dyn SpillRead>, u64)> {
        self.inner.open(path, buffer_bytes)
    }

    /// The job pool merge read-ahead runs on.
    pub(crate) fn pool(&self) -> &JobPool {
        &self.pool
    }

    /// Failure injection for tests: every batched write past `bytes` more
    /// bytes fails with an injected short write.
    #[cfg(test)]
    pub(crate) fn inject_write_failure_after(&self, bytes: u64) {
        self.inner.set_write_fuse(bytes);
    }

    /// Failure injection for tests: the first batched write past `bytes`
    /// more bytes *panics on the pool worker* — the worker-crash chaos
    /// scenario, as opposed to the clean short write above.
    #[cfg(test)]
    pub(crate) fn inject_write_panic_after(&self, bytes: u64) {
        self.inner.set_write_fuse_panics(true);
        self.inner.set_write_fuse(bytes);
    }

    /// Disarms both injected-failure fuses ("the disk healed").
    #[cfg(test)]
    pub(crate) fn clear_write_failures(&self) {
        self.inner.set_write_fuse_panics(false);
        self.inner.set_write_fuse(u64::MAX);
    }
}

// ---------------------------------------------------------------------------
// Blocking backend — byte-for-byte today's path.
// ---------------------------------------------------------------------------

struct BlockingIo;

impl sealed_io::Sealed for BlockingIo {}

impl SpillIo for BlockingIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn SpillWrite>> {
        let file = File::create(path)?;
        Ok(Box::new(BlockingWriter {
            writer: BufWriter::with_capacity(1 << 20, file),
        }))
    }

    fn open(&self, path: &Path, _buffer_bytes: usize) -> io::Result<(Box<dyn SpillRead>, u64)> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok((Box::new(file), len))
    }

    fn mode(&self) -> SpillIoMode {
        SpillIoMode::Blocking
    }
}

struct BlockingWriter {
    writer: BufWriter<File>,
}

impl Write for BlockingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writer.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

impl SpillWrite for BlockingWriter {
    fn finish(self: Box<Self>) -> io::Result<()> {
        let mut writer = self.writer;
        writer.flush()?;
        writer.get_ref().sync_data()
    }
}

/// `Blocking` reads go straight into the caller's buffer: the run
/// reader's window is the only read buffer, so it is not copied through a
/// second one.
impl SpillRead for File {}

// ---------------------------------------------------------------------------
// The job pool, and the batched backend on top of it.
// ---------------------------------------------------------------------------

pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// A bounded submission queue plus its worker threads, spawned on the
/// first [`JobPool::submit`].  Cloning shares the queue; workers exit when
/// every clone is gone.
#[derive(Clone)]
pub(crate) struct JobPool {
    inner: Arc<PoolInner>,
}

struct PoolInner {
    workers: usize,
    queue_depth: usize,
    tx: OnceLock<SyncSender<Job>>,
    queued: Arc<AtomicUsize>,
}

impl JobPool {
    fn new(workers: usize, queue_depth: usize) -> Self {
        Self {
            inner: Arc::new(PoolInner {
                workers,
                queue_depth,
                tx: OnceLock::new(),
                queued: Arc::new(AtomicUsize::new(0)),
            }),
        }
    }

    /// The queue's sender, starting the workers on first use.
    fn sender(&self) -> &SyncSender<Job> {
        self.inner.tx.get_or_init(|| {
            let (tx, rx) = sync_channel::<Job>(self.inner.queue_depth);
            let rx = Arc::new(Mutex::new(rx));
            for w in 0..self.inner.workers {
                let rx = Arc::clone(&rx);
                let queued = Arc::clone(&self.inner.queued);
                std::thread::Builder::new()
                    .name(format!("pisort-spill-io-{w}"))
                    .spawn(move || loop {
                        let job = {
                            let guard = rx.lock().expect("spill io queue");
                            guard.recv()
                        };
                        let Ok(job) = job else { return };
                        let start = obs::enabled().then(Instant::now);
                        // A panicking job must not take the worker down:
                        // the job's owner observes the failure through its
                        // own channel/state, and the pool keeps serving.
                        let _ = catch_unwind(AssertUnwindSafe(job));
                        let left = queued.fetch_sub(1, Ordering::Relaxed) - 1;
                        if let Some(start) = start {
                            let metrics = m();
                            metrics.spillio_complete_ns.record_duration(start.elapsed());
                            metrics.spillio_queue_depth.set(left as i64);
                        }
                    })
                    .expect("failed to spawn spill-io worker");
            }
            tx
        })
    }

    /// Whether `self` and `other` share one queue.
    #[cfg(test)]
    pub(crate) fn same_pool(&self, other: &JobPool) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Enqueues a job.  When the queue is at depth the submitter runs the
    /// job inline on its own thread instead of blocking — the
    /// submission-side backpressure of the queue-pair discipline, without
    /// ever letting a pool worker (which submits preads and pump resubmits
    /// mid-job) wait on a queue only workers drain.
    pub(crate) fn submit(&self, job: Job) {
        let tx = self.sender();
        let queued = &self.inner.queued;
        let depth = queued.fetch_add(1, Ordering::Relaxed) + 1;
        if obs::enabled() {
            let metrics = m();
            metrics.spillio_jobs.incr();
            metrics.spillio_queue_depth.set(depth as i64);
        }
        match tx.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(job)) => {
                queued.fetch_sub(1, Ordering::Relaxed);
                if obs::enabled() {
                    m().spillio_inline_jobs.incr();
                }
                // Same panic isolation as the workers: an inline job must
                // not unwind into the submitter, whose owner observes the
                // failure through the job's own channel/state.
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
            Err(TrySendError::Disconnected(_)) => panic!("spill io workers gone"),
        }
    }
}

/// State shared by the batched backend's writers and readers: the handle's
/// job pool, the buffer pool and the failure-injection fuses.
struct BatchedCore {
    pool: JobPool,
    /// Cleared chunk buffers recycled between jobs.
    buffers: Mutex<Vec<Vec<u8>>>,
    /// Failure injection: remaining bytes before writes start failing
    /// (`i64::MAX` = disabled).
    write_fuse: AtomicI64,
    /// Failure injection: when set, a tripped fuse panics on the worker
    /// instead of returning the short-write error.
    write_fuse_panics: std::sync::atomic::AtomicBool,
}

impl BatchedCore {
    fn take_buffer(&self) -> Vec<u8> {
        self.buffers
            .lock()
            .expect("spill io buffers")
            .pop()
            .unwrap_or_default()
    }

    fn recycle_buffer(&self, mut buf: Vec<u8>) {
        buf.clear();
        let mut pool = self.buffers.lock().expect("spill io buffers");
        if pool.len() < self.pool.inner.queue_depth + 2 {
            pool.push(buf);
        }
    }

    /// Writes `data` at `off`, honoring the injection fuse: once the fuse
    /// runs out, only the allowed prefix lands and the write errors (a
    /// short write, exactly what a full disk produces).
    fn checked_write(&self, file: &File, data: &[u8], off: u64) -> io::Result<()> {
        let len = data.len() as i64;
        let allowed = self.write_fuse.fetch_sub(len, Ordering::Relaxed);
        if allowed < len {
            if self.write_fuse_panics.load(Ordering::Relaxed) {
                panic!("injected spill-write worker panic");
            }
            let keep = allowed.max(0) as usize;
            file.write_all_at(&data[..keep], off)?;
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected short write",
            ));
        }
        file.write_all_at(data, off)
    }
}

struct BatchedIo {
    core: Arc<BatchedCore>,
}

impl BatchedIo {
    fn new(pool: JobPool) -> Self {
        Self {
            core: Arc::new(BatchedCore {
                pool,
                buffers: Mutex::new(Vec::new()),
                write_fuse: AtomicI64::new(i64::MAX),
                write_fuse_panics: std::sync::atomic::AtomicBool::new(false),
            }),
        }
    }
}

impl sealed_io::Sealed for BatchedIo {}

impl SpillIo for BatchedIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn SpillWrite>> {
        let file = File::create(path)?;
        Ok(Box::new(BatchedWriter {
            core: Arc::clone(&self.core),
            file: Arc::new(file),
            buf: self.core.take_buffer(),
            offset: 0,
            shared: Arc::new(WriteShared {
                state: Mutex::new(WriteState {
                    pending: 0,
                    error: None,
                    broken: false,
                }),
                done: Condvar::new(),
            }),
        }))
    }

    fn open(&self, path: &Path, buffer_bytes: usize) -> io::Result<(Box<dyn SpillRead>, u64)> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut reader = BatchedRead {
            core: Arc::clone(&self.core),
            file: Arc::new(file),
            len,
            chunk: buffer_bytes.max(64),
            next_offset: 0,
            cur: Vec::new(),
            cur_pos: 0,
            pending: None,
        };
        reader.submit_next(); // first chunk in flight before the first read
        Ok((Box::new(reader), len))
    }

    fn mode(&self) -> SpillIoMode {
        SpillIoMode::Batched
    }

    fn set_write_fuse(&self, bytes: u64) {
        self.core
            .write_fuse
            .store(bytes.min(i64::MAX as u64) as i64, Ordering::Relaxed);
    }

    fn set_write_fuse_panics(&self, on: bool) {
        self.core.write_fuse_panics.store(on, Ordering::Relaxed);
    }
}

struct WriteShared {
    state: Mutex<WriteState>,
    done: Condvar,
}

struct WriteState {
    /// Chunk jobs submitted but not yet completed.
    pending: usize,
    /// First chunk-write failure; later ones are dropped.
    error: Option<io::Error>,
    /// Sticky: stays set after the error is taken, so `finish` cannot
    /// report success for a file that lost a chunk.
    broken: bool,
}

/// Chunked positioned-write sink: fills a pooled buffer, hands full
/// chunks to the workers as `pwrite` jobs, waits for all of them (then
/// fsyncs) on `finish`.
struct BatchedWriter {
    core: Arc<BatchedCore>,
    file: Arc<File>,
    buf: Vec<u8>,
    offset: u64,
    shared: Arc<WriteShared>,
}

impl BatchedWriter {
    /// Surfaces any recorded chunk failure, then submits the current
    /// buffer as one positioned-write job.
    fn submit_chunk(&mut self) -> io::Result<()> {
        {
            let mut st = self.shared.state.lock().expect("spill write state");
            if let Some(e) = st.error.take() {
                return Err(e);
            }
            if st.broken {
                return Err(io::Error::other("spill write already failed"));
            }
            st.pending += 1;
        }
        let data = std::mem::replace(&mut self.buf, self.core.take_buffer());
        if data.is_empty() {
            let mut st = self.shared.state.lock().expect("spill write state");
            st.pending -= 1;
            return Ok(());
        }
        let off = self.offset;
        self.offset += data.len() as u64;
        let file = Arc::clone(&self.file);
        let core = Arc::clone(&self.core);
        let shared = Arc::clone(&self.shared);
        self.core.pool.submit(Box::new(move || {
            // The pool's worker catches panics, but a panic escaping this
            // job before `pending` is decremented would strand `finish` on
            // a count that never drains.  Catch it here and convert it to
            // an error so a crashing write fails *this file* (and only
            // this file) instead of hanging its session.
            let result = catch_unwind(AssertUnwindSafe(|| core.checked_write(&file, &data, off)))
                .unwrap_or_else(|_| Err(io::Error::other("spill write job panicked")));
            core.recycle_buffer(data);
            let mut st = shared.state.lock().expect("spill write state");
            st.pending -= 1;
            if let Err(e) = result {
                if st.error.is_none() {
                    st.error = Some(e);
                }
                st.broken = true;
            }
            shared.done.notify_all();
        }));
        Ok(())
    }
}

impl Write for BatchedWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        if self.buf.len() >= WRITE_CHUNK_BYTES {
            self.submit_chunk()?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl SpillWrite for BatchedWriter {
    fn finish(mut self: Box<Self>) -> io::Result<()> {
        self.submit_chunk()?;
        let mut st = self.shared.state.lock().expect("spill write state");
        while st.pending > 0 {
            st = self.shared.done.wait(st).expect("spill write state");
        }
        if let Some(e) = st.error.take() {
            return Err(e);
        }
        if st.broken {
            return Err(io::Error::other("spill write already failed"));
        }
        drop(st);
        // Durability strictly after every chunk has landed: the caller
        // records the run as spilled only once this returns.
        self.file.sync_data()
    }
}

/// One positioned read, claimable by whichever thread reaches it first:
/// the pool worker that dequeues it, or the consumer that needs its
/// result.  The consumer servicing an unstarted read *inline* (instead of
/// sleeping on the pool) is what lets merge read-ahead tasks run on the
/// I/O workers themselves: a worker mid-decode that needs its reader's
/// next chunk does the `pread` on the spot rather than waiting for a
/// worker slot that may never free up.
struct PreadJob {
    file: Arc<File>,
    off: u64,
    size: usize,
    state: Mutex<PreadState>,
    done: Condvar,
}

enum PreadState {
    /// Not started; holds the destination buffer for the first claimant.
    Queued(Vec<u8>),
    /// Some thread is executing the read (or took it inline).
    Running,
    /// Finished; the result awaits the consumer.
    Done(io::Result<Vec<u8>>),
    /// The consumer already has the result.
    Taken,
}

impl PreadJob {
    fn execute(&self, mut buf: Vec<u8>) -> io::Result<Vec<u8>> {
        buf.resize(self.size, 0);
        self.file.read_exact_at(&mut buf, self.off).map(|()| buf)
    }

    /// Worker side: run the read unless a consumer already claimed it.
    fn run_queued(&self) {
        let buf = {
            let mut st = self.state.lock().expect("spill pread state");
            match std::mem::replace(&mut *st, PreadState::Running) {
                PreadState::Queued(buf) => buf,
                other => {
                    *st = other;
                    return;
                }
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| self.execute(buf)))
            .unwrap_or_else(|_| Err(io::Error::other("spill io read panicked")));
        let mut st = self.state.lock().expect("spill pread state");
        *st = PreadState::Done(result);
        self.done.notify_all();
    }

    /// Consumer side: take the result, servicing the read inline when no
    /// worker has started it.  Sleeps only while another thread is
    /// actively executing the read — a bounded wait, because the
    /// executing thread itself never blocks.
    fn take(&self) -> io::Result<Vec<u8>> {
        let mut st = self.state.lock().expect("spill pread state");
        loop {
            match std::mem::replace(&mut *st, PreadState::Running) {
                PreadState::Queued(buf) => {
                    drop(st);
                    let result = self.execute(buf);
                    *self.state.lock().expect("spill pread state") = PreadState::Taken;
                    return result;
                }
                PreadState::Running => {
                    st = self.done.wait(st).expect("spill pread state");
                }
                PreadState::Done(result) => {
                    *st = PreadState::Taken;
                    return result;
                }
                PreadState::Taken => {
                    return Err(io::Error::other("spill pread result taken twice"));
                }
            }
        }
    }
}

/// Double-buffered positioned-read source: while the consumer drains the
/// current chunk, at most one claimable `pread` job fetches the next.
struct BatchedRead {
    core: Arc<BatchedCore>,
    file: Arc<File>,
    len: u64,
    chunk: usize,
    next_offset: u64,
    cur: Vec<u8>,
    cur_pos: usize,
    pending: Option<Arc<PreadJob>>,
}

impl BatchedRead {
    fn submit_next(&mut self) {
        if self.pending.is_some() || self.next_offset >= self.len {
            return;
        }
        let size = (self.len - self.next_offset).min(self.chunk as u64) as usize;
        let off = self.next_offset;
        self.next_offset += size as u64;
        let job = Arc::new(PreadJob {
            file: Arc::clone(&self.file),
            off,
            size,
            state: Mutex::new(PreadState::Queued(self.core.take_buffer())),
            done: Condvar::new(),
        });
        let task = Arc::clone(&job);
        self.core.pool.submit(Box::new(move || task.run_queued()));
        self.pending = Some(job);
    }
}

impl Read for BatchedRead {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        while self.cur_pos == self.cur.len() {
            if self.pending.is_none() {
                if self.next_offset >= self.len {
                    return Ok(0); // end of file
                }
                self.submit_next();
            }
            let job = self.pending.take().expect("in-flight read");
            let chunk = job.take()?;
            let old = std::mem::replace(&mut self.cur, chunk);
            self.core.recycle_buffer(old);
            self.cur_pos = 0;
            self.submit_next(); // stay one chunk ahead
        }
        let n = out.len().min(self.cur.len() - self.cur_pos);
        out[..n].copy_from_slice(&self.cur[self.cur_pos..self.cur_pos + n]);
        self.cur_pos += n;
        Ok(n)
    }
}

impl SpillRead for BatchedRead {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pisort-spillio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn write_all_then_finish(io: &SpillIoHandle, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut w = io.create(path)?;
        // Dribble in odd-sized pieces so chunk boundaries never align.
        for piece in data.chunks(1031) {
            w.write_all(piece)?;
        }
        w.finish()
    }

    fn read_back(io: &SpillIoHandle, path: &Path, buffer: usize) -> io::Result<Vec<u8>> {
        let (mut r, len) = io.open(path, buffer)?;
        let mut out = Vec::with_capacity(len as usize);
        r.read_to_end(&mut out)?;
        Ok(out)
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn both_backends_roundtrip_identical_bytes() {
        let data = payload(3 * WRITE_CHUNK_BYTES + 12345);
        let mut images = Vec::new();
        for (name, io) in [
            ("blocking", SpillIoHandle::blocking()),
            ("batched", SpillIoHandle::batched(2, 4)),
        ] {
            let path = tmp_path(&format!("rt-{name}.bin"));
            write_all_then_finish(&io, &path, &data).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), data, "{name} on-disk bytes");
            // Tiny and large read buffers must decode identically.
            for buffer in [64, 4096, 1 << 20] {
                assert_eq!(read_back(&io, &path, buffer).unwrap(), data, "{name}");
            }
            images.push(std::fs::read(&path).unwrap());
            std::fs::remove_file(&path).ok();
        }
        assert_eq!(images[0], images[1], "backends must be byte-identical");
    }

    #[test]
    fn batched_write_failure_surfaces_on_write_or_finish() {
        let io = SpillIoHandle::batched(2, 4);
        io.inject_write_failure_after(WRITE_CHUNK_BYTES as u64);
        let path = tmp_path("fuse.bin");
        let data = payload(4 * WRITE_CHUNK_BYTES);
        let err = write_all_then_finish(&io, &path, &data)
            .expect_err("fused write must surface an error");
        assert!(
            err.to_string().contains("injected") || err.to_string().contains("failed"),
            "got: {err}"
        );
        // The backend stays broken for this file but a fresh handle works.
        let io2 = SpillIoHandle::batched(2, 4);
        write_all_then_finish(&io2, &path, &data).unwrap();
        assert_eq!(read_back(&io2, &path, 4096).unwrap(), data);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batched_write_worker_panic_errors_instead_of_hanging() {
        // A panic on the pool worker mid-`pwrite` must surface as an
        // error on this file's writer — never strand `finish` on a
        // `pending` count that cannot drain, and never take down the pool
        // for other files.
        let io = SpillIoHandle::batched(2, 4);
        io.inject_write_panic_after(WRITE_CHUNK_BYTES as u64);
        let path = tmp_path("panic-fuse.bin");
        let data = payload(4 * WRITE_CHUNK_BYTES);
        let err = write_all_then_finish(&io, &path, &data)
            .expect_err("worker panic must surface as an error");
        assert!(err.to_string().contains("panicked"), "got: {err}");
        // The pool survives: disarm the fuse and the same handle writes a
        // fresh file end to end.
        io.inner.set_write_fuse_panics(false);
        io.inner.set_write_fuse(u64::MAX);
        let path2 = tmp_path("panic-fuse-after.bin");
        write_all_then_finish(&io, &path2, &data).unwrap();
        assert_eq!(read_back(&io, &path2, 4096).unwrap(), data);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn batched_read_of_missing_or_truncated_file_errors() {
        let io = SpillIoHandle::batched(1, 2);
        let path = tmp_path("short.bin");
        assert!(io.open(&path, 4096).is_err(), "missing file");
        let data = payload(10_000);
        write_all_then_finish(&io, &path, &data).unwrap();
        let (mut r, len) = io.open(&path, 512).unwrap();
        assert_eq!(len, data.len() as u64);
        // Truncate under the open reader: the positioned reads must error
        // (short read), never return fabricated bytes.
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(100)
            .unwrap();
        let mut out = Vec::new();
        assert!(r.read_to_end(&mut out).is_err(), "truncated mid-read");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_ahead_follows_the_host_cpu_count() {
        let multicore = std::thread::available_parallelism().is_ok_and(|p| p.get() > 1);
        for mode in [SpillIoMode::Blocking, SpillIoMode::Batched] {
            let io = SpillIoHandle::from_config(&StreamConfig {
                spill_io: mode,
                ..StreamConfig::default()
            });
            assert_eq!(io.reads_ahead(), multicore, "{mode:?}");
            // A faulted view merges like the handle it wraps.
            let faulted = io.with_faults(crate::FaultPlan::seeded(1, 1000));
            assert_eq!(faulted.reads_ahead(), multicore, "{mode:?}");
            // The test seam pins either path on any host.
            assert!(io.clone().reading_ahead(true).reads_ahead());
            assert!(!io.reading_ahead(false).reads_ahead());
        }
    }

    #[test]
    fn pool_starts_on_first_submit() {
        // Blocking reads and writes never touch the pool, so an engine
        // that never merges with read-ahead spawns no worker threads.
        let data = payload(10_000);
        for (name, io, starts) in [
            ("blocking", SpillIoHandle::blocking(), false),
            ("batched", SpillIoHandle::batched(1, 2), true),
        ] {
            assert!(io.pool.inner.tx.get().is_none(), "{name}: idle at start");
            let path = tmp_path(&format!("lazy-{name}.bin"));
            write_all_then_finish(&io, &path, &data).unwrap();
            assert_eq!(read_back(&io, &path, 4096).unwrap(), data);
            assert_eq!(io.pool.inner.tx.get().is_some(), starts, "{name}");
            std::fs::remove_file(&path).ok();
        }
    }

    /// Opens `path` through `io` and drains it with a tiny chunk size, so
    /// the read spans many `pread` jobs.
    fn drain_in_tiny_chunks(io: &SpillIoHandle, path: &Path) -> io::Result<Vec<u8>> {
        let (mut r, _) = io.open(path, 64)?;
        let mut out = Vec::new();
        r.read_to_end(&mut out).map(|_| out)
    }

    #[test]
    fn pool_worker_reading_through_the_pool_cannot_deadlock() {
        // The merge read-ahead tasks of `pipeline.rs` run *on* the I/O
        // workers and read through `BatchedRead`.  With one worker and a
        // tiny chunk size, the task's next pread is submitted mid-task and
        // queues behind it — the claimable-job discipline must service it
        // inline instead of deadlocking on the busy worker.
        let io = SpillIoHandle::batched(1, 2);
        let path = tmp_path("worker-read.bin");
        let data = payload(50_000);
        write_all_then_finish(&io, &path, &data).unwrap();
        let pool = io.pool();
        let (tx, rx) = sync_channel::<io::Result<Vec<u8>>>(1);
        let io2 = io.clone();
        let p = path.clone();
        pool.submit(Box::new(move || {
            let _ = tx.send(drain_in_tiny_chunks(&io2, &p));
        }));
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("worker-side read must not deadlock")
            .unwrap();
        assert_eq!(out, data);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fan_in_above_the_worker_count_makes_progress() {
        // Eight reader tasks on a 2-worker, depth-4 pool, each spanning
        // hundreds of chunks: queued, inline-claimed and overflow-submitted
        // jobs in every combination must all drain (fan-in >= workers was
        // the high-severity deadlock scenario).
        let io = SpillIoHandle::batched(2, 4);
        let data = payload(20_000);
        let mut paths = Vec::new();
        for i in 0..8 {
            let path = tmp_path(&format!("fanin-{i}.bin"));
            write_all_then_finish(&io, &path, &data).unwrap();
            paths.push(path);
        }
        let pool = io.pool();
        let (tx, rx) = sync_channel::<io::Result<Vec<u8>>>(8);
        for path in &paths {
            let io2 = io.clone();
            let p = path.clone();
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                let _ = tx.send(drain_in_tiny_chunks(&io2, &p));
            }));
        }
        for _ in 0..8 {
            let out = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("fan-in readers must not deadlock")
                .unwrap();
            assert_eq!(out, data);
        }
        for p in paths {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn submit_overflow_runs_the_job_inline() {
        // A full queue must never block the submitter: jobs past the
        // depth run inline on the submitting thread.
        let io = SpillIoHandle::batched(1, 1);
        let pool = io.pool();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        // Park the only worker so the queue cannot drain.
        let g = Arc::clone(&gate);
        pool.submit(Box::new(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        }));
        // Saturate the queue, then one more: must return without blocking.
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let ran = Arc::clone(&ran);
            pool.submit(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        assert!(
            ran.load(Ordering::SeqCst) >= 3,
            "overflow submissions past the depth-1 queue must run inline"
        );
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let io = SpillIoHandle::batched(1, 2);
        let pool = io.pool();
        pool.submit(Box::new(|| panic!("boom")));
        let (tx, rx) = sync_channel::<u32>(1);
        pool.submit(Box::new(move || {
            let _ = tx.send(42);
        }));
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap(),
            42,
            "worker must survive the panic and run later jobs"
        );
    }
}
