//! Observability tests that need crate internals: a spill value with an
//! artificially slow serializer (and, in the overlap test, a rendezvous
//! between its sort and its writes) proves — from the emitted trace alone
//! — that the pipelined spill path really overlaps run sorting on the
//! caller thread with run writing on the background writer thread, and —
//! from its write counter — that dropping an engine joins that thread.  The
//! same value notes which threads decode it, which shows where a merge's
//! read-ahead runs.

use crate::sorter::{var_sort_run, StreamSorter};
use crate::spill::sealed::Sealed;
use crate::spill::{SpillValue, VarValue};
use crate::spillio::SpillIoHandle;
use crate::{FirstAgg, StreamGroupBy};
use dtsort::{IntegerKey, RunReport, SortConfig, SpillIoMode, StreamConfig};
use std::collections::HashSet;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::ThreadId;
use std::time::Duration;

/// Serializes the tests in this module: they enable tracing globally and
/// drain the global span rings, which would race with each other.
fn obs_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Per-record artificial disk latency.  Large against the cost of sorting
/// a run (microseconds), small against the test budget.
const WRITE_DELAY: Duration = Duration::from_micros(20);

/// `SlowValue` records serialized so far, by any test in this module.
static WRITES: AtomicUsize = AtomicUsize::new(0);

/// Threads that have decoded a `SlowValue` record.
fn decoders() -> &'static Mutex<HashSet<ThreadId>> {
    static DECODERS: OnceLock<Mutex<HashSet<ThreadId>>> = OnceLock::new();
    DECODERS.get_or_init(Default::default)
}

/// A rendezvous between run sorts and run writes that makes sort/write
/// overlap hold by construction rather than by timing: while armed, sort
/// `s` (for `1 <= s <= forced`) waits inside its `sort_run` span until
/// the writer has begun run `s - 1`, and the writer waits inside that
/// run's `spill_write` span until sort `s` has begun.  So each of those
/// sort spans overlaps a write span, whatever the CPU count.  Runs must
/// hold exactly `run_len` records.
struct Rendezvous {
    run_len: usize,
    forced: usize,
    /// Run sorts begun since arming.
    sorts: usize,
    /// Records the writer began serializing since arming.
    written: usize,
}

fn rendezvous() -> &'static (Mutex<Option<Rendezvous>>, Condvar) {
    static RENDEZVOUS: OnceLock<(Mutex<Option<Rendezvous>>, Condvar)> = OnceLock::new();
    RENDEZVOUS.get_or_init(Default::default)
}

/// Arms (`Some`) or disarms (`None`) the rendezvous.
fn arm_rendezvous(state: Option<Rendezvous>) {
    *rendezvous().0.lock().unwrap() = state;
    rendezvous().1.notify_all();
}

/// Wakes the other side, then waits until `done` holds or the rendezvous
/// is disarmed; panics after a generous timeout rather than hang.
fn wait_until(guard: MutexGuard<'static, Option<Rendezvous>>, done: impl Fn(&Rendezvous) -> bool) {
    rendezvous().1.notify_all();
    let (_guard, timeout) = rendezvous()
        .1
        .wait_timeout_while(guard, Duration::from_secs(30), |r| {
            !r.as_ref().is_none_or(&done)
        })
        .unwrap();
    assert!(!timeout.timed_out(), "sort/write rendezvous timed out");
}

/// The writer's side, before it serializes a record: the first record of
/// run `r < forced` waits for sort `r + 1` to begin.
fn writer_rendezvous() {
    let mut guard = rendezvous().0.lock().unwrap();
    let Some(r) = guard.as_mut() else { return };
    let (run, first) = (r.written / r.run_len, r.written % r.run_len == 0);
    r.written += 1;
    let wait = first && run < r.forced;
    wait_until(guard, |r| !wait || r.sorts > run + 1);
}

/// The sorting side, inside the `sort_run` span: sort `s` with
/// `1 <= s <= forced` waits for the writer to begin run `s - 1`.
fn sort_rendezvous() {
    let mut guard = rendezvous().0.lock().unwrap();
    let Some(r) = guard.as_mut() else { return };
    let sort = r.sorts;
    r.sorts += 1;
    let wait = (1..=r.forced).contains(&sort);
    let begun = sort.saturating_sub(1) * r.run_len;
    wait_until(guard, |r| !wait || r.written > begun);
}

/// A var-length value whose serializer sleeps per record, making spill
/// writes slow enough that the caller thread demonstrably sorts the next
/// run while the writer thread is still on the previous one.
#[derive(Debug, Clone, PartialEq)]
struct SlowValue {
    payload: Vec<u8>,
}

impl SlowValue {
    fn new(i: u64) -> Self {
        Self {
            payload: format!("slow-{i:08}").into_bytes(),
        }
    }
}

impl VarValue for SlowValue {
    fn as_spill_bytes(&self) -> &[u8] {
        &self.payload
    }
    fn from_spill_bytes(bytes: &[u8]) -> io::Result<Self> {
        Ok(Self {
            payload: bytes.to_vec(),
        })
    }
}

impl Sealed for SlowValue {}
impl SpillValue for SlowValue {
    const SPILL_FIXED_SIZE: Option<usize> = None;
    fn spill_size(&self) -> usize {
        4 + self.payload.len()
    }
    fn spill_encode(&self, out: &mut Vec<u8>) -> io::Result<()> {
        writer_rendezvous();
        std::thread::sleep(WRITE_DELAY);
        WRITES.fetch_add(1, Ordering::SeqCst);
        self.payload.spill_encode(out)
    }
    fn spill_decode(src: &mut &[u8]) -> io::Result<Self> {
        decoders()
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
        Vec::<u8>::spill_decode(src).map(|payload| Self { payload })
    }
    fn sort_spill_run<K: IntegerKey>(
        buffer: &mut Vec<(K, Self)>,
        cfg: &SortConfig,
        carry: &[u64],
    ) -> RunReport {
        sort_rendezvous();
        var_sort_run(buffer, cfg, carry)
    }
}

#[test]
fn pipelined_spill_trace_shows_sort_write_overlap() {
    let _guard = obs_lock().lock().unwrap();
    obs::enable();
    let cfg = StreamConfig {
        memory_budget_bytes: 24 << 10,
        sort: SortConfig {
            base_case_threshold: 64,
            ..Default::default()
        },
        ..StreamConfig::default()
    };
    let mut sorter: StreamSorter<u64, SlowValue> = StreamSorter::with_config(cfg);
    let capacity = sorter.core.run_capacity;
    // Start from a clean slate so the assertions below only see this
    // sorter's spans (concurrent tests may add spans, never remove ours).
    let _ = obs::drain_spans();
    // Sorts 1 and 2 each meet the writer mid-run, so at least two
    // sort_run spans overlap a spill_write span even on one CPU.
    arm_rendezvous(Some(Rendezvous {
        run_len: capacity,
        forced: 2,
        sorts: 0,
        written: 0,
    }));
    let n = 6 * capacity as u64;
    for i in 0..n {
        sorter.push_record(i % 193, SlowValue::new(i)).unwrap();
    }
    let got = sorter.finish_vec().unwrap();
    arm_rendezvous(None);
    assert_eq!(got.len(), n as usize);
    assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));

    let (events, _) = obs::drain_spans();
    let sorts: Vec<_> = events.iter().filter(|e| e.name == "sort_run").collect();
    let writes: Vec<_> = events.iter().filter(|e| e.name == "spill_write").collect();
    assert!(
        sorts.len() >= 3,
        "expected several runs, got {}",
        sorts.len()
    );
    assert!(
        writes.len() >= 3,
        "expected several spilled runs, got {}",
        writes.len()
    );
    // The pipelining claim, read off the trace: while the writer thread is
    // busy with run N, the caller thread is already sorting a later run.
    // The rendezvous makes this hold for two runs by construction.
    let overlapping_sorts = sorts
        .iter()
        .filter(|s| writes.iter().any(|w| s.overlaps(w)))
        .count();
    assert!(
        overlapping_sorts >= 2,
        "expected >= 2 sort_run spans overlapping spill_write spans, got {overlapping_sorts}"
    );
    // Sorting and writing happen on different threads, so overlapping
    // spans must carry different thread ids.
    let sort_tid = sorts[0].tid;
    assert!(
        writes.iter().any(|w| w.tid != sort_tid),
        "spill writes must run on the background writer thread"
    );
    // The merge span covers the drain and is recorded on stream drop.
    assert!(events.iter().any(|e| e.name == "merge"));
}

#[test]
fn backpressure_spans_and_histogram_agree() {
    let _guard = obs_lock().lock().unwrap();
    obs::enable();
    let before = obs::global().snapshot();
    let cfg = StreamConfig {
        memory_budget_bytes: 24 << 10,
        ..StreamConfig::default()
    };
    let mut sorter: StreamSorter<u64, SlowValue> = StreamSorter::with_config(cfg);
    let capacity = sorter.core.run_capacity;
    let _ = obs::drain_spans();
    // Enough runs that submission outpaces the delayed writer and blocks
    // on the bounded channel at least once.
    for i in 0..8 * capacity as u64 {
        sorter.push_record(i, SlowValue::new(i)).unwrap();
    }
    drop(sorter);
    let (events, _) = obs::drain_spans();
    let after = obs::global().snapshot();
    let bp_spans = events.iter().filter(|e| e.name == "backpressure").count();
    let bp_recorded = after
        .histogram("spill.backpressure_ns")
        .map_or(0, |h| h.count)
        .saturating_sub(
            before
                .histogram("spill.backpressure_ns")
                .map_or(0, |h| h.count),
        );
    // Every pipelined submission records one backpressure span and one
    // histogram sample.  Concurrent tests in this binary may add samples of
    // their own, so assert presence in both exports rather than equality
    // (the exact metrics-vs-stats accounting lives in the serialized
    // integration tests).
    assert!(bp_spans > 0, "pipelined submissions must leave spans");
    assert!(bp_recorded > 0, "pipelined submissions must be recorded");
}

/// Blocks until the writer thread has serialized a record past `count`,
/// so the engine is dropped in the middle of a run write.
fn wait_for_writes_past(count: usize) {
    while WRITES.load(Ordering::SeqCst) <= count {
        std::thread::yield_now();
    }
}

/// Asserts that an engine's `drop` returned only after its writer wrote
/// all `run_len` records of the run in flight (counted from `before`),
/// that no spill write happens afterwards, and that its spill directory
/// under `base` is gone.
fn assert_writer_joined(base: &Path, before: usize, run_len: usize, engine: &str) {
    let at_drop = WRITES.load(Ordering::SeqCst);
    assert_eq!(
        at_drop - before,
        run_len,
        "{engine}: drop returned before the run in flight was written"
    );
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(
        WRITES.load(Ordering::SeqCst),
        at_drop,
        "{engine}: the spill writer kept writing after drop returned"
    );
    let left = std::fs::read_dir(base).unwrap().count();
    assert_eq!(left, 0, "{engine}: the spill directory outlived the drop");
}

#[test]
fn dropping_an_engine_mid_write_joins_its_writer() {
    let _guard = obs_lock().lock().unwrap();
    let base = std::env::temp_dir().join(format!("pisort-drop-join-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    // Runs of about a thousand records, each taking the writer tens of
    // milliseconds: the engine is dropped while its first run is written.
    let cfg = StreamConfig {
        memory_budget_bytes: 96 << 10,
        spill_dir: Some(base.clone()),
        ..StreamConfig::default()
    };

    let mut sorter: StreamSorter<u64, SlowValue> = StreamSorter::with_config(cfg.clone());
    let before = WRITES.load(Ordering::SeqCst);
    for i in 0..sorter.core.run_capacity as u64 {
        sorter.push_record(i, SlowValue::new(i)).unwrap();
    }
    let run_len = sorter.core.in_flight_records;
    assert!(run_len > 0, "a sorter run is in flight");
    wait_for_writes_past(before);
    drop(sorter);
    assert_writer_joined(&base, before, run_len, "sorter");

    let mut gb: StreamGroupBy<u64, FirstAgg<SlowValue>> =
        StreamGroupBy::with_config(FirstAgg::new(), cfg);
    let before = WRITES.load(Ordering::SeqCst);
    let mut i = 0u64;
    while gb.stats().is_settled {
        gb.push_record(i, SlowValue::new(i)).unwrap();
        i += 1;
    }
    wait_for_writes_past(before);
    drop(gb);
    // Every key is distinct, so the run in flight holds one partial per
    // record pushed.
    assert_writer_joined(&base, before, i as usize, "group-by");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn blocking_read_ahead_decodes_on_the_pool_workers() {
    let _guard = obs_lock().lock().unwrap();
    // The blocking backend used to give every spilled run its own decode
    // thread.  Its read-ahead now runs on the spill I/O pool, so a wide
    // merge decodes on the two workers plus inline on the merging thread,
    // whatever the run count.  Read-ahead is pinned on, so this holds on a
    // single-CPU host too.
    let cfg = StreamConfig {
        memory_budget_bytes: 32 << 10,
        spill_io: SpillIoMode::Blocking,
        sort: SortConfig {
            base_case_threshold: 64,
            ..SortConfig::default()
        },
        ..StreamConfig::default()
    };
    let io = SpillIoHandle::from_config(&cfg).reading_ahead(true);
    let mut sorter: StreamSorter<u32, SlowValue> = StreamSorter::with_config_and_io(cfg, io);
    let data: Vec<(u32, SlowValue)> = (0..20_000u32)
        .map(|i| (i.rotate_left(16), SlowValue::new(u64::from(i))))
        .collect();
    for chunk in data.chunks(997) {
        sorter.push(chunk).unwrap();
    }
    sorter.flush_spills().unwrap();
    let runs = sorter.stats().spilled_runs;
    assert!(
        runs >= 12,
        "workload must spill a wide merge, got {runs} runs"
    );
    decoders().lock().unwrap().clear();
    let got: Vec<(u32, SlowValue)> = sorter.finish().unwrap().collect();
    let mut want = data;
    want.sort_by_key(|r| r.0);
    assert_eq!(got, want);
    let threads = decoders().lock().unwrap().clone();
    let merging = std::thread::current().id();
    assert!(
        threads.iter().any(|&t| t != merging),
        "the merge must have read ahead on the pool"
    );
    assert!(
        threads.len() <= 3,
        "{runs} runs decoded on {} threads, want at most 2 workers + the merge thread",
        threads.len()
    );
}

/// Sorts `keys` through a spilling `StreamSorter<K, u32>` and drains the
/// merge.  Returns the merge's own `(records, replays)`, the runs it
/// merged (spilled or in memory), and the `(merge.records,
/// merge.replays)` registry deltas its drop published.
fn merge_counts<K: IntegerKey>(keys: impl Iterator<Item = K>) -> ((u64, u64), u64, (u64, u64)) {
    let cfg = StreamConfig {
        memory_budget_bytes: 32 << 10,
        ..StreamConfig::default()
    };
    let before = obs::global().snapshot();
    let mut sorter: StreamSorter<K, u32> = StreamSorter::with_config(cfg);
    for (i, key) in keys.enumerate() {
        sorter.push_record(key, i as u32).unwrap();
    }
    // Runs are the pushes cut every `run_capacity` records: the spilled
    // ones and the in-memory tail.
    let runs = sorter.len().div_ceil(sorter.core.run_capacity) as u64;
    let mut stream = sorter.finish().unwrap();
    let mut last = None;
    while let Some((key, i)) = stream.try_next().unwrap() {
        assert!(last <= Some((key, i)), "merge out of stable order");
        last = Some((key, i));
    }
    let counts = stream.merge.counts();
    drop(stream);
    let after = obs::global().snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    (
        counts,
        runs,
        (delta("merge.records"), delta("merge.replays")),
    )
}

#[test]
fn merge_replays_once_per_key_streak_and_publishes_on_drop() {
    let _guard = obs_lock().lock().unwrap();
    obs::enable();
    let n = 20_000u32;
    // All keys equal: each run is one streak, so the merge replays once
    // per run (the pop that ends it), on narrow and on wide head words.
    let equal_u32 = merge_counts(std::iter::repeat_n(7u32, n as usize));
    let equal_u64 = merge_counts(std::iter::repeat_n(u64::MAX, n as usize));
    // Distinct keys: no streaks, so every pop replays.
    let distinct = merge_counts((0..n).map(|i| i.rotate_left(16)));
    for ((records, replays), runs, _) in [equal_u32, equal_u64] {
        assert!(runs > 1, "workload must spill several runs, got {runs}");
        assert_eq!((records, replays), (u64::from(n), runs));
    }
    assert_eq!(distinct.0, (u64::from(n), u64::from(n)));
    // Other tests in this binary may merge concurrently while tracing is
    // on, so the published deltas are at least this merge's counts (the
    // exact registry accounting is checked in the serialized integration
    // tests).
    for (counts, _, published) in [equal_u32, equal_u64, distinct] {
        assert!(published.0 >= counts.0 && published.1 >= counts.1);
    }
}
