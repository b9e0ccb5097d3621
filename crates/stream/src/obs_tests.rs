//! Observability tests that need crate internals: a spill value with an
//! artificially slow serializer proves — from the emitted trace alone —
//! that the pipelined spill path really overlaps run sorting on the caller
//! thread with run writing on the background writer thread.

use crate::sorter::{var_merge_runs_into, var_sort_run, StreamSorter};
use crate::spill::sealed::Sealed;
use crate::spill::{SpillValue, VarValue};
use dtsort::{IntegerKey, RunReport, SortConfig, StreamConfig};
use std::io::{self, Read, Write};
use std::sync::{Mutex, OnceLock};
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

/// A var-length value whose serializer sleeps per record, making spill
/// writes slow enough that the caller thread demonstrably sorts the next
/// run while the writer thread is still on the previous one.
#[derive(Debug, Clone)]
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
    fn spill_write(&self, w: &mut dyn Write) -> io::Result<()> {
        std::thread::sleep(WRITE_DELAY);
        self.payload.spill_write(w)
    }
    fn spill_read(
        r: &mut dyn Read,
        scratch: &mut Vec<u8>,
        payload_budget: u64,
    ) -> io::Result<Self> {
        Vec::<u8>::spill_read(r, scratch, payload_budget).map(|payload| Self { payload })
    }
    fn spill_placeholder() -> Self {
        Self {
            payload: Vec::new(),
        }
    }
    fn sort_spill_run<K: IntegerKey>(
        buffer: &mut Vec<(K, Self)>,
        cfg: &SortConfig,
        carry: &[u64],
    ) -> RunReport {
        var_sort_run(buffer, cfg, carry)
    }
    fn merge_spill_runs_into<K: IntegerKey>(
        runs: Vec<Vec<(K, Self)>>,
        tail: Vec<(K, Self)>,
        out: &mut [(K, Self)],
    ) {
        var_merge_runs_into(runs, tail, out)
    }
}

#[test]
fn pipelined_spill_trace_shows_sort_write_overlap() {
    let _guard = obs_lock().lock().unwrap();
    obs::enable();
    let cfg = StreamConfig {
        memory_budget_bytes: 24 << 10,
        merge_read_ahead: Some(true),
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
    let n = 6 * capacity as u64;
    for i in 0..n {
        sorter.push_record(i % 193, SlowValue::new(i)).unwrap();
    }
    let got = sorter.finish_vec().unwrap();
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
    // With the artificial write latency this must hold for several runs.
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
        merge_read_ahead: Some(true),
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
