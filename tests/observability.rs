//! End-to-end tests of the observability layer through the public API:
//! the global metrics registry must mirror the engines' inline stats
//! exactly, `is_settled` must describe the pipelined spill accounting
//! window, tracing must cost nothing when disabled, and the JSON exports
//! must have the documented shape.
//!
//! The obs enable state and registry are process-global, so every test
//! here serializes on one mutex and measures counter *deltas* around its
//! own workload.

use pisort::dtsort::{SortConfig, StreamConfig};
use pisort::obs;
use pisort::obs::MetricsSnapshot;
use pisort::stream::{CountAgg, StreamGroupBy, StreamSorter};
use std::sync::{Mutex, OnceLock};

fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    // A panicking sibling test must not cascade into poison errors here.
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A budget small enough that the workloads below spill several runs.
fn spilling_cfg() -> StreamConfig {
    StreamConfig {
        memory_budget_bytes: 32 << 10,
        sort: SortConfig {
            base_case_threshold: 64,
            ..SortConfig::default()
        },
        ..StreamConfig::default()
    }
}

fn input(n: u32) -> Vec<(u32, u32)> {
    (0..n).map(|i| (i.rotate_left(16), i)).collect()
}

/// Names under `prefix` of every counter and histogram that recorded
/// something between the two snapshots.
fn moved(before: &MetricsSnapshot, after: &MetricsSnapshot, prefix: &str) -> Vec<String> {
    let counters = after
        .counters
        .iter()
        .filter(|(name, v)| *v != before.counter(name))
        .map(|(name, _)| name);
    let histograms = after
        .histograms
        .iter()
        .filter(|(name, h)| h.count != before.histogram(name).map_or(0, |b| b.count))
        .map(|(name, _)| name);
    counters
        .chain(histograms)
        .filter(|name| name.starts_with(prefix))
        .cloned()
        .collect()
}

#[test]
fn metrics_mirror_stream_sorter_stats_exactly() {
    let _guard = obs_lock();
    obs::enable();
    let before = obs::global().snapshot();
    let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config(spilling_cfg());
    let data = input(60_000);
    for chunk in data.chunks(997) {
        sorter.push(chunk).unwrap();
    }
    // Settle the pipelined writer so the inline stats are exact, then
    // the registry deltas must match them number for number.
    sorter.flush_spills().unwrap();
    let stats = sorter.stats().clone();
    assert!(stats.is_settled);
    assert!(stats.spilled_runs > 0, "workload must spill");
    let after = obs::global().snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(delta("stream.records_pushed"), stats.records_pushed);
    assert_eq!(delta("stream.spilled_runs"), stats.spilled_runs as u64);
    assert_eq!(delta("stream.spilled_bytes"), stats.spilled_bytes);
    let got: Vec<(u32, u32)> = sorter.finish().unwrap().collect();
    let mut want = data;
    want.sort_by_key(|r| r.0);
    assert_eq!(got, want);
    let bleed = moved(&before, &obs::global().snapshot(), "groupby.");
    assert!(bleed.is_empty(), "sorter moved {bleed:?}");
}

#[test]
fn metrics_mirror_groupby_stats_exactly() {
    let _guard = obs_lock();
    obs::enable();
    let before = obs::global().snapshot();
    let mut gb: StreamGroupBy<u32, CountAgg> = StreamGroupBy::with_config(CountAgg, spilling_cfg());
    let n = 4096 * 30u32;
    for i in 0..n {
        gb.push_record(i % 4096, ()).unwrap();
    }
    gb.flush_spills().unwrap();
    let stats = gb.stats().clone();
    assert!(stats.is_settled);
    assert!(stats.spilled_runs > 0, "workload must spill");
    let after = obs::global().snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(delta("groupby.records_pushed"), stats.records_pushed);
    assert_eq!(delta("groupby.spilled_runs"), stats.spilled_runs as u64);
    assert_eq!(delta("groupby.spilled_bytes"), stats.spilled_bytes);
    assert_eq!(
        delta("groupby.partial_aggregates"),
        stats.partial_aggregates
    );
    let got: Vec<(u32, u64)> = gb.finish().unwrap().collect();
    assert_eq!(got.len(), 4096);
    assert!(got.iter().all(|&(_, c)| c == u64::from(n) / 4096));
    let bleed = moved(&before, &obs::global().snapshot(), "stream.");
    assert!(bleed.is_empty(), "group-by moved {bleed:?}");
}

#[test]
fn stats_settle_only_after_flush() {
    let _guard = obs_lock();
    // Right after a push that submitted a run to the background writer,
    // the spill counters lag and `is_settled` says so.
    let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config(spilling_cfg());
    assert!(sorter.stats().is_settled, "nothing in flight initially");
    let data = input(60_000);
    sorter.push(&data).unwrap();
    assert!(
        !sorter.stats().is_settled,
        "a just-submitted run must be reported as in flight"
    );
    sorter.flush_spills().unwrap();
    assert!(sorter.stats().is_settled, "flush_spills settles the stats");
    assert_eq!(sorter.stats().records_pushed, data.len() as u64);
}

#[test]
fn disabled_tracing_records_nothing() {
    let _guard = obs_lock();
    obs::disable();
    // Give detached read-ahead threads of a previously finished test a
    // moment to exit before measuring, then start from a clean slate.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let _ = obs::drain_spans();
    let touches_before = obs::global().touches();
    let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config(spilling_cfg());
    let data = input(60_000);
    for chunk in data.chunks(997) {
        sorter.push(chunk).unwrap();
    }
    let got: Vec<(u32, u32)> = sorter.finish().unwrap().collect();
    assert_eq!(got.len(), data.len());
    // A full spilling sort must not have recorded a single metric sample
    // or span while tracing is off.
    assert_eq!(obs::global().touches(), touches_before);
    let (events, dropped) = obs::drain_spans();
    // A straggling `prefetch` span guard from an earlier (enabled) test may
    // still close during this window; everything else must be silent.
    let stray: Vec<_> = events.iter().filter(|e| e.name != "prefetch").collect();
    assert!(stray.is_empty(), "unexpected spans: {stray:?}");
    assert_eq!(dropped, 0);
}

#[test]
fn traced_session_does_not_leak_tracing_into_the_next() {
    let _guard = obs_lock();
    // Regression (sticky trace flag): a per-engine trace switch used to
    // flip a process-global that stayed on forever, so one traced session
    // turned tracing on for every later tenant.  Tracing is now a scoped,
    // refcounted enable the caller holds: once a traced session and its
    // guard are dropped, an untraced session must record nothing.
    obs::disable();
    let run = |trace: bool| {
        let _trace = trace.then(obs::scoped_enable);
        let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config(spilling_cfg());
        let data = input(60_000);
        for chunk in data.chunks(997) {
            sorter.push(chunk).unwrap();
        }
        let got: Vec<(u32, u32)> = sorter.finish().unwrap().collect();
        assert_eq!(got.len(), data.len());
    };
    run(true);
    assert!(!obs::enabled(), "tracing must revert when the session ends");
    let (traced_events, _) = obs::drain_spans();
    assert!(
        traced_events.iter().any(|e| e.name == "sort_run"),
        "the traced session must have recorded"
    );
    // Let the traced session's detached read-ahead threads close their
    // last `prefetch` guards before measuring the silent window.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let _ = obs::drain_spans();
    let touches_before = obs::global().touches();
    run(false);
    assert_eq!(
        obs::global().touches(),
        touches_before,
        "an untraced session after a traced one must not record metrics"
    );
    let (events, _) = obs::drain_spans();
    let stray: Vec<_> = events.iter().filter(|e| e.name != "prefetch").collect();
    assert!(stray.is_empty(), "leaked spans: {stray:?}");
}

#[test]
fn trace_exports_have_documented_shape() {
    let _guard = obs_lock();
    obs::enable();
    let _ = obs::drain_spans();
    let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config(spilling_cfg());
    let data = input(60_000);
    for chunk in data.chunks(997) {
        sorter.push(chunk).unwrap();
    }
    let got: Vec<(u32, u32)> = sorter.finish().unwrap().collect();
    assert_eq!(got.len(), data.len());
    let (events, _) = obs::drain_spans();
    for name in ["sort_run", "spill_write", "merge"] {
        assert!(
            events.iter().any(|e| e.name == name),
            "expected a {name:?} span in {:?}",
            events.iter().map(|e| e.name).collect::<Vec<_>>()
        );
    }
    let chrome = obs::chrome_trace_json(&events);
    assert!(chrome.starts_with("{\"traceEvents\": ["));
    assert!(chrome.contains("\"ph\": \"X\""));
    assert!(chrome.contains("\"name\": \"sort_run\""));
    let timeline = obs::timeline_json(&events);
    assert!(timeline.starts_with('['));
    assert!(timeline.contains("\"start_ns\""));
    let metrics = obs::global().snapshot().to_json();
    assert!(metrics.contains("\"counters\""));
    assert!(metrics.contains("\"stream.records_pushed\""));
    assert!(metrics.contains("\"histograms\""));
}
