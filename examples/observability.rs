//! Tracing a spilling streaming sort with the `obs` layer.
//!
//! Runs an out-of-core sort with tracing enabled, then prints the metrics
//! snapshot (counters, gauges and latency histograms the engines recorded)
//! and writes a chrome://tracing file showing run sorting on the caller
//! thread overlapping spill writes on the background writer thread — open
//! `trace_observability.json` in a Chromium browser at `chrome://tracing`
//! (or at <https://ui.perfetto.dev>) to see the pipeline.
//!
//! Run with `cargo run --release --example observability`.

use pisort::obs;
use pisort::{StreamConfig, StreamSorter};
use workloads::dist::{generate_keys, Distribution};

fn main() {
    let n = 2_000_000usize;
    // Tracing stays on while this guard lives; `OBS_TRACE=1` in the
    // environment would do the same without touching code.
    let _trace = obs::scoped_enable();
    // An eighth of the dataset: forces several spilled runs.
    let cfg = StreamConfig::with_memory_budget(n * 8 / 8);

    println!("generating {n} zipf-distributed records...");
    let keys = generate_keys(&Distribution::Zipfian { s: 1.2 }, n, 32, 7);
    let records: Vec<(u64, u32)> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u32))
        .collect();

    let mut sorter: StreamSorter<u64, u32> = StreamSorter::with_config(cfg);
    for chunk in records.chunks(64 * 1024) {
        sorter.push(chunk).expect("push");
    }
    let stats = sorter.stats().clone();
    println!(
        "pushed {} records, {} runs spilled so far (settled: {})",
        stats.records_pushed, stats.spilled_runs, stats.is_settled
    );
    let mut out = 0usize;
    for (k, _) in sorter.finish().expect("finish") {
        std::hint::black_box(k);
        out += 1;
    }
    assert_eq!(out, n);

    // Everything the engines recorded, as one JSON document.
    let snapshot = obs::global().snapshot();
    println!("\nmetrics snapshot:\n{}", snapshot.to_json());

    // The span timeline, as a chrome://tracing file.
    let (events, dropped) = obs::drain_spans();
    let path = std::path::Path::new("trace_observability.json");
    obs::write_chrome_trace(path, &events).expect("write trace");
    println!(
        "\nwrote {} spans to {} ({} dropped); load it at chrome://tracing",
        events.len(),
        path.display(),
        dropped
    );
}
