//! Variable-length value streaming throughput: records/sec and payload
//! MB/sec of `stream::StreamSorter<u64, String>` across payload-size
//! classes and memory budgets, against the fixed-size pod-value sorter on
//! the same keys (which isolates the cost of the length-prefixed format).
//! Every budget row is measured in both spill encodings (**flat** and
//! **compressed**, `SpillCompression::DeltaLz`) under both spill I/O
//! backends (`StreamConfig::spill_io`), with the spill-phase wall time,
//! bytes written and achieved compression ratio reported per row; see
//! `bench::spill_modes`.  Whether the merge reads ahead is the host's
//! decision (more than one CPU), recorded as `host_cpus` in the JSON.
//!
//! A final **web-log sessionization** section exercises the string-*key*
//! engines end to end: a synthetic web log (`workloads::strings`) is
//! sorted by session key (`StringStreamSorter`) and aggregated into
//! per-session byte totals (`StringStreamGroupBy`), under both spill
//! encodings, reporting the on-disk reduction the prefix-heavy keys get
//! from the delta/LZ block format.
//!
//! Beyond the console table, results are appended as machine-readable JSON
//! to `BENCH_varlen.json` in the current directory so successive PRs can
//! track the perf trajectory.
//!
//! Usage: `cargo run -p bench --release --bin fig_varlen_throughput -- [--n 3e5] [--reps 3]`

use bench::spill_modes::{
    median_modes, stream_sort_phases, table, write_json, Measurement, Mode, Phases, MODES,
};
use bench::{median_time_secs, write_obs_artifacts, Args, ObsProbe};
use dtsort::StreamConfig;
use std::time::Instant;
use stream::{StreamSorter, StringStreamGroupBy, StringStreamSorter, SumAgg};
use workloads::dist::Distribution;
use workloads::{generate_string_pairs, generate_weblog_records};

fn main() {
    let args = Args::parse();
    args.apply_thread_limit();
    // Strings are far heavier per record than pod values; default to a
    // smaller instance than the pod-value benches.  Checking for the flag
    // itself (not the default value) keeps an explicit `--n 10000000`
    // honest.
    let n = if std::env::args().any(|a| a == "--n") {
        args.n
    } else {
        300_000
    };
    let batch = 16 * 1024;
    // Payload-size classes: short tags, URL-ish, log-line-ish.
    let payloads = [
        ("8-16B", 8usize, 16usize),
        ("32-128B", 32, 128),
        ("256-1KiB", 256, 1024),
    ];
    let instances = vec![
        Distribution::Uniform {
            distinct: 1_000_000_000,
        },
        Distribution::Zipfian { s: 1.2 },
    ];
    println!(
        "Variable-length streaming sorter throughput — n = {n}, batch = {batch}, {} threads",
        rayon::current_num_threads()
    );
    let mut all = Vec::new();
    for dist in &instances {
        for &(plabel, min_len, max_len) in &payloads {
            let input = generate_string_pairs(dist, n, 32, 42, min_len, max_len);
            let payload_bytes: usize = input.iter().map(|(_, v)| v.len()).sum();
            let data_bytes = payload_bytes + input.len() * 12;
            println!(
                "\n=== {} · payload {plabel} ({} MiB on disk) ===",
                dist.label(),
                data_bytes >> 20
            );
            // Pod-value baseline on the same keys: the varlen overhead is
            // the gap between this row and the in-memory string row.
            let keys: Vec<(u64, u64)> = input.iter().map(|(k, _)| (*k, 0u64)).collect();
            let base = median_time_secs(&keys, args.reps, |v| {
                let mut s: StreamSorter<u64, u64> =
                    StreamSorter::with_config(StreamConfig::with_memory_budget(8 * data_bytes));
                s.push(v).expect("push");
                for r in s.finish().expect("finish") {
                    std::hint::black_box(r);
                }
            });
            let mut table = table(true, Some(("pod-keys", base)), n);
            // From "everything in memory" down to an eighth of the dataset.
            let budgets = [
                ("mem", 8 * data_bytes),
                ("1/4", data_bytes / 4),
                ("1/8", data_bytes / 8),
            ];
            for &(blabel, budget) in &budgets {
                let medians = median_modes(args.reps, |mode| {
                    stream_sort_phases(&input, budget, batch, mode)
                });
                for mut row in Measurement::rows(&dist.label(), blabel, budget, n, medians) {
                    row.payload = Some(plabel.to_string());
                    row.payload_mb_per_sec = Some(payload_bytes as f64 / row.phases.secs() / 1e6);
                    table.add_row(row.cells());
                    all.push(row);
                }
            }
            table.print();
        }
    }
    all.extend(weblog_sessionization(n, batch, args.reps));
    write_json("BENCH_varlen.json", "varlen_throughput", n, batch, &all);
    write_obs_artifacts("varlen");
}

/// One phase-timed web-log job on the string-key engines: `sort` sorts
/// the log by session key, `group` totals payload bytes per session.
fn weblog_phases(
    log: &[(String, String)],
    job: &str,
    mode: Mode,
    budget: usize,
    batch: usize,
) -> Phases {
    let probe = ObsProbe::start();
    let spill_start = Instant::now();
    let merge_start;
    let (runs, spilled_bytes, spilled_raw_bytes) = if job == "sort" {
        let mut s: StringStreamSorter<String, String> =
            StringStreamSorter::with_config(mode.config(budget));
        for chunk in log.chunks(batch) {
            s.push(chunk).expect("push failed");
        }
        s.flush_spills().expect("flush failed");
        let st = s.stats();
        let counts = (st.spilled_runs, st.spilled_bytes, st.spilled_raw_bytes);
        merge_start = Instant::now();
        for (k, v) in s.finish().expect("finish failed") {
            std::hint::black_box((k.len(), v.len()));
        }
        counts
    } else {
        let mut g: StringStreamGroupBy<String, SumAgg> =
            StringStreamGroupBy::with_config(SumAgg, mode.config(budget));
        for (k, v) in log {
            g.push_record(k.clone(), v.len() as u64)
                .expect("push failed");
        }
        g.flush_spills().expect("flush failed");
        let st = g.stats();
        let counts = (st.spilled_runs, st.spilled_bytes, st.spilled_raw_bytes);
        merge_start = Instant::now();
        for (k, total) in g.finish().expect("finish failed") {
            std::hint::black_box((k.len(), total));
        }
        counts
    };
    Phases {
        spill_secs: (merge_start - spill_start).as_secs_f64(),
        merge_secs: merge_start.elapsed().as_secs_f64(),
        runs,
        spilled_bytes,
        spilled_raw_bytes,
        obs: probe.finish(),
    }
}

/// Web-log sessionization on the string-key engines: sort the log by
/// session key, and aggregate per-session payload bytes — under both
/// spill encodings on the blocking backend, at a budget that forces heavy
/// spilling.  The prefix-heavy session keys are the reference workload for
/// the delta/LZ spill blocks, and the `comp_ratio` of these rows is the
/// headline bytes-on-disk reduction.
fn weblog_sessionization(n: usize, batch: usize, reps: usize) -> Vec<Measurement> {
    let dist = Distribution::Zipfian { s: 1.1 };
    let log = generate_weblog_records(&dist, n, 32, 42);
    let payload_bytes: usize = log.iter().map(|(k, v)| k.len() + v.len()).sum();
    let budget = (payload_bytes / 8).max(64 << 10);
    let sessions = log
        .iter()
        .map(|(k, _)| k)
        .collect::<std::collections::HashSet<_>>()
        .len();
    let mut rows = Vec::new();
    for job in ["sort", "group"] {
        println!(
            "\n=== web-log sessionization · {job} · {sessions} sessions keyed by string ({} MiB of log) ===",
            payload_bytes >> 20
        );
        let mut table = table(true, None, n);
        // The blocking cells: the backend does not matter to this section.
        for &mode in &MODES[..2] {
            let mut timed: Vec<Phases> = (0..reps.max(1))
                .map(|_| weblog_phases(&log, job, mode, budget, batch))
                .collect();
            timed.sort_by(|a, b| a.secs().partial_cmp(&b.secs()).unwrap());
            let phases = timed.swap_remove(timed.len() / 2);
            let secs = phases.secs();
            let row = Measurement {
                dist: "weblog-zipf-1.1".to_string(),
                payload: Some(format!("weblog-{job}")),
                mode: mode.name,
                spill_io: "blocking",
                budget_label: "1/8".to_string(),
                budget_bytes: budget,
                phases,
                records_per_sec: n as f64 / secs,
                payload_mb_per_sec: Some(payload_bytes as f64 / secs / 1e6),
                io_ratio: None,
            };
            table.add_row(row.cells());
            rows.push(row);
        }
        table.print();
    }
    rows
}
