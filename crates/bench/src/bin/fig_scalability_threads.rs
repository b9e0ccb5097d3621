//! Reproduces **Fig. 4(e)** and the appendix **Figs. 5–20**: self-speedup of
//! every algorithm as the thread count grows, on a representative heavy and
//! light instance of each distribution family.
//!
//! On the paper's 96-core machine the sweep goes up to 192 hyper-threads;
//! here the sweep always includes `{1, 2, 4}` workers (the work-stealing
//! pool happily runs more workers than cores — oversubscription on a small
//! host is visible in the recorded `host_cpus`) and extends toward the
//! host's logical CPU count (or `--threads` to force a larger cap).
//!
//! Beyond the console tables, results are written as machine-readable JSON
//! to `BENCH_scalability.json` in the current directory so successive PRs
//! can track the parallel-speedup trajectory.
//!
//! Usage: `cargo run -p bench --release --bin fig_scalability_threads -- [--n 1e7] [--bits 32] [--reps 3] [--threads 8]`

use bench::experiments::measure_with_threads;
use bench::{json_escape, write_bench_json, Args, SorterKind, Table};
use workloads::dist::Distribution;

/// Thread counts to sweep: always 1, 2 and 4 (the determinism matrix and
/// the acceptance speedup are defined on those), plus powers up to `cap`.
fn thread_counts(cap: usize) -> Vec<usize> {
    let mut v = vec![1usize, 2, 4];
    for &t in &[8usize, 16, 24, 48, 96, 192] {
        if t <= cap {
            v.push(t);
        }
    }
    if cap > 4 && !v.contains(&cap) {
        v.push(cap);
    }
    v.sort_unstable();
    v.dedup();
    v
}

struct Measurement {
    dist: String,
    sorter: &'static str,
    threads: usize,
    secs: f64,
    speedup_vs_1: f64,
}

fn write_json(path: &str, n: usize, bits: u32, rows: &[Measurement]) {
    let rendered: Vec<String> = rows
        .iter()
        .map(|m| {
            format!(
                "{{\"dist\": \"{}\", \"sorter\": \"{}\", \"threads\": {}, \"secs\": {:.6}, \"speedup_vs_1\": {:.3}}}",
                json_escape(&m.dist),
                m.sorter,
                m.threads,
                m.secs,
                m.speedup_vs_1,
            )
        })
        .collect();
    write_bench_json(
        path,
        "scalability_threads",
        &[("n", n.to_string()), ("bits", bits.to_string())],
        &rendered,
    );
}

fn main() {
    let args = Args::parse();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cap = if args.threads > 0 {
        args.threads
    } else {
        host_cpus
    };
    let counts = thread_counts(cap);
    let sorters = SorterKind::table3_lineup();
    let instances = vec![
        Distribution::Uniform {
            distinct: 10_000_000,
        },
        Distribution::Uniform { distinct: 1_000 },
        Distribution::Exponential { lambda: 2.0 },
        Distribution::Exponential { lambda: 7.0 },
        Distribution::Zipfian { s: 0.8 },
        Distribution::Zipfian { s: 1.2 },
        Distribution::BitExponential { t: 30.0 },
        Distribution::BitExponential { t: 100.0 },
    ];
    println!(
        "Figs. 4(e), 5-20 reproduction — self-speedup vs thread count (n = {}, {}-bit keys, host has {host_cpus} logical CPUs)",
        args.n, args.bits,
    );
    let mut all: Vec<Measurement> = Vec::new();
    for dist in &instances {
        println!("\n=== {} ===", dist.label());
        let mut headers = vec!["Threads".to_string()];
        headers.extend(sorters.iter().map(|s| s.name().to_string()));
        let mut time_table = Table::new(headers.clone());
        let mut speedup_table = Table::new(headers);
        let mut base: Vec<f64> = Vec::new();
        for &t in &counts {
            let times = measure_with_threads(dist, args.n, args.bits, args.reps, t, &sorters, 42);
            if base.is_empty() {
                base = times.clone();
            }
            let mut trow = vec![format!("{t}")];
            let mut srow = vec![format!("{t}")];
            for (i, &x) in times.iter().enumerate() {
                let speedup = base[i] / x.max(1e-12);
                trow.push(format!("{x:.3}"));
                srow.push(format!("{speedup:.2}"));
                all.push(Measurement {
                    dist: dist.label(),
                    sorter: sorters[i].name(),
                    threads: t,
                    secs: x,
                    speedup_vs_1: speedup,
                });
            }
            time_table.add_row(trow);
            speedup_table.add_row(srow);
        }
        println!("-- running time (s) --");
        time_table.print();
        println!("-- self-speedup (relative to 1 thread) --");
        speedup_table.print();
    }
    write_json("BENCH_scalability.json", args.n, args.bits, &all);
}
