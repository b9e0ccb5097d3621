//! Reproduces **Fig. 4(a)(b)** of the paper: DTSort with and without
//! heavy-key detection ("DTSort" vs "Plain") on the eight representative
//! distributions (lightest and heaviest of each family), for 32-bit and
//! 64-bit keys.
//!
//! Beyond the console tables, every row is written to
//! `BENCH_heavy_ablation.json` in the current directory, stamped with the
//! thread count, `host_cpus` and the git revision of the checkout.
//!
//! Usage: `cargo run -p bench --release --bin fig4_heavy_ablation -- [--n 1e7] [--reps 3] [--threads 1]`

use bench::experiments::measure_heavy_ablation;
use bench::{json_escape, write_bench_json, Args, Table};
use workloads::dist::ablation_instances;

/// One instance of the ablation: median seconds with and without heavy-key
/// detection.
struct Row {
    bits: u32,
    dist: String,
    dtsort_s: f64,
    plain_s: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.plain_s / self.dtsort_s.max(1e-12)
    }
}

/// Measures and prints one key width; returns its rows and their geomean
/// speedup.
fn run(bits: u32, args: &Args) -> (Vec<Row>, f64) {
    println!(
        "\n=== Heavy-key detection ablation, {bits}-bit keys (Fig. 4{}) ===",
        if bits == 32 { "a" } else { "b" }
    );
    let mut table = Table::new(vec!["Instance", "DTSort(s)", "Plain(s)", "Speedup"]);
    let mut rows = Vec::new();
    for dist in ablation_instances() {
        let (with, without) = measure_heavy_ablation(&dist, args.n, bits, args.reps, 42);
        let row = Row {
            bits,
            dist: dist.label(),
            dtsort_s: with,
            plain_s: without,
        };
        table.add_row(vec![
            row.dist.clone(),
            format!("{with:.3}"),
            format!("{without:.3}"),
            format!("{:.2}x", row.speedup()),
        ]);
        rows.push(row);
    }
    let speedups: Vec<f64> = rows.iter().map(Row::speedup).collect();
    let avg = bench::geo_mean(&speedups);
    table.add_row(vec![
        "Avg.(geomean)".to_string(),
        String::new(),
        String::new(),
        format!("{avg:.2}x"),
    ]);
    table.print();
    (rows, avg)
}

fn main() {
    let args = Args::parse();
    args.apply_thread_limit();
    let threads = rayon::current_num_threads();
    println!(
        "Fig. 4(a)(b) reproduction — {threads} threads.  Paper reference: +25% average on 32-bit, 1.50x on 64-bit."
    );
    let (mut rows, geomean_32) = run(32, &args);
    let (rows_64, geomean_64) = run(64, &args);
    rows.extend(rows_64);
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"bits\": {}, \"dist\": \"{}\", \"dtsort_s\": {:.6}, \"plain_s\": {:.6}, \"speedup\": {:.3}}}",
                r.bits,
                json_escape(&r.dist),
                r.dtsort_s,
                r.plain_s,
                r.speedup(),
            )
        })
        .collect();
    write_bench_json(
        "BENCH_heavy_ablation.json",
        "heavy_ablation",
        &[
            ("n", args.n.to_string()),
            ("reps", args.reps.to_string()),
            ("threads", threads.to_string()),
            ("geomean_speedup_32", format!("{geomean_32:.3}")),
            ("geomean_speedup_64", format!("{geomean_64:.3}")),
        ],
        &rendered,
    );
}
