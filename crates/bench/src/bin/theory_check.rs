//! Empirical check of the paper's theory section:
//!
//! * **Theorem 4.5** — DTSort performs `O(n √log r)` work: the number of
//!   record movements per input record should stay near
//!   `2 · (#levels) ≈ 2 · √log r / γ-factor`, far below the `log n`
//!   comparisons per record of a comparison sort.
//! * **Theorems 4.6/4.7** — on exponential inputs (with sufficiently heavy
//!   duplication) and on inputs with few distinct keys, the work is `O(n)`:
//!   the movements per record should approach 2 (one distribution + one
//!   merge at the root only) as duplication grows.
//!
//! The harness prints, for each instance, the detected heavy keys, the
//! fraction of records that bypassed recursion, the fraction that base
//! cases finished and how much of that the comparison fallback (subproblems
//! below its size cutover) did instead of the counting passes, and
//! the records-moved-per-record work proxy.  Base cases are not counted as
//! moves.
//!
//! Usage: `cargo run -p bench --release --bin theory_check -- [--n 1e7] [--bits 32]`

use bench::{Args, Table};
use workloads::dist::Distribution;

fn main() {
    let args = Args::parse();
    args.apply_thread_limit();
    let instances = vec![
        (
            "few distinct (Thm 4.7)",
            Distribution::Uniform { distinct: 10 },
        ),
        (
            "few distinct (Thm 4.7)",
            Distribution::Uniform { distinct: 1_000 },
        ),
        (
            "exponential (Thm 4.6)",
            Distribution::Exponential { lambda: 10.0 },
        ),
        (
            "exponential (Thm 4.6)",
            Distribution::Exponential { lambda: 1.0 },
        ),
        ("zipfian heavy", Distribution::Zipfian { s: 1.5 }),
        (
            "uniform distinct (worst case)",
            Distribution::Uniform {
                distinct: 1_000_000_000,
            },
        ),
        ("adversarial", Distribution::BitExponential { t: 100.0 }),
    ];
    println!(
        "Theory check (Thms 4.5-4.7) — n = {}, {}-bit keys.  'moves/rec' is the records-moved work proxy; the comparison-sort equivalent is ~log2(n) = {:.1}.",
        args.n,
        args.bits,
        (args.n as f64).log2()
    );
    let mut table = Table::new(vec![
        "Instance",
        "Regime",
        "heavy keys",
        "heavy rec %",
        "base-case rec %",
        "cmp-sorted rec %",
        "levels",
        "moves/rec",
    ]);
    for (regime, dist) in &instances {
        let snap = bench::experiments::measure_work_counters(dist, args.n, args.bits, 42);
        let n = args.n as f64;
        table.add_row(vec![
            dist.label(),
            regime.to_string(),
            format!("{}", snap.heavy_keys),
            format!("{:.1}%", 100.0 * snap.heavy_records as f64 / n),
            format!("{:.1}%", 100.0 * snap.base_case_records as f64 / n),
            format!("{:.2}%", 100.0 * snap.comparison_sorted_records as f64 / n),
            format!("{}", snap.max_depth),
            format!("{:.2}", snap.records_moved() as f64 / n),
        ]);
    }
    table.print();
    println!("\nExpectation: heavy-duplicate instances show moves/rec close to 2 (linear work, Thms 4.6/4.7);");
    println!("the distinct-key worst case shows moves/rec ≈ 2 × #levels ≈ 2·√(log r)/γ (Thm 4.5), still well below log2 n.");
}
