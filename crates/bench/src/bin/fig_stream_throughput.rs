//! Streaming-sorter throughput: records/sec of `stream::StreamSorter` as
//! the memory budget shrinks (forcing more spilled runs), against the
//! in-memory DovetailSort baseline on the same input — measured in both
//! spill encodings (**flat** and **compressed**, `SpillCompression::DeltaLz`
//! delta/LZ spill blocks) under both spill I/O backends
//! (`StreamConfig::spill_io`), so every run re-baselines the compression
//! trade on the current host; see `bench::spill_modes`.  Whether the merge
//! reads ahead is the host's decision (more than one CPU), recorded as
//! `host_cpus` in the JSON.
//!
//! Each row reports the spill-phase wall time (pushing, sorting and
//! writing every run, i.e. `push` loop + `flush_spills`) and the merge
//! wall time (`finish` + drain) separately, plus the bytes written to
//! spill files.  Compressed rows additionally report the achieved on-disk
//! ratio.
//!
//! Beyond the console table, results are written as machine-readable JSON
//! to `BENCH_stream.json` in the current directory so successive PRs can
//! track the perf trajectory.
//!
//! Usage: `cargo run -p bench --release --bin fig_stream_throughput -- [--n 2e6] [--reps 3]`

use bench::spill_modes::{median_modes, stream_sort_phases, table, write_json, Measurement};
use bench::{median_time_secs, write_obs_artifacts, Args};
use workloads::dist::Distribution;

fn main() {
    let args = Args::parse();
    args.apply_thread_limit();
    // Checking for the flag itself (not the default value) keeps an
    // explicit `--n 10000000` honest.
    let n = if std::env::args().any(|a| a == "--n") {
        args.n
    } else {
        2_000_000
    };
    let batch = 64 * 1024;
    let data_bytes = n * std::mem::size_of::<(u32, u32)>();
    // From "everything in memory" down to an eighth of the dataset.  The
    // budget is split into spill shares (buffer, scratch, in-flight run),
    // so 8·data is comfortably spill-free.
    let budgets = [
        ("mem", 8 * data_bytes),
        ("1/2", data_bytes / 2),
        ("1/4", data_bytes / 4),
        ("1/8", data_bytes / 8),
    ];
    let instances = vec![
        Distribution::Uniform {
            distinct: 1_000_000_000,
        },
        Distribution::Zipfian { s: 1.2 },
        Distribution::Uniform { distinct: 10 },
    ];
    println!(
        "Streaming sorter throughput — n = {n}, batch = {batch}, {} threads",
        rayon::current_num_threads()
    );
    let mut all = Vec::new();
    for dist in &instances {
        println!("\n=== {} ===", dist.label());
        let input = workloads::dist::generate_pairs_u32(dist, n, 42);
        // In-memory baseline for context.
        let base = median_time_secs(&input, args.reps, |v| dtsort::sort_pairs(v));
        let mut table = table(false, Some(("dtsort", base)), n);
        for &(label, budget) in &budgets {
            let medians = median_modes(args.reps, |mode| {
                stream_sort_phases(&input, budget, batch, mode)
            });
            for row in Measurement::rows(&dist.label(), label, budget, n, medians) {
                table.add_row(row.cells());
                all.push(row);
            }
        }
        table.print();
    }
    write_json("BENCH_stream.json", "stream_throughput", n, batch, &all);
    write_obs_artifacts("stream");
}
