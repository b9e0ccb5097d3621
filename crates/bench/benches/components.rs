//! Criterion micro-benchmarks of the algorithmic components: the stable
//! blocked counting sort (Step 2), DTSort's integer base case against the
//! comparison sort it replaced, the parallel merge baseline, the sampling
//! step, the parallel primitives (scan, reduce) they are built from, and
//! the streaming engines' final k-way loser-tree merge, run from memory on
//! the run shape of perfbench's `stream_spill` workload so the merge
//! thread's cost shows without spill I/O.
//!
//! Run with `cargo bench -p bench --bench components`.

use criterion::{criterion_group, criterion_main, Criterion};
use dtsort::config::SortConfig;
use parlay::kway::{ByKey, LoserTree, SliceSource};
use parlay::random::Rng;
use std::time::Duration;
use workloads::dist::{generate_keys, Distribution};

const N: usize = 500_000;

fn keys(n: usize, seed: u64) -> Vec<(u64, u32)> {
    let rng = Rng::new(seed);
    (0..n).map(|i| (rng.ith(i as u64), i as u32)).collect()
}

fn bench_counting_sort(c: &mut Criterion) {
    let input = keys(N, 1);
    let mut group = c.benchmark_group("counting_sort");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for &buckets in &[16usize, 256, 4096] {
        group.bench_function(format!("{buckets}_buckets"), |b| {
            b.iter_batched(
                || (input.clone(), vec![(0u64, 0u32); N]),
                |(src, mut dst)| {
                    parlay::counting_sort::counting_sort_by(&src, &mut dst, buckets, |r| {
                        (r.0 % buckets as u64) as usize
                    })
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// Records sorted per sample of the `base_case` group: `BASE_CASE_BATCH / n`
/// independent subproblems of `n` records each.
const BASE_CASE_BATCH: usize = 1 << 16;

/// Times `dtsort::recurse::counting_base_case` against the stable
/// `sort_by_key` on subproblems of `n` records whose keys are uniform over
/// `bits` bits, for the record shapes of the paper's evaluation.  Where
/// `sort_by_key` wins (the smallest `n`, more so at more key bits) is what
/// the base case leaves to its comparison fallback.
fn bench_base_case(c: &mut Criterion) {
    let mut group = c.benchmark_group("base_case");
    group.sample_size(15);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    let shapes: [(&str, &[u32]); 2] = [("u32_u32", &[8, 16, 32]), ("u64_u64", &[16, 32, 64])];
    for (shape, widths) in shapes {
        for &bits in widths {
            for n in [16usize, 32, 64, 128, 256, 1024, 4096, 1 << 14] {
                let rng = Rng::new(u64::from(bits) * 31 + n as u64);
                let mask = dtsort::key::low_mask(bits);
                let keys: Vec<u64> = (0..BASE_CASE_BATCH)
                    .map(|i| rng.ith(i as u64) & mask)
                    .collect();
                match shape {
                    "u32_u32" => {
                        let input: Vec<(u32, u32)> = keys
                            .iter()
                            .enumerate()
                            .map(|(i, &k)| (k as u32, i as u32))
                            .collect();
                        base_case_pair(&mut group, shape, bits, n, &input, |r| u64::from(r.0));
                    }
                    _ => {
                        let input: Vec<(u64, u64)> = keys
                            .iter()
                            .enumerate()
                            .map(|(i, &k)| (k, i as u64))
                            .collect();
                        base_case_pair(&mut group, shape, bits, n, &input, |r| r.0);
                    }
                }
            }
        }
    }
    group.finish();
}

/// One `counting`/`sort_by_key` pair of the `base_case` group.
fn base_case_pair<T: Copy + Default>(
    group: &mut criterion::BenchmarkGroup<'_>,
    shape: &str,
    bits: u32,
    n: usize,
    input: &[T],
    key: impl Fn(&T) -> u64 + Copy,
) {
    let mut scratch = vec![T::default(); n];
    group.bench_function(format!("{shape}/{bits}b/n{n}/counting"), |b| {
        b.iter_batched(
            || input.to_vec(),
            |mut v| {
                for chunk in v.chunks_mut(n) {
                    dtsort::recurse::counting_base_case(chunk, &mut scratch, &key, bits);
                }
                v
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function(format!("{shape}/{bits}b/n{n}/sort_by_key"), |b| {
        b.iter_batched(
            || input.to_vec(),
            |mut v| {
                for chunk in v.chunks_mut(n) {
                    chunk.sort_by_key(key);
                }
                v
            },
            criterion::BatchSize::LargeInput,
        )
    });
}

fn bench_merge(c: &mut Criterion) {
    let rng = Rng::new(2);
    let mut a: Vec<(u64, u32)> = (0..N).map(|i| (rng.ith(i as u64), i as u32)).collect();
    let mut bb: Vec<(u64, u32)> = (0..N)
        .map(|i| (rng.fork(1).ith(i as u64), i as u32))
        .collect();
    a.sort_unstable();
    bb.sort_unstable();
    let mut group = c.benchmark_group("merge");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("parallel_merge", |b| {
        b.iter_batched(
            || vec![(0u64, 0u32); 2 * N],
            |mut out| parlay::merge::par_merge_into(&a, &bb, &mut out, &|x, y| x.0 < y.0),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let input = keys(N, 3);
    let cfg = SortConfig::default();
    let mut group = c.benchmark_group("sampling");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("sample_and_detect", |b| {
        b.iter(|| {
            dtsort::sampling::sample_and_detect(input.len(), |i| input[i].0, 10, &cfg, Rng::new(9))
        })
    });
    group.finish();
}

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("parlay_primitives");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let v: Vec<usize> = (0..N).map(|i| i % 13).collect();
    group.bench_function("scan_exclusive", |b| {
        b.iter_batched(
            || v.clone(),
            |mut x| parlay::scan::scan_exclusive_in_place(&mut x),
            criterion::BatchSize::LargeInput,
        )
    });
    let data: Vec<u64> = (0..N as u64).collect();
    group.bench_function("par_max", |b| {
        b.iter(|| parlay::reduce::par_max(&data, |&x| x))
    });
    group.finish();
}

/// Runs of `stream_spill`'s shape: 4M records pushed as 2M Zipf-1.2 then
/// 2M Unif-1e9 32-bit keys, cut into 26 runs of ~154k records (13 per
/// distribution), each stably sorted by key.  Values are push indices.
fn stream_spill_runs() -> Vec<Vec<(u64, u32)>> {
    const HALF: usize = 2_000_000;
    const RUNS_PER_HALF: usize = 13;
    let dists = [
        Distribution::Zipfian { s: 1.2 },
        Distribution::Uniform {
            distinct: 1_000_000_000,
        },
    ];
    let mut runs = Vec::new();
    for (d, dist) in dists.iter().enumerate() {
        let keys = generate_keys(dist, HALF, 32, 11 + d as u64);
        let first = d * HALF;
        let records: Vec<(u64, u32)> = keys
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, (first + i) as u32))
            .collect();
        for chunk in records.chunks(HALF.div_ceil(RUNS_PER_HALF)) {
            let mut run = chunk.to_vec();
            run.sort_by_key(|r| r.0);
            runs.push(run);
        }
    }
    runs
}

fn bench_kway_merge(c: &mut Criterion) {
    let runs = stream_spill_runs();
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut group = c.benchmark_group("kway_merge");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    // One output buffer for every sample, so page faults on a fresh
    // 64 MB buffer stay out of the merge's time.
    let mut out: Vec<(u64, u32)> = Vec::with_capacity(total);
    group.bench_function(format!("stream_spill_{}_runs", runs.len()), |b| {
        b.iter(|| {
            out.clear();
            let sources: Vec<_> = runs
                .iter()
                .map(|r| SliceSource::new(r.as_slice()))
                .collect();
            out.extend(LoserTree::new(sources, ByKey(|r: &(u64, u32)| r.0)));
            out.len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_counting_sort,
    bench_base_case,
    bench_merge,
    bench_sampling,
    bench_primitives,
    bench_kway_merge
);
criterion_main!(benches);
