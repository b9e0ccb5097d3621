//! Criterion benchmark behind **Fig. 4**: the ablation studies.
//!
//! * Fig. 4(a)(b): DovetailSort with and without heavy-key detection.
//! * Fig. 4(c)(d): the merge-strategy comparison (DTMerge across buffers,
//!   the PLMerge baseline, and the merge-free lower bound).
//!
//! Run with `cargo bench -p bench --bench merge_strategies`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dtsort::{MergeStrategy, SortConfig};
use std::time::Duration;
use workloads::dist::{generate_pairs_u32, Distribution};

const N: usize = 200_000;

fn bench_heavy_detection(c: &mut Criterion) {
    let instances = vec![
        Distribution::Uniform {
            distinct: 1_000_000_000,
        },
        Distribution::Uniform { distinct: 10 },
        Distribution::Zipfian { s: 1.5 },
        Distribution::BitExponential { t: 300.0 },
    ];
    let mut group = c.benchmark_group("fig4ab_heavy_detection");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for dist in &instances {
        let input = generate_pairs_u32(dist, N, 42);
        for (label, cfg) in [
            ("DTSort", SortConfig::default()),
            ("Plain", SortConfig::plain()),
        ] {
            group.bench_with_input(BenchmarkId::new(label, dist.label()), &input, |b, input| {
                b.iter_batched(
                    || input.clone(),
                    |mut data| dtsort::sort_pairs_with(&mut data, &cfg),
                    criterion::BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

fn bench_merge_strategies(c: &mut Criterion) {
    let instances = vec![
        Distribution::Uniform { distinct: 1_000 },
        Distribution::Zipfian { s: 1.5 },
        Distribution::BitExponential { t: 300.0 },
    ];
    let strategies = [
        ("DTMerge", MergeStrategy::Dovetail),
        ("PLMerge", MergeStrategy::ParallelMerge),
        ("NoMerge", MergeStrategy::Skip),
    ];
    let mut group = c.benchmark_group("fig4cd_merge_strategies");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for dist in &instances {
        let input = generate_pairs_u32(dist, N, 43);
        for (label, strategy) in strategies {
            let cfg = SortConfig {
                merge_strategy: strategy,
                ..SortConfig::default()
            };
            group.bench_with_input(BenchmarkId::new(label, dist.label()), &input, |b, input| {
                b.iter_batched(
                    || input.clone(),
                    |mut data| dtsort::sort_pairs_with(&mut data, &cfg),
                    criterion::BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_heavy_detection, bench_merge_strategies);
criterion_main!(benches);
