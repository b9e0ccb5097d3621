//! Integration tests sweeping DovetailSort's configuration space: every
//! merge strategy, base-case threshold, sampling seed and heavy-key
//! detection on and off, plus the always-on overflow bucket, on inputs
//! designed to stress each one.

use dtsort::{MergeStrategy, SortConfig};
use parlay::random::Rng;

fn reference(input: &[(u64, u32)]) -> Vec<(u64, u32)> {
    let mut want = input.to_vec();
    want.sort_by_key(|r| r.0);
    want
}

fn skewed_input(n: usize, seed: u64) -> Vec<(u64, u32)> {
    // A mix: 40% one hot key, 20% spread over 10 warm keys, 40% random.
    let rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            let r = rng.ith_f64(i as u64);
            let k = if r < 0.4 {
                999_999
            } else if r < 0.6 {
                1_000 * (rng.ith_in(i as u64, 10) + 1)
            } else {
                rng.ith(i as u64)
            };
            (k, i as u32)
        })
        .collect()
}

#[test]
fn all_merge_strategies_produce_identical_stable_output() {
    let input = skewed_input(120_000, 1);
    let want = reference(&input);
    for strategy in [MergeStrategy::Dovetail, MergeStrategy::ParallelMerge] {
        let cfg = SortConfig {
            merge_strategy: strategy,
            base_case_threshold: 512,
            ..SortConfig::default()
        };
        let mut data = input.clone();
        dtsort::sort_pairs_with(&mut data, &cfg);
        assert_eq!(data, want, "strategy {strategy:?}");
    }
}

#[test]
fn base_case_thresholds() {
    let input = skewed_input(50_000, 3);
    let want = reference(&input);
    for theta in [0usize, 1, 16, 1 << 10, 1 << 20] {
        let cfg = SortConfig {
            base_case_threshold: theta,
            ..SortConfig::default()
        };
        let mut data = input.clone();
        dtsort::sort_pairs_with(&mut data, &cfg);
        assert_eq!(data, want, "theta = {theta}");
    }
}

#[test]
fn overflow_bucket_engages_on_outliers() {
    // Keys with a huge outlier: the sampled range misses it, so the overflow
    // bucket must catch it.
    let rng = Rng::new(4);
    let mut input: Vec<(u64, u32)> = (0..80_000)
        .map(|i| (rng.ith_in(i, 1 << 20), i as u32))
        .collect();
    input[40_000].0 = u64::MAX;
    input[70_001].0 = u64::MAX - 3;
    let want = reference(&input);
    let cfg = SortConfig {
        base_case_threshold: 1024,
        ..SortConfig::default()
    };
    let mut data = input;
    let snap = dtsort::sort_pairs_with_stats(&mut data, &cfg);
    assert_eq!(data, want);
    assert!(snap.overflow_records > 0, "{snap:?}");
}

#[test]
fn sampling_seeds() {
    let input = skewed_input(60_000, 5);
    let want = reference(&input);
    for seed in [0u64, 1, 0xDEAD_BEEF] {
        let cfg = SortConfig {
            seed,
            base_case_threshold: 512,
            ..SortConfig::default()
        };
        let mut data = input.clone();
        dtsort::sort_pairs_with(&mut data, &cfg);
        assert_eq!(data, want, "seed {seed}");
    }
}

#[test]
fn heavy_detection_off_equals_on_in_output() {
    let input = skewed_input(100_000, 6);
    let mut a = input.clone();
    let mut b = input;
    dtsort::sort_pairs_with(&mut a, &SortConfig::default());
    dtsort::sort_pairs_with(&mut b, &SortConfig::plain());
    assert_eq!(a, b);
}

#[test]
fn stats_reflect_configuration() {
    let input = skewed_input(200_000, 7);
    let mut with_heavy = input.clone();
    let snap_heavy = dtsort::sort_pairs_with_stats(&mut with_heavy, &SortConfig::default());
    assert!(snap_heavy.heavy_keys > 0);
    assert!(snap_heavy.heavy_records > 50_000);

    let mut plain = input.clone();
    let snap_plain = dtsort::sort_pairs_with_stats(&mut plain, &SortConfig::plain());
    assert_eq!(snap_plain.heavy_keys, 0);
    assert_eq!(snap_plain.heavy_records, 0);
    // Plain must distribute at least as much data through the recursion.
    assert!(snap_plain.distributed_records >= snap_heavy.distributed_records);

    // Skip-merge moves fewer records than the full algorithm.
    let mut skipped = input;
    let snap_skip = dtsort::sort_pairs_with_stats(
        &mut skipped,
        &SortConfig {
            merge_strategy: MergeStrategy::Skip,
            ..SortConfig::default()
        },
    );
    assert!(snap_skip.merged_records <= snap_heavy.merged_records);
}
