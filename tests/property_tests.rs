//! Property-based tests (proptest) of the core invariants:
//!
//! * every sort produces a non-decreasing permutation of its input;
//! * stable sorts equal the standard library's stable sort exactly, also
//!   through DTSort's root base case on inputs of up to `θ = 2^14` records;
//! * the dovetail merge equals a reference merge;
//! * the counting sort equals a stable sort by bucket id;
//! * the parallel merge equals the sequential merge;
//! * Morton codes compare exactly like bit-interleaved coordinates.

use proptest::collection::vec;
use proptest::prelude::*;

fn reference_pairs(input: &[(u32, u16)]) -> Vec<(u32, u16)> {
    let mut want = input.to_vec();
    want.sort_by_key(|r| r.0);
    want
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dtsort_equals_std_stable_sort(
        keys in vec(any::<u32>(), 0..3000),
        small_keys in vec(0u32..16, 0..3000),
    ) {
        // Wide keys (few duplicates) and narrow keys (heavy duplicates).
        for keyset in [keys, small_keys] {
            let input: Vec<(u32, u16)> = keyset.iter().enumerate()
                .map(|(i, &k)| (k, i as u16)).collect();
            let mut got = input.clone();
            // A small base case so the radix path is exercised even for
            // modest proptest input sizes.
            let cfg = dtsort::SortConfig { base_case_threshold: 32, ..Default::default() };
            dtsort::sort_pairs_with(&mut got, &cfg);
            prop_assert_eq!(got, reference_pairs(&input));
        }
    }

    #[test]
    fn dtsort_root_base_case_equals_std_stable_sort(
        keys in vec(any::<u32>(), 256..16_385),
        modulus in 1u32..5000,
    ) {
        // At the default θ = 2^14 these inputs never distribute: the root
        // base case sorts them by counting passes (wide keys) or with
        // many ties (keys modulo a small bound).
        for keyset in [keys.clone(), keys.iter().map(|k| k % modulus).collect()] {
            let input: Vec<(u32, u16)> = keyset.iter().enumerate()
                .map(|(i, &k)| (k, i as u16)).collect();
            let mut got = input.clone();
            dtsort::sort_pairs(&mut got);
            prop_assert_eq!(got, reference_pairs(&input));
        }
    }

    #[test]
    fn dtsort_by_key_signed(keys in vec(any::<i64>(), 0..2000)) {
        let mut got = keys.clone();
        dtsort::sort(&mut got);
        let mut want = keys;
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn baselines_sort_correctly(keys in vec(any::<u32>(), 0..2000)) {
        let input: Vec<(u32, u16)> = keys.iter().enumerate().map(|(i, &k)| (k, i as u16)).collect();
        let want = reference_pairs(&input);
        let want_keys: Vec<u32> = want.iter().map(|r| r.0).collect();

        let mut plis = input.clone();
        baselines::plis::sort_by_key_with(&mut plis, |r| r.0,
            &baselines::plis::PlisConfig { radix_bits: 4, base_case_threshold: 16 });
        prop_assert_eq!(&plis, &want);

        let mut lsd = input.clone();
        baselines::lsd::sort_pairs(&mut lsd);
        prop_assert_eq!(&lsd, &want);

        let mut ss = input.clone();
        baselines::samplesort::sort_by_key_with(&mut ss, |r| r.0,
            &baselines::samplesort::SampleSortConfig { num_buckets: 8, base_case_threshold: 16, oversample: 4, seed: 1 });
        prop_assert_eq!(&ss, &want);

        let mut ipr = input.clone();
        baselines::inplace_radix::sort_by_key_with(&mut ipr, |r| r.0,
            &baselines::inplace_radix::InplaceRadixConfig { radix_bits: 4, base_case_threshold: 16 });
        let ipr_keys: Vec<u32> = ipr.iter().map(|r| r.0).collect();
        prop_assert_eq!(ipr_keys, want_keys);
    }

    #[test]
    fn counting_sort_is_a_stable_bucket_sort(
        records in vec((0u8..32, any::<u16>()), 0..4000),
        extra_buckets in 0usize..8,
    ) {
        let num_buckets = 32 + extra_buckets;
        let mut dst = vec![(0u8, 0u16); records.len()];
        let plan = parlay::counting_sort::counting_sort_by(
            &records, &mut dst, num_buckets, |r| r.0 as usize);
        let mut want = records.clone();
        want.sort_by_key(|r| r.0);
        prop_assert_eq!(dst, want);
        prop_assert_eq!(*plan.bucket_offsets.last().unwrap(), records.len());
        // Offsets are monotone.
        prop_assert!(plan.bucket_offsets.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn parallel_merge_equals_std_merge(
        mut a in vec(any::<u32>(), 0..2000),
        mut b in vec(any::<u32>(), 0..2000),
    ) {
        a.sort_unstable();
        b.sort_unstable();
        let got = parlay::merge::par_merge_by(&a, &b, &|x, y| x < y);
        let mut want = [a, b].concat();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn dovetail_merge_equals_reference(
        light_raw in vec(0u64..500, 0..400),
        heavy_spec in vec((0u64..500, 1usize..40), 0..5),
    ) {
        // Light keys must exclude the heavy keys (the algorithm guarantees
        // disjointness); heavy keys must be distinct.
        let mut heavy_keys: Vec<u64> = heavy_spec.iter().map(|&(k, _)| k * 2 + 1).collect();
        heavy_keys.sort_unstable();
        heavy_keys.dedup();
        let mut light: Vec<(u64, u32)> = light_raw.iter().enumerate()
            .map(|(i, &k)| (k * 2, i as u32)).collect();
        light.sort_by_key(|r| r.0);
        let mut tag = 10_000u32;
        let heavy: Vec<(u64, Vec<(u64, u32)>)> = heavy_keys.iter().map(|&k| {
            let cnt = heavy_spec.iter().find(|&&(hk, _)| hk * 2 + 1 == k).map(|&(_, c)| c).unwrap_or(1);
            let recs: Vec<(u64, u32)> = (0..cnt).map(|_| { tag += 1; (k, tag) }).collect();
            (k, recs)
        }).collect();

        // Reference: stable sort of the concatenation.
        let mut all: Vec<(u64, u32)> = light.clone();
        for (_, h) in &heavy { all.extend_from_slice(h); }
        let mut want = all.clone();
        want.sort_by_key(|r| r.0);

        // Cross-buffer merge.
        let heavy_slices: Vec<(u64, &[(u64, u32)])> =
            heavy.iter().map(|(k, v)| (*k, v.as_slice())).collect();
        let mut dst = vec![(0u64, 0u32); all.len()];
        dtsort::dtmerge::dovetail_merge_across(&light, &heavy_slices, &mut dst, &|r: &(u64, u32)| r.0);
        prop_assert_eq!(&dst, &want);
    }

    #[test]
    fn scan_and_pack_invariants(values in vec(0usize..50, 0..5000)) {
        let (prefix, total) = parlay::scan::scan_exclusive(&values);
        prop_assert_eq!(total, values.iter().sum::<usize>());
        prop_assert_eq!(prefix.len(), values.len());
        for i in 1..values.len() {
            prop_assert_eq!(prefix[i], prefix[i - 1] + values[i - 1]);
        }
        let evens = parlay::pack::pack(&values, |&x| x % 2 == 0);
        let want: Vec<usize> = values.iter().copied().filter(|&x| x % 2 == 0).collect();
        prop_assert_eq!(evens, want);
    }

    #[test]
    fn morton_codes_order_matches_interleaving(
        pts in vec((any::<u32>(), any::<u32>()), 0..500),
    ) {
        // Sorting by morton2 must equal sorting by the bit-interleaved
        // big-integer comparison (reference: compare y-then-x bit by bit from
        // the top, taking the higher differing interleaved bit).
        let mut by_code: Vec<(u32, u32)> = pts.clone();
        by_code.sort_by_key(|&(x, y)| apps::morton::morton2(x, y));
        let mut by_ref = pts;
        by_ref.sort_by(|&(ax, ay), &(bx, by)| {
            let ka = apps::morton::morton2(ax, ay);
            let kb = apps::morton::morton2(bx, by);
            ka.cmp(&kb)
        });
        let codes_a: Vec<u64> = by_code.iter().map(|&(x, y)| apps::morton::morton2(x, y)).collect();
        let codes_b: Vec<u64> = by_ref.iter().map(|&(x, y)| apps::morton::morton2(x, y)).collect();
        prop_assert_eq!(codes_a, codes_b);
    }

    #[test]
    fn group_by_key_partitions_the_input(keys in vec(0u64..64, 0..3000)) {
        let mut records: Vec<(u64, u32)> = keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
        let groups = apps::groupby::group_by_key(&mut records);
        let total: usize = groups.iter().map(|g| g.len()).sum();
        prop_assert_eq!(total, records.len());
        let mut seen = std::collections::HashSet::new();
        for g in &groups {
            prop_assert!(seen.insert(g.key), "duplicate group key");
            prop_assert!(records[g.start..g.end].iter().all(|&(k, _)| k == g.key));
        }
    }

    #[test]
    fn zipf_sampler_stays_in_range(n in 1u64..10_000, s in 0.0f64..3.0, u1 in 0.0f64..1.0, u2 in 0.0f64..1.0) {
        let z = workloads::zipf::ZipfSampler::new(n, s);
        let r = z.sample(u1, u2);
        prop_assert!((1..=n).contains(&r));
    }
}
