//! Cross-crate integration tests: every sorting algorithm in the workspace,
//! on every workload-generator distribution, for 32-bit and 64-bit keys,
//! cross-checked against the standard library sort.

use workloads::dist::{bexp_instances, paper_instances, Distribution};

const N: usize = 40_000;

type Sorter32 = (&'static str, fn(&mut [(u32, u32)]));
type Sorter64 = (&'static str, fn(&mut [(u64, u64)]));

fn sorters_32() -> Vec<Sorter32> {
    vec![
        ("dtsort", |d| dtsort::sort_pairs(d)),
        ("dtsort-plain", |d| {
            dtsort::sort_pairs_with(d, &dtsort::SortConfig::plain())
        }),
        ("plis", |d| baselines::plis::sort_pairs(d)),
        ("lsd", |d| baselines::lsd::sort_pairs(d)),
        ("samplesort", |d| baselines::samplesort::sort_pairs(d)),
        ("inplace-radix", |d| baselines::inplace_radix::sort_pairs(d)),
    ]
}

fn sorters_64() -> Vec<Sorter64> {
    vec![
        ("dtsort", |d| dtsort::sort_pairs(d)),
        ("dtsort-plain", |d| {
            dtsort::sort_pairs_with(d, &dtsort::SortConfig::plain())
        }),
        ("plis", |d| baselines::plis::sort_pairs(d)),
        ("lsd", |d| baselines::lsd::sort_pairs(d)),
        ("samplesort", |d| baselines::samplesort::sort_pairs(d)),
        ("inplace-radix", |d| baselines::inplace_radix::sort_pairs(d)),
    ]
}

fn all_distributions() -> Vec<Distribution> {
    let mut v = paper_instances();
    v.extend(bexp_instances());
    v
}

#[test]
fn every_sorter_sorts_every_distribution_32bit() {
    for dist in all_distributions() {
        let input = workloads::dist::generate_pairs_u32(&dist, N, 7);
        let mut want_keys: Vec<u32> = input.iter().map(|r| r.0).collect();
        want_keys.sort_unstable();
        for (name, sorter) in sorters_32() {
            let mut data = input.clone();
            sorter(&mut data);
            let got_keys: Vec<u32> = data.iter().map(|r| r.0).collect();
            assert_eq!(got_keys, want_keys, "{name} failed on {}", dist.label());
            // Output must be a permutation of the input.
            let mut a = data;
            let mut b = input.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{name} lost records on {}", dist.label());
        }
    }
}

#[test]
fn every_sorter_sorts_every_distribution_64bit() {
    for dist in all_distributions() {
        let input = workloads::dist::generate_pairs_u64(&dist, N, 11);
        let mut want_keys: Vec<u64> = input.iter().map(|r| r.0).collect();
        want_keys.sort_unstable();
        for (name, sorter) in sorters_64() {
            let mut data = input.clone();
            sorter(&mut data);
            let got_keys: Vec<u64> = data.iter().map(|r| r.0).collect();
            assert_eq!(got_keys, want_keys, "{name} failed on {}", dist.label());
        }
    }
}

#[test]
fn stable_sorters_agree_exactly_on_duplicate_heavy_input() {
    // On a duplicate-heavy input, all *stable* sorters must produce exactly
    // the same record sequence (the stable order is unique).
    let dist = Distribution::Zipfian { s: 1.5 };
    let input = workloads::dist::generate_pairs_u32(&dist, N, 13);
    let mut reference = input.clone();
    reference.sort_by_key(|r| r.0);
    for (name, sorter) in sorters_32() {
        if name == "inplace-radix" {
            continue; // unstable by design
        }
        let mut data = input.clone();
        sorter(&mut data);
        assert_eq!(data, reference, "{name} is not stable");
    }
}

#[test]
fn umbrella_crate_reexports_work() {
    let mut v = vec![5u64, 3, 9, 3, 1];
    pisort::sort(&mut v);
    assert_eq!(v, vec![1, 3, 3, 5, 9]);
    let mut pairs = vec![(2u32, 0u8), (1, 1), (2, 2)];
    pisort::sort_pairs(&mut pairs);
    assert_eq!(pairs, vec![(1, 1), (2, 0), (2, 2)]);
    let stats = pisort::sort_with_stats(&mut [3u32, 1, 2][..], &pisort::SortConfig::default());
    assert_eq!(stats.heavy_keys, 0);
}

#[test]
fn large_single_instance_end_to_end() {
    // One bigger run (beyond the base-case threshold at every level) to
    // exercise deep recursion on 64-bit keys.
    let dist = Distribution::Uniform { distinct: 1 << 62 };
    let n = 300_000;
    let mut data = workloads::dist::generate_pairs_u64(&dist, n, 5);
    let mut want = data.clone();
    want.sort_by_key(|r| r.0);
    dtsort::sort_pairs(&mut data);
    assert_eq!(data, want);
}

/// What DTSort's classification decides, pinned: which keys get heavy
/// buckets, how many records they take, and how the recursion splits.  The
/// numbers were recorded with the earlier linear-probing heavy-key table, so
/// a change to how `GetBucketID` looks keys up must leave all of them, and
/// the output, unchanged.
#[test]
fn classification_outcome_is_pinned_on_skewed_inputs() {
    let n = 200_000;
    // (distribution, heavy_keys, heavy_records, base_case_calls,
    //  distributed_records, merged_records)
    let pinned: [(Distribution, [u64; 5]); 3] = [
        (
            Distribution::Zipfian { s: 1.2 },
            [56, 129_606, 498, 256_546, 256_546],
        ),
        (
            Distribution::BitExponential { t: 30.0 },
            [39, 142_543, 186, 228_957, 228_957],
        ),
        (
            Distribution::Zipfian { s: 0.8 },
            [27, 19_459, 505, 247_705, 247_705],
        ),
    ];
    for (dist, want) in pinned {
        let input = workloads::dist::generate_pairs_u32(&dist, n, 2024);
        let mut data = input.clone();
        let st = dtsort::sort_pairs_with_stats(&mut data, &dtsort::SortConfig::default());
        let got = [
            st.heavy_keys,
            st.heavy_records,
            st.base_case_calls,
            st.distributed_records,
            st.merged_records,
        ];
        assert_eq!(got, want, "{}: {st:?}", dist.label());
        let mut reference = input;
        reference.sort_by_key(|&(k, _)| k);
        assert_eq!(data, reference, "{}", dist.label());
    }
}
