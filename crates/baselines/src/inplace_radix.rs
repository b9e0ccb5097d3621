//! Unstable **in-place MSD radix sort** (IPS2Ra / RegionsSort class
//! baseline).
//!
//! Each level computes a histogram of the current digit, derives the bucket
//! boundaries, and permutes records into their buckets *within the input
//! array* by cycle-following (the classic American-flag-sort permutation).
//! The permutation destroys the relative order of equal keys, so the sort is
//! unstable — matching the stability column of the paper's Table 2 for
//! IPS2Ra and RegionsSort.  Recursion across buckets runs in parallel; the
//! permutation of a single subproblem is sequential, which is the main
//! structural simplification relative to the engineering-heavy originals
//! (they parallelize the permutation itself; the asymptotic work is the
//! same).

use crate::dtsort_key::IntegerKey;
use parlay::par::{parallel_for_grained, work_grain};
use parlay::slice::UnsafeSliceCell;

/// Tuning parameters of the in-place radix sort.
#[derive(Debug, Clone)]
pub struct InplaceRadixConfig {
    /// Bits per digit.
    pub radix_bits: u32,
    /// Subproblems of at most this size use a comparison sort.
    pub base_case_threshold: usize,
}

impl Default for InplaceRadixConfig {
    fn default() -> Self {
        Self {
            radix_bits: 8,
            base_case_threshold: 1 << 12,
        }
    }
}

/// Sorts integer keys (unstable, in place up to recursion bookkeeping).
pub fn sort<K: IntegerKey>(data: &mut [K]) {
    sort_by_key(data, |&k| k);
}

/// Sorts `(key, value)` records by key (unstable).
pub fn sort_pairs<K: IntegerKey, V: Copy + Send + Sync>(data: &mut [(K, V)]) {
    sort_by_key(data, |r| r.0);
}

/// Sorts records by an integer key projection (unstable) with defaults.
pub fn sort_by_key<T, K, F>(data: &mut [T], key: F)
where
    T: Copy + Send + Sync,
    K: IntegerKey,
    F: Fn(&T) -> K + Sync,
{
    sort_by_key_with(data, key, &InplaceRadixConfig::default());
}

/// Sorts records by an integer key projection (unstable).
pub fn sort_by_key_with<T, K, F>(data: &mut [T], key: F, cfg: &InplaceRadixConfig)
where
    T: Copy + Send + Sync,
    K: IntegerKey,
    F: Fn(&T) -> K + Sync,
{
    let n = data.len();
    if n <= 1 {
        return;
    }
    let keyfn = |r: &T| key(r).to_ordered_u64();
    let max_key = parlay::reduce::par_max(data, |r| keyfn(r)).unwrap_or(0);
    let bits = (64 - max_key.leading_zeros()).max(1);
    radix_rec(data, &keyfn, bits, cfg);
}

fn radix_rec<T, F>(data: &mut [T], key: &F, bits: u32, cfg: &InplaceRadixConfig)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    let n = data.len();
    if n <= 1 {
        return;
    }
    if n <= cfg.base_case_threshold.max(1) || bits == 0 {
        data.sort_unstable_by_key(|a| key(a));
        return;
    }
    let gamma = cfg.radix_bits.clamp(1, bits);
    let shift = bits - gamma;
    let num_buckets = 1usize << gamma;
    let mask = (num_buckets - 1) as u64;
    let digit = |rec: &T| ((key(rec) >> shift) & mask) as usize;

    // Histogram.
    let mut counts = vec![0usize; num_buckets];
    for rec in data.iter() {
        counts[digit(rec)] += 1;
    }
    // Bucket start/end boundaries.
    let mut starts = vec![0usize; num_buckets + 1];
    for b in 0..num_buckets {
        starts[b + 1] = starts[b] + counts[b];
    }
    let ends: Vec<usize> = starts[1..].to_vec();

    // American-flag permutation: for each bucket, repeatedly swap the record
    // at its write head into the bucket it belongs to until the head holds a
    // record of the current bucket.
    let mut heads = starts[..num_buckets].to_vec();
    for b in 0..num_buckets {
        while heads[b] < ends[b] {
            let mut rec = data[heads[b]];
            let mut d = digit(&rec);
            while d != b {
                let dest = heads[d];
                heads[d] += 1;
                std::mem::swap(&mut data[dest], &mut rec);
                d = digit(&rec);
            }
            data[heads[b]] = rec;
            heads[b] += 1;
        }
    }

    // Recurse on buckets in parallel.
    let data_cell = UnsafeSliceCell::new(data);
    let starts_ref = &starts;
    parallel_for_grained(0, num_buckets, work_grain(num_buckets, n), &|b| {
        let lo = starts_ref[b];
        let hi = starts_ref[b + 1];
        if hi - lo > 1 {
            let bucket = unsafe { data_cell.slice_mut(lo, hi - lo) };
            radix_rec(bucket, key, bits - gamma, cfg);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlay::random::Rng;

    #[test]
    fn sorts_random_u64() {
        let rng = Rng::new(1);
        let mut v: Vec<u64> = (0..80_000).map(|i| rng.ith(i)).collect();
        let mut want = v.clone();
        want.sort_unstable();
        sort(&mut v);
        assert_eq!(v, want);
    }

    #[test]
    fn sorts_pairs_by_key() {
        let rng = Rng::new(2);
        let input: Vec<(u32, u32)> = (0..60_000)
            .map(|i| (rng.ith_in(i as u64, 1_000_000) as u32, i as u32))
            .collect();
        let mut got = input.clone();
        sort_pairs(&mut got);
        // Unstable: only the key sequence must match.
        let mut want_keys: Vec<u32> = input.iter().map(|&(k, _)| k).collect();
        want_keys.sort_unstable();
        let got_keys: Vec<u32> = got.iter().map(|&(k, _)| k).collect();
        assert_eq!(got_keys, want_keys);
        // And the multiset of records must be preserved.
        let mut a = got;
        let mut b = input;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn heavy_duplicates_and_edge_cases() {
        let rng = Rng::new(3);
        let mut v: Vec<u32> = (0..50_000)
            .map(|i| rng.ith_in(i as u64, 3) as u32 * 1_000_000)
            .collect();
        let mut want = v.clone();
        want.sort_unstable();
        sort(&mut v);
        assert_eq!(v, want);

        let mut empty: Vec<u32> = vec![];
        sort(&mut empty);
        let mut one = vec![1u8];
        sort(&mut one);
        assert_eq!(one, vec![1]);
        let mut extremes = vec![u32::MAX, 0, u32::MAX, 5];
        sort(&mut extremes);
        assert_eq!(extremes, vec![0, 5, u32::MAX, u32::MAX]);
    }

    #[test]
    fn small_radix_width() {
        let rng = Rng::new(4);
        let input: Vec<u64> = (0..30_000).map(|i| rng.ith_in(i, 1 << 30)).collect();
        let mut got = input.clone();
        sort_by_key_with(
            &mut got,
            |&k| k,
            &InplaceRadixConfig {
                radix_bits: 3,
                base_case_threshold: 16,
            },
        );
        let mut want = input;
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn signed_keys() {
        let rng = Rng::new(5);
        let mut v: Vec<i32> = (0..40_000).map(|i| rng.ith(i) as i32).collect();
        let mut want = v.clone();
        want.sort_unstable();
        sort(&mut v);
        assert_eq!(v, want);
    }
}
