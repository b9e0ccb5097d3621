//! PLIS-class baseline: a **stable parallel MSD radix sort** without
//! heavy-key detection (paper Alg. 1, the algorithm analyzed in
//! Theorem 4.4).
//!
//! Each level distributes the records into `2^γ` buckets by the current
//! digit using the stable blocked counting sort, then recurses into each
//! bucket in parallel; subproblems below the base-case threshold are
//! finished with a stable comparison sort.  Data ping-pongs between the
//! input array and one scratch buffer, as in DovetailSort.
//!
//! This is no longer exactly the "Plain" variant of the Fig. 4(a)(b)
//! ablation (`dtsort::SortConfig::plain`): Plain shares DovetailSort's
//! base case, which finishes subproblems with stable 8-bit counting passes
//! over their remaining key bits (a comparison sort only on the smallest),
//! while PLIS keeps the paper's comparison base case, as the baseline the
//! paper measured.

use crate::dtsort_key::IntegerKey;
use parlay::counting_sort::counting_sort_by;
use parlay::par::{parallel_for_grained, work_grain};
use parlay::slice::UnsafeSliceCell;

/// Tuning parameters of the PLIS baseline.
#[derive(Debug, Clone)]
pub struct PlisConfig {
    /// Bits sorted per level (the paper's practical choice is 8–12).
    pub radix_bits: u32,
    /// Subproblems of at most this size use a comparison sort.
    pub base_case_threshold: usize,
}

impl Default for PlisConfig {
    fn default() -> Self {
        Self {
            radix_bits: 8,
            base_case_threshold: 1 << 14,
        }
    }
}

/// Sorts integer keys stably.
pub fn sort<K: IntegerKey>(data: &mut [K]) {
    sort_by_key(data, |&k| k);
}

/// Sorts `(key, value)` records stably by key.
pub fn sort_pairs<K: IntegerKey, V: Copy + Send + Sync>(data: &mut [(K, V)]) {
    sort_by_key(data, |r| r.0);
}

/// Sorts records stably by an integer key projection with default parameters.
pub fn sort_by_key<T, K, F>(data: &mut [T], key: F)
where
    T: Copy + Send + Sync,
    K: IntegerKey,
    F: Fn(&T) -> K + Sync,
{
    sort_by_key_with(data, key, &PlisConfig::default());
}

/// Sorts records stably by an integer key projection.
pub fn sort_by_key_with<T, K, F>(data: &mut [T], key: F, cfg: &PlisConfig)
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
    if n <= cfg.base_case_threshold.max(1) {
        data.sort_by_key(|a| keyfn(a));
        return;
    }
    // Skip leading all-zero digits: compute the maximum key once (the
    // "parallel reduce" alternative mentioned in the paper's Section 5).
    let max_key = parlay::reduce::par_max(data, |r| keyfn(r)).unwrap_or(0);
    let bits = (64 - max_key.leading_zeros()).max(1);
    let mut buf = data.to_vec();
    msd_recurse(data, &mut buf, &keyfn, bits, cfg);
}

fn msd_recurse<T, F>(data: &mut [T], scratch: &mut [T], key: &F, bits: u32, cfg: &PlisConfig)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    let n = data.len();
    if n <= 1 {
        return;
    }
    if n <= cfg.base_case_threshold.max(1) || bits == 0 {
        data.sort_by_key(|a| key(a));
        return;
    }
    let gamma = cfg.radix_bits.clamp(1, bits);
    let shift = bits - gamma;
    let num_buckets = 1usize << gamma;
    let mask = (num_buckets - 1) as u64;

    // Distribute by the current digit into the scratch buffer.
    let plan = counting_sort_by(data, scratch, num_buckets, |rec| {
        ((key(rec) >> shift) & mask) as usize
    });

    // Recurse on each bucket in parallel; each recursion leaves its result in
    // the scratch slice, which we then copy back to `data` (the classic MSD
    // structure of Alg. 1 without the dovetail bookkeeping).
    {
        let data_cell = UnsafeSliceCell::new(&mut *data);
        let scratch_cell = UnsafeSliceCell::new(&mut *scratch);
        let plan_ref = &plan;
        parallel_for_grained(0, num_buckets, work_grain(num_buckets, n), &|b| {
            let range = plan_ref.bucket_range(b);
            if range.is_empty() {
                return;
            }
            let bucket = unsafe { scratch_cell.slice_mut(range.start, range.len()) };
            let bucket_scratch = unsafe { data_cell.slice_mut(range.start, range.len()) };
            if range.len() > 1 {
                msd_recurse(bucket, bucket_scratch, key, bits - gamma, cfg);
            }
            // Copy the sorted bucket back into the output array.
            bucket_scratch.copy_from_slice(bucket);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlay::random::Rng;

    fn cfg_small() -> PlisConfig {
        PlisConfig {
            radix_bits: 4,
            base_case_threshold: 32,
        }
    }

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
    fn stable_on_pairs() {
        let rng = Rng::new(2);
        let input: Vec<(u32, u32)> = (0..60_000)
            .map(|i| (rng.ith_in(i as u64, 1000) as u32, i as u32))
            .collect();
        let mut got = input.clone();
        sort_pairs(&mut got);
        let mut want = input;
        want.sort_by_key(|&(k, _)| k);
        assert_eq!(got, want);
    }

    #[test]
    fn stable_with_small_radix_and_base_case() {
        let rng = Rng::new(3);
        let input: Vec<(u32, u32)> = (0..20_000)
            .map(|i| (rng.ith_in(i as u64, 37) as u32, i as u32))
            .collect();
        let mut got = input.clone();
        sort_by_key_with(&mut got, |r| r.0, &cfg_small());
        let mut want = input;
        want.sort_by_key(|&(k, _)| k);
        assert_eq!(got, want);
    }

    #[test]
    fn handles_edge_cases() {
        let mut empty: Vec<u32> = vec![];
        sort(&mut empty);
        let mut one = vec![5u32];
        sort(&mut one);
        assert_eq!(one, vec![5]);
        let mut same = vec![3u16; 50_000];
        sort(&mut same);
        assert!(same.iter().all(|&x| x == 3));
        let mut extremes = vec![u64::MAX, 0, 1, u64::MAX];
        sort(&mut extremes);
        assert_eq!(extremes, vec![0, 1, u64::MAX, u64::MAX]);
    }

    #[test]
    fn signed_keys() {
        let rng = Rng::new(4);
        let mut v: Vec<i32> = (0..50_000).map(|i| rng.ith(i) as i32).collect();
        let mut want = v.clone();
        want.sort_unstable();
        sort(&mut v);
        assert_eq!(v, want);
    }
}
