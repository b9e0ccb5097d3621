//! Parallel comparison **samplesort** (PLSS / IPS4o class baseline).
//!
//! The algorithm samples `Θ(b · log n)` keys, picks `b - 1` splitters, and
//! distributes all records into `b` buckets by binary searching their key
//! among the splitters; buckets are then sorted recursively (comparison sort
//! below the base-case threshold).  Exactly as in the paper's Section 2.5,
//! a splitter that appears at least twice among the subsampled splitters
//! marks a *heavy* key: all records equal to it form their own bucket that
//! needs no further sorting — the duplicate-handling trick that DovetailSort
//! imports into integer sorting.

use crate::dtsort_key::IntegerKey;
use parlay::counting_sort::counting_sort_by;
use parlay::par::{parallel_for_grained, work_grain};
use parlay::random::Rng;
use parlay::slice::UnsafeSliceCell;

/// Tuning parameters of the samplesort baseline.
#[derive(Debug, Clone)]
pub struct SampleSortConfig {
    /// Number of buckets per level.
    pub num_buckets: usize,
    /// Subproblems of at most this size use a comparison sort.
    pub base_case_threshold: usize,
    /// Oversampling factor (samples per splitter).
    pub oversample: usize,
    /// Seed for the deterministic sampler.
    pub seed: u64,
}

impl Default for SampleSortConfig {
    fn default() -> Self {
        Self {
            num_buckets: 256,
            base_case_threshold: 1 << 14,
            oversample: 16,
            seed: 0x5A11_7E50,
        }
    }
}

/// Sorts integer keys (stably).
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
    sort_by_key_with(data, key, &SampleSortConfig::default());
}

/// Sorts records stably by an integer key projection.
pub fn sort_by_key_with<T, K, F>(data: &mut [T], key: F, cfg: &SampleSortConfig)
where
    T: Copy + Send + Sync,
    K: IntegerKey,
    F: Fn(&T) -> K + Sync,
{
    let keyfn = |r: &T| key(r).to_ordered_u64();
    let rng = Rng::new(cfg.seed);
    sample_sort_rec(data, &keyfn, cfg, rng, 0);
}

/// A splitter-delimited bucket: either an open key range or a single heavy
/// key (equal-to-splitter bucket).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bucket {
    /// Keys strictly less than the bound (and ≥ the previous bucket's bound).
    Range,
    /// Keys exactly equal to the splitter: needs no recursive sorting.
    Equal,
}

fn sample_sort_rec<T, F>(data: &mut [T], key: &F, cfg: &SampleSortConfig, rng: Rng, depth: u32)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    let n = data.len();
    if n <= 1 {
        return;
    }
    if n <= cfg.base_case_threshold.max(1) || depth > 64 {
        data.sort_by_key(|a| key(a));
        return;
    }

    // --- Sampling and splitter selection ---
    let want_buckets = cfg.num_buckets.clamp(2, n);
    let num_samples = (want_buckets * cfg.oversample.max(1)).min(n);
    let mut samples: Vec<u64> = (0..num_samples)
        .map(|i| key(&data[rng.ith_in(i as u64, n as u64) as usize]))
        .collect();
    samples.sort_unstable();
    // One splitter every `oversample` samples.
    let mut splitters: Vec<u64> = samples
        .iter()
        .copied()
        .skip(cfg.oversample.max(1) - 1)
        .step_by(cfg.oversample.max(1))
        .take(want_buckets - 1)
        .collect();
    splitters.dedup();
    if splitters.is_empty() {
        // All sampled keys equal; fall back to a comparison sort (the input
        // is likely dominated by one key and nearly sorted already).
        data.sort_by_key(|a| key(a));
        return;
    }

    // Duplicate detection: a splitter whose key also appears as the next
    // sample (before dedup) is "heavy"; we give every splitter an Equal
    // bucket — records equal to a splitter land there and skip recursion.
    // Bucket layout: Range(<s0), Equal(s0), Range(s0<k<s1), Equal(s1), ...,
    // Range(> last splitter).
    let mut buckets: Vec<Bucket> = Vec::with_capacity(splitters.len() * 2 + 1);
    for _ in &splitters {
        buckets.push(Bucket::Range);
        buckets.push(Bucket::Equal);
    }
    buckets.push(Bucket::Range);
    let num_buckets = buckets.len();

    // --- Distribution ---
    // Bucket id of key k: binary search among splitters.
    let splitters_ref = &splitters;
    let bucket_of = |k: u64| -> usize {
        let i = splitters_ref.partition_point(|&s| s < k);
        if i < splitters_ref.len() && splitters_ref[i] == k {
            2 * i + 1 // Equal bucket of splitter i.
        } else {
            2 * i // Range bucket before splitter i.
        }
    };
    let mut buf = data.to_vec();
    let plan = counting_sort_by(data, &mut buf, num_buckets, |rec| bucket_of(key(rec)));

    // --- Recursion (skip Equal buckets) + copy back ---
    {
        let data_cell = UnsafeSliceCell::new(&mut *data);
        let buf_cell = UnsafeSliceCell::new(&mut buf[..]);
        let plan_ref = &plan;
        let buckets_ref = &buckets;
        parallel_for_grained(0, num_buckets, work_grain(num_buckets, n), &|b| {
            let range = plan_ref.bucket_range(b);
            if range.is_empty() {
                return;
            }
            let bucket = unsafe { buf_cell.slice_mut(range.start, range.len()) };
            let out = unsafe { data_cell.slice_mut(range.start, range.len()) };
            if buckets_ref[b] == Bucket::Range && range.len() > 1 {
                sample_sort_rec(bucket, key, cfg, rng.fork(1 + b as u64), depth + 1);
            }
            out.copy_from_slice(bucket);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlay::random::Rng;

    fn cfg_small() -> SampleSortConfig {
        SampleSortConfig {
            num_buckets: 16,
            base_case_threshold: 64,
            oversample: 8,
            seed: 7,
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
    fn stable_on_pairs_with_duplicates() {
        let rng = Rng::new(2);
        let input: Vec<(u32, u32)> = (0..60_000)
            .map(|i| (rng.ith_in(i as u64, 20) as u32, i as u32))
            .collect();
        let mut got = input.clone();
        sort_pairs(&mut got);
        let mut want = input;
        want.sort_by_key(|&(k, _)| k);
        assert_eq!(got, want);
    }

    #[test]
    fn heavy_single_key_input() {
        // 95% one key: exercises the Equal-bucket path and the all-samples-
        // equal fallback.
        let rng = Rng::new(3);
        let input: Vec<(u32, u32)> = (0..50_000)
            .map(|i| {
                let k = if rng.ith_f64(i as u64) < 0.95 {
                    1234
                } else {
                    rng.ith(i as u64) as u32
                };
                (k, i as u32)
            })
            .collect();
        let mut got = input.clone();
        sort_by_key_with(&mut got, |r| r.0, &cfg_small());
        let mut want = input;
        want.sort_by_key(|&(k, _)| k);
        assert_eq!(got, want);
    }

    #[test]
    fn small_and_degenerate_inputs() {
        let mut empty: Vec<u32> = vec![];
        sort(&mut empty);
        let mut two = vec![2u32, 1];
        sort(&mut two);
        assert_eq!(two, vec![1, 2]);
        let mut same = vec![7u64; 40_000];
        sort(&mut same);
        assert!(same.iter().all(|&x| x == 7));
    }

    #[test]
    fn signed_and_narrow_keys() {
        let rng = Rng::new(4);
        let mut v: Vec<i16> = (0..50_000).map(|i| rng.ith(i) as i16).collect();
        let mut want = v.clone();
        want.sort_unstable();
        sort(&mut v);
        assert_eq!(v, want);
    }
}
