//! Step 1 of DovetailSort: sampling and heavy-key detection (paper Alg. 2,
//! lines 3–14, and Section 2.5).
//!
//! `Θ(2^γ · log n)` keys are sampled uniformly at random, sorted, and every
//! `⌈log n⌉`-th sample becomes a *subsample*.  A key with at least two
//! subsamples is declared **heavy**; by a Chernoff bound such a key has
//! `Ω(n / 2^γ)` occurrences in the input with high probability, and
//! conversely every key with `≥ c̄·n/2^γ` occurrences is detected whp.
//! The sample maximum additionally estimates the effective key range for the
//! overflow-bucket optimization (Section 5).

use crate::config::{num_samples, subsample_stride, SortConfig};
use parlay::random::Rng;

/// Outcome of the sampling step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleResult {
    /// Detected heavy keys (masked to the subproblem's bits), sorted and
    /// deduplicated.
    pub heavy_keys: Vec<u64>,
    /// Largest sampled key (masked); `0` when no samples were drawn.
    pub max_sample: u64,
    /// Number of samples drawn.
    pub num_samples: usize,
    /// Number of *distinct* values among the samples — the sample-level
    /// duplicate-structure estimate (`distinct_samples == num_samples`
    /// means the sample saw no duplicate at all, i.e. the input looks
    /// fully distinct).
    pub distinct_samples: usize,
}

/// Draws samples from `data`, detects heavy keys and the sample maximum.
///
/// `masked_key(i)` must return the key of record `i` already masked to the
/// subproblem's remaining bits.  `gamma` is the radix width chosen for this
/// level.  Deterministic for a fixed `rng`.
pub fn sample_and_detect<F>(
    n: usize,
    masked_key: F,
    gamma: u32,
    cfg: &SortConfig,
    rng: Rng,
) -> SampleResult
where
    F: Fn(usize) -> u64 + Sync,
{
    let num_samples = num_samples(n, gamma);
    if num_samples == 0 {
        return SampleResult {
            heavy_keys: Vec::new(),
            max_sample: 0,
            num_samples: 0,
            distinct_samples: 0,
        };
    }

    // Draw and sort the sample keys.  The sample set is small (o(n')), so a
    // sequential sort is within the work budget of the analysis (Thm. 4.5).
    let mut samples: Vec<u64> = (0..num_samples)
        .map(|i| masked_key(rng.ith_in(i as u64, n as u64) as usize))
        .collect();
    samples.sort_unstable();
    let max_sample = *samples.last().expect("non-empty samples");
    let distinct_samples = 1 + samples.windows(2).filter(|w| w[0] != w[1]).count();

    let heavy_keys = if cfg.heavy_detection {
        detect_heavy_from_sorted_samples(&samples, subsample_stride(n))
    } else {
        Vec::new()
    };

    SampleResult {
        heavy_keys,
        max_sample,
        num_samples,
        distinct_samples,
    }
}

/// Given the sorted sample keys, subsamples every `stride`-th key and returns
/// the keys with at least two subsamples (sorted, deduplicated).
pub fn detect_heavy_from_sorted_samples(sorted_samples: &[u64], stride: usize) -> Vec<u64> {
    let stride = stride.max(1);
    let mut heavy = Vec::new();
    let mut prev: Option<u64> = None;
    let mut idx = 0;
    while idx < sorted_samples.len() {
        let k = sorted_samples[idx];
        if prev == Some(k) && heavy.last() != Some(&k) {
            heavy.push(k);
        }
        prev = Some(k);
        idx += stride;
    }
    heavy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_heavy_basic() {
        // Subsample stride 2 over sorted samples: picks indices 0,2,4,...
        let samples = vec![1, 1, 1, 1, 2, 3, 5, 5, 5, 5, 5, 9];
        // Subsamples: 1,1,2,5,5,5 -> heavy = {1, 5}.
        assert_eq!(detect_heavy_from_sorted_samples(&samples, 2), vec![1, 5]);
    }

    #[test]
    fn detect_heavy_none() {
        let samples: Vec<u64> = (0..100).collect();
        assert!(detect_heavy_from_sorted_samples(&samples, 5).is_empty());
        assert!(detect_heavy_from_sorted_samples(&[], 3).is_empty());
    }

    #[test]
    fn detect_heavy_all_equal() {
        let samples = vec![7u64; 64];
        assert_eq!(detect_heavy_from_sorted_samples(&samples, 8), vec![7]);
        // Stride larger than the sample set: only one subsample, never heavy.
        assert!(detect_heavy_from_sorted_samples(&samples, 100).is_empty());
    }

    #[test]
    fn sampling_detects_a_dominant_key() {
        // 70% of the input is key 42; it must be detected as heavy.
        let cfg = SortConfig::default();
        let n = 200_000usize;
        let rng = Rng::new(17);
        let keyfn = |i: usize| -> u64 {
            if rng.fork(99).ith_f64(i as u64) < 0.7 {
                42
            } else {
                rng.fork(100).ith_in(i as u64, 1 << 20)
            }
        };
        let res = sample_and_detect(n, keyfn, 8, &cfg, Rng::new(3));
        assert!(
            res.heavy_keys.contains(&42),
            "heavy keys: {:?}",
            res.heavy_keys
        );
        assert!(res.num_samples > 0);
        assert!(res.max_sample >= 42);
    }

    #[test]
    fn sampling_detects_no_heavy_on_distinct_keys() {
        // All keys distinct: the probability of a false positive is tiny.
        let cfg = SortConfig::default();
        let n = 100_000usize;
        let res = sample_and_detect(n, |i| i as u64 * 2_654_435_761, 8, &cfg, Rng::new(5));
        assert!(
            res.heavy_keys.is_empty(),
            "unexpected heavy keys {:?}",
            res.heavy_keys
        );
    }

    #[test]
    fn heavy_detection_disabled_by_config() {
        let cfg = SortConfig::plain();
        let res = sample_and_detect(100_000, |_| 1u64, 8, &cfg, Rng::new(1));
        assert!(res.heavy_keys.is_empty());
        assert_eq!(res.max_sample, 1);
    }

    #[test]
    fn tiny_inputs_draw_no_samples() {
        let cfg = SortConfig::default();
        let res = sample_and_detect(2, |i| i as u64, 8, &cfg, Rng::new(1));
        assert_eq!(res.num_samples, 0);
        assert!(res.heavy_keys.is_empty());
    }

    #[test]
    fn max_sample_tracks_range() {
        let cfg = SortConfig::default();
        // Keys bounded by 1000: the sampled max must be ≤ 1000 and usually
        // close to it.
        let res = sample_and_detect(50_000, |i| (i % 1000) as u64, 8, &cfg, Rng::new(2));
        assert!(res.max_sample < 1000);
        assert!(
            res.max_sample > 900,
            "max sample {} too small",
            res.max_sample
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = SortConfig::default();
        let f = |i: usize| (i as u64 * 7) % 1003;
        let a = sample_and_detect(30_000, f, 8, &cfg, Rng::new(9));
        let b = sample_and_detect(30_000, f, 8, &cfg, Rng::new(9));
        assert_eq!(a, b);
    }
}
