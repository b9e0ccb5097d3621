//! A stable, reusable view of the heavy-key detection step.
//!
//! DovetailSort's central primitive — sample the input, declare keys with
//! repeated subsamples *heavy*, give each heavy key a collision-free bucket —
//! is useful far beyond the full sort: semisort, group-by and streaming
//! aggregation all want "which keys dominate this data, and a fast O(1)
//! membership test for them" without committing to a total order.
//!
//! [`HeavyKeyModel`] packages exactly that: it runs the sampling step of
//! Algorithm 2 ([`crate::sampling`]) over any keyed slice, stores the
//! detected heavy keys behind the same branch-free two-choice table the
//! sort's bucket assignment uses ([`crate::buckets::HeavyMap`], built once
//! from the full key list), and exposes a stable API that downstream crates
//! (`semisort`, `stream`) can build on without reaching into the sort's
//! internals.  Hot loops use [`HeavyKeyModel::index_or`], which returns a
//! caller-given miss value without branching on whether the key is heavy.
//!
//! Keys live in the ordered-`u64` domain ([`crate::key::IntegerKey`]); the
//! model itself is key-type agnostic.

use crate::buckets::HeavyMap;
use crate::config::SortConfig;
use crate::sampling::sample_and_detect;
use parlay::random::Rng;

/// The outcome of heavy-key detection over one dataset: the detected keys,
/// an O(1) index lookup for them, and the sampling metadata the detection
/// was based on.
#[derive(Debug, Clone)]
pub struct HeavyKeyModel {
    /// Detected heavy keys, sorted and deduplicated (ordered-`u64` domain).
    keys: Vec<u64>,
    /// Two-choice table from heavy key to its index in `keys`.
    map: HeavyMap,
    /// Largest sampled key (`0` when no samples were drawn).
    max_sample: u64,
    /// Number of samples the detection drew.
    num_samples: usize,
    /// Number of distinct values among the samples.
    distinct_samples: usize,
}

impl HeavyKeyModel {
    /// Detects the heavy keys of `data` under `cfg` by sampling.
    ///
    /// `key(i)` must return the ordered-`u64` key of record `i`.  `gamma` is
    /// the radix/bucket width the caller intends to use; a key is declared
    /// heavy when it holds roughly `Ω(n / 2^γ)` of the input (paper
    /// Section 2.5).  Deterministic in `cfg.seed`.
    pub fn detect<F>(n: usize, key: F, gamma: u32, cfg: &SortConfig) -> Self
    where
        F: Fn(usize) -> u64 + Sync,
    {
        let res = sample_and_detect(n, key, gamma, cfg, Rng::new(cfg.seed));
        Self::from_parts(
            res.heavy_keys,
            res.max_sample,
            res.num_samples,
            res.distinct_samples,
        )
    }

    /// Builds a model from an externally supplied heavy-key set (e.g. keys
    /// carried across the runs of a stream).  Keys are sorted, deduplicated.
    pub fn from_keys(mut keys: Vec<u64>) -> Self {
        keys.sort_unstable();
        keys.dedup();
        let max = keys.last().copied().unwrap_or(0);
        Self::from_parts(keys, max, 0, 0)
    }

    fn from_parts(
        keys: Vec<u64>,
        max_sample: u64,
        num_samples: usize,
        distinct_samples: usize,
    ) -> Self {
        let map = HeavyMap::build(keys.iter().enumerate().map(|(i, &k)| (k, i as u32)));
        Self {
            keys,
            map,
            max_sample,
            num_samples,
            distinct_samples,
        }
    }

    /// The detected heavy keys, sorted ascending (ordered-`u64` domain).
    pub fn heavy_keys(&self) -> &[u64] {
        &self.keys
    }

    /// Number of heavy keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when no key was declared heavy.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// O(1) test: was `key` declared heavy?
    #[inline]
    pub fn is_heavy(&self, key: u64) -> bool {
        self.index_of(key).is_some()
    }

    /// O(1) lookup: the index of `key` in [`HeavyKeyModel::heavy_keys`], if
    /// heavy.  The index is stable and dense (`0..len`), so callers can use
    /// it directly as a dedicated bucket id.
    #[inline]
    pub fn index_of(&self, key: u64) -> Option<u32> {
        self.map.get(key)
    }

    /// Branch-free [`HeavyKeyModel::index_of`]: the index of `key` if heavy,
    /// otherwise `miss`.  For per-record loops that map light keys to a
    /// computed bucket of their own.
    #[inline]
    pub fn index_or(&self, key: u64, miss: u32) -> u32 {
        self.map.get_or(key, miss)
    }

    /// Largest sampled key — the sort's effective-key-range estimate.
    pub fn max_sample(&self) -> u64 {
        self.max_sample
    }

    /// Number of samples the detection drew (0 for [`from_keys`] models).
    ///
    /// [`from_keys`]: HeavyKeyModel::from_keys
    pub fn num_samples(&self) -> usize {
        self.num_samples
    }

    /// Number of distinct values among the samples (0 for [`from_keys`]
    /// models).  `distinct_samples() == num_samples()` means the sample
    /// saw every key exactly once — the signature of a fully distinct
    /// input, regardless of how wide the key *values* are spread.
    ///
    /// [`from_keys`]: HeavyKeyModel::from_keys
    pub fn distinct_samples(&self) -> usize {
        self.distinct_samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_dominant_key_and_indexes_it() {
        let cfg = SortConfig::default();
        let n = 100_000;
        let rng = Rng::new(4);
        let keyfn = |i: usize| -> u64 {
            if rng.fork(1).ith_f64(i as u64) < 0.6 {
                777
            } else {
                rng.fork(2).ith_in(i as u64, 1 << 30)
            }
        };
        let model = HeavyKeyModel::detect(n, keyfn, 8, &cfg);
        assert!(model.is_heavy(777), "heavy keys: {:?}", model.heavy_keys());
        let idx = model.index_of(777).unwrap() as usize;
        assert_eq!(model.heavy_keys()[idx], 777);
        assert!(model.num_samples() > 0);
        assert!(model.max_sample() >= 777);
    }

    #[test]
    fn distinct_input_yields_empty_model() {
        let cfg = SortConfig::default();
        let model = HeavyKeyModel::detect(50_000, |i| i as u64 * 2_654_435_761, 8, &cfg);
        assert!(model.is_empty());
        assert_eq!(model.len(), 0);
        assert!(!model.is_heavy(0));
        assert_eq!(model.index_of(42), None);
    }

    #[test]
    fn from_keys_sorts_and_dedups() {
        let model = HeavyKeyModel::from_keys(vec![9, 3, 3, 7, 9]);
        assert_eq!(model.heavy_keys(), &[3, 7, 9]);
        assert_eq!(model.len(), 3);
        assert_eq!(model.index_of(7), Some(1));
        assert_eq!(model.index_or(7, 100), 1);
        assert_eq!(model.index_or(5, 100), 100);
        assert!(!model.is_heavy(5));
        assert_eq!(model.max_sample(), 9);
        assert_eq!(model.num_samples(), 0);
    }

    #[test]
    fn empty_model_from_no_keys() {
        let model = HeavyKeyModel::from_keys(Vec::new());
        assert!(model.is_empty());
        assert_eq!(model.max_sample(), 0);
    }

    #[test]
    fn deterministic_in_config_seed() {
        let cfg = SortConfig::default();
        let f = |i: usize| (i as u64 * 13) % 257;
        let a = HeavyKeyModel::detect(40_000, f, 8, &cfg);
        let b = HeavyKeyModel::detect(40_000, f, 8, &cfg);
        assert_eq!(a.heavy_keys(), b.heavy_keys());
    }
}
