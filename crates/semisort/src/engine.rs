//! The semisort engine: heavy keys to dedicated buckets, light keys to
//! hashed buckets, per-bucket grouping — no total order, no recursion.
//!
//! Nothing here is tuned separately from the sort: the engine takes a
//! [`SortConfig`] (sampling seed, heavy-key detection, base-case
//! threshold), sizes its hashed buckets by the sort's `γ` rule
//! ([`dtsort::config::radix_bits`]), and routes mostly-distinct inputs to
//! [`dtsort`] at the fixed [`SORT_DELEGATION_MIN_DISTINCT`].

use dtsort::config::radix_bits;
use dtsort::{HeavyKeyModel, IntegerKey, SortConfig};
use parlay::pack::pack_ranges;
use parlay::par::parallel_for;
use parlay::random::hash64;
use parlay::scatter::scatter_by;
use parlay::slice::UnsafeSliceCell;

/// One group of a semisorted array: the common key and the half-open range
/// its records occupy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Group<K> {
    /// The key shared by every record of the group.
    pub key: K,
    /// Start index of the group.
    pub start: usize,
    /// One past the last index of the group.
    pub end: usize,
}

impl<K> Group<K> {
    /// Number of records in the group (never 0 for produced groups).
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the group is empty (never true for produced groups).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Minimum fraction of *distinct* sample values at which a heavy-key-free
/// input is delegated to the sort (see [`delegates_to_sort`]).
///
/// The boundary distribution is `Unif-1e5`: a 1e5-value universe sampled a
/// few thousand times comes back ~98–99% distinct, above this threshold, so
/// it delegates at rough parity between the two engines, while `Unif-1e3`
/// (every sample value repeats) stays far below it on the hashed path.
pub const SORT_DELEGATION_MIN_DISTINCT: f64 = 0.95;

/// Bits of hashed light buckets (`2^bits` buckets) for `n` records: the
/// sort's `log2(∛n)` radix rule, enough buckets that a light bucket's
/// comparison sort is a small log factor, few enough that the scatter's
/// counting matrix stays cache-resident.
fn light_bucket_bits(n: usize) -> u32 {
    radix_bits(n, 64)
}

/// The adaptive-fallback routing decision: `true` when `model` found no
/// heavy keys **and** at least [`SORT_DELEGATION_MIN_DISTINCT`] of its
/// samples were distinct values.  Such a mostly-distinct input (the
/// `Unif-1e9` control) gains nothing from the hashed scatter, because the
/// MSD sort's locality wins, so the engine delegates to [`dtsort`] and
/// reads the groups off the sorted array (which then come out in ascending
/// key order).
///
/// Near-total sample distinctness is the operational "large key range"
/// signal: a key universe much larger than the sample size (Unif-1e9 at
/// a few thousand samples) yields essentially no sample collisions, while
/// any duplicate structure worth grouping by hash (Unif-1e3: every sample
/// value repeats) collapses the distinct count far below the sample count.
/// The sample *maximum* cannot serve here — the paper's generators spread
/// even a 1000-value universe across the full 64-bit range.
pub fn delegates_to_sort(model: &HeavyKeyModel) -> bool {
    model.is_empty()
        && model.num_samples() > 0
        && model.distinct_samples() as f64
            >= SORT_DELEGATION_MIN_DISTINCT * model.num_samples() as f64
}

/// Semisorts `data` in place by an integer key projection: after the call,
/// every distinct key occupies one contiguous range, records within a range
/// keep their input order (stability), and the returned [`Group`]s describe
/// the ranges.  Groups appear in **no particular key order**.
pub fn semisort_by_key<T, K, F>(data: &mut [T], key: F) -> Vec<Group<K>>
where
    T: Copy + Send + Sync,
    K: IntegerKey,
    F: Fn(&T) -> K + Sync,
{
    semisort_by_key_with(data, key, &SortConfig::default())
}

/// [`semisort_by_key`] with an explicit sort configuration: its sampling
/// seed and heavy-key detection drive the engine's sampling, its
/// base-case threshold bounds the comparison-sorted inputs and buckets, and
/// the whole config is passed on wherever the engine delegates to
/// [`dtsort`].
pub fn semisort_by_key_with<T, K, F>(data: &mut [T], key: F, cfg: &SortConfig) -> Vec<Group<K>>
where
    T: Copy + Send + Sync,
    K: IntegerKey,
    F: Fn(&T) -> K + Sync,
{
    let n = data.len();
    if n == 0 {
        return Vec::new();
    }
    let okey = |r: &T| key(r).to_ordered_u64();

    // Base case: a stable sort groups (and orders) the whole input.
    if n <= cfg.base_case_threshold.max(1) {
        data.sort_by_key(okey);
        return extract_groups(data, &key);
    }

    // Step 1: detect heavy keys by sampling.
    let gamma = light_bucket_bits(n);
    let model = HeavyKeyModel::detect(n, |i| okey(&data[i]), gamma, cfg);

    // Adaptive fallback (ROADMAP): a fully-distinct-looking input gains
    // nothing from hashed grouping — the MSD sort's locality wins — so
    // delegate and read the groups off the totally ordered result.
    if delegates_to_sort(&model) {
        dtsort::sort_by_key_with(data, |r| okey(r), cfg);
        return extract_groups(data, &key);
    }

    let num_heavy = model.len();
    let num_light = 1usize << gamma;
    let shift = 64 - gamma;

    // Step 2: stable scatter — heavy key `k` to bucket `index_of(k)` (its
    // collision-free group), light key to a hashed bucket.  The light bucket
    // is computed for every record and passed as the miss value, so the
    // lookup has no branch.  Scattering from a copy back into `data` (rather
    // than out of `data`) saves the write-back pass: each record moves twice
    // in total (copy + scatter), and the per-bucket grouping below works in
    // place.
    let scratch = data.to_vec();
    let plan = scatter_by(&scratch, data, num_heavy + num_light, |rec| {
        let k = okey(rec);
        let light = (num_heavy + (hash64(k) >> shift) as usize) as u32;
        model.index_or(k, light) as usize
    });
    drop(scratch);

    // Step 3: each light bucket holds O(n / 2^γ) records in expectation and
    // no heavy keys; a stable per-bucket sort finishes the grouping, and the
    // same parallel task scans its bucket for group boundaries.  Heavy
    // buckets are already complete groups and are never touched again.
    let mut light_groups: Vec<Vec<Group<K>>> = vec![Vec::new(); num_light];
    {
        let cell = UnsafeSliceCell::new(&mut *data);
        let groups_cell = UnsafeSliceCell::new(&mut light_groups);
        let okey_ref = &okey;
        let key_ref = &key;
        parallel_for(0, num_light, |b| {
            let range = plan.bucket_range(num_heavy + b);
            if range.is_empty() {
                return;
            }
            let bucket = unsafe { cell.slice_mut(range.start, range.len()) };
            if bucket.len() > cfg.base_case_threshold.max(1) {
                // A hash-flooded bucket (many distinct light keys colliding)
                // is still grouped correctly by the full stable sort.
                dtsort::sort_by_key_with(bucket, |r| okey_ref(r), cfg);
            } else {
                bucket.sort_by_key(okey_ref);
            }
            let gs = scan_bucket_groups(bucket, range.start, key_ref);
            *unsafe { groups_cell.get_mut(b) } = gs;
        });
    }

    // Every non-empty heavy bucket IS one group, read off the plan.
    let mut groups: Vec<Group<K>> = Vec::with_capacity(num_heavy);
    for h in 0..num_heavy {
        let r = plan.bucket_range(h);
        if !r.is_empty() {
            groups.push(Group {
                key: key(&data[r.start]),
                start: r.start,
                end: r.end,
            });
        }
    }
    groups.extend(light_groups.into_iter().flatten());
    groups
}

/// Scans one grouped bucket (starting at `offset` in the full array) for
/// run boundaries and returns its groups.
fn scan_bucket_groups<T, K, F>(bucket: &[T], offset: usize, key: &F) -> Vec<Group<K>>
where
    T: Copy,
    K: IntegerKey,
    F: Fn(&T) -> K,
{
    let mut out = Vec::new();
    let mut start = 0usize;
    for i in 1..=bucket.len() {
        if i == bucket.len() || key(&bucket[i]) != key(&bucket[i - 1]) {
            out.push(Group {
                key: key(&bucket[start]),
                start: offset + start,
                end: offset + i,
            });
            start = i;
        }
    }
    out
}

/// Semisorts `(key, value)` records in place; see [`semisort_by_key`].
pub fn semisort_pairs<K: IntegerKey, V: Copy + Send + Sync>(
    records: &mut [(K, V)],
) -> Vec<Group<K>> {
    semisort_by_key(records, |r| r.0)
}

/// [`semisort_pairs`] with an explicit configuration.
pub fn semisort_pairs_with<K: IntegerKey, V: Copy + Send + Sync>(
    records: &mut [(K, V)],
    cfg: &SortConfig,
) -> Vec<Group<K>> {
    semisort_by_key_with(records, |r| r.0, cfg)
}

/// Semisorts plain keys in place; see [`semisort_by_key`].
pub fn semisort_keys<K: IntegerKey>(keys: &mut [K]) -> Vec<Group<K>> {
    semisort_by_key(keys, |&k| k)
}

/// Scans the grouped array for run boundaries and materializes the groups.
fn extract_groups<T, K, F>(data: &[T], key: &F) -> Vec<Group<K>>
where
    T: Copy + Send + Sync,
    K: IntegerKey,
    F: Fn(&T) -> K + Sync,
{
    pack_ranges(data.len(), |i| key(&data[i]) != key(&data[i - 1]))
        .into_iter()
        .map(|r| Group {
            key: key(&data[r.start]),
            start: r.start,
            end: r.end,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlay::random::Rng;
    use std::collections::HashMap;

    /// Checks the semisort contract: output is a permutation of the input,
    /// every group is contiguous and covers exactly one distinct key, and
    /// records within a group keep input order.
    fn check_grouping(input: &[(u64, u32)], cfg: &SortConfig) {
        let mut data = input.to_vec();
        let groups = semisort_pairs_with(&mut data, cfg);

        let mut want: HashMap<u64, Vec<u32>> = HashMap::new();
        for &(k, v) in input {
            want.entry(k).or_default().push(v);
        }
        assert_eq!(groups.len(), want.len(), "one group per distinct key");
        let mut covered = 0usize;
        for g in &groups {
            assert!(!g.is_empty());
            let vals: Vec<u32> = data[g.start..g.end]
                .iter()
                .map(|&(k, v)| {
                    assert_eq!(k, g.key, "group must be pure");
                    v
                })
                .collect();
            assert_eq!(vals, want[&g.key], "stability within group {}", g.key);
            covered += g.len();
        }
        assert_eq!(covered, input.len(), "groups must partition the input");
        // Groups tile the array contiguously.
        let mut by_start = groups.clone();
        by_start.sort_by_key(|g| g.start);
        let mut expect = 0usize;
        for g in &by_start {
            assert_eq!(g.start, expect);
            expect = g.end;
        }
    }

    fn small_cfg() -> SortConfig {
        SortConfig {
            base_case_threshold: 64,
            ..SortConfig::default()
        }
    }

    #[test]
    fn groups_uniform_small_range() {
        let rng = Rng::new(1);
        let input: Vec<(u64, u32)> = (0..60_000)
            .map(|i| (rng.ith_in(i, 300), i as u32))
            .collect();
        check_grouping(&input, &small_cfg());
    }

    #[test]
    fn groups_heavy_skew() {
        // 70% of records share one key: it must become a heavy bucket and
        // still form exactly one contiguous stable group.
        let rng = Rng::new(2);
        let input: Vec<(u64, u32)> = (0..80_000)
            .map(|i| {
                let k = if rng.ith_f64(i) < 0.7 {
                    42
                } else {
                    rng.ith_in(i, 1 << 40)
                };
                (k, i as u32)
            })
            .collect();
        check_grouping(&input, &small_cfg());
    }

    #[test]
    fn groups_mostly_distinct_keys() {
        let rng = Rng::new(3);
        let input: Vec<(u64, u32)> = (0..50_000).map(|i| (rng.ith(i), i as u32)).collect();
        check_grouping(&input, &small_cfg());
    }

    #[test]
    fn all_equal_keys_single_group() {
        let input: Vec<(u64, u32)> = (0..30_000).map(|i| (9, i as u32)).collect();
        let mut data = input.clone();
        let groups = semisort_pairs_with(&mut data, &small_cfg());
        assert_eq!(groups.len(), 1);
        assert_eq!((groups[0].start, groups[0].end), (0, input.len()));
        assert_eq!(data, input, "all-equal input must be untouched (stability)");
    }

    #[test]
    fn empty_single_and_tiny() {
        let mut empty: Vec<(u64, u32)> = vec![];
        assert!(semisort_pairs(&mut empty).is_empty());

        let mut one = vec![(5u64, 0u32)];
        let g = semisort_pairs(&mut one);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].key, 5);
        assert_eq!(g[0].len(), 1);

        let mut two = vec![(5u64, 0u32), (5, 1)];
        let g = semisort_pairs(&mut two);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].len(), 2);
    }

    #[test]
    fn base_case_path_groups_too() {
        // Default config: 2^14 threshold, so this goes down the sort path.
        let rng = Rng::new(4);
        let input: Vec<(u64, u32)> = (0..1000).map(|i| (rng.ith_in(i, 7), i as u32)).collect();
        check_grouping(&input, &SortConfig::default());
    }

    #[test]
    fn signed_keys_group_correctly() {
        let rng = Rng::new(5);
        let mut data: Vec<(i64, u32)> = (0..40_000)
            .map(|i| ((rng.ith_in(i, 100) as i64) - 50, i as u32))
            .collect();
        let want_distinct: std::collections::HashSet<i64> = data.iter().map(|&(k, _)| k).collect();
        let groups = semisort_by_key_with(&mut data, |r| r.0, &small_cfg());
        assert_eq!(groups.len(), want_distinct.len());
        for g in &groups {
            assert!(data[g.start..g.end].iter().all(|&(k, _)| k == g.key));
        }
    }

    #[test]
    fn plain_keys_and_struct_projection() {
        let rng = Rng::new(6);
        let mut keys: Vec<u32> = (0..30_000).map(|i| rng.ith_in(i, 40) as u32).collect();
        let groups = semisort_keys(&mut keys);
        assert_eq!(groups.len(), 40);
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, 30_000);

        #[derive(Clone, Copy, Debug)]
        struct Rec {
            k: u16,
            _pad: u16,
        }
        let mut recs: Vec<Rec> = (0..20_000)
            .map(|i| Rec {
                k: (rng.fork(1).ith_in(i, 25)) as u16,
                _pad: 0,
            })
            .collect();
        let groups = semisort_by_key_with(&mut recs, |r| r.k, &small_cfg());
        assert_eq!(groups.len(), 25);
    }

    #[test]
    fn deterministic_for_fixed_config() {
        let rng = Rng::new(7);
        let input: Vec<(u64, u32)> = (0..30_000)
            .map(|i| (rng.ith_in(i, 500), i as u32))
            .collect();
        let mut a = input.clone();
        let mut b = input.clone();
        let ga = semisort_pairs_with(&mut a, &small_cfg());
        let gb = semisort_pairs_with(&mut b, &small_cfg());
        assert_eq!(a, b);
        assert_eq!(ga, gb);
    }

    /// The `Unif-1e9` control: keys drawn from a universe vastly larger
    /// than `n`, spread over the full 64-bit range — the distribution
    /// where hashed grouping loses to the MSD sort (ROADMAP regression).
    fn unif_1e9_input(n: usize) -> Vec<(u64, u32)> {
        workloads::dist::generate_pairs_u64(
            &workloads::dist::Distribution::Uniform {
                distinct: 1_000_000_000,
            },
            n,
            42,
        )
        .into_iter()
        .map(|(k, v)| (k, v as u32))
        .collect()
    }

    #[test]
    fn adaptive_fallback_routes_unif_1e9_to_sort() {
        let n = 60_000;
        let input = unif_1e9_input(n);
        let cfg = small_cfg();
        let model = HeavyKeyModel::detect(n, |i| input[i].0, light_bucket_bits(n), &cfg);
        assert!(
            delegates_to_sort(&model),
            "Unif-1e9 must route to the sort fallback \
             (heavy = {}, distinct = {}/{})",
            model.len(),
            model.distinct_samples(),
            model.num_samples()
        );
        // Observable effect of the delegation: the groups come back in
        // ascending key order (the hashed engine scrambles them), and the
        // full semisort contract still holds.
        let mut data = input.clone();
        let groups = semisort_pairs_with(&mut data, &cfg);
        assert!(
            groups.windows(2).all(|w| w[0].key < w[1].key),
            "fallback output must be totally ordered"
        );
        check_grouping(&input, &cfg);
    }

    #[test]
    fn adaptive_fallback_leaves_duplicate_heavy_inputs_alone() {
        // Unif-1e3 over the full 64-bit range: no heavy keys either, but
        // every sample value repeats ~samples/1000 times — the engine must
        // keep the hashed path (this is where semisort beats the sort).
        let n = 60_000;
        let rng = Rng::new(21);
        let input: Vec<(u64, u32)> = (0..n)
            .map(|i| {
                let v = rng.ith_in(i as u64, 1000);
                (v * (u64::MAX / 1000), i as u32)
            })
            .collect();
        let cfg = small_cfg();
        let model = HeavyKeyModel::detect(n, |i| input[i].0, light_bucket_bits(n), &cfg);
        assert!(
            !delegates_to_sort(&model),
            "duplicate-heavy input must stay on the hashed engine \
             (distinct = {}/{})",
            model.distinct_samples(),
            model.num_samples()
        );
        check_grouping(&input, &cfg);
    }

    #[test]
    #[ignore = "bench-scale input; run explicitly with --ignored --release"]
    fn adaptive_fallback_routes_unif_1e9_at_bench_scale() {
        // The routing decision at the benchmark's exact operating point
        // (n = 2e6, default config): guards against a sample-size change
        // silently flipping the control distribution off the fallback.
        let n = 2_000_000;
        let input = unif_1e9_input(n);
        let cfg = SortConfig::default();
        let model = HeavyKeyModel::detect(n, |i| input[i].0, light_bucket_bits(n), &cfg);
        assert!(
            delegates_to_sort(&model),
            "heavy = {}, distinct = {}/{}",
            model.len(),
            model.distinct_samples(),
            model.num_samples()
        );
    }

    #[test]
    fn unif_1e5_delegates_at_the_threshold_boundary() {
        // Unif-1e5 is the boundary distribution of the routing decision:
        // a 1e5-value universe sampled a few thousand times comes back
        // ~98–99% distinct — above SORT_DELEGATION_MIN_DISTINCT (so it
        // delegates to the sort, at rough parity) but below full
        // distinctness.
        let n = 60_000;
        let input: Vec<(u64, u32)> = workloads::dist::generate_pairs_u64(
            &workloads::dist::Distribution::Uniform { distinct: 100_000 },
            n,
            42,
        )
        .into_iter()
        .map(|(k, v)| (k, v as u32))
        .collect();
        let cfg = small_cfg();
        let model = HeavyKeyModel::detect(n, |i| input[i].0, light_bucket_bits(n), &cfg);
        let distinct_frac = model.distinct_samples() as f64 / model.num_samples() as f64;
        assert!(
            (SORT_DELEGATION_MIN_DISTINCT..1.0).contains(&distinct_frac),
            "premise: Unif-1e5 must sit between the threshold and full \
             distinctness (distinct = {}/{})",
            model.distinct_samples(),
            model.num_samples()
        );
        assert!(delegates_to_sort(&model));
        // End-to-end: the sort fallback returns groups in ascending key
        // order (the hashed engine scrambles them), and the grouping is
        // correct.
        let mut delegated = input.clone();
        let groups = semisort_pairs_with(&mut delegated, &cfg);
        assert!(
            groups.windows(2).all(|w| w[0].key < w[1].key),
            "Unif-1e5 must route to the sort fallback"
        );
        check_grouping(&input, &cfg);
    }
}
