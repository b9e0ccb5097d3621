//! Aggregation layered on the semisort engine.
//!
//! [`GroupBy`] owns a set of `(key, value)` records, semisorts them once,
//! and then answers any number of aggregate queries (count, fold, collect)
//! over the contiguous groups — the relational group-by shape, served by
//! grouping instead of full sorting.

use crate::engine::{semisort_pairs_with, Group};
use dtsort::{IntegerKey, SortConfig};
use parlay::par::parallel_for;
use parlay::slice::UnsafeSliceCell;

/// `(key, value)` records grouped by key, ready for aggregation.
///
/// Construction semisorts the records once (`O(n)` on duplicate-heavy
/// inputs); every aggregate afterwards is a parallel pass over the groups.
/// Group order is unspecified — sort the aggregate output by key if an
/// ordered result is needed.
#[derive(Debug, Clone)]
pub struct GroupBy<K: IntegerKey, V: Copy + Send + Sync> {
    records: Vec<(K, V)>,
    groups: Vec<Group<K>>,
}

impl<K: IntegerKey, V: Copy + Send + Sync> GroupBy<K, V> {
    /// Groups `records` by key with the default configuration.
    pub fn new(records: Vec<(K, V)>) -> Self {
        Self::with_config(records, &SortConfig::default())
    }

    /// Groups `records` by key with an explicit configuration.
    pub fn with_config(mut records: Vec<(K, V)>, cfg: &SortConfig) -> Self {
        let groups = semisort_pairs_with(&mut records, cfg);
        Self { records, groups }
    }

    /// Total number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether there are no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of distinct keys.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The groups, in unspecified key order.
    pub fn groups(&self) -> &[Group<K>] {
        &self.groups
    }

    /// The grouped records (each group contiguous, input order within).
    pub fn records(&self) -> &[(K, V)] {
        &self.records
    }

    /// The records of one group.
    pub fn group_records(&self, g: &Group<K>) -> &[(K, V)] {
        &self.records[g.start..g.end]
    }

    /// Per-key record counts, in unspecified key order.
    pub fn counts(&self) -> Vec<(K, usize)> {
        self.groups.iter().map(|g| (g.key, g.len())).collect()
    }

    /// Folds every group's values into an accumulator, in parallel over
    /// groups: `(key, fold(init, values...))` per distinct key, in
    /// unspecified key order.  Values are folded in input order.
    pub fn fold<A, F>(&self, init: A, f: F) -> Vec<(K, A)>
    where
        A: Clone + Send + Sync,
        F: Fn(A, &V) -> A + Sync,
    {
        let Some(first) = self.groups.first() else {
            return Vec::new();
        };
        let mut out: Vec<(K, A)> = vec![(first.key, init.clone()); self.groups.len()];
        {
            let cell = UnsafeSliceCell::new(&mut out);
            let groups = &self.groups;
            let records = &self.records;
            let init = &init;
            let f = &f;
            parallel_for(0, groups.len(), |gi| {
                let g = &groups[gi];
                let mut acc = init.clone();
                for (_, v) in &records[g.start..g.end] {
                    acc = f(acc, v);
                }
                // `get_mut` + assignment drops the placeholder properly.
                *unsafe { cell.get_mut(gi) } = (g.key, acc);
            });
        }
        out
    }

    /// Per-key sums of a numeric projection of the values.
    pub fn sum_by<F>(&self, f: F) -> Vec<(K, u64)>
    where
        F: Fn(&V) -> u64 + Sync,
    {
        self.fold(0u64, |acc, v| acc + f(v))
    }

    /// Collects every group's values into an owned vector (input order).
    pub fn collect(&self) -> Vec<(K, Vec<V>)> {
        self.fold(Vec::new(), |mut acc, &v| {
            acc.push(v);
            acc
        })
    }

    /// Consumes the group-by, returning the grouped records and the groups.
    pub fn into_parts(self) -> (Vec<(K, V)>, Vec<Group<K>>) {
        (self.records, self.groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlay::random::Rng;
    use std::collections::HashMap;

    fn small_cfg() -> SortConfig {
        SortConfig {
            base_case_threshold: 64,
            ..SortConfig::default()
        }
    }

    fn skewed_input(n: usize, distinct: u64, seed: u64) -> Vec<(u64, u64)> {
        let rng = Rng::new(seed);
        (0..n)
            .map(|i| (rng.ith_in(i as u64, distinct), i as u64))
            .collect()
    }

    #[test]
    fn counts_match_hashmap() {
        let input = skewed_input(50_000, 123, 1);
        let mut want: HashMap<u64, usize> = HashMap::new();
        for &(k, _) in &input {
            *want.entry(k).or_default() += 1;
        }
        let g = GroupBy::new(input);
        assert_eq!(g.len(), 50_000);
        assert_eq!(g.num_groups(), want.len());
        for (k, c) in g.counts() {
            assert_eq!(c, want[&k], "key {k}");
        }
    }

    #[test]
    fn fold_and_sum_match_reference() {
        let input = skewed_input(40_000, 77, 2);
        let mut want: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in &input {
            *want.entry(k).or_default() += v;
        }
        let g = GroupBy::with_config(input, &small_cfg());
        for (k, s) in g.sum_by(|&v| v) {
            assert_eq!(s, want[&k], "key {k}");
        }
        // fold with a non-Copy accumulator: max + count.
        for (k, (mx, cnt)) in g.fold((0u64, 0usize), |(mx, c), &v| (mx.max(v), c + 1)) {
            assert!(cnt > 0);
            assert!(mx <= 40_000, "key {k}");
        }
    }

    #[test]
    fn collect_preserves_input_order() {
        let records = vec![(5u32, 'a'), (3, 'x'), (5, 'b'), (3, 'y'), (5, 'c')];
        let g = GroupBy::new(records);
        let collected: HashMap<u32, Vec<char>> = g.collect().into_iter().collect();
        assert_eq!(collected[&5], vec!['a', 'b', 'c']);
        assert_eq!(collected[&3], vec!['x', 'y']);
    }

    #[test]
    fn group_records_are_pure() {
        let input = skewed_input(20_000, 9, 3);
        let g = GroupBy::with_config(input, &small_cfg());
        for grp in g.groups() {
            assert!(g.group_records(grp).iter().all(|&(k, _)| k == grp.key));
        }
    }

    #[test]
    fn empty_group_by() {
        let g: GroupBy<u64, u64> = GroupBy::new(Vec::new());
        assert!(g.is_empty());
        assert_eq!(g.num_groups(), 0);
        assert!(g.counts().is_empty());
        assert!(g.fold(0u64, |a, _| a).is_empty());
        assert!(g.collect().is_empty());
        let (records, groups) = g.into_parts();
        assert!(records.is_empty() && groups.is_empty());
    }
}
