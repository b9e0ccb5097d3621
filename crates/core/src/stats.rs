//! Instrumentation counters.
//!
//! The performance-study experiments (paper Section 6.3 and the theory
//! checks of Theorems 4.6/4.7) need to observe *what the algorithm did*:
//! how many heavy keys were detected, how many records bypassed recursion,
//! how many records were moved, how much time each step took.  All counters
//! are relaxed atomics so they can be bumped from inside the parallel
//! recursion without synchronization overhead that would distort timings.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Atomic counters shared by all tasks of one sort invocation.
#[derive(Debug, Default)]
pub struct SortStats {
    /// Number of recursive DTSort calls (excluding base cases).
    pub recursive_calls: AtomicU64,
    /// Number of base cases (subproblems at or below `θ`, out of key bits,
    /// or overflow buckets).
    pub base_case_calls: AtomicU64,
    /// Total records handled by base cases.
    pub base_case_records: AtomicU64,
    /// Base-case records finished by the comparison fallback instead of the
    /// counting passes, i.e. subproblems below its size cutover (a subset of
    /// `base_case_records`).
    pub comparison_sorted_records: AtomicU64,
    /// Number of distinct heavy keys detected, summed over all calls.
    pub heavy_keys: AtomicU64,
    /// Records placed into heavy buckets (they skip all further recursion).
    pub heavy_records: AtomicU64,
    /// Records placed into the overflow bucket (Section 5).
    pub overflow_records: AtomicU64,
    /// Records moved by distribution steps (counting-sort scatters).
    pub distributed_records: AtomicU64,
    /// Records moved by dovetail-merge steps.
    pub merged_records: AtomicU64,
    /// Sample keys drawn over all recursive calls.
    pub samples_drawn: AtomicU64,
    /// Maximum recursion depth reached (1 = only the root level).
    pub max_depth: AtomicU64,
    /// Wall time of Step 1 (sampling) at the root call, nanoseconds.
    pub root_sample_ns: AtomicU64,
    /// Wall time of Step 2 (distribution) at the root call, nanoseconds.
    pub root_distribute_ns: AtomicU64,
    /// Wall time of Step 3 (recursion) at the root call, nanoseconds.
    pub root_recurse_ns: AtomicU64,
    /// Wall time of Step 4 (dovetail merging) at the root call, nanoseconds.
    pub root_merge_ns: AtomicU64,
}

impl SortStats {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn max(counter: &AtomicU64, v: u64) {
        counter.fetch_max(v, Ordering::Relaxed);
    }

    /// An immutable snapshot of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StatsSnapshot {
            recursive_calls: g(&self.recursive_calls),
            base_case_calls: g(&self.base_case_calls),
            base_case_records: g(&self.base_case_records),
            comparison_sorted_records: g(&self.comparison_sorted_records),
            heavy_keys: g(&self.heavy_keys),
            heavy_records: g(&self.heavy_records),
            overflow_records: g(&self.overflow_records),
            distributed_records: g(&self.distributed_records),
            merged_records: g(&self.merged_records),
            samples_drawn: g(&self.samples_drawn),
            max_depth: g(&self.max_depth),
            root_sample_time: Duration::from_nanos(g(&self.root_sample_ns)),
            root_distribute_time: Duration::from_nanos(g(&self.root_distribute_ns)),
            root_recurse_time: Duration::from_nanos(g(&self.root_recurse_ns)),
            root_merge_time: Duration::from_nanos(g(&self.root_merge_ns)),
        }
    }
}

/// Plain-value snapshot of [`SortStats`], returned by the `*_with_stats`
/// entry points.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub recursive_calls: u64,
    pub base_case_calls: u64,
    pub base_case_records: u64,
    pub comparison_sorted_records: u64,
    pub heavy_keys: u64,
    pub heavy_records: u64,
    pub overflow_records: u64,
    pub distributed_records: u64,
    pub merged_records: u64,
    pub samples_drawn: u64,
    pub max_depth: u64,
    pub root_sample_time: Duration,
    pub root_distribute_time: Duration,
    pub root_recurse_time: Duration,
    pub root_merge_time: Duration,
}

impl StatsSnapshot {
    /// A proxy for the total work spent moving records: distribution plus
    /// merging movements.  Used by the Theorem 4.6/4.7 linear-work check.
    pub fn records_moved(&self) -> u64 {
        self.distributed_records + self.merged_records
    }

    /// Publishes this snapshot into an [`obs::MetricsRegistry`] as
    /// `sort.*` gauges (set semantics: the registry view reflects the
    /// *last published* sort, since each invocation's `SortStats` starts
    /// from zero).  No-op while `obs` recording is disabled.
    ///
    /// This is the registry *view* of the per-invocation stats: the
    /// counters themselves stay plain relaxed atomics owned by the sort
    /// call, so nothing about the existing `*_with_stats` API changes.
    pub fn publish(&self, reg: &obs::MetricsRegistry) {
        if !obs::enabled() {
            return;
        }
        let set = |name: &str, v: u64| {
            reg.gauge(name).set(i64::try_from(v).unwrap_or(i64::MAX));
        };
        set("sort.recursive_calls", self.recursive_calls);
        set("sort.base_case_calls", self.base_case_calls);
        set("sort.base_case_records", self.base_case_records);
        set(
            "sort.comparison_sorted_records",
            self.comparison_sorted_records,
        );
        set("sort.heavy_keys", self.heavy_keys);
        set("sort.heavy_records", self.heavy_records);
        set("sort.overflow_records", self.overflow_records);
        set("sort.distributed_records", self.distributed_records);
        set("sort.merged_records", self.merged_records);
        set("sort.samples_drawn", self.samples_drawn);
        set("sort.max_depth", self.max_depth);
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        set("sort.root_sample_ns", ns(self.root_sample_time));
        set("sort.root_distribute_ns", ns(self.root_distribute_time));
        set("sort.root_recurse_ns", ns(self.root_recurse_time));
        set("sort.root_merge_ns", ns(self.root_merge_time));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = SortStats::new();
        SortStats::add(&s.heavy_keys, 3);
        SortStats::add(&s.heavy_keys, 4);
        SortStats::max(&s.max_depth, 2);
        SortStats::max(&s.max_depth, 1);
        let snap = s.snapshot();
        assert_eq!(snap.heavy_keys, 7);
        assert_eq!(snap.max_depth, 2);
        assert_eq!(snap.records_moved(), 0);
    }

    #[test]
    fn snapshot_default_is_zero() {
        let snap = SortStats::new().snapshot();
        assert_eq!(snap, StatsSnapshot::default());
    }

    #[test]
    fn publish_mirrors_snapshot_into_registry_gauges() {
        let was = obs::enabled();
        obs::enable();
        let s = SortStats::new();
        SortStats::add(&s.heavy_keys, 11);
        SortStats::add(&s.distributed_records, 500);
        SortStats::max(&s.max_depth, 3);
        let reg = obs::MetricsRegistry::new();
        s.snapshot().publish(&reg);
        let view = reg.snapshot();
        assert_eq!(view.gauge("sort.heavy_keys"), 11);
        assert_eq!(view.gauge("sort.distributed_records"), 500);
        assert_eq!(view.gauge("sort.max_depth"), 3);
        // Set semantics: republishing a fresh sort overwrites.
        SortStats::new().snapshot().publish(&reg);
        assert_eq!(reg.snapshot().gauge("sort.heavy_keys"), 0);
        if !was {
            obs::disable();
        }
    }
}
