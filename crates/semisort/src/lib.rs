//! # semisort — heavy-key semisort and group-by engine
//!
//! A *semisort* groups equal keys contiguously **without establishing a
//! total order** — the relaxation of sorting that group-by, dedup,
//! histogramming and join pre-passes actually need.  Dropping the order
//! requirement removes DovetailSort's recursion and dovetail merge
//! entirely: one sampling pass, one stable scatter, and a per-bucket
//! cleanup are enough.
//!
//! ## Algorithm
//!
//! The engine reuses the paper's central insight (heavy duplicate keys
//! deserve dedicated, collision-free buckets) through the stable
//! [`dtsort::HeavyKeyModel`] API:
//!
//! 1. **Sample** the input and detect heavy keys
//!    ([`dtsort::HeavyKeyModel::detect`], paper Alg. 2 / Section 2.5).
//! 2. **Scatter** every record, stably and in parallel
//!    ([`parlay::scatter::scatter_by`]): a heavy key goes to its own
//!    bucket (already one finished group!); a light key goes to one of
//!    `2^γ` *hashed* buckets selected by the top bits of `hash64(key)`.
//! 3. **Group each light bucket**: the expected bucket size is
//!    `O(n / 2^γ)` and no heavy key pollutes it, so a stable
//!    comparison sort of the bucket finishes the grouping.  (Sorting a
//!    bucket is a valid — if stronger — grouping of it; the *global*
//!    output carries no order.)
//!
//! Heavy records are touched exactly once after the scatter decision —
//! they skip step 3 entirely, which is where the win over
//! sort-then-scan comes from on duplicate-heavy inputs.
//!
//! An input whose samples show no heavy key and almost no repeated value
//! (at least [`SORT_DELEGATION_MIN_DISTINCT`] distinct, like the
//! `Unif-1e9` control) gains nothing from hashing, so the engine sorts it
//! with [`dtsort`] instead and reads the groups off the sorted array.
//!
//! ## Configuration
//!
//! The `_with` entry points and [`GroupBy::with_config`] take the sort's
//! own [`dtsort::SortConfig`]; the engine has no knobs of its own.  The
//! hashed-bucket width follows the sort's `γ = log2(∛n)` rule and the
//! delegation threshold is a constant.
//!
//! The output is a grouped permutation of the input: every distinct key
//! occupies one contiguous range ([`Group`]), records inside a group keep
//! their input order (the engine is **stable**), but groups appear in no
//! particular key order.
//!
//! ## Quick start
//!
//! ```
//! let mut records = vec![(7u64, 'a'), (2, 'x'), (7, 'b'), (2, 'y'), (7, 'c')];
//! let groups = semisort::semisort_pairs(&mut records);
//! assert_eq!(groups.len(), 2);
//! for g in &groups {
//!     // Each group is contiguous and keeps input order.
//!     assert!(records[g.start..g.end].iter().all(|&(k, _)| k == g.key));
//! }
//! let g7 = groups.iter().find(|g| g.key == 7).unwrap();
//! let vals: Vec<char> = records[g7.start..g7.end].iter().map(|r| r.1).collect();
//! assert_eq!(vals, vec!['a', 'b', 'c']);
//! ```
//!
//! For aggregation, use the [`GroupBy`] API layered on top:
//!
//! ```
//! let records = vec![(1u32, 10u64), (2, 1), (1, 5), (2, 2)];
//! let g = semisort::GroupBy::new(records);
//! let mut sums = g.fold(0u64, |acc, &v| acc + v);
//! sums.sort_unstable();
//! assert_eq!(sums, vec![(1, 15), (2, 3)]);
//! ```

mod engine;
mod groupby;

pub use engine::{
    delegates_to_sort, semisort_by_key, semisort_by_key_with, semisort_keys, semisort_pairs,
    semisort_pairs_with, Group, SORT_DELEGATION_MIN_DISTINCT,
};
pub use groupby::GroupBy;
