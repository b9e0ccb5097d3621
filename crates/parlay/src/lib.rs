//! # parlay — ParlayLib-style parallel primitives for Rust
//!
//! This crate is a from-scratch reproduction of the subset of
//! [ParlayLib](https://github.com/cmuparlay/parlaylib) that the DovetailSort
//! paper (PPoPP 2024) relies on.  All primitives follow the fork-join
//! (binary-forking) model described in the paper's Section 2.2 and are
//! executed by rayon's randomized work-stealing scheduler, which matches the
//! scheduler assumptions of the paper's analysis (`W/P + O(D)` running time).
//!
//! Provided primitives:
//!
//! * [`par::parallel_for`] — granularity-controlled parallel loops.
//! * [`reduce`] — parallel reductions (max, monoid reduce).
//! * [`scan`] — blocked parallel exclusive prefix sums.
//! * [`counting_sort`] — the stable blocked counting sort of the paper's
//!   Section 2.4 / Appendix B, the distribution primitive of every MSD sort.
//! * [`merge`] — a parallel merge of two sorted sequences (the `PLMerge`
//!   baseline of the paper's Section 6.3).
//! * [`kway`] — a stable k-way loser-tree merge, the final pass of the
//!   out-of-core streaming sorter.
//! * [`random`] — a deterministic splittable hash-based RNG, so that all
//!   sampling in the sorts is reproducible (Appendix A: determinacy-race
//!   freedom and internal determinism).
//! * [`mod@pack`], [`binsearch`], [`mod@slice`] — parallel pack/filter,
//!   branchless binary search, and the
//!   unsafe-but-checked disjoint-write slice cell that underpins parallel
//!   scatters.
//! * [`scatter`] — stable parallel scatter by arbitrary bucket ids, the
//!   distribution primitive of the semisort engine.

pub mod binsearch;
pub mod counting_sort;
pub mod histogram;
pub mod kway;
pub mod merge;
pub mod pack;
pub mod par;
pub mod random;
pub mod reduce;
pub mod scan;
pub mod scatter;
pub mod slice;

pub use binsearch::{lower_bound, lower_bound_by};
pub use counting_sort::{counting_sort_by, counting_sort_with_ids, CountingSortPlan};
pub use histogram::{histogram, top_k_frequent};
pub use kway::{LoserTree, RunSource, SliceSource};
pub use merge::{par_merge_by, par_merge_into};
pub use pack::{pack, pack_index, pack_ranges};
pub use par::{num_threads, parallel_for, parallel_for_grained, with_threads, work_grain};
pub use random::Rng;
pub use reduce::{par_max, par_reduce};
pub use scan::{scan_exclusive, scan_exclusive_in_place};
pub use scatter::scatter_by;
pub use slice::UnsafeSliceCell;

/// Default granularity (number of loop indices handled sequentially by one
/// task) used by the primitives when the caller does not override it.
///
/// ParlayLib uses a similar block size (~2048) for its `parallel_for`; the
/// exact value only affects constant factors, not the work/span bounds.
/// Loops whose indices each stand for many records (blocks, buckets, MSD
/// zones) size their grain by work instead: see [`par::work_grain`].
pub const DEFAULT_GRANULARITY: usize = 2048;
