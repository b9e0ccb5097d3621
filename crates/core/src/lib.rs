//! # dtsort — DovetailSort, a parallel integer sort that exploits duplicate keys
//!
//! This crate is a from-scratch Rust implementation of **DovetailSort
//! (DTSort)** from *"Parallel Integer Sort: Theory and Practice"*
//! (PPoPP 2024).  DTSort is a stable parallel most-significant-digit (MSD)
//! radix sort that additionally borrows the sampling idea of comparison
//! sorts to detect *heavy* (frequently duplicated) keys, gives each heavy
//! key its own bucket so its records bypass all further recursion, and
//! re-interleaves heavy and light buckets with a dedicated *dovetail merge*.
//!
//! The algorithm has `O(n √log r)` work and `Õ(2^{√log r})` span for `n`
//! records with keys in `[0, r)` (paper Theorem 4.5), which beats the
//! `O(n log n)` work of comparison sorts for the realistic key range
//! `r = n^{O(1)}`, and it achieves `O(n)` work on inputs dominated by heavy
//! keys (Theorems 4.6 and 4.7).
//!
//! ## Quick start
//!
//! ```
//! // Sort plain keys.
//! let mut keys = vec![170u32, 45, 75, 90, 802, 24, 2, 66];
//! dtsort::sort(&mut keys);
//! assert_eq!(keys, vec![2, 24, 45, 66, 75, 90, 170, 802]);
//!
//! // Sort key-value records stably.
//! let mut records = vec![(3u64, "c"), (1, "a"), (3, "b")];
//! dtsort::sort_pairs(&mut records);
//! assert_eq!(records, vec![(1, "a"), (3, "c"), (3, "b")]);
//! ```
//!
//! ## Structure
//!
//! * [`api`] — the public sorting entry points ([`sort`], [`sort_pairs`],
//!   [`sort_by_key`] and their `_with` / `_with_stats` variants).
//! * [`config`] — tuning knobs ([`SortConfig`], [`MergeStrategy`]) matching
//!   the paper's parameter choices.
//! * [`sampling`], [`buckets`], [`dtmerge`], [`recurse`] — the four steps of
//!   Algorithm 2 (sampling, bucket assignment, distribution + recursion,
//!   dovetail merging).
//! * [`model`] — the stable [`HeavyKeyModel`] view of heavy-key detection,
//!   consumed by the `semisort` and `stream` crates.
//! * [`stats`] — instrumentation used by the evaluation harness.
//! * [`key`] — the [`IntegerKey`] abstraction over `u8..u64`, `usize` and
//!   the signed integer types, plus the [`StringKey`] byte-string keys
//!   that the streaming engines map order-preservingly into the `u64`
//!   domain via [`string_key_prefix64`].

pub mod api;
pub mod buckets;
pub mod config;
pub mod dtmerge;
pub mod key;
pub mod model;
pub mod recurse;
pub mod sampling;
pub mod stats;
pub mod verify;

pub use api::{
    is_sorted_by_key, sort, sort_by_key, sort_by_key_with, sort_by_key_with_stats, sort_pairs,
    sort_pairs_with, sort_pairs_with_stats, sort_run_by_key_with, sort_run_pairs_with,
    sort_unstable, sort_with, sort_with_stats, RunReport,
};
pub use config::{
    BudgetHandle, MergeStrategy, SortConfig, SpillCompression, SpillIoMode, StreamConfig,
};
pub use key::{string_key_prefix64, IntegerKey, StringKey};
pub use model::HeavyKeyModel;
pub use stats::{SortStats, StatsSnapshot};
