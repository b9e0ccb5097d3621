//! # pisort — umbrella crate of the DovetailSort (PPoPP 2024) reproduction
//!
//! This crate re-exports the whole workspace under one roof so examples,
//! integration tests, and downstream users can depend on a single crate:
//!
//! * [`dtsort`] — DovetailSort, the paper's contribution (stable parallel
//!   integer sort with heavy-key detection and dovetail merging).
//! * [`parlay`] — the ParlayLib-style parallel-primitives substrate.
//! * [`baselines`] — the comparison sorting algorithms of the evaluation.
//! * [`workloads`] — synthetic key distributions, graphs and point clouds.
//! * [`apps`] — graph transpose, Morton sort and group-by applications.
//! * [`semisort`] — the heavy-key semisort / group-by engine: equal keys
//!   grouped contiguously without a total order, plus the [`GroupBy`]
//!   aggregation API.
//! * [`obs`] — zero-dependency tracing and metrics: named counters /
//!   gauges / latency histograms in a global registry, plus lightweight
//!   spans exportable as a chrome://tracing file.  Off by default; enabled
//!   by [`StreamConfig::trace`](dtsort::StreamConfig) or `OBS_TRACE=1`.
//! * [`stream`] — bounded-memory streaming / out-of-core sorting
//!   ([`StreamSorter`]): pushed batches become spilled sorted runs that are
//!   k-way merged, with heavy keys carried across runs — and streaming
//!   group-by ([`StreamGroupBy`]), which aggregates runs before spilling.
//! * [`server`] — the multi-session sort service: sessions over the
//!   streaming engines, arbitrated by a global memory governor (admission
//!   control, proportional grants, live reclaim) and a shared
//!   quota-governed spill-directory manager.
//!
//! ```
//! // The most common entry point: stably sort key-value records.
//! let mut records = vec![(30u32, 'c'), (10, 'a'), (30, 'b'), (20, 'd')];
//! pisort::sort_pairs(&mut records);
//! assert_eq!(records, vec![(10, 'a'), (20, 'd'), (30, 'c'), (30, 'b')]);
//! ```

pub use apps;
pub use baselines;
pub use dtsort;
pub use obs;
pub use parlay;
pub use semisort;
pub use server;
pub use stream;
pub use workloads;

// Convenience re-exports of the primary API.
pub use dtsort::{
    sort, sort_by_key, sort_by_key_with, sort_by_key_with_stats, sort_pairs, sort_pairs_with,
    sort_pairs_with_stats, sort_with, sort_with_stats, IntegerKey, MergeStrategy, SortConfig,
    StatsSnapshot, StreamConfig,
};
pub use semisort::{semisort_by_key, semisort_pairs, GroupBy};
pub use stream::{
    SortedStream, SpillCompression, StreamGroupBy, StreamSorter, StringKey, StringStreamGroupBy,
    StringStreamSorter,
};
