//! # bench — shared infrastructure of the evaluation harness
//!
//! Each table and figure of the paper has a dedicated binary under
//! `src/bin/`; this library holds what they share: the registry of sorting
//! algorithms (one per column of the paper's Table 2/3), timing and
//! formatting helpers, and a small command-line parser so every binary can
//! be scaled with `--n`, `--reps`, `--threads` and `--bits`.

pub mod cli;
pub mod experiments;
pub mod json;
pub mod obs_support;
pub mod runner;
pub mod spill_modes;
pub mod table;

pub use cli::Args;
pub use json::{git_revision, json_escape, write_bench_json};
pub use obs_support::{obs_json_fields, write_obs_artifacts, ObsPhaseDeltas, ObsProbe};
pub use runner::{median_time_secs, SorterKind};
pub use table::{format_row, geo_mean, print_heatmap_cell, Table};
