//! Per-layer accounting of a traced run.
//!
//! Two sources feed it.  The benchmark times its own calls into each
//! layer's public functions ([`Layers::add_ms`], [`timed`]) and reads
//! `dtsort`'s per-call [`StatsSnapshot`].  Everything else is the change in
//! the counters and histograms `obs` already registers, between a snapshot
//! taken before the measured ops and one taken after.  Recording is on
//! only while a traced op runs, so untraced ops in between add nothing to
//! that change.

use crate::report::{Metric, PER_LAYER};
use crate::stats::ratio;
use dtsort::StatsSnapshot;
use obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Sums over the traced ops of one run.
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    /// Traced ops (sorts, stream lifecycles or sessions).
    pub ops: u64,
    /// Input records of the traced ops.
    pub records: u64,
    /// Op inputs the `dtsort.*` and `baselines.*` sums cover.
    pub ref_ops: u64,
    /// Deepest recursion seen by the current reference op.
    depth: u64,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    pub fn add_ms(&mut self, name: &'static str, d: Duration) {
        self.add(name, d.as_secs_f64() * 1e3);
    }

    fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Accounts one `dtsort` call on `n` records.
    pub fn sorted(&mut self, st: &StatsSnapshot, n: usize) {
        self.add_ms("dtsort.sample_ms", st.root_sample_time);
        self.add_ms("dtsort.distribute_ms", st.root_distribute_time);
        self.add_ms("dtsort.recurse_ms", st.root_recurse_time);
        self.add_ms("dtsort.merge_ms", st.root_merge_time);
        self.add("dtsort.base_case_calls", st.base_case_calls as f64);
        self.add("dtsort.base_case_records", st.base_case_records as f64);
        self.add("dtsort.heavy_records", st.heavy_records as f64);
        self.add("dtsort.moved_records", st.records_moved() as f64);
        self.add("dtsort.records", n as f64);
        self.depth = self.depth.max(st.max_depth);
    }

    /// Closes one op input's worth of `dtsort` and baseline calls.
    pub fn ref_op_done(&mut self) {
        self.ref_ops += 1;
        self.add("dtsort.max_depth", self.depth as f64);
        self.depth = 0;
    }

    /// Folds another client's sums into this one.
    pub fn merge(&mut self, other: Layers) {
        for (name, v) in other.sums {
            self.add(name, v);
        }
        self.ops += other.ops;
        self.records += other.records;
        self.ref_ops += other.ref_ops;
    }

    /// Every [`PER_LAYER`] metric, given the registry change over the
    /// traced ops and the measured tracing overhead.
    pub fn metrics(
        &self,
        before: &MetricsSnapshot,
        after: &MetricsSnapshot,
        overhead: f64,
    ) -> Vec<Metric> {
        let counter = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
        let hist_ms = |name: &str| {
            after
                .histogram_sum(name)
                .saturating_sub(before.histogram_sum(name)) as f64
                / 1e6
        };
        let steals: f64 = after
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("pool.w") && n.ends_with(".steals"))
            .map(|(n, _)| counter(n))
            .sum();
        let ops = self.ops as f64;
        let value = |name: &str| -> f64 {
            match name {
                "dtsort.base_case_frac" => ratio(
                    self.sum("dtsort.base_case_records"),
                    self.sum("dtsort.records"),
                ),
                "dtsort.heavy_frac" => {
                    ratio(self.sum("dtsort.heavy_records"), self.sum("dtsort.records"))
                }
                "dtsort.moved_per_rec" => {
                    ratio(self.sum("dtsort.moved_records"), self.sum("dtsort.records"))
                }
                n if n.starts_with("dtsort.") || n.starts_with("baselines.") => {
                    ratio(self.sum(n), self.ref_ops as f64)
                }
                "stream.sort_ms" => ratio(hist_ms("stream.sort_ns"), ops),
                "stream.runs" => ratio(
                    counter("stream.spilled_runs") + counter("groupby.spilled_runs"),
                    ops,
                ),
                "spill.backpressure_ms" => ratio(hist_ms("spill.backpressure_ns"), ops),
                "spill.write_ms" => ratio(hist_ms("spill.write_ns"), ops),
                "spill.fsync_ms" => ratio(hist_ms("spill.fsync_ns"), ops),
                "spill.bytes_per_rec" => ratio(counter("spill.bytes_written"), self.records as f64),
                "spill.comp_ratio" => {
                    ratio(counter("spill.raw_bytes"), counter("spill.bytes_written"))
                }
                "prefetch.stall_ms" => ratio(hist_ms("prefetch.stall_ns"), ops),
                "spillio.complete_ms" => ratio(hist_ms("spillio.complete_ns"), ops),
                "groupby.aggregate_ms" => ratio(hist_ms("groupby.aggregate_ns"), ops),
                "groupby.partials_per_rec" => ratio(
                    counter("groupby.partial_aggregates"),
                    counter("groupby.records_pushed"),
                ),
                "governor.admission_wait_ms" => ratio(hist_ms("governor.admission_wait_ns"), ops),
                "governor.reclaims_per_session" => ratio(
                    counter("governor.reclaims"),
                    counter("server.sessions_opened"),
                ),
                "server.sessions_failed" => counter("server.sessions_failed"),
                "pool.steals" => ratio(steals, ops),
                "obs.trace_overhead_frac" => overhead,
                n @ ("spill.retries"
                | "spill.degraded_syncs"
                | "prefetch.disabled_merges"
                | "spillio.jobs"
                | "spillio.inline_jobs"
                | "pool.parks"
                | "pool.wakes") => ratio(counter(n), ops),
                // The benchmark's own call times.
                n => ratio(self.sum(n), ops),
            }
        };
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: value(name),
            })
            .collect()
    }
}

/// Runs `f`, one call into a layer, inside an `obs` span named `metric`
/// and adds its wall time to `metric`.
pub fn timed<T>(layers: &mut Layers, metric: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = obs::SpanGuard::start(metric, None);
    let start = Instant::now();
    let out = f();
    layers.add_ms(metric, start.elapsed());
    out
}
