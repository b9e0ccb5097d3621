//! Observability hooks for the streaming benches.
//!
//! When tracing is on (`OBS_TRACE=1`), the streaming engines record phase
//! timings into the global [`obs`] registry.  The benches surface three of
//! them per measured run — writer backpressure, fsync time, and merge
//! read-ahead stalls — by snapshotting the registry around the run and
//! differencing the histogram sums.  With tracing off the probes cost one
//! atomic load and report zeros, so the JSON schema is stable either way.

use obs::MetricsSnapshot;

/// Phase-time deltas (nanoseconds) attributed to one measured run.
#[derive(Debug, Default, Clone, Copy)]
pub struct ObsPhaseDeltas {
    /// Time `push` spent blocked on the bounded spill-writer channel.
    pub backpressure_ns: u64,
    /// Time spent in `sync_data` making spilled runs durable.
    pub fsync_ns: u64,
    /// Time the merge spent waiting on read-ahead decode tasks.
    pub prefetch_stall_ns: u64,
}

/// Snapshots the global registry before a run; [`ObsProbe::finish`] returns
/// the per-run histogram-sum deltas.  Inert when tracing is disabled.
pub struct ObsProbe {
    before: Option<MetricsSnapshot>,
}

impl ObsProbe {
    pub fn start() -> Self {
        Self {
            before: obs::enabled().then(|| obs::global().snapshot()),
        }
    }

    pub fn finish(self) -> ObsPhaseDeltas {
        let Some(before) = self.before else {
            return ObsPhaseDeltas::default();
        };
        let after = obs::global().snapshot();
        let delta = |name: &str| {
            after
                .histogram_sum(name)
                .saturating_sub(before.histogram_sum(name))
        };
        ObsPhaseDeltas {
            backpressure_ns: delta("spill.backpressure_ns"),
            fsync_ns: delta("spill.fsync_ns"),
            prefetch_stall_ns: delta("prefetch.stall_ns"),
        }
    }
}

/// The three phase-delta fields as a JSON fragment (leading comma included)
/// for appending to a bench row object.
pub fn obs_json_fields(d: &ObsPhaseDeltas) -> String {
    format!(
        ", \"backpressure_ns\": {}, \"fsync_ns\": {}, \"prefetch_stall_ns\": {}",
        d.backpressure_ns, d.fsync_ns, d.prefetch_stall_ns
    )
}

/// Writes `TRACE_{tag}.json` (chrome://tracing format, from the spans
/// recorded so far) and `METRICS_{tag}.json` (full registry snapshot) in
/// the current directory.  No-op when tracing is disabled.
pub fn write_obs_artifacts(tag: &str) {
    if !obs::enabled() {
        return;
    }
    let (events, dropped) = obs::drain_spans();
    let trace_path = format!("TRACE_{tag}.json");
    let metrics_path = format!("METRICS_{tag}.json");
    if let Err(e) = obs::write_chrome_trace(std::path::Path::new(&trace_path), &events) {
        eprintln!("warning: could not write {trace_path}: {e}");
    }
    if let Err(e) = std::fs::write(&metrics_path, obs::global().snapshot().to_json()) {
        eprintln!("warning: could not write {metrics_path}: {e}");
    }
    println!(
        "\nobs: wrote {trace_path} ({} spans{}) and {metrics_path}",
        events.len(),
        if dropped > 0 {
            format!(", {dropped} dropped")
        } else {
            String::new()
        }
    );
}
