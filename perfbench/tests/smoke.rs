//! Tiny-input runs of every workload, untraced and traced.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{run, RunConfig, Sizes, Workload};
use std::path::PathBuf;

fn tiny(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        sizes: Sizes::tiny(),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    }
}

fn names(metrics: &[perfbench::report::Metric]) -> Vec<(&str, &str)> {
    metrics.iter().map(|m| (m.name, m.unit)).collect()
}

// One test, so the runs never overlap: tracing and the metrics registry
// are process-wide.
#[test]
fn every_workload_runs_verified_untraced_and_traced() {
    for workload in Workload::ALL {
        let out = run(&tiny(workload, false)).expect("untraced run");
        assert!(out.correct, "{workload:?}: {out:?}");
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 1);
        assert_eq!(names(&out.metrics), END_TO_END.to_vec());
        for m in &out.metrics {
            assert!(m.value > 0.0 && m.value.is_finite(), "{workload:?} {m:?}");
        }

        let out = run(&tiny(workload, true)).expect("traced run");
        assert!(out.correct, "{workload:?}: {out:?}");
        assert_eq!(names(&out.metrics), PER_LAYER.to_vec());
        let get = |name: &str| out.metrics.iter().find(|m| m.name == name).unwrap().value;
        assert!(get("baselines.plis_ms") > 0.0, "{workload:?}");
        if workload != Workload::ServerSessions {
            // Tiny session inputs fit in one comparison base case.
            assert!(get("dtsort.distribute_ms") > 0.0, "{workload:?}");
        }
        match workload {
            Workload::StreamSpill => {
                assert!(get("stream.push_ms") > 0.0);
                assert!(get("stream.runs") >= 2.0);
                assert!(get("spill.fsync_ms") > 0.0);
                assert!(get("spill.bytes_per_rec") > 6.0);
            }
            Workload::ServerSessions => {
                assert!(get("server.open_ms") > 0.0);
                assert!(get("governor.reclaims_per_session") > 0.0);
                assert!(get("groupby.aggregate_ms") > 0.0);
                assert!(get("spillio.jobs") > 0.0);
            }
            _ => assert!(get("dtsort.heavy_frac") >= 0.0),
        }
        let trace = out.stamp.iter().find(|(k, _)| *k == "trace_file");
        assert!(trace.is_some(), "traced runs write a chrome trace");
    }
}
