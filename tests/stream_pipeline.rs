//! Differential tests of the pipelined spill subsystem: with
//! `StreamConfig::pipelined_spill = false` as the reference, the pipelined
//! engines (background spill writer + merge read-ahead) must produce
//! **byte-identical** output for pod and variable-length sorts and
//! group-bys, at every thread count of the determinism matrix — and a
//! spill directory that fails under the writer thread must surface the
//! error on `push` or `finish`, never hang or drop records.

use parlay::par::with_threads;
use pisort::dtsort::{SortConfig, StreamConfig};
use pisort::stream::{ConcatAgg, FirstAgg, StreamGroupBy, SumAgg};
use pisort::workloads::dist::Distribution;
use pisort::workloads::{dist::generate_pairs_u32, generate_string_pairs};
use pisort::StreamSorter;

const THREADS: [usize; 2] = [1, 4];
const N: usize = 30_000;

/// A small-budget config; `sync` toggles the pre-pipelining behavior.
fn cfg(budget: usize, sync: bool) -> StreamConfig {
    StreamConfig {
        memory_budget_bytes: budget,
        pipelined_spill: !sync,
        sort: SortConfig {
            base_case_threshold: 64,
            ..SortConfig::default()
        },
        ..StreamConfig::default()
    }
}

fn dists() -> Vec<Distribution> {
    vec![
        Distribution::Uniform {
            distinct: 1_000_000_000,
        },
        Distribution::Uniform { distinct: 10 },
        Distribution::Zipfian { s: 1.2 },
    ]
}

#[test]
fn pod_sort_pipelined_matches_synchronous_across_threads() {
    for (di, dist) in dists().iter().enumerate() {
        let input = generate_pairs_u32(dist, N, 0x51DE + di as u64);
        let ctx = dist.label();
        for &t in &THREADS {
            let run = |sync: bool| {
                with_threads(t, || {
                    let mut s: StreamSorter<u32, u32> =
                        StreamSorter::with_config(cfg(16 << 10, sync));
                    for chunk in input.chunks(997) {
                        s.push(chunk).unwrap();
                    }
                    assert!(s.run_count() > 2, "expected spills [{ctx}]");
                    let via_iter: Vec<(u32, u32)> = s.finish().unwrap().collect();
                    via_iter
                })
            };
            let pipelined = run(false);
            let synchronous = run(true);
            assert_eq!(
                pipelined, synchronous,
                "pipelined vs synchronous pod sort diverged [{ctx}, {t} threads]"
            );
        }
    }
}

#[test]
fn pod_finish_into_pipelined_matches_synchronous() {
    let input = generate_pairs_u32(&Distribution::Zipfian { s: 1.0 }, N, 0xABCD);
    let run = |sync: bool| {
        let mut s: StreamSorter<u32, u32> = StreamSorter::with_config(cfg(16 << 10, sync));
        s.push(&input).unwrap();
        s.finish_vec().unwrap()
    };
    assert_eq!(run(false), run(true), "materializing merge path diverged");
}

#[test]
fn varlen_sort_pipelined_matches_synchronous_across_threads() {
    let input = generate_string_pairs(&Distribution::Zipfian { s: 1.2 }, 12_000, 32, 7, 0, 96);
    for &t in &THREADS {
        let run = |sync: bool| {
            with_threads(t, || {
                let mut s: StreamSorter<u64, String> =
                    StreamSorter::with_config(cfg(48 << 10, sync));
                for chunk in input.chunks(613) {
                    s.push(chunk).unwrap();
                }
                assert!(s.run_count() > 2, "expected spills");
                let out: Vec<(u64, String)> = s.finish().unwrap().collect();
                out
            })
        };
        assert_eq!(
            run(false),
            run(true),
            "pipelined vs synchronous varlen sort diverged at {t} threads"
        );
    }
}

#[test]
fn group_bys_pipelined_match_synchronous_across_threads() {
    // SumAgg: associative-commutative pod accumulators.  ConcatAgg:
    // push-order-sensitive variable-length accumulators — the sharpest
    // detector of any run-boundary or merge-order drift between the modes.
    let input = generate_pairs_u32(&Distribution::Zipfian { s: 1.0 }, N, 0xF00D);
    for &t in &THREADS {
        let sums = |sync: bool| {
            with_threads(t, || {
                let mut g: StreamGroupBy<u32, SumAgg> =
                    StreamGroupBy::with_config(SumAgg, cfg(16 << 10, sync));
                for chunk in input.chunks(997) {
                    let lifted: Vec<(u32, u64)> =
                        chunk.iter().map(|&(k, v)| (k, v as u64)).collect();
                    g.push(&lifted).unwrap();
                }
                g.finish_vec().unwrap()
            })
        };
        assert_eq!(sums(false), sums(true), "SumAgg diverged at {t} threads");

        let concats = |sync: bool| {
            with_threads(t, || {
                let mut g: StreamGroupBy<u32, ConcatAgg> =
                    StreamGroupBy::with_config(ConcatAgg, cfg(16 << 10, sync));
                for (i, &(k, _)) in input.iter().enumerate() {
                    g.push_record(k % 64, format!("[{i}]").into_bytes())
                        .unwrap();
                }
                g.finish_vec().unwrap()
            })
        };
        assert_eq!(
            concats(false),
            concats(true),
            "ConcatAgg diverged at {t} threads"
        );
    }
}

#[test]
fn varlen_dedup_pipelined_matches_synchronous() {
    let input = generate_string_pairs(
        &Distribution::Uniform { distinct: 400 },
        15_000,
        32,
        9,
        4,
        64,
    );
    let run = |sync: bool| {
        let mut g: StreamGroupBy<u64, FirstAgg<String>> =
            StreamGroupBy::with_config(FirstAgg::new(), cfg(16 << 10, sync));
        for chunk in input.chunks(777) {
            g.push(chunk).unwrap();
        }
        g.finish_vec().unwrap()
    };
    assert_eq!(run(false), run(true), "FirstAgg dedup diverged");
}

/// Pushes batches until either an error surfaces or the stream completes;
/// the spill directory is destroyed under the engine after the first
/// spill, so the writer thread starts failing mid-stream.
#[test]
fn failing_spill_dir_surfaces_writer_error_on_push_or_finish() {
    let base = std::env::temp_dir().join(format!("pisort-pipefail-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let config = StreamConfig {
        spill_dir: Some(base.clone()),
        ..cfg(16 << 10, false)
    };
    let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config(config);
    let batch: Vec<(u32, u32)> = (0..4096u32).map(|i| (i.rotate_left(13), i)).collect();
    // First spills go through and create the unique spill subdirectory.
    sorter.push(&batch).unwrap();
    sorter.flush_spills().unwrap();
    assert!(sorter.stats().spilled_runs > 0, "premise: spills happened");
    // Destroy the directory tree and block its path with a regular file:
    // every write the background thread attempts from here on fails.
    std::fs::remove_dir_all(&base).unwrap();
    std::fs::write(&base, b"blocked").unwrap();
    let result: std::io::Result<usize> = (|| {
        for _ in 0..64 {
            sorter.push(&batch)?;
        }
        // If no push surfaced it, finish must (it drains the writer).
        Ok(sorter.finish()?.count())
    })();
    let err = result.expect_err("a destroyed spill dir must surface as an io::Error");
    assert_ne!(err.to_string(), "", "error must be descriptive");
    std::fs::remove_file(&base).ok();
}

/// Same failure shape through the group-by, surfacing on `finish`: the
/// error arrives between the last push and the merge.
#[test]
fn failing_spill_dir_surfaces_group_by_error_no_hang() {
    let base = std::env::temp_dir().join(format!("pisort-gbpipefail-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let config = StreamConfig {
        spill_dir: Some(base.clone()),
        ..cfg(16 << 10, false)
    };
    let mut gb: StreamGroupBy<u64, SumAgg> = StreamGroupBy::with_config(SumAgg, config);
    for i in 0..20_000u64 {
        gb.push_record(i % 5000, 1).unwrap();
    }
    gb.flush_spills().unwrap();
    assert!(gb.stats().spilled_runs > 0, "premise: spills happened");
    std::fs::remove_dir_all(&base).unwrap();
    std::fs::write(&base, b"blocked").unwrap();
    let result: std::io::Result<usize> = (|| {
        for i in 0..200_000u64 {
            gb.push_record(i % 5000, 1)?;
        }
        Ok(gb.finish()?.count())
    })();
    assert!(
        result.is_err(),
        "a destroyed spill dir must surface from push or finish"
    );
    std::fs::remove_file(&base).ok();
}
