//! Tests of the pipelined spill subsystem: pod and variable-length sorts
//! and group-bys through the background spill writer (and merge
//! read-ahead) must equal their in-memory references (a stable sort, or
//! an aggregate folded in push order) at every thread count of the
//! determinism matrix — and a spill directory that fails under the writer
//! thread must surface the error on `push` or `finish`, never hang or drop
//! records.  Every engine spills on the background writer thread, so the
//! `*_pipelined_match*_synchronous*` tests (named for the synchronous
//! engine they were once compared with) check the writer-thread path
//! against a stable sort or an aggregate folded in push order.

use parlay::par::with_threads;
use pisort::dtsort::{SortConfig, StreamConfig};
use pisort::stream::{ConcatAgg, FirstAgg, StreamGroupBy, SumAgg};
use pisort::workloads::dist::Distribution;
use pisort::workloads::{dist::generate_pairs_u32, generate_string_pairs};
use pisort::StreamSorter;
use std::collections::BTreeMap;

const THREADS: [usize; 2] = [1, 4];
const N: usize = 30_000;

/// A small-budget config that spills at test sizes.
fn cfg(budget: usize) -> StreamConfig {
    StreamConfig {
        memory_budget_bytes: budget,
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

/// `input` stably sorted by key: the reference the pod sorts are held to.
fn stable_sorted(input: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut want = input.to_vec();
    want.sort_by_key(|r| r.0);
    want
}

/// Pod sorts that spill on the writer thread equal a stable sort of the
/// input, for each key distribution at every thread count.
#[test]
fn pod_sort_pipelined_matches_synchronous_across_threads() {
    for (di, dist) in dists().iter().enumerate() {
        let input = generate_pairs_u32(dist, N, 0x51DE + di as u64);
        let want = stable_sorted(&input);
        let ctx = dist.label();
        for &t in &THREADS {
            let got: Vec<(u32, u32)> = with_threads(t, || {
                let mut s: StreamSorter<u32, u32> = StreamSorter::with_config(cfg(16 << 10));
                for chunk in input.chunks(997) {
                    s.push(chunk).unwrap();
                }
                assert!(s.run_count() > 2, "expected spills [{ctx}]");
                s.finish().unwrap().collect()
            });
            assert_eq!(got, want, "pod sort diverged [{ctx}, {t} threads]");
        }
    }
}

/// `finish_vec` of a pod sort that spilled on the writer thread equals a
/// stable sort of the input.
#[test]
fn pod_finish_into_pipelined_matches_synchronous() {
    let input = generate_pairs_u32(&Distribution::Zipfian { s: 1.0 }, N, 0xABCD);
    let mut s: StreamSorter<u32, u32> = StreamSorter::with_config(cfg(16 << 10));
    s.push(&input).unwrap();
    assert_eq!(
        s.finish_vec().unwrap(),
        stable_sorted(&input),
        "materializing merge path diverged"
    );
}

/// Variable-length (`String`) sorts that spill on the writer thread equal
/// a stable sort of the input at every thread count.
#[test]
fn varlen_sort_pipelined_matches_synchronous_across_threads() {
    let input = generate_string_pairs(&Distribution::Zipfian { s: 1.2 }, 12_000, 32, 7, 0, 96);
    let mut want = input.clone();
    want.sort_by_key(|r| r.0);
    for &t in &THREADS {
        let got: Vec<(u64, String)> = with_threads(t, || {
            let mut s: StreamSorter<u64, String> = StreamSorter::with_config(cfg(48 << 10));
            for chunk in input.chunks(613) {
                s.push(chunk).unwrap();
            }
            assert!(s.run_count() > 2, "expected spills");
            s.finish().unwrap().collect()
        });
        assert_eq!(got, want, "varlen sort diverged at {t} threads");
    }
}

/// Group-bys that spill on the writer thread equal their aggregates folded
/// in push order: sums per key, and per-bucket concatenations, which
/// change if runs or merge ties are reordered.  At every thread count.
#[test]
fn group_bys_pipelined_match_synchronous_across_threads() {
    // SumAgg: associative-commutative pod accumulators.  ConcatAgg:
    // push-order-sensitive variable-length accumulators — the sharpest
    // detector of any run-boundary or merge-order drift.
    let input = generate_pairs_u32(&Distribution::Zipfian { s: 1.0 }, N, 0xF00D);
    let mut want_sums: BTreeMap<u32, u64> = BTreeMap::new();
    let mut want_concats: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
    for (i, &(k, v)) in input.iter().enumerate() {
        *want_sums.entry(k).or_default() += v as u64;
        want_concats
            .entry(k % 64)
            .or_default()
            .extend(format!("[{i}]").into_bytes());
    }
    for &t in &THREADS {
        let sums = with_threads(t, || {
            let mut g: StreamGroupBy<u32, SumAgg> =
                StreamGroupBy::with_config(SumAgg, cfg(16 << 10));
            for chunk in input.chunks(997) {
                let lifted: Vec<(u32, u64)> = chunk.iter().map(|&(k, v)| (k, v as u64)).collect();
                g.push(&lifted).unwrap();
            }
            assert!(g.stats().spilled_runs > 0, "expected spills");
            g.finish_vec().unwrap()
        });
        assert_eq!(
            sums,
            want_sums.clone().into_iter().collect::<Vec<_>>(),
            "SumAgg diverged at {t} threads"
        );

        let concats = with_threads(t, || {
            let mut g: StreamGroupBy<u32, ConcatAgg> =
                StreamGroupBy::with_config(ConcatAgg, cfg(16 << 10));
            for (i, &(k, _)) in input.iter().enumerate() {
                g.push_record(k % 64, format!("[{i}]").into_bytes())
                    .unwrap();
            }
            assert!(g.stats().spilled_runs > 0, "expected spills");
            g.finish_vec().unwrap()
        });
        assert_eq!(
            concats,
            want_concats.clone().into_iter().collect::<Vec<_>>(),
            "ConcatAgg diverged at {t} threads"
        );
    }
}

/// A first-value group-by over `String` values that spills on the writer
/// thread keeps, for each key, the value pushed first.
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
    let mut want: BTreeMap<u64, String> = BTreeMap::new();
    for (k, v) in &input {
        want.entry(*k).or_insert_with(|| v.clone());
    }
    let mut g: StreamGroupBy<u64, FirstAgg<String>> =
        StreamGroupBy::with_config(FirstAgg::new(), cfg(16 << 10));
    for chunk in input.chunks(777) {
        g.push(chunk).unwrap();
    }
    assert!(g.stats().spilled_runs > 0, "expected spills");
    assert_eq!(
        g.finish_vec().unwrap(),
        want.into_iter().collect::<Vec<_>>(),
        "FirstAgg dedup diverged"
    );
}

/// Pushes batches until either an error surfaces or the stream completes;
/// the spill directory is destroyed under the engine after the first
/// spill, so its spill writes start failing mid-stream.
#[test]
fn failing_spill_dir_surfaces_writer_error_on_push_or_finish() {
    let base = std::env::temp_dir().join(format!("pisort-pipefail-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let config = StreamConfig {
        spill_dir: Some(base.clone()),
        ..cfg(16 << 10)
    };
    let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config(config);
    let batch: Vec<(u32, u32)> = (0..4096u32).map(|i| (i.rotate_left(13), i)).collect();
    // First spills go through and create the unique spill subdirectory.
    sorter.push(&batch).unwrap();
    sorter.flush_spills().unwrap();
    assert!(sorter.stats().spilled_runs > 0, "premise: spills happened");
    // Destroy the directory tree and block its path with a regular file:
    // every spill write from here on fails.
    std::fs::remove_dir_all(&base).unwrap();
    std::fs::write(&base, b"blocked").unwrap();
    let result: std::io::Result<usize> = (|| {
        for _ in 0..64 {
            sorter.push(&batch)?;
        }
        // If no push surfaced it, finish must (it drains any run in
        // flight to the writer).
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
        ..cfg(16 << 10)
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
