//! Thread-count determinism matrix: the differential-suite coverage
//! (distribution sweep × sorters × semisort × streaming, plus the k-way /
//! stream boundary cases of the edge suite) re-run at every thread count
//! in `{1, 2, 4}`, asserting **byte-identical** output across counts.
//!
//! Every parallel primitive in the workspace writes through precomputed
//! disjoint offsets and all sampling is seeded, so the output of every
//! sorter must be a pure function of the input — never of the schedule.
//! Under the work-stealing pool this is the test that proves it: a worker
//! count of 4 on any host exercises stealing, parking and run-ahead, and
//! any scheduling-dependent behaviour shows up as a diff against the
//! 1-thread run.  Most legs use small inputs; the DTSort root leg uses
//! inputs past [`parlay::par::MIN_TASK_WORK`] and the base-case threshold,
//! so its distribution blocks and zone loops really fork.
//!
//! CI additionally runs the *whole* workspace test suite under
//! `RAYON_NUM_THREADS ∈ {1, 2, 4}`, which covers the suites this file
//! cannot re-enter (they use the global pool).

use parlay::par::with_threads;
use workloads::dist::{bexp_instances, generate_pairs_u32, paper_instances, Distribution};

/// The thread counts of the matrix.
const THREADS: [usize; 3] = [1, 2, 4];
const N: usize = 10_000;
/// Input size of the DTSort root leg: enough records that the root
/// distribution forks into several blocks and zone tasks.
const ROOT_N: usize = 1 << 18;

fn all_instances() -> Vec<Distribution> {
    let mut v = paper_instances();
    v.extend(bexp_instances());
    v
}

/// Runs `f` on a clone of `input` under each thread count and asserts the
/// outputs are byte-identical across counts (the 1-thread run is the
/// reference).
fn assert_thread_count_invariant<F>(input: &[(u32, u32)], ctx: &str, f: F)
where
    F: Fn(&mut Vec<(u32, u32)>) + Send + Sync + Copy,
{
    let mut reference: Option<Vec<(u32, u32)>> = None;
    for &t in &THREADS {
        let mut data = input.to_vec();
        with_threads(t, || f(&mut data));
        match &reference {
            None => reference = Some(data),
            Some(want) => {
                assert_eq!(
                    &data, want,
                    "output differs between 1 and {t} threads [{ctx}]"
                );
            }
        }
    }
}

#[test]
fn sorters_are_thread_count_invariant_across_distributions() {
    type Sorter = (&'static str, fn(&mut Vec<(u32, u32)>));
    let sorters: [Sorter; 5] = [
        ("dtsort", |d| dtsort::sort_pairs(d)),
        ("dtsort-plain", |d| {
            dtsort::sort_pairs_with(d, &dtsort::SortConfig::plain())
        }),
        ("samplesort", |d| baselines::samplesort::sort_pairs(d)),
        ("mergesort", |d| baselines::mergesort::sort_pairs(d)),
        ("par-stdsort", |d| {
            baselines::stdsort::par_stable_by_key(d, |r| r.0)
        }),
    ];
    for (di, dist) in all_instances().iter().enumerate() {
        let input = generate_pairs_u32(dist, N, 0xABCD + di as u64);
        for (name, run) in sorters {
            let ctx = format!("sorter={name} dist={}", dist.label());
            assert_thread_count_invariant(&input, &ctx, run);
        }
    }
}

#[test]
fn dtsort_root_distribution_is_thread_count_invariant() {
    for dist in [
        Distribution::Zipfian { s: 1.2 },
        Distribution::BitExponential { t: 30.0 },
    ] {
        let input = generate_pairs_u32(&dist, ROOT_N, 0x5007);
        let ctx = format!("sorter=dtsort n={ROOT_N} dist={}", dist.label());
        assert_thread_count_invariant(&input, &ctx, |d| dtsort::sort_pairs(d));
        let mut want = input.clone();
        want.sort_by_key(|r| r.0);
        let mut got = input;
        dtsort::sort_pairs(&mut got);
        assert_eq!(got, want, "[{ctx}] must match a stable sort");
    }
}

#[test]
fn semisort_is_thread_count_invariant() {
    // Both the grouped array AND the group list must be identical: group
    // order is allowed to be arbitrary, but it must be *deterministically*
    // arbitrary.
    type SemisortOutput = (Vec<(u32, u32)>, Vec<semisort::Group<u32>>);
    for (di, dist) in all_instances().iter().enumerate() {
        let input = generate_pairs_u32(dist, N, 0xBEEF + di as u64);
        let ctx = format!("dist={}", dist.label());
        let mut want: Option<SemisortOutput> = None;
        for &t in &THREADS {
            let mut data = input.clone();
            let groups = with_threads(t, || semisort::semisort_pairs(&mut data));
            match &want {
                None => want = Some((data, groups)),
                Some((wd, wg)) => {
                    assert_eq!(&data, wd, "semisorted array differs at {t} threads [{ctx}]");
                    assert_eq!(&groups, wg, "group list differs at {t} threads [{ctx}]");
                }
            }
        }
    }
}

#[test]
fn stream_sorter_is_thread_count_invariant() {
    use stream::StreamSorter;
    let picks = [
        Distribution::Uniform {
            distinct: 1_000_000_000,
        },
        Distribution::Uniform { distinct: 10 },
        Distribution::Zipfian { s: 1.2 },
        Distribution::Exponential { lambda: 7.0 },
    ];
    for (di, dist) in picks.iter().enumerate() {
        let input = generate_pairs_u32(dist, N, 0xCAFE + di as u64);
        let ctx = format!("dist={}", dist.label());
        // Exercise both finish paths: the streaming loser-tree merge and
        // the parallel materializing merge (which also loads spilled runs
        // in parallel).
        let mut want_iter: Option<Vec<(u32, u32)>> = None;
        let mut want_vec: Option<Vec<(u32, u32)>> = None;
        for &t in &THREADS {
            let (via_iter, via_vec) = with_threads(t, || {
                let mk = || {
                    let mut s: StreamSorter<u32, u32> = StreamSorter::with_config(
                        dtsort::StreamConfig::with_memory_budget(16 << 10),
                    );
                    for chunk in input.chunks(777) {
                        s.push(chunk).unwrap();
                    }
                    assert!(s.stats().spilled_runs > 1, "expected spills [{ctx}]");
                    s
                };
                let via_iter: Vec<(u32, u32)> = mk().finish().unwrap().collect();
                let via_vec = mk().finish_vec().unwrap();
                (via_iter, via_vec)
            });
            match (&want_iter, &want_vec) {
                (None, _) => {
                    assert_eq!(via_iter, via_vec, "finish paths disagree [{ctx}]");
                    want_iter = Some(via_iter);
                    want_vec = Some(via_vec);
                }
                (Some(wi), Some(wv)) => {
                    assert_eq!(&via_iter, wi, "stream iter differs at {t} threads [{ctx}]");
                    assert_eq!(&via_vec, wv, "stream vec differs at {t} threads [{ctx}]");
                }
                _ => unreachable!(),
            }
        }
    }
}

#[test]
fn group_by_aggregation_is_thread_count_invariant() {
    use stream::{StreamGroupBy, SumAgg};
    let input = generate_pairs_u32(&Distribution::Zipfian { s: 1.0 }, N, 0xF00D);
    let mut want: Option<Vec<(u32, u64)>> = None;
    for &t in &THREADS {
        let got = with_threads(t, || {
            let mut g: StreamGroupBy<u32, SumAgg> = StreamGroupBy::with_config(
                SumAgg,
                dtsort::StreamConfig::with_memory_budget(16 << 10),
            );
            for chunk in input.chunks(997) {
                let lifted: Vec<(u32, u64)> = chunk.iter().map(|&(k, v)| (k, v as u64)).collect();
                g.push(&lifted).unwrap();
            }
            g.finish_vec().unwrap()
        });
        match &want {
            None => want = Some(got),
            Some(w) => assert_eq!(&got, w, "group-by differs at {t} threads"),
        }
    }
}

#[test]
fn varlen_stream_sort_and_group_by_are_thread_count_invariant() {
    use stream::{FirstAgg, StreamGroupBy, StreamSorter};
    use workloads::generate_string_pairs;
    // Variable-length values route through the tag-sort + permutation and
    // tag-merge + gather paths, both of which fan out across the pool; the
    // output (keys AND payload bytes) must still be byte-identical at
    // every thread count.
    let picks = [
        Distribution::Uniform {
            distinct: 1_000_000_000,
        },
        Distribution::Zipfian { s: 1.2 },
    ];
    for (di, dist) in picks.iter().enumerate() {
        let input = generate_string_pairs(dist, N, 32, 0xD00D + di as u64, 0, 96);
        let ctx = format!("dist={}", dist.label());
        let mut want_sort: Option<Vec<(u64, String)>> = None;
        let mut want_vec: Option<Vec<(u64, String)>> = None;
        let mut want_dedup: Option<Vec<(u64, String)>> = None;
        for &t in &THREADS {
            let (via_iter, via_vec, dedup) = with_threads(t, || {
                let mk = || {
                    let mut s: StreamSorter<u64, String> = StreamSorter::with_config(
                        dtsort::StreamConfig::with_memory_budget(64 << 10),
                    );
                    for chunk in input.chunks(777) {
                        s.push(chunk).unwrap();
                    }
                    assert!(s.stats().spilled_runs > 1, "expected spills [{ctx}]");
                    s
                };
                let via_iter: Vec<(u64, String)> = mk().finish().unwrap().collect();
                let via_vec = mk().finish_vec().unwrap();
                let mut g: StreamGroupBy<u64, FirstAgg<String>> = StreamGroupBy::with_config(
                    FirstAgg::new(),
                    dtsort::StreamConfig::with_memory_budget(64 << 10),
                );
                for chunk in input.chunks(777) {
                    g.push(chunk).unwrap();
                }
                (via_iter, via_vec, g.finish_vec().unwrap())
            });
            match (&want_sort, &want_vec, &want_dedup) {
                (None, _, _) => {
                    assert_eq!(via_iter, via_vec, "varlen finish paths disagree [{ctx}]");
                    want_sort = Some(via_iter);
                    want_vec = Some(via_vec);
                    want_dedup = Some(dedup);
                }
                (Some(ws), Some(wv), Some(wd)) => {
                    assert_eq!(&via_iter, ws, "varlen sort differs at {t} threads [{ctx}]");
                    assert_eq!(&via_vec, wv, "varlen vec differs at {t} threads [{ctx}]");
                    assert_eq!(&dedup, wd, "varlen dedup differs at {t} threads [{ctx}]");
                }
                _ => unreachable!(),
            }
        }
    }
}

#[test]
fn compressed_spills_are_thread_count_invariant() {
    // The delta-compressed block format through both finish paths: block
    // encoding/decoding must be a pure function of the run contents, so
    // the bytes coming back off disk — and the merged output — cannot
    // depend on the worker count that sorted the runs.
    use stream::{SpillCompression, StreamSorter};
    use workloads::generate_string_pairs;
    let dist = Distribution::Zipfian { s: 1.2 };
    let input = generate_string_pairs(&dist, N, 32, 0xC0DE, 0, 96);
    let cfg = || dtsort::StreamConfig {
        spill_compression: SpillCompression::DeltaLz,
        ..dtsort::StreamConfig::with_memory_budget(64 << 10)
    };
    let mut want_iter: Option<Vec<(u64, String)>> = None;
    let mut want_vec: Option<Vec<(u64, String)>> = None;
    for &t in &THREADS {
        let (via_iter, via_vec) = with_threads(t, || {
            let mk = || {
                let mut s: StreamSorter<u64, String> = StreamSorter::with_config(cfg());
                for chunk in input.chunks(777) {
                    s.push(chunk).unwrap();
                }
                let stats = s.stats();
                assert!(stats.spilled_runs > 1, "expected spills");
                assert!(
                    stats.spilled_bytes < stats.spilled_raw_bytes,
                    "compression must engage"
                );
                s
            };
            let via_iter: Vec<(u64, String)> = mk().finish().unwrap().collect();
            let via_vec = mk().finish_vec().unwrap();
            (via_iter, via_vec)
        });
        match (&want_iter, &want_vec) {
            (None, _) => {
                assert_eq!(via_iter, via_vec, "compressed finish paths disagree");
                want_iter = Some(via_iter);
                want_vec = Some(via_vec);
            }
            (Some(wi), Some(wv)) => {
                assert_eq!(&via_iter, wi, "compressed iter differs at {t} threads");
                assert_eq!(&via_vec, wv, "compressed vec differs at {t} threads");
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn string_keyed_streams_are_thread_count_invariant() {
    // String keys add two schedule-sensitive-looking stages — the
    // equal-prefix tie-break re-sort and the tag-merge over full keys —
    // and both must stay pure functions of the input.  Run under both
    // spill encodings so the compressed block path is covered too.
    use stream::{CountAgg, SpillCompression, StringStreamGroupBy, StringStreamSorter};
    let raw = generate_pairs_u32(&Distribution::Zipfian { s: 1.0 }, N, 0x5EED);
    let input: Vec<(String, u32)> = raw
        .iter()
        .enumerate()
        .map(|(i, &(k, _))| {
            (
                format!("t{:02}/shard-{:06}/item", k % 7, k % 4096),
                i as u32,
            )
        })
        .collect();
    for compression in [SpillCompression::Off, SpillCompression::DeltaLz] {
        let cfg = || dtsort::StreamConfig {
            spill_compression: compression,
            ..dtsort::StreamConfig::with_memory_budget(64 << 10)
        };
        let mut want_sort: Option<Vec<(String, u32)>> = None;
        let mut want_counts: Option<Vec<(String, u64)>> = None;
        for &t in &THREADS {
            let ctx = format!("compression={compression:?}");
            let (sorted, counts) = with_threads(t, || {
                let mut s: StringStreamSorter<String, u32> = StringStreamSorter::with_config(cfg());
                for chunk in input.chunks(777) {
                    s.push(chunk).unwrap();
                }
                assert!(s.stats().spilled_runs > 1, "expected spills [{ctx}]");
                let sorted: Vec<(String, u32)> = s.finish().unwrap().collect();
                let mut g: StringStreamGroupBy<String, CountAgg> =
                    StringStreamGroupBy::with_config(CountAgg, cfg());
                for (k, _) in &input {
                    g.push_record(k.clone(), ()).unwrap();
                }
                (sorted, g.finish_vec().unwrap())
            });
            match (&want_sort, &want_counts) {
                (None, _) => {
                    want_sort = Some(sorted);
                    want_counts = Some(counts);
                }
                (Some(ws), Some(wc)) => {
                    assert_eq!(&sorted, ws, "string sort differs at {t} threads [{ctx}]");
                    assert_eq!(&counts, wc, "string counts differ at {t} threads [{ctx}]");
                }
                _ => unreachable!(),
            }
        }
    }
}
