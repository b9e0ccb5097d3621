//! Differential testing harness: every sorter against every distribution.
//!
//! A seeded generator sweeps all synthetic distributions of the paper's
//! evaluation (`workloads::dist`) across every registered sorter — the
//! seven baselines, DovetailSort (default and "Plain"), and the semisort
//! engine — and asserts pairwise agreement on the output:
//!
//! * stable sorters must produce the *identical* stable permutation;
//! * unstable sorters must produce the same key sequence and a permutation
//!   of the input records;
//! * semisort must produce the same grouped partition (same distinct keys,
//!   same per-key record multisets, input order within each group).
//!
//! Every case is generated from a deterministic seed derived from the
//! distribution index, and the seed is part of every assertion message, so
//! a failure is reproducible from the log alone.

use workloads::dist::{bexp_instances, generate_pairs_u32, paper_instances, Distribution};

/// One registered sorter of the differential matrix.
struct NamedSorter {
    name: &'static str,
    stable: bool,
    run: fn(&mut [(u32, u32)]),
}

fn registered_sorters() -> Vec<NamedSorter> {
    fn dtsort_default(d: &mut [(u32, u32)]) {
        dtsort::sort_pairs(d);
    }
    fn dtsort_plain(d: &mut [(u32, u32)]) {
        dtsort::sort_pairs_with(d, &dtsort::SortConfig::plain());
    }
    fn plis(d: &mut [(u32, u32)]) {
        baselines::plis::sort_pairs(d);
    }
    fn lsd(d: &mut [(u32, u32)]) {
        baselines::lsd::sort_pairs(d);
    }
    fn samplesort(d: &mut [(u32, u32)]) {
        baselines::samplesort::sort_pairs(d);
    }
    fn mergesort(d: &mut [(u32, u32)]) {
        baselines::mergesort::sort_pairs(d);
    }
    fn quicksort(d: &mut [(u32, u32)]) {
        baselines::quicksort::sort_pairs(d);
    }
    fn inplace_radix(d: &mut [(u32, u32)]) {
        baselines::inplace_radix::sort_pairs(d);
    }
    fn par_std(d: &mut [(u32, u32)]) {
        baselines::stdsort::par_unstable_by_key(d, |r| r.0);
    }
    vec![
        NamedSorter {
            name: "dtsort",
            stable: true,
            run: dtsort_default,
        },
        NamedSorter {
            name: "dtsort-plain",
            stable: true,
            run: dtsort_plain,
        },
        NamedSorter {
            name: "plis",
            stable: true,
            run: plis,
        },
        NamedSorter {
            name: "lsd",
            stable: true,
            run: lsd,
        },
        NamedSorter {
            name: "samplesort",
            stable: true,
            run: samplesort,
        },
        NamedSorter {
            name: "mergesort",
            stable: true,
            run: mergesort,
        },
        NamedSorter {
            name: "quicksort",
            stable: false,
            run: quicksort,
        },
        NamedSorter {
            name: "inplace-radix",
            stable: false,
            run: inplace_radix,
        },
        NamedSorter {
            name: "par-stdsort",
            stable: false,
            run: par_std,
        },
    ]
}

fn all_instances() -> Vec<Distribution> {
    let mut v = paper_instances();
    v.extend(bexp_instances());
    v
}

const N: usize = 10_000;

/// Derives the deterministic generator seed of one (distribution, sweep)
/// case; logged on every failure for standalone reproduction.
fn case_seed(dist_index: usize) -> u64 {
    0xD1FF_0000 + dist_index as u64
}

#[test]
fn all_sorters_agree_on_all_distributions() {
    let sorters = registered_sorters();
    for (di, dist) in all_instances().iter().enumerate() {
        let seed = case_seed(di);
        let input = generate_pairs_u32(dist, N, seed);
        // The reference stable permutation, from the std library sort.
        let mut want_stable = input.clone();
        want_stable.sort_by_key(|r| r.0);
        let want_keys: Vec<u32> = want_stable.iter().map(|r| r.0).collect();
        // The reference record multiset (input order irrelevant).
        let mut want_perm = input.clone();
        want_perm.sort_unstable();

        for s in &sorters {
            let ctx = format!("sorter={} dist={} seed={seed} n={N}", s.name, dist.label());
            let mut got = input.clone();
            (s.run)(&mut got);
            if s.stable {
                assert_eq!(got, want_stable, "stable permutation mismatch [{ctx}]");
            } else {
                let keys: Vec<u32> = got.iter().map(|r| r.0).collect();
                assert_eq!(keys, want_keys, "key sequence mismatch [{ctx}]");
                got.sort_unstable();
                assert_eq!(got, want_perm, "not a permutation of the input [{ctx}]");
            }
        }
    }
}

#[test]
fn semisort_partition_agrees_with_sorted_reference() {
    use std::collections::HashMap;
    for (di, dist) in all_instances().iter().enumerate() {
        let seed = case_seed(di);
        let input = generate_pairs_u32(dist, N, seed);
        let ctx = format!("dist={} seed={seed} n={N}", dist.label());

        // Reference: per-key value sequences in input order, from the
        // stable sort every stable sorter above agreed on.
        let mut sorted = input.clone();
        sorted.sort_by_key(|r| r.0);
        let mut want: HashMap<u32, Vec<u32>> = HashMap::new();
        for &(k, v) in &sorted {
            want.entry(k).or_default().push(v);
        }

        let mut grouped = input.clone();
        let groups = semisort::semisort_pairs(&mut grouped);
        assert_eq!(groups.len(), want.len(), "distinct key count [{ctx}]");
        let mut covered = 0usize;
        for g in &groups {
            let vals: Vec<u32> = grouped[g.start..g.end]
                .iter()
                .map(|&(k, v)| {
                    assert_eq!(k, g.key, "impure group [{ctx}]");
                    v
                })
                .collect();
            assert_eq!(
                Some(&vals),
                want.get(&g.key),
                "group content/order mismatch for key {} [{ctx}]",
                g.key
            );
            covered += g.len();
        }
        assert_eq!(covered, N, "groups must partition the input [{ctx}]");
    }
}

/// The spill encodings of the format matrix: the flat reference and
/// delta-compressed blocks.
const SPILL_ENCODINGS: [stream::SpillCompression; 2] = [
    stream::SpillCompression::Off,
    stream::SpillCompression::DeltaLz,
];

fn spill_cfg(budget: usize, compression: stream::SpillCompression) -> dtsort::StreamConfig {
    dtsort::StreamConfig {
        spill_compression: compression,
        ..dtsort::StreamConfig::with_memory_budget(budget)
    }
}

#[test]
fn compressed_spills_are_byte_identical_to_uncompressed_pod() {
    // Pod records through both encodings must reproduce the std-sort
    // reference exactly; the uncompressed run is the differential
    // baseline the compressed block format is held to.
    use stream::{SpillCompression, StreamSorter};
    let picks = [
        Distribution::Uniform {
            distinct: 1_000_000_000,
        },
        Distribution::Uniform { distinct: 10 },
        Distribution::Zipfian { s: 1.2 },
    ];
    for (di, dist) in picks.iter().enumerate() {
        let seed = case_seed(2000 + di);
        let input = generate_pairs_u32(dist, N, seed);
        let mut want = input.clone();
        want.sort_by_key(|r| r.0);
        for compression in SPILL_ENCODINGS {
            let ctx = format!(
                "dist={} seed={seed} compression={compression:?}",
                dist.label()
            );
            let mut sorter: StreamSorter<u32, u32> =
                StreamSorter::with_config(spill_cfg(16 << 10, compression));
            for chunk in input.chunks(777) {
                sorter.push(chunk).unwrap();
            }
            assert!(sorter.stats().spilled_runs > 1, "expected spills [{ctx}]");
            if compression == SpillCompression::DeltaLz {
                let stats = sorter.stats();
                assert!(
                    stats.spilled_bytes < stats.spilled_raw_bytes,
                    "delta blocks must shrink sorted pod runs: {} !< {} [{ctx}]",
                    stats.spilled_bytes,
                    stats.spilled_raw_bytes,
                );
            }
            let got: Vec<(u32, u32)> = sorter.finish().unwrap().collect();
            assert_eq!(got, want, "spill format divergence [{ctx}]");
        }
    }
}

#[test]
fn compressed_spills_are_byte_identical_to_uncompressed_varlen() {
    // Variable-length values: payload bytes (not just keys) must survive
    // the block framing and LZ round trip bit-for-bit, through both the
    // streaming loser-tree merge and the materializing parallel merge.
    use stream::{SpillCompression, StreamSorter};
    use workloads::generate_string_pairs;
    let dist = Distribution::Zipfian { s: 1.2 };
    let seed = case_seed(3000);
    let input = generate_string_pairs(&dist, N, 32, seed, 0, 96);
    let mut want = input.clone();
    want.sort_by_key(|r| r.0);
    for compression in SPILL_ENCODINGS {
        let ctx = format!("compression={compression:?} seed={seed}");
        let mk = || {
            let mut sorter: StreamSorter<u64, String> =
                StreamSorter::with_config(spill_cfg(64 << 10, compression));
            for chunk in input.chunks(777) {
                sorter.push(chunk).unwrap();
            }
            assert!(sorter.stats().spilled_runs > 1, "expected spills [{ctx}]");
            sorter
        };
        let sorter = mk();
        if compression == SpillCompression::DeltaLz {
            let stats = sorter.stats();
            assert!(
                stats.spilled_bytes < stats.spilled_raw_bytes,
                "ASCII payloads must compress: {} !< {} [{ctx}]",
                stats.spilled_bytes,
                stats.spilled_raw_bytes,
            );
        }
        let via_iter: Vec<(u64, String)> = sorter.finish().unwrap().collect();
        assert_eq!(via_iter, want, "varlen spill format divergence [{ctx}]");
        let via_vec = mk().finish_vec().unwrap();
        assert_eq!(via_vec, want, "varlen finish_vec divergence [{ctx}]");
    }
}

#[test]
fn string_keyed_sorter_agrees_with_comparison_sort_across_formats() {
    // String keys ride the u64 merge domain as 8-byte prefixes with
    // full-key tie-breaks; the output must be the exact stable
    // lexicographic permutation under every spill format.  Keys share
    // long prefixes so both the tie-break and the delta encoder are
    // genuinely exercised.
    use stream::StringStreamSorter;
    let seed = case_seed(4000);
    let key_dist = Distribution::Zipfian { s: 1.0 };
    let raw = generate_pairs_u32(&key_dist, N, seed);
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
    let mut want = input.clone();
    want.sort_by(|a, b| a.0.cmp(&b.0));
    for compression in SPILL_ENCODINGS {
        let ctx = format!("compression={compression:?} seed={seed}");
        let mut sorter: StringStreamSorter<String, u32> =
            StringStreamSorter::with_config(spill_cfg(64 << 10, compression));
        for chunk in input.chunks(777) {
            sorter.push(chunk).unwrap();
        }
        assert!(sorter.stats().spilled_runs > 1, "expected spills [{ctx}]");
        let got: Vec<(String, u32)> = sorter.finish().unwrap().collect();
        assert_eq!(got, want, "string-key spill format divergence [{ctx}]");
    }
}

#[test]
fn spill_io_backends_produce_identical_output_at_one_and_four_threads() {
    // The batched spill I/O backend is held to the blocking reference the
    // way the compressed format is held to the flat one: pod, varlen and
    // string-keyed records through both encodings must come out
    // *identical* under both backends, and the pod records equal to the
    // std stable sort, at 1 and 4 worker
    // threads.  Both sides pin `spill_io` explicitly so a CI environment
    // override (`PISORT_SPILL_IO`) cannot collapse the comparison.
    use parlay::par::with_threads;
    use stream::{SpillIoMode, StreamSorter, StringStreamSorter};
    use workloads::generate_string_pairs;
    let seed = case_seed(5000);
    let dist = Distribution::Zipfian { s: 1.2 };
    let pod_input = generate_pairs_u32(&dist, N, seed);
    let mut pod_want = pod_input.clone();
    pod_want.sort_by_key(|r| r.0);
    let var_input = generate_string_pairs(&dist, N, 32, seed, 0, 96);
    let str_input: Vec<(String, u32)> = pod_input
        .iter()
        .enumerate()
        .map(|(i, &(k, _))| {
            (
                format!("t{:02}/shard-{:06}/item", k % 7, k % 4096),
                i as u32,
            )
        })
        .collect();

    let io_cfg = |mode, compression| dtsort::StreamConfig {
        spill_io: mode,
        ..spill_cfg(32 << 10, compression)
    };

    for threads in [1usize, 4] {
        for compression in SPILL_ENCODINGS {
            let ctx = format!("threads={threads} compression={compression:?} seed={seed}");
            with_threads(threads, || {
                let run_pod = |mode| {
                    let mut s: StreamSorter<u32, u32> =
                        StreamSorter::with_config(io_cfg(mode, compression));
                    for chunk in pod_input.chunks(777) {
                        s.push(chunk).unwrap();
                    }
                    assert!(s.stats().spilled_runs > 1, "expected spills [{ctx}]");
                    s.finish().unwrap().collect::<Vec<(u32, u32)>>()
                };
                let blocking = run_pod(SpillIoMode::Blocking);
                assert_eq!(blocking, pod_want, "pod reference divergence [{ctx}]");
                assert_eq!(
                    blocking,
                    run_pod(SpillIoMode::Batched),
                    "pod backend divergence [{ctx}]"
                );

                let run_var = |mode| {
                    let mut s: StreamSorter<u64, String> =
                        StreamSorter::with_config(io_cfg(mode, compression));
                    for chunk in var_input.chunks(777) {
                        s.push(chunk).unwrap();
                    }
                    assert!(s.stats().spilled_runs > 1, "expected spills [{ctx}]");
                    s.finish().unwrap().collect::<Vec<(u64, String)>>()
                };
                assert_eq!(
                    run_var(SpillIoMode::Blocking),
                    run_var(SpillIoMode::Batched),
                    "varlen backend divergence [{ctx}]"
                );

                let run_str = |mode| {
                    let mut s: StringStreamSorter<String, u32> =
                        StringStreamSorter::with_config(io_cfg(mode, compression));
                    for chunk in str_input.chunks(777) {
                        s.push(chunk).unwrap();
                    }
                    assert!(s.stats().spilled_runs > 1, "expected spills [{ctx}]");
                    s.finish().unwrap().collect::<Vec<(String, u32)>>()
                };
                assert_eq!(
                    run_str(SpillIoMode::Blocking),
                    run_str(SpillIoMode::Batched),
                    "string-key backend divergence [{ctx}]"
                );
            });
        }
    }
}

#[test]
fn streaming_sorter_agrees_with_in_memory_sort() {
    // The streaming path (spilled runs + k-way merge) against the same
    // reference, on the heaviest and lightest instance of each family.
    use stream::StreamSorter;
    let picks = [
        Distribution::Uniform {
            distinct: 1_000_000_000,
        },
        Distribution::Uniform { distinct: 10 },
        Distribution::Zipfian { s: 1.5 },
        Distribution::Exponential { lambda: 10.0 },
        Distribution::BitExponential { t: 300.0 },
    ];
    for (di, dist) in picks.iter().enumerate() {
        let seed = case_seed(1000 + di);
        let input = generate_pairs_u32(dist, N, seed);
        let ctx = format!("dist={} seed={seed} n={N}", dist.label());
        let mut want = input.clone();
        want.sort_by_key(|r| r.0);

        let mut sorter: StreamSorter<u32, u32> =
            StreamSorter::with_config(dtsort::StreamConfig::with_memory_budget(16 << 10));
        for chunk in input.chunks(777) {
            sorter.push(chunk).unwrap();
        }
        assert!(sorter.stats().spilled_runs > 1, "expected spills [{ctx}]");
        let got: Vec<(u32, u32)> = sorter.finish().unwrap().collect();
        assert_eq!(got, want, "stream/in-memory divergence [{ctx}]");
    }
}
