//! Edge-case coverage for the k-way merge (`parlay::kway`) and the
//! streaming crate: empty runs, single runs, all-equal keys, extreme keys,
//! colliding string-key prefixes, batch size 1, degenerate memory budgets,
//! and corrupted spill files.  The module tests of those crates cover the
//! well-formed multi-run cases; everything here is a boundary the merge or
//! the spill machinery could plausibly get wrong.

use parlay::kway::{ByKey, LoserTree, MergeOrder, SliceSource};
use stream::{CountAgg, StreamGroupBy, StreamSorter, StringStreamSorter};

fn by_u64() -> ByKey<fn(&u64) -> u64> {
    ByKey(|&x| x)
}

/// Drains a loser tree over `runs` (ties favour the earlier run).
fn merge_runs<T: Copy>(runs: &[&[T]], order: impl MergeOrder<T>) -> Vec<T> {
    let sources: Vec<SliceSource<'_, T>> = runs.iter().map(|r| SliceSource::new(r)).collect();
    LoserTree::new(sources, order).collect()
}

// ---------------------------------------------------------------------------
// parlay::kway
// ---------------------------------------------------------------------------

#[test]
fn kway_all_runs_empty() {
    let empty: &[u64] = &[];
    let runs: Vec<&[u64]> = vec![empty; 7];
    assert!(merge_runs(&runs, by_u64()).is_empty());
}

#[test]
fn kway_single_run_is_identity() {
    let run: Vec<u64> = (0..5000).map(|i| i * 3).collect();
    let got = merge_runs(&[run.as_slice()], by_u64());
    assert_eq!(got, run);
}

#[test]
fn kway_empty_runs_interleaved_with_data() {
    let empty: &[u64] = &[];
    let a = [1u64, 4, 9];
    let b = [2u64, 3];
    let runs: Vec<&[u64]> = vec![empty, &a, empty, empty, &b, empty];
    assert_eq!(merge_runs(&runs, by_u64()), vec![1, 2, 3, 4, 9]);
}

#[test]
fn kway_all_equal_keys_is_stable_across_runs() {
    // Every record has the same key; the merge must emit run 0's records
    // first, then run 1's, ... — each in input order.  33 runs pad the
    // tree to 64 leaves.
    for k in [6, 33] {
        let per = 3000usize;
        let runs: Vec<Vec<(u32, u32)>> = (0..k)
            .map(|r| (0..per).map(|i| (7u32, (r * per + i) as u32)).collect())
            .collect();
        let slices: Vec<&[(u32, u32)]> = runs.iter().map(|v| v.as_slice()).collect();
        let got = merge_runs(&slices, ByKey(|r: &(u32, u32)| u64::from(r.0)));
        let want: Vec<(u32, u32)> = (0..k * per).map(|i| (7u32, i as u32)).collect();
        assert_eq!(got, want, "k = {k}");
    }
}

#[test]
fn kway_runs_of_length_one() {
    let singles: Vec<Vec<u64>> = vec![vec![5], vec![1], vec![9], vec![1], vec![0]];
    let slices: Vec<&[u64]> = singles.iter().map(|v| v.as_slice()).collect();
    assert_eq!(merge_runs(&slices, by_u64()), vec![0, 1, 1, 5, 9]);
}

#[test]
fn loser_tree_all_sources_empty() {
    let empty: [u64; 0] = [];
    let sources: Vec<SliceSource<'_, u64>> = (0..5).map(|_| SliceSource::new(&empty[..])).collect();
    let mut tree = LoserTree::new(sources, by_u64());
    assert_eq!(tree.pop(), None);
    assert_eq!(tree.pop(), None, "pop after exhaustion must stay None");
}

#[test]
fn loser_tree_non_power_of_two_source_count() {
    // 5 sources exercises the phantom-leaf padding to 8.
    let runs: Vec<Vec<u64>> = (0..5u64)
        .map(|r| (0..100).map(|i| i * 5 + r).collect())
        .collect();
    let sources: Vec<SliceSource<'_, u64>> = runs
        .iter()
        .map(|v| SliceSource::new(v.as_slice()))
        .collect();
    let tree = LoserTree::new(sources, by_u64());
    let got: Vec<u64> = tree.collect();
    assert_eq!(got, (0..500).collect::<Vec<u64>>());
}

// ---------------------------------------------------------------------------
// stream::StreamSorter
// ---------------------------------------------------------------------------

fn tiny_budget_cfg(budget: usize) -> dtsort::StreamConfig {
    dtsort::StreamConfig::with_memory_budget(budget)
}

#[test]
fn stream_batch_size_one_everywhere() {
    // Push a record at a time into a budget small enough to spill often.
    let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config(tiny_budget_cfg(1 << 10));
    let n = 5000u32;
    for i in 0..n {
        sorter
            .push_record(i.wrapping_mul(2_654_435_761) % 1000, i)
            .unwrap();
    }
    assert!(sorter.stats().spilled_runs > 1);
    let got: Vec<(u32, u32)> = sorter.finish().unwrap().collect();
    assert_eq!(got.len(), n as usize);
    assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
    // Stability: equal keys keep push order.
    assert!(got.windows(2).all(|w| w[0].0 < w[1].0 || w[0].1 < w[1].1));
}

#[test]
fn stream_budget_of_exactly_one_record() {
    // A budget of one record's bytes is degenerate; the sorter must clamp
    // to a workable run size and still sort correctly.
    let record_bytes = std::mem::size_of::<(u64, u64)>();
    let mut sorter: StreamSorter<u64, u64> =
        StreamSorter::with_config(tiny_budget_cfg(record_bytes));
    let n = 1000u64;
    for i in 0..n {
        sorter.push_record(n - i, i).unwrap();
    }
    assert!(
        sorter.stats().spilled_runs > 0,
        "degenerate budget must spill"
    );
    let got = sorter.finish_vec().unwrap();
    assert_eq!(got.len(), n as usize);
    assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
}

#[test]
fn stream_all_equal_keys_is_stable_across_spills() {
    let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config(tiny_budget_cfg(1 << 10));
    let n = 8000u32;
    for i in 0..n {
        sorter.push_record(42, i).unwrap();
    }
    assert!(sorter.stats().spilled_runs > 1);
    let got: Vec<(u32, u32)> = sorter.finish().unwrap().collect();
    let want: Vec<(u32, u32)> = (0..n).map(|i| (42, i)).collect();
    assert_eq!(got, want, "all-equal stream must come back in push order");
}

#[test]
fn stream_empty_batches_are_harmless() {
    let mut sorter: StreamSorter<u32, u32> = StreamSorter::new();
    sorter.push(&[]).unwrap();
    sorter.push(&[(3, 0), (1, 1)]).unwrap();
    sorter.push(&[]).unwrap();
    assert_eq!(sorter.len(), 2);
    let got = sorter.finish_vec().unwrap();
    assert_eq!(got, vec![(1, 1), (3, 0)]);
}

#[test]
fn stream_single_record_and_empty_finish_vec() {
    let sorter: StreamSorter<u64, ()> = StreamSorter::new();
    assert!(sorter.finish_vec().unwrap().is_empty());

    let mut one: StreamSorter<u64, ()> = StreamSorter::new();
    one.push_record(9, ()).unwrap();
    assert_eq!(one.finish_vec().unwrap(), vec![(9, ())]);
}

#[test]
fn stream_extreme_i64_keys_survive_the_merge() {
    // `i64::MAX` maps to the ordered key `u64::MAX` and `i64::MIN` to 0:
    // both must merge like any other key, ahead of the exhausted runs,
    // across many spilled runs.
    let mut sorter: StreamSorter<i64, u32> = StreamSorter::with_config(tiny_budget_cfg(1 << 10));
    let keys = [i64::MAX, i64::MIN, 0, i64::MAX, -1, i64::MIN, 1];
    let n = 3000u32;
    for i in 0..n {
        sorter
            .push_record(keys[i as usize % keys.len()], i)
            .unwrap();
    }
    assert!(sorter.stats().spilled_runs > 2);
    let got = sorter.finish_vec().unwrap();
    let mut want: Vec<(i64, u32)> = (0..n).map(|i| (keys[i as usize % keys.len()], i)).collect();
    want.sort_by_key(|r| r.0);
    assert_eq!(got, want);
}

#[test]
fn stream_string_keys_with_colliding_prefixes_merge_in_full_key_order() {
    // Every key shares its 8-byte prefix with others ("collide-" + one of
    // a few suffixes), so across runs the merge can only order them by
    // the full key bytes; equal full keys must keep push order.
    let mut sorter: StringStreamSorter<String, u32> =
        StringStreamSorter::with_config(tiny_budget_cfg(4 << 10));
    let suffixes = ["b", "a", "ab", "", "c", "aa"];
    let prefixes = ["collide-", "collidf-"];
    let n = 3000u32;
    let key = |i: u32| {
        let i = i as usize;
        format!(
            "{}{}",
            prefixes[i / 7 % 2],
            suffixes[(i * 5) % suffixes.len()]
        )
    };
    for i in 0..n {
        sorter.push_record(key(i), i).unwrap();
    }
    assert!(sorter.stats().spilled_runs > 2);
    let got: Vec<(String, u32)> = sorter.finish().unwrap().collect();
    let mut want: Vec<(String, u32)> = (0..n).map(|i| (key(i), i)).collect();
    want.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(got, want);
}

// ---------------------------------------------------------------------------
// stream::StreamGroupBy edge cases
// ---------------------------------------------------------------------------

#[test]
fn group_by_batch_size_one_and_all_equal() {
    let mut gb: StreamGroupBy<u32, CountAgg> =
        StreamGroupBy::with_config(CountAgg, tiny_budget_cfg(1 << 10));
    for _ in 0..5000 {
        gb.push_record(7, ()).unwrap();
    }
    // Spill counters are reconciled with the background writer lazily;
    // flushing makes them exact before comparing.
    gb.flush_spills().unwrap();
    assert!(gb.stats().spilled_runs > 1);
    // Every spilled run collapses the all-equal buffer to one partial.
    assert_eq!(
        gb.stats().partial_aggregates,
        gb.stats().spilled_runs as u64
    );
    let got = gb.finish_vec().unwrap();
    assert_eq!(got, vec![(7, 5000)]);
}

// ---------------------------------------------------------------------------
// Spill robustness through the public API: a truncated run file must
// surface as an io::Error from finish()/finish_vec(), never as a shorter
// (or panicking) output.
// ---------------------------------------------------------------------------

/// Builds a spilled sorter over `base`, truncating the first run file by
/// `cut_bytes` before finishing.
fn truncated_sorter(base: &std::path::Path, cut_bytes: u64) -> StreamSorter<u32, u32> {
    let cfg = dtsort::StreamConfig {
        spill_dir: Some(base.to_path_buf()),
        ..tiny_budget_cfg(1 << 10)
    };
    let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config(cfg);
    for i in 0..4000u32 {
        sorter.push_record(i % 97, i).unwrap();
    }
    assert!(sorter.stats().spilled_runs > 1);
    // Find one spilled run file under the sorter's unique subdirectory.
    let run_file = std::fs::read_dir(base)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .flat_map(|d| std::fs::read_dir(d.path()).unwrap().filter_map(|e| e.ok()))
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "bin"))
        .expect("a spilled run file must exist");
    let len = std::fs::metadata(&run_file).unwrap().len();
    assert!(len > cut_bytes);
    let f = std::fs::File::options()
        .write(true)
        .open(&run_file)
        .unwrap();
    f.set_len(len - cut_bytes).unwrap();
    sorter
}

#[test]
fn truncated_spill_file_fails_streaming_finish() {
    let base = std::env::temp_dir().join(format!("pisort-trunc-a-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    // Truncate mid-record (5 bytes) — must be an error, not a short stream.
    let err = match truncated_sorter(&base, 5).finish() {
        Err(e) => e,
        Ok(stream) => panic!(
            "finish() must fail on a truncated run, got a stream of {} records",
            stream.count()
        ),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn truncated_spill_file_fails_materializing_finish() {
    let base = std::env::temp_dir().join(format!("pisort-trunc-b-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    // Truncate exactly one whole record — the subtler case: every read of
    // the shortened file would still succeed until the count runs out.
    let record = std::mem::size_of::<u64>() as u64 + std::mem::size_of::<u32>() as u64;
    let err = truncated_sorter(&base, record)
        .finish_vec()
        .expect_err("finish_vec() must fail on a truncated run");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    std::fs::remove_dir_all(&base).ok();
}
