//! Stable blocked parallel counting sort (paper Section 2.4 / Appendix B).
//!
//! This is the *distribution* primitive used by every MSD integer sort in the
//! paper, including DovetailSort's Step 2.  The input is split into blocks;
//! each block counts how many of its records fall into each bucket (the
//! *counting matrix*), a column-major exclusive scan over the matrix yields
//! the scatter offset of every (block, bucket) pair, and a final parallel
//! pass scatters every record to its destination.  Because blocks are
//! processed in input order and each block scatters its records in input
//! order, the sort is stable.
//!
//! Work `O(n + B·b)` where `B` is the number of blocks and `b` the number of
//! buckets; span `O(b + log n)` — exactly the bounds quoted in the paper.
//! Blocks hold at least [`MIN_TASK_WORK`] records each, so both block
//! passes fork one task per block and inputs of at most that size run
//! sequentially.
//!
//! **Classify once.**  [`counting_sort_by`] evaluates `key` twice per
//! record, once to count and once to scatter, which is right for keys that
//! are a shift and a mask.  When the bucket id is expensive (DovetailSort's
//! `GetBucketID` probes a heavy-key hash table),
//! [`counting_sort_with_ids`] evaluates it once: the counting pass stores
//! each record's id in a caller-provided `u16` slice and the scatter pass
//! reads it back, at a cost of `2·n` bytes of id storage.  Both entry
//! points run the same pass loops.

use crate::par::{parallel_for_grained, MIN_TASK_WORK};
use crate::slice::UnsafeSliceCell;

/// Largest bucket count whose ids fit the `u16` slice of
/// [`counting_sort_with_ids`].
pub const MAX_ID_BUCKETS: usize = 1 << 16;

/// Result of planning a counting sort: block layout plus bucket boundaries.
#[derive(Debug, Clone)]
pub struct CountingSortPlan {
    /// Exclusive prefix of bucket sizes; `bucket_offsets[k]..bucket_offsets[k+1]`
    /// is the range of bucket `k` in the output.  Length `num_buckets + 1`.
    pub bucket_offsets: Vec<usize>,
}

impl CountingSortPlan {
    /// Number of buckets in the plan.
    pub fn num_buckets(&self) -> usize {
        self.bucket_offsets.len().saturating_sub(1)
    }

    /// The half-open output range of bucket `k`.
    pub fn bucket_range(&self, k: usize) -> std::ops::Range<usize> {
        self.bucket_offsets[k]..self.bucket_offsets[k + 1]
    }

    /// Size of bucket `k`.
    pub fn bucket_len(&self, k: usize) -> usize {
        self.bucket_offsets[k + 1] - self.bucket_offsets[k]
    }
}

/// Chooses the number of blocks for an input of `n` records and `b` buckets
/// on a pool of `threads` workers.
///
/// Following Appendix B, we keep the counting matrix (`blocks × buckets`
/// machine words) small enough to stay cache-resident while still exposing
/// enough blocks for load balancing across the available threads.
fn choose_num_blocks(n: usize, num_buckets: usize, threads: usize) -> usize {
    // At least ~8 blocks per thread for balance, but never more blocks than
    // would make per-block work smaller than the bucket count (each block
    // must amortize its own histogram), nor blocks under MIN_TASK_WORK
    // records (each block is one forked task).
    let by_parallelism = threads * 8;
    let by_matrix = n / num_buckets.max(256) + 1;
    let by_work = (n / MIN_TASK_WORK).max(1);
    by_parallelism.min(by_matrix).min(by_work).max(1)
}

/// The records of block `b` out of `num_blocks` over `n` records.  Block
/// sizes differ by at most one, so none is below `n / num_blocks`.
fn block_range(b: usize, n: usize, num_blocks: usize) -> std::ops::Range<usize> {
    b * n / num_blocks..(b + 1) * n / num_blocks
}

/// Stable parallel counting sort from `src` into `dst`.
///
/// `key(x)` must return a bucket id `< num_buckets` for every record.
/// Returns the plan holding the bucket boundaries in `dst`.
///
/// # Panics
/// Panics if `src.len() != dst.len()` or if a key is out of range
/// (debug builds; in release an out-of-range key leads to a panic via
/// indexing).
pub fn counting_sort_by<T, F>(
    src: &[T],
    dst: &mut [T],
    num_buckets: usize,
    key: F,
) -> CountingSortPlan
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> usize + Sync,
{
    distribute(src, dst, num_buckets, |_, rec| key(rec), |_, rec| key(rec))
}

/// [`counting_sort_by`] that evaluates `key` once per record: the counting
/// pass caches each bucket id in `ids` (indexed like `src`) and the scatter
/// pass reads it back.  `ids` is scratch; its contents on entry are ignored.
///
/// # Panics
/// Panics if `src`, `dst` and `ids` differ in length, or if `num_buckets`
/// exceeds [`MAX_ID_BUCKETS`] (the ids would not fit a `u16`).
pub fn counting_sort_with_ids<T, F>(
    src: &[T],
    dst: &mut [T],
    ids: &mut [u16],
    num_buckets: usize,
    key: F,
) -> CountingSortPlan
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> usize + Sync,
{
    assert_eq!(
        src.len(),
        ids.len(),
        "counting_sort_with_ids: src and ids must have equal length"
    );
    assert!(
        num_buckets <= MAX_ID_BUCKETS,
        "counting_sort_with_ids: {num_buckets} buckets exceed the u16 id range"
    );
    let ids = UnsafeSliceCell::new(ids);
    distribute(
        src,
        dst,
        num_buckets,
        |i, rec| {
            let k = key(rec);
            // SAFETY: `distribute` passes each index `i < src.len() ==
            // ids.len()` once, from the block that owns it.
            unsafe { ids.write(i, k as u16) };
            k
        },
        // SAFETY: as above; the counting pass has joined before the
        // scatter pass reads the id back.
        |i, _| usize::from(unsafe { ids.read(i) }),
    )
}

/// The three passes shared by both entry points.  `classify(i, &src[i])`
/// gives the bucket id of record `i` in the counting pass, and
/// `lookup(i, &src[i])` gives the same id again in the scatter pass.
fn distribute<T, C, L>(
    src: &[T],
    dst: &mut [T],
    num_buckets: usize,
    classify: C,
    lookup: L,
) -> CountingSortPlan
where
    T: Copy + Send + Sync,
    C: Fn(usize, &T) -> usize + Sync,
    L: Fn(usize, &T) -> usize + Sync,
{
    assert_eq!(
        src.len(),
        dst.len(),
        "counting_sort_by: src and dst must have equal length"
    );
    let n = src.len();
    if num_buckets == 0 {
        assert_eq!(n, 0, "counting_sort_by: zero buckets with nonempty input");
        return CountingSortPlan {
            bucket_offsets: vec![0],
        };
    }
    if n == 0 {
        return CountingSortPlan {
            bucket_offsets: vec![0; num_buckets + 1],
        };
    }

    let num_blocks = choose_num_blocks(n, num_buckets, rayon::current_num_threads());

    // Pass 1: per-block histograms, stored row-major: counts[block][bucket].
    let mut counts = vec![0usize; num_blocks * num_buckets];
    {
        let counts_cell = UnsafeSliceCell::new(&mut counts);
        parallel_for_grained(0, num_blocks, 1, &|b| {
            let range = block_range(b, n, num_blocks);
            let row = unsafe { counts_cell.slice_mut(b * num_buckets, num_buckets) };
            for (i, rec) in range.clone().zip(&src[range]) {
                let k = classify(i, rec);
                debug_assert!(k < num_buckets, "bucket id {k} out of range {num_buckets}");
                row[k] += 1;
            }
        });
    }

    // Pass 2: column-major exclusive scan over the counting matrix.  The
    // offset of (block b, bucket k) is: all records of buckets < k, plus the
    // records of bucket k in blocks < b.  The matrix is small (it was sized
    // to fit in cache) so a sequential scan keeps the span at O(B·b) <= O(n).
    let mut bucket_offsets = vec![0usize; num_buckets + 1];
    let mut running = 0usize;
    for k in 0..num_buckets {
        bucket_offsets[k] = running;
        for b in 0..num_blocks {
            let idx = b * num_buckets + k;
            let c = counts[idx];
            counts[idx] = running;
            running += c;
        }
    }
    bucket_offsets[num_buckets] = running;
    debug_assert_eq!(running, n, "counting matrix total must equal input size");

    // Pass 3: stable scatter.  Each block owns its row of offsets, so the
    // destination index sets of different blocks are disjoint.
    {
        let dst_cell = UnsafeSliceCell::new(dst);
        let counts_cell = UnsafeSliceCell::new(&mut counts);
        parallel_for_grained(0, num_blocks, 1, &|b| {
            let range = block_range(b, n, num_blocks);
            let row = unsafe { counts_cell.slice_mut(b * num_buckets, num_buckets) };
            for (i, rec) in range.clone().zip(&src[range]) {
                let k = lookup(i, rec);
                let pos = row[k];
                row[k] += 1;
                unsafe { dst_cell.write(pos, *rec) };
            }
        });
    }

    CountingSortPlan { bucket_offsets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::Rng;

    fn check_stable_counting_sort(input: &[(u32, u32)], num_buckets: usize) {
        let mut dst = vec![(0u32, 0u32); input.len()];
        let plan = counting_sort_by(input, &mut dst, num_buckets, |&(k, _)| k as usize);
        // Reference: std stable sort by bucket id.
        let mut want = input.to_vec();
        want.sort_by_key(|&(k, _)| k);
        assert_eq!(dst, want, "counting sort must equal a stable sort by key");
        // Bucket offsets must delimit the buckets.
        assert_eq!(plan.bucket_offsets.len(), num_buckets + 1);
        assert_eq!(*plan.bucket_offsets.last().unwrap(), input.len());
        for k in 0..num_buckets {
            for &(key, _) in &dst[plan.bucket_range(k)] {
                assert_eq!(key as usize, k);
            }
        }
    }

    #[test]
    fn random_input_is_stably_sorted() {
        let rng = Rng::new(1);
        let n = 100_000;
        let b = 64;
        let input: Vec<(u32, u32)> = (0..n)
            .map(|i| (rng.ith_in(i as u64, b as u64) as u32, i as u32))
            .collect();
        check_stable_counting_sort(&input, b);
    }

    #[test]
    fn skewed_input() {
        let rng = Rng::new(2);
        let n = 50_000;
        let b = 16;
        // 90% of records in bucket 3.
        let input: Vec<(u32, u32)> = (0..n)
            .map(|i| {
                let k = if rng.ith_f64(i as u64) < 0.9 {
                    3
                } else {
                    rng.ith_in(i as u64, b as u64) as u32
                };
                (k, i as u32)
            })
            .collect();
        check_stable_counting_sort(&input, b);
    }

    #[test]
    fn empty_input_and_single_bucket() {
        let input: Vec<(u32, u32)> = vec![];
        let mut dst: Vec<(u32, u32)> = vec![];
        let plan = counting_sort_by(&input, &mut dst, 8, |&(k, _)| k as usize);
        assert_eq!(plan.bucket_offsets, vec![0; 9]);

        let input: Vec<(u32, u32)> = (0..1000).map(|i| (0, i)).collect();
        check_stable_counting_sort(&input, 1);
    }

    #[test]
    fn many_buckets_few_records() {
        let input: Vec<(u32, u32)> = vec![(999, 0), (0, 1), (500, 2), (999, 3)];
        check_stable_counting_sort(&input, 1000);
    }

    #[test]
    fn no_block_below_min_task_work() {
        for threads in [1, 2, 4, 64] {
            for buckets in [1, 256, 4097, 1 << 16] {
                for n in [
                    1,
                    1000,
                    MIN_TASK_WORK - 1,
                    MIN_TASK_WORK,
                    3 * MIN_TASK_WORK + 1,
                    1_000_000,
                    1 << 24,
                ] {
                    let blocks = choose_num_blocks(n, buckets, threads);
                    if n < MIN_TASK_WORK {
                        assert_eq!(blocks, 1, "n={n} threads={threads}");
                    }
                    let covered: usize = (0..blocks)
                        .map(|b| {
                            let len = block_range(b, n, blocks).len();
                            assert!(
                                len >= MIN_TASK_WORK.min(n),
                                "block of {len} (n={n} buckets={buckets} threads={threads})"
                            );
                            len
                        })
                        .sum();
                    assert_eq!(covered, n);
                }
            }
        }
        // A 1M-record root distribution on two workers still forks.
        assert!(choose_num_blocks(1_000_000, 4097, 2) > 1);
    }

    #[test]
    fn ids_path_matches_stable_reference_with_max_buckets() {
        let rng = Rng::new(4);
        let n = 3 * MIN_TASK_WORK + 17;
        let b = MAX_ID_BUCKETS;
        let input: Vec<(u32, u32)> = (0..n)
            .map(|i| (rng.ith_in(i as u64, b as u64) as u32, i as u32))
            .collect();
        let mut want = input.clone();
        want.sort_by_key(|&(k, _)| k);
        let key = |&(k, _): &(u32, u32)| k as usize;
        for threads in [1, 4] {
            let mut dst = vec![(0u32, 0u32); n];
            let mut ids = vec![0u16; n];
            let plan = crate::par::with_threads(threads, || {
                counting_sort_with_ids(&input, &mut dst, &mut ids, b, key)
            });
            assert_eq!(dst, want, "threads={threads}");
            assert_eq!(plan.bucket_offsets.len(), b + 1);
            assert!(ids.iter().zip(&input).all(|(&id, r)| id as usize == key(r)));
        }
    }

    #[test]
    #[should_panic(expected = "exceed the u16 id range")]
    fn ids_path_rejects_more_buckets_than_u16_ids() {
        let b = MAX_ID_BUCKETS;
        let input: Vec<(u32, u32)> = (0..1000).map(|i| (b as u32 + i % 7, i)).collect();
        let mut dst = vec![(0, 0); input.len()];
        let mut ids = vec![0u16; input.len()];
        counting_sort_with_ids(&input, &mut dst, &mut ids, b + 7, |&(k, _)| k as usize);
    }

    #[test]
    fn plan_accessors() {
        let input: Vec<(u32, u32)> = vec![(1, 0), (1, 1), (3, 2)];
        let mut dst = vec![(0, 0); 3];
        let plan = counting_sort_by(&input, &mut dst, 4, |&(k, _)| k as usize);
        assert_eq!(plan.num_buckets(), 4);
        assert_eq!(plan.bucket_len(0), 0);
        assert_eq!(plan.bucket_len(1), 2);
        assert_eq!(plan.bucket_len(2), 0);
        assert_eq!(plan.bucket_len(3), 1);
        assert_eq!(plan.bucket_range(1), 0..2);
    }
}
