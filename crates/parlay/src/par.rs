//! Granularity-controlled parallel loops on top of rayon's fork-join.
//!
//! The paper's algorithms are expressed with `parallel_for` over index
//! ranges.  A direct translation to `rayon::par_iter` over every index would
//! create one task per element; ParlayLib instead splits the range into
//! blocks of a *granularity* and recurses with binary forking.  We mirror
//! that here: the range is divided recursively with [`rayon::join`] until it
//! is at most `grain` long, then the body runs sequentially.
//!
//! The grain counts *loop indices*, not work.  That suits loops whose body
//! touches one element, but a loop over the blocks of a counting sort or
//! the buckets of an MSD level has a few hundred indices that each cover
//! thousands of records, and under the default grain it never forks.  Such
//! coarse loops size their grain with [`work_grain`] instead, so each task
//! covers about [`MIN_TASK_WORK`] records.

use crate::DEFAULT_GRANULARITY;

/// Returns the number of worker threads rayon will use.
pub fn num_threads() -> usize {
    rayon::current_num_threads()
}

/// Runs `f` on a dedicated rayon thread pool with `threads` workers.
///
/// Used by the scalability harness (paper Figs. 4(e), 5–20) to measure
/// self-speedup with a bounded number of threads.  Panics if the pool cannot
/// be built.
pub fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("failed to build rayon thread pool");
    pool.install(f)
}

/// Fewest records a forked task of a coarse loop should cover: below this,
/// the fork and steal overhead outweighs the work, so inputs of at most
/// this many records run such loops sequentially.
pub const MIN_TASK_WORK: usize = 1 << 15;

/// Grain, in loop indices, for a coarse loop of `tasks` iterations that
/// together cover `work` records: the loop forks into at most
/// `work / MIN_TASK_WORK` leaves (one when `work < 2 · MIN_TASK_WORK`).
pub fn work_grain(tasks: usize, work: usize) -> usize {
    tasks.div_ceil((work / MIN_TASK_WORK).max(1)).max(1)
}

/// Parallel for-loop over `start..end` with the default granularity.
///
/// The body must be safe to invoke concurrently for distinct indices.
pub fn parallel_for<F: Fn(usize) + Sync>(start: usize, end: usize, f: F) {
    parallel_for_grained(start, end, DEFAULT_GRANULARITY, &f);
}

/// Parallel for-loop over `start..end` where each task handles at most
/// `grain` consecutive indices sequentially.
///
/// With binary forking this has `O(end - start)` work and
/// `O(grain + log(end - start))` span, matching ParlayLib's `parallel_for`.
pub fn parallel_for_grained<F: Fn(usize) + Sync>(start: usize, end: usize, grain: usize, f: &F) {
    if start >= end {
        return;
    }
    let n = end - start;
    let grain = grain.max(1);
    if n <= grain {
        for i in start..end {
            f(i);
        }
        return;
    }
    let mid = start + n / 2;
    rayon::join(
        || parallel_for_grained(start, mid, grain, f),
        || parallel_for_grained(mid, end, grain, f),
    );
}

/// Runs `f` over every chunk of `data` of length at most `grain` in parallel,
/// passing the chunk index and the chunk itself.
pub fn parallel_chunks<T: Send, F: Fn(usize, &mut [T]) + Sync>(data: &mut [T], grain: usize, f: F) {
    use rayon::prelude::*;
    let grain = grain.max(1);
    data.par_chunks_mut(grain)
        .enumerate()
        .for_each(|(i, chunk)| f(i, chunk));
}

/// Fork-join helper mirroring ParlayLib's `par_do`: runs the two closures
/// potentially in parallel and waits for both.
pub fn par_do<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    rayon::join(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_for_covers_all_indices() {
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(0, n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_empty_and_single() {
        let counter = AtomicUsize::new(0);
        parallel_for(5, 5, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 0);
        parallel_for(5, 6, |i| {
            assert_eq!(i, 5);
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn parallel_for_small_grain() {
        let n = 1000;
        let sum = AtomicUsize::new(0);
        parallel_for_grained(0, n, 1, &|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
    }

    #[test]
    fn work_grain_forks_large_loops_only() {
        // The root zone loop of a 1M-record DTSort level (256 zones plus the
        // overflow bucket) forks ...
        let grain = work_grain(257, 1 << 20);
        assert!(grain < 257);
        assert!(257usize.div_ceil(grain) <= (1 << 20) / MIN_TASK_WORK);
        // ... while a 33k-record server run stays one task, as does any
        // loop over at most MIN_TASK_WORK records.
        assert!(work_grain(257, 33_000) >= 257);
        assert!(work_grain(16, MIN_TASK_WORK) >= 16);
        assert_eq!(work_grain(0, 0), 1);
    }

    #[test]
    fn parallel_chunks_sees_every_element() {
        let mut v: Vec<usize> = (0..5000).collect();
        parallel_chunks(&mut v, 64, |_, chunk| {
            for x in chunk.iter_mut() {
                *x += 1;
            }
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1));
    }

    #[test]
    fn with_threads_runs_closure() {
        let r = with_threads(2, || {
            let mut v = vec![3usize, 1, 2];
            v.sort_unstable();
            v
        });
        assert_eq!(r, vec![1, 2, 3]);
    }

    #[test]
    fn par_do_returns_both() {
        let (a, b) = par_do(|| 21 * 2, || "ok".to_string());
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
    }
}
