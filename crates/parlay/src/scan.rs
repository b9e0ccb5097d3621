//! Prefix sums (scans).
//!
//! The blocked parallel exclusive scan here is the standard two-pass
//! algorithm: per-block sequential sums, a scan over the (small) block-sum
//! array, then a per-block sequential pass adding the block offset.  Work
//! `O(n)`, span `O(log n + grain)`.  It is the building block of the stable
//! counting sort (Appendix B) and the pack primitive.

use crate::par::parallel_chunks;
use crate::DEFAULT_GRANULARITY;

/// Sequential exclusive scan helper; returns the total.
fn seq_scan_exclusive(data: &mut [usize], offset: usize) -> usize {
    let mut acc = offset;
    for x in data.iter_mut() {
        let v = *x;
        *x = acc;
        acc += v;
    }
    acc
}

/// Exclusive prefix sum, returning `(prefix, total)` without modifying the
/// input.
pub fn scan_exclusive(data: &[usize]) -> (Vec<usize>, usize) {
    let mut out = data.to_vec();
    let total = scan_exclusive_in_place(&mut out);
    (out, total)
}

/// In-place exclusive prefix sum; returns the total sum of the original
/// elements.  Parallel (blocked) when the input is large.
pub fn scan_exclusive_in_place(data: &mut [usize]) -> usize {
    let n = data.len();
    if n == 0 {
        return 0;
    }
    if n <= DEFAULT_GRANULARITY * 2 {
        return seq_scan_exclusive(data, 0);
    }
    let grain = DEFAULT_GRANULARITY;
    let num_blocks = n.div_ceil(grain);
    // Pass 1: per-block totals.
    let mut block_sums = vec![0usize; num_blocks];
    {
        let sums_cell = crate::slice::UnsafeSliceCell::new(&mut block_sums);
        parallel_chunks(data, grain, |b, chunk| {
            let s: usize = chunk.iter().sum();
            unsafe { sums_cell.write(b, s) };
        });
    }
    // Pass 2: scan the block totals (small, sequential).
    let total = seq_scan_exclusive(&mut block_sums, 0);
    // Pass 3: per-block exclusive scan with the block offset.
    {
        let sums = &block_sums;
        parallel_chunks(data, grain, |b, chunk| {
            let mut acc = sums[b];
            for x in chunk.iter_mut() {
                let v = *x;
                *x = acc;
                acc += v;
            }
        });
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_exclusive(data: &[usize]) -> (Vec<usize>, usize) {
        let mut out = Vec::with_capacity(data.len());
        let mut acc = 0usize;
        for &x in data {
            out.push(acc);
            acc += x;
        }
        (out, acc)
    }

    #[test]
    fn small_scan_matches_reference() {
        let v = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let (got, total) = scan_exclusive(&v);
        let (want, wtotal) = reference_exclusive(&v);
        assert_eq!(got, want);
        assert_eq!(total, wtotal);
    }

    #[test]
    fn large_scan_matches_reference() {
        let v: Vec<usize> = (0..100_000).map(|i| (i * 7919) % 13).collect();
        let (got, total) = scan_exclusive(&v);
        let (want, wtotal) = reference_exclusive(&v);
        assert_eq!(got, want);
        assert_eq!(total, wtotal);
    }

    #[test]
    fn empty_and_single() {
        let mut v: Vec<usize> = vec![];
        assert_eq!(scan_exclusive_in_place(&mut v), 0);
        let mut v = vec![42usize];
        assert_eq!(scan_exclusive_in_place(&mut v), 42);
        assert_eq!(v, vec![0]);
    }

    #[test]
    fn in_place_total_is_sum() {
        let mut v: Vec<usize> = (0..30_000).map(|i| i % 5).collect();
        let expect: usize = v.iter().sum();
        let total = scan_exclusive_in_place(&mut v);
        assert_eq!(total, expect);
        assert_eq!(v[0], 0);
    }
}
