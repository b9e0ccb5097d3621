//! Stable parallel scatter primitives.
//!
//! A *scatter* distributes records into buckets by an arbitrary bucket-id
//! function — the same three-pass blocked machinery as the counting sort
//! ([`crate::counting_sort`]), but with no expectation that bucket ids are
//! order-related to the records.  Semisort-style consumers use it to route
//! records into **hashed** buckets: equal keys land together, but buckets
//! carry no range meaning, which is exactly the "grouped, not sorted"
//! contract.

use crate::counting_sort::{counting_sort_by, CountingSortPlan};

/// Stable parallel scatter from `src` into `dst` by an arbitrary bucket id.
///
/// `id(x)` must return a bucket id `< num_buckets` for every record.
/// Records of the same bucket keep their input order.  Returns the plan
/// holding the bucket boundaries in `dst`.
///
/// # Panics
/// Panics if `src.len() != dst.len()`.
pub fn scatter_by<T, F>(src: &[T], dst: &mut [T], num_buckets: usize, id: F) -> CountingSortPlan
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> usize + Sync,
{
    counting_sort_by(src, dst, num_buckets, id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::Rng;

    #[test]
    fn scatter_is_stable_permutation() {
        let rng = Rng::new(1);
        let input: Vec<(u32, u32)> = (0..40_000)
            .map(|i| (rng.ith_in(i, 97) as u32, i as u32))
            .collect();
        let mut dst = vec![(0u32, 0u32); input.len()];
        let plan = scatter_by(&input, &mut dst, 16, |&(k, _)| (k % 16) as usize);
        // Every bucket holds exactly the records mapping to it, in order.
        for b in 0..16 {
            let bucket = &dst[plan.bucket_range(b)];
            assert!(bucket.iter().all(|&(k, _)| (k % 16) as usize == b));
            assert!(bucket.windows(2).all(|w| w[0].1 < w[1].1), "stability");
        }
        assert_eq!(plan.bucket_offsets.last(), Some(&input.len()));
    }
}
