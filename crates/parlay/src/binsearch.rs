//! Binary search helper (lower bound).
//!
//! The dovetail merge (paper Alg. 3, line 1) binary-searches every heavy key
//! in the sorted light bucket to find its insertion point; this helper
//! provides the `lower_bound` semantics of C++'s standard library, which
//! ParlayLib code relies on.

/// First index `i` such that `!(slice[i] < key)`, i.e. the first position
/// where `key` could be inserted while keeping the slice sorted (before any
/// equal elements).
pub fn lower_bound<T: Ord>(slice: &[T], key: &T) -> usize {
    lower_bound_by(slice, |x| x.cmp(key))
}

/// Generic lower bound: first index whose element compares `>=` the target,
/// where `cmp(x)` returns the ordering of `x` relative to the target.
pub fn lower_bound_by<T, F: Fn(&T) -> std::cmp::Ordering>(slice: &[T], cmp: F) -> usize {
    let mut lo = 0usize;
    let mut len = slice.len();
    while len > 0 {
        let half = len / 2;
        let mid = lo + half;
        if cmp(&slice[mid]) == std::cmp::Ordering::Less {
            lo = mid + 1;
            len -= half + 1;
        } else {
            len = half;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_on_simple_slice() {
        let v = vec![1, 3, 3, 3, 5, 9];
        assert_eq!(lower_bound(&v, &3), 1);
        assert_eq!(lower_bound(&v, &0), 0);
        assert_eq!(lower_bound(&v, &10), 6);
        assert_eq!(lower_bound(&v, &4), 4);
    }

    #[test]
    fn empty_slice() {
        let v: Vec<u32> = vec![];
        assert_eq!(lower_bound(&v, &1), 0);
    }

    #[test]
    fn matches_std_partition_point_on_random_inputs() {
        let mut v: Vec<u32> = (0..5000)
            .map(|i| (i * 2654435761u64 % 997) as u32)
            .collect();
        v.sort_unstable();
        for probe in 0..1000u32 {
            let lb = lower_bound(&v, &probe);
            assert_eq!(lb, v.partition_point(|&x| x < probe));
        }
    }

    #[test]
    fn all_equal_elements() {
        let v = vec![7u8; 100];
        assert_eq!(lower_bound(&v, &7), 0);
        assert_eq!(lower_bound(&v, &6), 0);
    }
}
