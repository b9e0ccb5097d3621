//! Parallel reductions.
//!
//! Work `O(n)`, span `O(log n)` with binary forking — the same bounds the
//! paper assumes for its "parallel reduce" (used e.g. to compute the maximum
//! key, an alternative to the overflow-bucket optimization of Section 5).

use crate::DEFAULT_GRANULARITY;

/// Generic parallel reduction with an associative combiner.
///
/// `identity` must be an identity element for `combine`, and `map` extracts
/// the value contributed by each element.
pub fn par_reduce<T, A, M, C>(data: &[T], identity: A, map: M, combine: C) -> A
where
    T: Sync,
    A: Send + Sync + Clone,
    M: Fn(&T) -> A + Sync,
    C: Fn(A, A) -> A + Sync,
{
    fn go<T, A, M, C>(data: &[T], identity: &A, map: &M, combine: &C) -> A
    where
        T: Sync,
        A: Send + Sync + Clone,
        M: Fn(&T) -> A + Sync,
        C: Fn(A, A) -> A + Sync,
    {
        if data.len() <= DEFAULT_GRANULARITY {
            let mut acc = identity.clone();
            for x in data {
                acc = combine(acc, map(x));
            }
            return acc;
        }
        let mid = data.len() / 2;
        let (l, r) = data.split_at(mid);
        let (a, b) = rayon::join(
            || go(l, identity, map, combine),
            || go(r, identity, map, combine),
        );
        combine(a, b)
    }
    go(data, &identity, &map, &combine)
}

/// Parallel maximum of `map(x)` over the slice; `None` on an empty slice.
pub fn par_max<T, K, M>(data: &[T], map: M) -> Option<K>
where
    T: Sync,
    K: Ord + Send + Sync + Clone,
    M: Fn(&T) -> K + Sync,
{
    if data.is_empty() {
        return None;
    }
    let first = map(&data[0]);
    Some(par_reduce(data, first, map, |a, b| a.max(b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_matches_sequential() {
        let v: Vec<i64> = (0..10_000).map(|i| (i * 37 % 9973) - 5000).collect();
        assert_eq!(par_max(&v, |&x| x), v.iter().copied().max());
    }

    #[test]
    fn empty_slices() {
        let v: Vec<u32> = vec![];
        assert_eq!(par_max(&v, |&x| x), None);
        assert_eq!(par_reduce(&v, 0usize, |&x| x as usize, |a, b| a + b), 0);
    }

    #[test]
    fn generic_reduce_with_monoid() {
        // Count elements divisible by 3 via reduce.
        let v: Vec<u32> = (0..3000).collect();
        let count = par_reduce(&v, 0usize, |&x| usize::from(x % 3 == 0), |a, b| a + b);
        assert_eq!(count, 1000);
    }

    #[test]
    fn single_element() {
        let v = vec![7u8];
        assert_eq!(par_max(&v, |&x| x), Some(7));
    }
}
