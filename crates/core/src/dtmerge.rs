//! Step 4 of DovetailSort: dovetail merging (paper Section 3.4, Alg. 3).
//!
//! After distribution and recursion, each MSD zone consists of one sorted
//! light bucket followed by `m ≥ 0` heavy buckets (each holding all records
//! of one heavy key, ordered by key).  The zone's final content interleaves
//! the heavy buckets into the light bucket at the positions given by binary
//! searching each heavy key in the light bucket.
//!
//! Two implementations are provided, selectable through
//! [`crate::MergeStrategy`]:
//!
//! * [`dovetail_merge_across`] — the production path: the zone lives in the
//!   scratch buffer and is written directly to its final location in the
//!   output buffer, moving every record exactly once (the "minimizing data
//!   movement" optimization of Section 5).  Alg. 3 as written instead
//!   copies the zone back into the output array and interleaves it there
//!   in place (the flip trick); since the root already allocates the
//!   scratch buffer, that only adds moves, so only this form is kept.
//! * [`parallel_merge_zone`] — the `PLMerge` baseline: a standard parallel
//!   merge of the light bucket with the concatenation of the heavy buckets.

use parlay::binsearch::lower_bound_by;
use parlay::merge::par_merge_into;
use parlay::par::parallel_for;
use parlay::slice::UnsafeSliceCell;

/// Zone layout: where each heavy bucket starts in the final order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneLayout {
    /// `positions[i]` = index in the light bucket before which heavy bucket
    /// `i` must be placed (insertion point of its key).
    pub positions: Vec<usize>,
    /// Exclusive prefix sums of heavy bucket sizes (`heavy_prefix[i]` = total
    /// heavy records before bucket `i`); length `m + 1`.
    pub heavy_prefix: Vec<usize>,
}

impl ZoneLayout {
    /// Computes the layout by binary searching each heavy key in the sorted
    /// light bucket (Alg. 3, line 1).
    pub fn compute<T, F>(light: &[T], heavy: &[(u64, usize)], key: &F) -> Self
    where
        F: Fn(&T) -> u64,
    {
        let m = heavy.len();
        let mut positions = Vec::with_capacity(m);
        let mut heavy_prefix = Vec::with_capacity(m + 1);
        heavy_prefix.push(0);
        for &(hkey, hlen) in heavy {
            let p = lower_bound_by(light, |x| key(x).cmp(&hkey));
            positions.push(p);
            heavy_prefix.push(heavy_prefix.last().unwrap() + hlen);
        }
        ZoneLayout {
            positions,
            heavy_prefix,
        }
    }

    /// Destination offset (within the zone) of heavy bucket `i`.
    #[inline]
    pub fn heavy_dest(&self, i: usize) -> usize {
        self.positions[i] + self.heavy_prefix[i]
    }

    /// Destination offset (within the zone) of light segment `j`
    /// (`j ∈ 0..=m`), where segment `j` is the part of the light bucket
    /// between insertion points `j` and `j+1`.
    #[inline]
    pub fn light_segment_dest(&self, j: usize, light_len: usize) -> (usize, usize, usize) {
        let m = self.positions.len();
        let start = if j == 0 { 0 } else { self.positions[j - 1] };
        let end = if j == m { light_len } else { self.positions[j] };
        (start, end, start + self.heavy_prefix[j])
    }
}

/// Dovetail-merges a zone from the scratch buffer into its destination.
///
/// * `light` — the sorted light bucket (in the scratch buffer).
/// * `heavy` — the heavy buckets, in key order, as `(key, records)` slices
///   (also in the scratch buffer, contiguous after the light bucket).
/// * `dst` — the zone's final location; `dst.len()` must equal
///   `light.len() + Σ heavy[i].1.len()`.
///
/// Every record is written exactly once.  Returns the number of records
/// moved.
pub fn dovetail_merge_across<T, F>(
    light: &[T],
    heavy: &[(u64, &[T])],
    dst: &mut [T],
    key: &F,
) -> usize
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    let total_heavy: usize = heavy.iter().map(|(_, s)| s.len()).sum();
    assert_eq!(
        dst.len(),
        light.len() + total_heavy,
        "dovetail_merge_across: destination size mismatch"
    );
    if heavy.is_empty() {
        dst.copy_from_slice(light);
        return light.len();
    }
    let sizes: Vec<(u64, usize)> = heavy.iter().map(|&(k, s)| (k, s.len())).collect();
    let layout = ZoneLayout::compute(light, &sizes, key);
    let m = heavy.len();
    let dst_cell = UnsafeSliceCell::new(dst);

    // 2m + 1 disjoint destination pieces: m heavy buckets and m+1 light
    // segments.  All copies are independent.
    parallel_for(0, 2 * m + 1, |piece| {
        if piece < m {
            let (_, src) = heavy[piece];
            if !src.is_empty() {
                let d = layout.heavy_dest(piece);
                let out = unsafe { dst_cell.slice_mut(d, src.len()) };
                out.copy_from_slice(src);
            }
        } else {
            let j = piece - m;
            let (start, end, d) = layout.light_segment_dest(j, light.len());
            if end > start {
                let out = unsafe { dst_cell.slice_mut(d, end - start) };
                out.copy_from_slice(&light[start..end]);
            }
        }
    });
    light.len() + total_heavy
}

/// The `PLMerge` baseline: merges the sorted light bucket with the (sorted)
/// concatenation of the heavy buckets into `dst` using a standard parallel
/// merge.  Returns the number of records moved.
pub fn parallel_merge_zone<T, F>(light: &[T], heavy_all: &[T], dst: &mut [T], key: &F) -> usize
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    assert_eq!(
        dst.len(),
        light.len() + heavy_all.len(),
        "parallel_merge_zone: destination size mismatch"
    );
    if heavy_all.is_empty() {
        dst.copy_from_slice(light);
        return light.len();
    }
    par_merge_into(light, heavy_all, dst, &|a, b| key(a) < key(b));
    dst.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: stable sort of the concatenation by key.
    fn reference_zone(light: &[(u64, u32)], heavy: &[(u64, Vec<(u64, u32)>)]) -> Vec<(u64, u32)> {
        let mut all: Vec<(u64, u32)> = light.to_vec();
        for (_, h) in heavy {
            all.extend_from_slice(h);
        }
        all.sort_by_key(|&(k, _)| k);
        all
    }

    type Zone = (Vec<(u64, u32)>, Vec<(u64, Vec<(u64, u32)>)>);

    fn make_zone(light_keys: &[u64], heavy_spec: &[(u64, usize)]) -> Zone {
        let mut tag = 0u32;
        let light: Vec<(u64, u32)> = light_keys
            .iter()
            .map(|&k| {
                tag += 1;
                (k, tag)
            })
            .collect();
        let heavy: Vec<(u64, Vec<(u64, u32)>)> = heavy_spec
            .iter()
            .map(|&(k, cnt)| {
                let recs = (0..cnt)
                    .map(|_| {
                        tag += 1;
                        (k, tag)
                    })
                    .collect();
                (k, recs)
            })
            .collect();
        (light, heavy)
    }

    fn keyf(r: &(u64, u32)) -> u64 {
        r.0
    }

    #[test]
    fn merge_across_matches_reference() {
        // Paper Fig. 3: light = {5a, 5b, 7a}, heavy = 4×5 records of key 4
        // and 3 of key 6.
        let (light, heavy) = make_zone(&[5, 5, 7], &[(4, 5), (6, 3)]);
        let heavy_slices: Vec<(u64, &[(u64, u32)])> =
            heavy.iter().map(|(k, v)| (*k, v.as_slice())).collect();
        let mut dst = vec![(0u64, 0u32); 11];
        let moved = dovetail_merge_across(&light, &heavy_slices, &mut dst, &keyf);
        assert_eq!(moved, 11);
        assert_eq!(dst, reference_zone(&light, &heavy));
    }

    #[test]
    fn merge_across_no_heavy() {
        let (light, _) = make_zone(&[1, 2, 3, 4], &[]);
        let mut dst = vec![(0u64, 0u32); 4];
        dovetail_merge_across(&light, &[], &mut dst, &keyf);
        assert_eq!(dst, light);
    }

    #[test]
    fn merge_across_heavy_at_ends_and_empty_light() {
        // Heavy keys below and above every light key.
        let (light, heavy) = make_zone(&[10, 20, 30], &[(1, 4), (50, 2)]);
        let heavy_slices: Vec<(u64, &[(u64, u32)])> =
            heavy.iter().map(|(k, v)| (*k, v.as_slice())).collect();
        let mut dst = vec![(0u64, 0u32); 9];
        dovetail_merge_across(&light, &heavy_slices, &mut dst, &keyf);
        assert_eq!(dst, reference_zone(&light, &heavy));

        // Empty light bucket.
        let (light, heavy) = make_zone(&[], &[(3, 2), (7, 3)]);
        let heavy_slices: Vec<(u64, &[(u64, u32)])> =
            heavy.iter().map(|(k, v)| (*k, v.as_slice())).collect();
        let mut dst = vec![(0u64, 0u32); 5];
        dovetail_merge_across(&light, &heavy_slices, &mut dst, &keyf);
        assert_eq!(dst, reference_zone(&light, &heavy));
    }

    #[test]
    fn merge_across_randomized_against_reference() {
        use parlay::random::Rng;
        let rng = Rng::new(99);
        for case in 0..50u64 {
            let r = rng.fork(case);
            let n_light = r.ith_in(0, 200) as usize;
            let m = r.ith_in(1, 6) as usize;
            // Light keys: even numbers (sorted); heavy keys: odd numbers so
            // the key sets are disjoint, as guaranteed by the algorithm.
            let mut light_keys: Vec<u64> = (0..n_light)
                .map(|i| r.ith_in(2 + i as u64, 500) * 2)
                .collect();
            light_keys.sort_unstable();
            let mut heavy_keys: Vec<u64> = (0..m)
                .map(|i| r.ith_in(1000 + i as u64, 500) * 2 + 1)
                .collect();
            heavy_keys.sort_unstable();
            heavy_keys.dedup();
            let heavy_spec: Vec<(u64, usize)> = heavy_keys
                .iter()
                .enumerate()
                .map(|(i, &k)| (k, 1 + r.ith_in(2000 + i as u64, 100) as usize))
                .collect();
            let (light, heavy) = make_zone(&light_keys, &heavy_spec);
            let heavy_slices: Vec<(u64, &[(u64, u32)])> =
                heavy.iter().map(|(k, v)| (*k, v.as_slice())).collect();
            let total: usize =
                light.len() + heavy_slices.iter().map(|(_, s)| s.len()).sum::<usize>();
            let mut dst = vec![(0u64, 0u32); total];
            dovetail_merge_across(&light, &heavy_slices, &mut dst, &keyf);
            assert_eq!(dst, reference_zone(&light, &heavy), "case {case}");
        }
    }

    #[test]
    fn parallel_merge_zone_matches_reference() {
        let (light, heavy) = make_zone(&[1, 3, 5, 7, 9, 11], &[(4, 3), (8, 2)]);
        let mut heavy_all = Vec::new();
        for (_, h) in &heavy {
            heavy_all.extend_from_slice(h);
        }
        let mut dst = vec![(0u64, 0u32); light.len() + heavy_all.len()];
        parallel_merge_zone(&light, &heavy_all, &mut dst, &keyf);
        assert_eq!(dst, reference_zone(&light, &heavy));
    }

    #[test]
    fn zone_layout_positions() {
        let light: Vec<(u64, u32)> = vec![(2, 0), (4, 1), (6, 2), (8, 3)];
        let layout = ZoneLayout::compute(&light, &[(3, 10), (7, 5)], &keyf);
        assert_eq!(layout.positions, vec![1, 3]);
        assert_eq!(layout.heavy_prefix, vec![0, 10, 15]);
        assert_eq!(layout.heavy_dest(0), 1);
        assert_eq!(layout.heavy_dest(1), 13);
        assert_eq!(layout.light_segment_dest(0, 4), (0, 1, 0));
        assert_eq!(layout.light_segment_dest(1, 4), (1, 3, 11));
        assert_eq!(layout.light_segment_dest(2, 4), (3, 4, 18));
    }
}
