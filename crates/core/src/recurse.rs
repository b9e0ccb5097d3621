//! The recursive DovetailSort driver (paper Alg. 2).
//!
//! Each call performs the four steps of the algorithm on one subproblem:
//!
//! 1. **Sampling** — detect heavy keys and the effective key range
//!    ([`crate::sampling`]).
//! 2. **Distributing** — stable counting sort by bucket id
//!    ([`parlay::counting_sort`]), classifying each record once: the
//!    counting pass caches bucket ids in a `u16` array that the scatter
//!    pass reads back.  One id array of `n` entries, allocated at the root
//!    next to the scratch buffer, serves every level: each child reuses
//!    the slice under its own bucket.
//! 3. **Recursing** — sort each light bucket on the next digit; heavy
//!    buckets (all records share one key) and the overflow bucket (finished
//!    by the base case) skip the radix recursion.
//! 4. **Dovetail merging** — interleave the heavy buckets back into the
//!    light bucket of each MSD zone ([`crate::dtmerge`]).
//!
//! Data movement follows the "minimizing data movement" scheme of Section 5:
//! the distribution writes from the current array into the scratch array and
//! the dovetail merge writes back, so each level moves every record exactly
//! twice and never copies a bucket back just to recurse on it.
//!
//! **Base case.**  Subproblems of at most `θ` records, subproblems out of
//! key bits and the overflow bucket are finished by stable 8-bit LSD
//! counting passes over their remaining key bits ([`counting_base_case`]),
//! ping-ponging through the same scratch range the distribution uses.  The
//! recursion still ends at `θ`, so which subproblems become base cases is
//! the paper's; only how they are finished differs.  A stable comparison
//! sort finishes a base case only below a size cutover (`comparison_wins`:
//! fewer than 16 records per pass), where the passes' 256-entry prefix
//! sums cost more than the comparisons.
//! Base cases move records but are not counted in `distributed_records`, so
//! the records-moved proxy keeps counting distribution and merge moves
//! only (Theorems 4.5–4.7).
//!
//! The zone loops of steps 3 and 4 fork by work ([`parlay::par::work_grain`]),
//! so the root's zones spread over the pool while subproblems of at most
//! [`parlay::par::MIN_TASK_WORK`] records stay on one thread.

use crate::buckets::BucketTable;
use crate::config::{radix_bits, MergeStrategy, SortConfig};
use crate::dtmerge::{dovetail_merge_across, parallel_merge_zone};
use crate::key::{bit_width, low_mask};
use crate::sampling::sample_and_detect;
use crate::stats::SortStats;
use parlay::counting_sort::counting_sort_with_ids;
use parlay::par::{parallel_for_grained, work_grain};
use parlay::random::Rng;
use parlay::slice::UnsafeSliceCell;
use std::time::Instant;

/// Width of one counting pass of the base case: a 256-entry histogram.
const DIGIT_BITS: u32 = 8;
const DIGIT_BUCKETS: usize = 1 << DIGIT_BITS;
/// Digits of a 64-bit key.
const MAX_DIGITS: usize = (64 / DIGIT_BITS) as usize;
/// Records per counting pass below which the comparison fallback wins:
/// each pass pays a 256-entry prefix sum whatever `n` is, while
/// `sort_by_key` runs an insertion sort on so few records.  The `base_case`
/// group of `crates/bench/benches/components.rs` (uniform keys, counting
/// time over `sort_by_key` time, three runs on a 2-CPU x86-64 host) puts
/// the crossing at 16 records per pass for 1, 2 and 4 passes: 8 bits
/// n = 16 0.96-1.03; 16 bits n = 16 1.33-1.60, n = 32 0.69-1.06; 32 bits
/// n = 32 1.18-1.89, n = 64 0.62-1.04.  At 8 passes (64-bit keys) it lies
/// between 128 and 256 records (n = 128 1.07-1.13, n = 256 0.81-0.86), so
/// there the counting passes take 128 to about 170 records somewhat slower
/// than the comparison sort would.
const MIN_RECORDS_PER_PASS: usize = 16;

/// Counting passes over the low `bits` key bits.
fn digits(bits: u32) -> usize {
    bits.min(64).div_ceil(DIGIT_BITS) as usize
}

/// Whether the comparison fallback, not the counting passes, finishes a
/// base case of `n` records over `bits` key bits, judged by size alone:
/// fewer than [`MIN_RECORDS_PER_PASS`] records per pass, or more records
/// than the passes' `u32` histograms count.
fn comparison_wins(n: usize, bits: u32) -> bool {
    n < MIN_RECORDS_PER_PASS * digits(bits) || n > u32::MAX as usize
}

/// The base case (Alg. 2, line 2): stably sorts `data` by the low `bits`
/// bits of `key`.  The counting passes of [`counting_base_case`] finish it,
/// ping-ponging through `scratch` (same length as `data`, contents
/// clobbered).  A stable comparison sort finishes it instead, leaving
/// `scratch` untouched, below the [`comparison_wins`] size cutover.
fn base_case<T, F>(data: &mut [T], scratch: &mut [T], key: &F, bits: u32, stats: &SortStats)
where
    T: Copy,
    F: Fn(&T) -> u64,
{
    SortStats::add(&stats.base_case_calls, 1);
    SortStats::add(&stats.base_case_records, data.len() as u64);
    if data.len() <= 1 || bits == 0 {
        return;
    }
    if comparison_wins(data.len(), bits) {
        SortStats::add(&stats.comparison_sorted_records, data.len() as u64);
        let mask = low_mask(bits);
        data.sort_by_key(|r| key(r) & mask);
    } else {
        counting_base_case(data, scratch, key, bits);
    }
}

/// Stable LSD counting sort of `data` by the low `bits` bits of `key`, one
/// pass per 8-bit digit (at most 8 for 64-bit keys).
///
/// One pass over the records builds every digit's histogram and checks
/// whether `data` is already sorted, in which case it returns at once.
/// Digits on which all records share one value are skipped.  The other
/// digits scatter stably from `data` to `scratch` and back; the result is
/// copied back into `data` only when the last pass ends in `scratch`.
///
/// # Panics
/// Panics if `data` holds more than `u32::MAX` records, or if `scratch` is
/// shorter than `data` while a digit needs a pass.
pub fn counting_base_case<T, F>(data: &mut [T], scratch: &mut [T], key: &F, bits: u32)
where
    T: Copy,
    F: Fn(&T) -> u64,
{
    let n = data.len();
    let digits = digits(bits);
    if n <= 1 || digits == 0 {
        return;
    }
    let n32 = u32::try_from(n).expect("counting_base_case: more than u32::MAX records");
    let mask = low_mask(bits);
    let mut hist = [[0u32; DIGIT_BUCKETS]; MAX_DIGITS];
    let sorted = match digits {
        1 => histograms::<T, F, 1>(data, key, mask, &mut hist),
        2 => histograms::<T, F, 2>(data, key, mask, &mut hist),
        3 => histograms::<T, F, 3>(data, key, mask, &mut hist),
        4 => histograms::<T, F, 4>(data, key, mask, &mut hist),
        5 => histograms::<T, F, 5>(data, key, mask, &mut hist),
        6 => histograms::<T, F, 6>(data, key, mask, &mut hist),
        7 => histograms::<T, F, 7>(data, key, mask, &mut hist),
        _ => histograms::<T, F, MAX_DIGITS>(data, key, mask, &mut hist),
    };
    if sorted {
        return;
    }

    let first = key(&data[0]) & mask;
    let scratch = &mut scratch[..n];
    let mut in_data = true;
    for (d, offsets) in hist[..digits].iter_mut().enumerate() {
        if offsets[digit(first, d)] == n32 {
            continue;
        }
        let mut running = 0;
        for c in offsets.iter_mut() {
            let count = *c;
            *c = running;
            running += count;
        }
        let (src, dst): (&[T], &mut [T]) = if in_data {
            (&*data, &mut *scratch)
        } else {
            (&*scratch, &mut *data)
        };
        for r in src {
            let b = digit(key(r) & mask, d);
            dst[offsets[b] as usize] = *r;
            offsets[b] += 1;
        }
        in_data = !in_data;
    }
    if !in_data {
        data.copy_from_slice(scratch);
    }
}

/// Digit `d` (8 bits, least significant first) of `k`.
#[inline(always)]
fn digit(k: u64, d: usize) -> usize {
    (k >> (d as u32 * DIGIT_BITS)) as usize & (DIGIT_BUCKETS - 1)
}

/// The histogram pass of [`counting_base_case`]: counts the first `D`
/// digits of every masked key into `hist` and returns whether `data` is
/// already sorted.  `D` is a constant so the per-record updates unroll.
#[inline(always)]
fn histograms<T, F, const D: usize>(
    data: &[T],
    key: &F,
    mask: u64,
    hist: &mut [[u32; DIGIT_BUCKETS]; MAX_DIGITS],
) -> bool
where
    F: Fn(&T) -> u64,
{
    let mut prev = 0;
    let mut sorted = true;
    for r in data {
        let k = key(r) & mask;
        sorted &= prev <= k;
        prev = k;
        for (d, h) in hist[..D].iter_mut().enumerate() {
            h[digit(k, d)] += 1;
        }
    }
    sorted
}

/// Sorts `data` by the low `total_bits` bits of `key`, using a freshly
/// allocated scratch buffer.  Entry point used by the public API.
pub(crate) fn dtsort_impl<T, F>(
    data: &mut [T],
    key: &F,
    total_bits: u32,
    cfg: &SortConfig,
    stats: &SortStats,
) where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    dtsort_run_impl(data, key, total_bits, cfg, stats, &[]);
}

/// [`dtsort_impl`] for one *run* of a streamed input: heavy keys carried
/// from earlier runs seed the root sampling (`hints`, in the masked/ordered
/// key domain, sorted or not), and the root-level heavy keys *confirmed by
/// this run's bucket counts* are returned for carry-over to the next run.
///
/// Runs of at most `θ` records go straight to the base case (counting
/// passes over one scratch allocation, or the comparison fallback below its
/// cutover) and report no heavy keys (there is no sampling step to confirm
/// them).
pub(crate) fn dtsort_run_impl<T, F>(
    data: &mut [T],
    key: &F,
    total_bits: u32,
    cfg: &SortConfig,
    stats: &SortStats,
    hints: &[u64],
) -> Vec<u64>
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    let n = data.len();
    if n <= 1 {
        return Vec::new();
    }
    if n <= cfg.base_case_threshold.max(1) || total_bits == 0 {
        // The counting passes get one scratch allocation, as the recursion
        // below does; below the size cutover the comparison sort needs none.
        let mut buf = if comparison_wins(n, total_bits) {
            Vec::new()
        } else {
            data.to_vec()
        };
        base_case(data, &mut buf, key, total_bits, stats);
        return Vec::new();
    }
    let mut buf = data.to_vec();
    let mut ids = vec![0u16; n];
    let rng = Rng::new(cfg.seed);
    recurse(
        data, &mut buf, &mut ids, key, total_bits, cfg, stats, rng, 1, hints,
    )
}

/// One recursive DTSort call.  The sorted result ends in `data`; `scratch`
/// is a same-length buffer whose contents are clobbered, and so is `ids`,
/// the same-length bucket-id cache of the distribution step.
///
/// `root_hints` (only consulted at `depth == 1`) are externally supplied
/// heavy-key candidates merged into the root sampling result; the returned
/// vector (non-empty only at the root, when heavy detection ran) holds the
/// heavy keys confirmed by this call's bucket counts — the carry-over
/// plumbing of the streaming sorter.
#[allow(clippy::too_many_arguments)]
pub(crate) fn recurse<T, F>(
    data: &mut [T],
    scratch: &mut [T],
    ids: &mut [u16],
    key: &F,
    bits: u32,
    cfg: &SortConfig,
    stats: &SortStats,
    rng: Rng,
    depth: u64,
    root_hints: &[u64],
) -> Vec<u64>
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    let n = data.len();
    debug_assert_eq!(n, scratch.len());
    debug_assert_eq!(n, ids.len());
    if n <= 1 {
        return Vec::new();
    }
    if n <= cfg.base_case_threshold.max(1) || bits == 0 {
        base_case(data, scratch, key, bits, stats);
        return Vec::new();
    }
    SortStats::add(&stats.recursive_calls, 1);
    SortStats::max(&stats.max_depth, depth);
    let is_root = depth == 1;
    let mask = low_mask(bits);

    // ---------------- Step 1: sampling ----------------
    let t0 = Instant::now();
    let gamma_pre = radix_bits(n, bits);
    let mut sample_res = sample_and_detect(n, |i| key(&data[i]) & mask, gamma_pre, cfg, rng);
    if is_root && cfg.heavy_detection && !root_hints.is_empty() {
        // Union carried heavy keys into the sampled set.  Raising the sample
        // maximum keeps every hint inside the effective key range, so hinted
        // keys never land in the overflow bucket.
        let mut merged = sample_res.heavy_keys;
        merged.extend(root_hints.iter().map(|&h| h & mask));
        merged.sort_unstable();
        merged.dedup();
        if let Some(&top) = merged.last() {
            sample_res.max_sample = sample_res.max_sample.max(top);
        }
        sample_res.heavy_keys = merged;
    }
    let sample_res = sample_res;
    SortStats::add(&stats.samples_drawn, sample_res.num_samples as u64);
    SortStats::add(&stats.heavy_keys, sample_res.heavy_keys.len() as u64);

    // Effective key range (Section 5): skip leading zero bits, as estimated
    // by the sample maximum.  Keys above the estimate go to the overflow
    // bucket.
    let eff_bits = if sample_res.num_samples > 0 {
        bit_width(sample_res.max_sample).clamp(1, bits)
    } else {
        bits
    };
    let gamma = radix_bits(n, eff_bits);
    let table = BucketTable::build(bits, eff_bits, gamma, &sample_res.heavy_keys);
    if is_root {
        SortStats::add(&stats.root_sample_ns, t0.elapsed().as_nanos() as u64);
    }

    // ---------------- Step 2: distributing ----------------
    let t1 = Instant::now();
    let plan = counting_sort_with_ids(data, scratch, ids, table.num_buckets, |rec| {
        table.bucket_id(key(rec) & mask)
    });
    SortStats::add(&stats.distributed_records, n as u64);
    for h in &table.heavy {
        SortStats::add(&stats.heavy_records, plan.bucket_len(h.id as usize) as u64);
    }
    if let Some(of) = table.overflow_id {
        SortStats::add(&stats.overflow_records, plan.bucket_len(of as usize) as u64);
    }
    // Carry-over report: a root heavy key is confirmed when its bucket holds
    // a non-trivial share of the run (`n / 2^{γ+2}`); carried keys that have
    // fallen light are dropped here and must be re-detected by sampling to
    // return, so stale hints cannot accumulate across a long stream.  The
    // report is ordered by decreasing bucket count so a downstream cap on
    // carried keys keeps the heaviest ones.
    let confirmed_heavy: Vec<u64> = if is_root && cfg.heavy_detection {
        let threshold = ((n >> (gamma + 2)).max(2)) as u64;
        let mut counted: Vec<(u64, u64)> = table
            .heavy
            .iter()
            .map(|h| (plan.bucket_len(h.id as usize) as u64, h.key))
            .filter(|&(count, _)| count >= threshold)
            .collect();
        counted.sort_unstable_by(|a, b| b.cmp(a));
        counted.into_iter().map(|(_, key)| key).collect()
    } else {
        Vec::new()
    };
    if is_root {
        SortStats::add(&stats.root_distribute_ns, t1.elapsed().as_nanos() as u64);
    }

    // ---------------- Step 3: recursing ----------------
    let t2 = Instant::now();
    let num_zones = table.num_zones();
    let child_bits = eff_bits - gamma;
    {
        let scratch_cell = UnsafeSliceCell::new(&mut *scratch);
        let data_cell = UnsafeSliceCell::new(&mut *data);
        let ids_cell = UnsafeSliceCell::new(&mut *ids);
        let table_ref = &table;
        let plan_ref = &plan;
        // One task per MSD zone plus one for the overflow bucket.
        let tasks = num_zones + usize::from(table.overflow_id.is_some());
        parallel_for_grained(0, tasks, work_grain(tasks, n), &|z| {
            if z < num_zones {
                let light_id = table_ref.light_ids[z] as usize;
                let range = plan_ref.bucket_range(light_id);
                if range.len() <= 1 {
                    return;
                }
                let bucket = unsafe { scratch_cell.slice_mut(range.start, range.len()) };
                let bucket_scratch = unsafe { data_cell.slice_mut(range.start, range.len()) };
                // SAFETY: light buckets are disjoint ranges of the plan, so
                // this task alone touches `range` of all three arrays.
                let bucket_ids = unsafe { ids_cell.slice_mut(range.start, range.len()) };
                recurse(
                    bucket,
                    bucket_scratch,
                    bucket_ids,
                    key,
                    child_bits,
                    cfg,
                    stats,
                    rng.fork(1 + z as u64),
                    depth + 1,
                    &[],
                );
            } else {
                // Overflow bucket: finished by the base case (Section 5),
                // whatever its size.  The `data` range under it is free
                // during this step, so it is the base case's scratch.
                let of = table_ref.overflow_id.expect("overflow task") as usize;
                let range = plan_ref.bucket_range(of);
                if range.len() > 1 {
                    let bucket = unsafe { scratch_cell.slice_mut(range.start, range.len()) };
                    let bucket_scratch = unsafe { data_cell.slice_mut(range.start, range.len()) };
                    base_case(bucket, bucket_scratch, key, bits, stats);
                }
            }
        });
    }
    if is_root {
        SortStats::add(&stats.root_recurse_ns, t2.elapsed().as_nanos() as u64);
    }

    // ---------------- Step 4: dovetail merging ----------------
    let t3 = Instant::now();
    {
        let data_cell = UnsafeSliceCell::new(&mut *data);
        let scratch_ref: &[T] = scratch;
        let table_ref = &table;
        let plan_ref = &plan;
        // Heavy keys are stored masked to the subproblem's remaining bits, so
        // the merge must compare records by their masked key as well (the
        // bits above `bits` are shared by every record of this subproblem and
        // do not affect the order).
        let mkey = |r: &T| key(r) & mask;
        let tasks = num_zones + usize::from(table.overflow_id.is_some());
        parallel_for_grained(0, tasks, work_grain(tasks, n), &|z| {
            if z >= num_zones {
                // Overflow bucket: already sorted, copy to its final place.
                let of = table_ref.overflow_id.expect("overflow task") as usize;
                let range = plan_ref.bucket_range(of);
                if !range.is_empty() {
                    let dst = unsafe { data_cell.slice_mut(range.start, range.len()) };
                    dst.copy_from_slice(&scratch_ref[range]);
                    SortStats::add(&stats.merged_records, dst.len() as u64);
                }
                return;
            }
            let bucket_ids = table_ref.zone_bucket_ids(z);
            let zone_start = plan_ref.bucket_offsets[bucket_ids.start];
            let zone_end = plan_ref.bucket_offsets[bucket_ids.end];
            if zone_start == zone_end {
                return;
            }
            let zone_len = zone_end - zone_start;
            let light_id = bucket_ids.start;
            let light_range = plan_ref.bucket_range(light_id);
            let light = &scratch_ref[light_range.clone()];
            let dst = unsafe { data_cell.slice_mut(zone_start, zone_len) };

            let heavy_buckets = table_ref.zone_heavy(z);
            let moved = match cfg.merge_strategy {
                MergeStrategy::Dovetail => {
                    let heavy_slices: Vec<(u64, &[T])> = heavy_buckets
                        .iter()
                        .map(|h| {
                            let r = plan_ref.bucket_range(h.id as usize);
                            (h.key, &scratch_ref[r])
                        })
                        .filter(|(_, s)| !s.is_empty())
                        .collect();
                    dovetail_merge_across(light, &heavy_slices, dst, &mkey)
                }
                MergeStrategy::ParallelMerge => {
                    let heavy_all = &scratch_ref[light_range.end..zone_end];
                    parallel_merge_zone(light, heavy_all, dst, &mkey)
                }
                MergeStrategy::Skip => {
                    // Measurement-only mode: copy the zone without
                    // interleaving (the output is not fully sorted when heavy
                    // buckets exist).
                    dst.copy_from_slice(&scratch_ref[zone_start..zone_end]);
                    zone_len
                }
            };
            SortStats::add(&stats.merged_records, moved as u64);
        });
    }
    if is_root {
        SortStats::add(&stats.root_merge_ns, t3.elapsed().as_nanos() as u64);
    }
    confirmed_heavy
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `base_case` (with its cutover) and the counting passes alone
    /// on `(key, input index)` records, and checks both against the stable
    /// `sort_by_key` by the low `bits` bits.
    fn check_base_case(keys: &[u64], bits: u32) {
        let input: Vec<(u64, u32)> = keys.iter().zip(0..).map(|(&k, i)| (k, i)).collect();
        let mask = low_mask(bits);
        let mut want = input.clone();
        want.sort_by_key(|r| r.0 & mask);
        let key = |r: &(u64, u32)| r.0;
        for counting_only in [false, true] {
            let mut got = input.clone();
            let mut scratch = vec![(0, u32::MAX); input.len()];
            if counting_only {
                counting_base_case(&mut got, &mut scratch, &key, bits);
            } else {
                base_case(&mut got, &mut scratch, &key, bits, &SortStats::new());
            }
            assert_eq!(
                got,
                want,
                "n = {}, bits = {bits}, counting only: {counting_only}",
                keys.len()
            );
        }
    }

    #[test]
    fn base_case_equals_stable_sort_across_sizes_and_widths() {
        let rng = Rng::new(21);
        for n in [0usize, 1, 2, 255, 256, 257, 4096, 1 << 14] {
            for bits in [1u32, 7, 8, 9, 16, 24, 32, 63, 64] {
                let mask = low_mask(bits);
                // The bits above `bits` are shared, as in a subproblem.
                let high = 0xA5A5_A5A5_A5A5_A5A5 & !mask;
                let wide: Vec<u64> = (0..n)
                    .map(|i| high | (rng.ith(i as u64 + 1000 * u64::from(bits)) & mask))
                    .collect();
                let few: Vec<u64> = (0..n)
                    .map(|i| high | ((rng.ith_in(i as u64, 7) * 0x0101_0101_0101_0101) & mask))
                    .collect();
                check_base_case(&wide, bits);
                check_base_case(&few, bits);
            }
        }
    }

    #[test]
    fn base_case_handles_degenerate_orders() {
        for n in [2usize, 255, 256, 257, 4096] {
            let equal = vec![0x1234_5678u64; n];
            // Only the top digit of a 32-bit key differs: one pass runs and
            // its result is copied back from the scratch buffer.
            let top_digit: Vec<u64> = (0..n as u64)
                .map(|i| (((i * 7) % 5) << 24) | 0xBEEF)
                .collect();
            let ascending: Vec<u64> = (0..n as u64).map(|i| i * 3 / 2).collect();
            let descending: Vec<u64> = ascending.iter().rev().copied().collect();
            let near_max: Vec<u64> = (0..n as u64).map(|i| u64::MAX - (i * 7919) % 300).collect();
            for keys in [&equal, &top_digit, &ascending, &descending] {
                check_base_case(keys, 32);
                check_base_case(keys, 64);
            }
            check_base_case(&near_max, 64);
        }
    }

    #[test]
    fn presorted_base_case_leaves_scratch_untouched() {
        let mut data: Vec<(u64, u32)> = (0..4096u32).map(|i| (u64::from(i / 3), i)).collect();
        let want = data.clone();
        let mut scratch = vec![(7, 7); data.len()];
        counting_base_case(&mut data, &mut scratch, &|r: &(u64, u32)| r.0, 32);
        assert_eq!(data, want);
        assert!(scratch.iter().all(|&r| r == (7, 7)));
    }

    #[test]
    fn cutover_sends_only_tiny_subproblems_to_the_comparison_sort() {
        // 16 records per 8-bit pass: 128 at 64 bits, 64 at 32 bits.
        assert!(comparison_wins(127, 64) && !comparison_wins(128, 64));
        assert!(comparison_wins(63, 32) && !comparison_wins(64, 32));
        assert!(comparison_wins(15, 1) && !comparison_wins(16, 1));
        assert!(!comparison_wins(2, 0));
        let stats = SortStats::new();
        let mut data: Vec<(u64, u32)> = (0..100u32).rev().map(|i| (u64::from(i), i)).collect();
        base_case(&mut data, &mut [], &|r: &(u64, u32)| r.0, 64, &stats);
        assert!(data.windows(2).all(|w| w[0].0 <= w[1].0));
        let snap = stats.snapshot();
        assert_eq!((snap.base_case_calls, snap.base_case_records), (1, 100));
        assert_eq!(snap.comparison_sorted_records, 100);

        // Past the size cutover the counting passes run whatever the keys
        // hold, here 8 distinct ones among 4096 records.
        let stats = SortStats::new();
        let mut few: Vec<(u64, u32)> = (0..4096u32)
            .map(|i| (u64::from(i * 5 % 8) << 20, i))
            .collect();
        let mut scratch = few.clone();
        base_case(&mut few, &mut scratch, &|r: &(u64, u32)| r.0, 32, &stats);
        assert!(few.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(stats.snapshot().comparison_sorted_records, 0);
    }

    #[test]
    fn signed_keys_sort_through_the_root_base_case() {
        let rng = Rng::new(22);
        for n in [3usize, 300, 5000] {
            let i32s: Vec<(i32, u32)> = (0..n)
                .map(|i| {
                    let k = match i % 50 {
                        0 => i32::MIN,
                        1 => i32::MAX,
                        _ => rng.ith(i as u64) as i32,
                    };
                    (k, i as u32)
                })
                .collect();
            let mut got = i32s.clone();
            crate::api::sort_by_key_with(&mut got, |r| r.0, &SortConfig::default());
            let mut want = i32s;
            want.sort_by_key(|r| r.0);
            assert_eq!(got, want);

            let i64s: Vec<(i64, u32)> = (0..n)
                .map(|i| ((rng.ith(i as u64 + 77) as i64) >> (i % 60), i as u32))
                .collect();
            let mut got = i64s.clone();
            crate::api::sort_by_key_with(&mut got, |r| r.0, &SortConfig::default());
            let mut want = i64s;
            want.sort_by_key(|r| r.0);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn overflow_bucket_is_finished_by_the_counting_base_case() {
        // 100k records with 20-bit keys at the default θ, plus 500 records
        // with keys in [2^31, 2^32) placed where the root sampling does not
        // look: the sample maximum misses them, so they all land in the
        // overflow bucket, whose base case runs the counting passes.
        let cfg = SortConfig::default();
        let n = 100_000usize;
        let rng = Rng::new(cfg.seed);
        let samples = crate::config::num_samples(n, radix_bits(n, 32));
        let sampled: std::collections::HashSet<usize> = (0..samples)
            .map(|i| rng.ith_in(i as u64, n as u64) as usize)
            .collect();
        let keys = Rng::new(23);
        let mut outliers = 0;
        let input: Vec<(u32, u32)> = (0..n)
            .map(|i| {
                let k = if i % 7 == 0 && outliers < 500 && !sampled.contains(&i) {
                    outliers += 1;
                    (1 << 31) | keys.ith(i as u64) as u32
                } else {
                    keys.ith(i as u64) as u32 & 0xF_FFFF
                };
                (k, i as u32)
            })
            .collect();
        assert_eq!(outliers, 500);
        let mut data = input.clone();
        let stats = SortStats::new();
        let key = |r: &(u32, u32)| u64::from(r.0);
        dtsort_impl(&mut data, &key, 32, &cfg, &stats);
        let mut want = input;
        want.sort_by_key(|r| r.0);
        assert_eq!(data, want);
        let snap = stats.snapshot();
        assert_eq!(snap.overflow_records, 500, "{snap:?}");
        assert_eq!(snap.comparison_sorted_records, 0, "{snap:?}");
    }

    fn small_cfg() -> SortConfig {
        SortConfig {
            base_case_threshold: 64,
            ..SortConfig::default()
        }
    }

    fn check_sorted_stable(input: &[(u32, u32)], cfg: &SortConfig) {
        let mut data = input.to_vec();
        let stats = SortStats::new();
        dtsort_impl(&mut data, &|r: &(u32, u32)| r.0 as u64, 32, cfg, &stats);
        let mut want = input.to_vec();
        want.sort_by_key(|&(k, _)| k);
        // Stability check: the value field records input order, and the
        // reference `sort_by_key` is stable, so outputs must match exactly.
        assert_eq!(data, want);
    }

    #[test]
    fn sorts_uniform_random() {
        let rng = Rng::new(1);
        let input: Vec<(u32, u32)> = (0..50_000)
            .map(|i| (rng.ith(i as u64) as u32, i as u32))
            .collect();
        check_sorted_stable(&input, &small_cfg());
    }

    #[test]
    fn sorts_heavy_duplicates_stably() {
        let rng = Rng::new(2);
        let input: Vec<(u32, u32)> = (0..80_000)
            .map(|i| (rng.ith_in(i as u64, 5) as u32 * 1000, i as u32))
            .collect();
        check_sorted_stable(&input, &small_cfg());
    }

    #[test]
    fn all_merge_strategies_agree() {
        let rng = Rng::new(3);
        let input: Vec<(u32, u32)> = (0..30_000)
            .map(|i| {
                let k = if rng.ith_f64(i as u64) < 0.5 {
                    42
                } else {
                    rng.ith(i as u64) as u32 % 10_000
                };
                (k, i as u32)
            })
            .collect();
        for strategy in [MergeStrategy::Dovetail, MergeStrategy::ParallelMerge] {
            let cfg = SortConfig {
                merge_strategy: strategy,
                base_case_threshold: 128,
                ..SortConfig::default()
            };
            check_sorted_stable(&input, &cfg);
        }
    }

    #[test]
    fn plain_config_sorts_too() {
        let rng = Rng::new(4);
        let input: Vec<(u32, u32)> = (0..40_000)
            .map(|i| (rng.ith_in(i as u64, 100) as u32, i as u32))
            .collect();
        let cfg = SortConfig {
            heavy_detection: false,
            base_case_threshold: 64,
            ..SortConfig::default()
        };
        check_sorted_stable(&input, &cfg);
    }

    #[test]
    fn heavy_keys_in_deep_recursion_with_shared_upper_bits() {
        // Regression test: when heavy keys are detected below the root level,
        // the records' upper bits (shared within the subproblem) are nonzero,
        // so the dovetail merge must compare masked keys.  Keys here share the
        // top byte 0xFF and contain a heavy duplicate in the low bits,
        // mimicking the paper's Bit-Exponential distribution.
        let rng = Rng::new(7);
        let input: Vec<(u64, u32)> = (0..80_000)
            .map(|i| {
                let low = if rng.ith_f64(i as u64) < 0.4 {
                    0x00FF_FFFF_FFFF_FFFF // heavy key within the 0xFF zone
                } else {
                    rng.ith(i as u64) & 0x00FF_FFFF_FFFF_FFFF
                };
                (0xFF00_0000_0000_0000 | low, i as u32)
            })
            .collect();
        let mut data = input.clone();
        let stats = SortStats::new();
        let cfg = SortConfig {
            base_case_threshold: 256,
            ..SortConfig::default()
        };
        dtsort_impl(&mut data, &|r: &(u64, u32)| r.0, 64, &cfg, &stats);
        let mut want = input;
        want.sort_by_key(|&(k, _)| k);
        assert_eq!(data, want);
        assert!(stats.snapshot().max_depth >= 2, "{:?}", stats.snapshot());
    }

    #[test]
    fn more_heavy_keys_than_bucket_ids_still_sort_stably() {
        // 100k distinct keys, each twice, all carried in as heavy hints: the
        // root table caps its heavy buckets at the u16 id range, and the
        // keys past the cap sort as light keys.
        let n = 200_000usize;
        let input: Vec<(u32, u32)> = (0..n)
            .map(|i| (((i * 7919) % 100_000) as u32 * 3, i as u32))
            .collect();
        let hints: Vec<u64> = (0..100_000u64).map(|k| k * 3).collect();
        assert!(hints.len() > parlay::counting_sort::MAX_ID_BUCKETS);
        let mut data = input.clone();
        let stats = SortStats::new();
        let key = |r: &(u32, u32)| r.0 as u64;
        dtsort_run_impl(&mut data, &key, 32, &SortConfig::default(), &stats, &hints);
        let mut want = input;
        want.sort_by_key(|&(k, _)| k);
        assert_eq!(data, want);
        let snap = stats.snapshot();
        assert!(
            snap.heavy_records > 0 && snap.heavy_records < n as u64,
            "{snap:?}"
        );
    }

    #[test]
    fn stats_report_heavy_records_on_skewed_input() {
        let rng = Rng::new(5);
        // 80% of records have key 7.
        let mut data: Vec<(u32, u32)> = (0..100_000)
            .map(|i| {
                let k = if rng.ith_f64(i as u64) < 0.8 {
                    7
                } else {
                    rng.ith(i as u64) as u32
                };
                (k, i as u32)
            })
            .collect();
        let stats = SortStats::new();
        let cfg = small_cfg();
        dtsort_impl(&mut data, &|r: &(u32, u32)| r.0 as u64, 32, &cfg, &stats);
        let snap = stats.snapshot();
        assert!(snap.heavy_keys >= 1, "snapshot: {snap:?}");
        assert!(
            snap.heavy_records > 50_000,
            "heavy records not detected: {snap:?}"
        );
        assert!(snap.recursive_calls >= 1);
    }
}
