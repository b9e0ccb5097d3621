//! Order statistics of op latencies.

/// Samples that must lie strictly beyond a reported tail percentile, so a
/// single outlier cannot set it.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles to report, highest first.  A run reports the highest
/// one that keeps [`MIN_BEYOND`] samples beyond it.  A fixed ladder rather
/// than a percentile derived from the sample count keeps the metric
/// comparable when a faster program fits a few more ops into a run.  It
/// stops at p90: the p75 of the 40 to 99 ops a sort run makes tracks the
/// bursts of a shared host more than the program (12% run-to-run spread
/// measured on a 2-vCPU VM).
pub const TAIL_LADDER: [usize; 2] = [95, 90];

/// Nearest-rank index of the `pct`-th percentile among `n >= 1` sorted
/// samples (integer arithmetic, so 95% of 200 is exactly rank 190).
fn rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `pct`-th percentile of `n`
/// samples.
pub fn beyond(n: usize, pct: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, pct)
    }
}

/// The tail percentile a run of `n` ops reports: the highest entry of
/// [`TAIL_LADDER`] with at least [`MIN_BEYOND`] samples beyond it, or the
/// median (50) when even the lowest entry has too few.
pub fn tail_percentile(n: usize) -> usize {
    TAIL_LADDER
        .into_iter()
        .find(|&pct| beyond(n, pct) >= MIN_BEYOND)
        .unwrap_or(50)
}

/// Median of `values` (mean of the two middle samples when their number
/// is even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `pct`-th percentile of `values`: the median for `pct <= 50`, the
/// nearest-rank sample above it; 0 when empty.
pub fn percentile(values: &[f64], pct: usize) -> f64 {
    if values.is_empty() || pct <= 50 {
        return median(values);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), pct)]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_200_samples() {
        assert_eq!(beyond(200, 95), 10);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(beyond(199, 95), 9);
        assert_eq!(tail_percentile(199), 90);
    }

    #[test]
    fn ladder_steps_down_then_falls_back_to_the_median() {
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(99), 50);
        assert_eq!(tail_percentile(0), 50);
    }

    #[test]
    fn every_reported_tail_keeps_ten_samples_beyond() {
        for n in 1..5000 {
            let pct = tail_percentile(n);
            if pct > 50 {
                assert!(beyond(n, pct) >= MIN_BEYOND, "n={n} pct={pct}");
            }
            // ... and no higher rung would have.
            for higher in TAIL_LADDER.into_iter().filter(|&p| p > pct) {
                assert!(beyond(n, higher) < MIN_BEYOND, "n={n} skipped {higher}");
            }
        }
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95), 190.0);
        assert_eq!(percentile(&v, 50), 100.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
