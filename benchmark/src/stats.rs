//! Order statistics for latency samples and run summaries.

/// The smallest number of samples that must lie strictly beyond a
/// reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `xs` (mean of the two middle values for even lengths).
/// Returns `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Nearest-rank index of percentile `pct` (0 < pct ≤ 100) in a sorted
/// sample of length `n ≥ 1`.
fn rank_index(n: usize, pct: f64) -> usize {
    // the epsilon keeps float noise (99.9% of 10,000 = 9990.000…02)
    // from pushing an exact rank up by one
    let rank = (pct / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `pct`.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank_index(n, pct)
}

/// The nearest-rank percentile `pct` of `xs`, or `None` unless at least
/// [`TAIL_SAMPLES`] samples lie beyond it (so p90 needs ≥ 100 samples,
/// p99 ≥ 1000). The median is exempt: it is reported for any non-empty
/// sample.
pub fn percentile(xs: &[f64], pct: f64) -> Option<f64> {
    if xs.is_empty() || (pct > 50.0 && samples_beyond(xs.len(), pct) < TAIL_SAMPLES) {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank_index(v.len(), pct)])
}

/// The highest percentile of the ladder p99.9 / p99 / p90 that a sample
/// of `n` supports under the [`TAIL_SAMPLES`] rule.
pub fn highest_tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= TAIL_SAMPLES)
}

/// Geometric mean of strictly positive values; `None` when empty.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    Some((log_sum / xs.len() as f64).exp())
}

/// Arithmetic mean; `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(percentile(&xs, 90.0), None, "99 samples leave 9 beyond p90");
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 99.0), None);
    }

    #[test]
    fn ladder_picks_the_highest_supported_percentile() {
        assert_eq!(highest_tail_percentile(99), None);
        assert_eq!(highest_tail_percentile(100), Some(90.0));
        assert_eq!(highest_tail_percentile(999), Some(90.0));
        assert_eq!(highest_tail_percentile(1000), Some(99.0));
        assert_eq!(highest_tail_percentile(10_000), Some(99.9));
        for n in [100, 150, 1000, 4321, 10_000] {
            let p = highest_tail_percentile(n).unwrap();
            assert!(samples_beyond(n, p) >= TAIL_SAMPLES, "n={n} p={p}");
        }
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        let g = geomean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
    }
}
