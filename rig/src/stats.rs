//! Order statistics the rig reports: medians, nearest-rank percentiles, and
//! the rule for which percentile a sample count can support.

/// Percentiles the rig will report as a tail, lowest first.
const TAIL_CANDIDATES: [f64; 4] = [0.90, 0.95, 0.99, 0.999];

/// Sorts ascending; NaNs (which the rig never produces) sort last.
pub fn sort(xs: &mut [f64]) {
    xs.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
}

/// Nearest-rank quantile of an ascending slice; `0.0` when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count); `0.0` when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest tail percentile that still has at least ten samples beyond it,
/// or `None` when even p90 does not (fewer than 100 samples).
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rfind(|p| samples as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

/// Interquartile range over the median, with quartiles as Python's
/// `statistics.quantiles(xs, n=4, method="inclusive")` gives them: of five
/// runs the second and the fourth, so that one run caught by a stall of the
/// host does not by itself make a side's spread wide.
pub fn iqr_over_median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    let m = median(&v);
    if v.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let quartile = |k: usize| {
        let pos = k as f64 * (v.len() - 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).min(v.len() - 2);
        v[lo] + (pos - lo as f64) * (v[lo + 1] - v[lo])
    };
    (quartile(3) - quartile(1)) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picker_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(0.90));
        assert_eq!(highest_supported_percentile(199), Some(0.90));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&xs, 0.5), 50.0);
        assert_eq!(quantile_sorted(&xs, 0.95), 95.0);
        assert_eq!(quantile_sorted(&xs, 1.0), 100.0);
        assert_eq!(quantile_sorted(&xs, 0.0), 1.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spreads_match_python_quantiles() {
        // statistics.quantiles([1..10], n=4, method="inclusive") == [3.25, 5.5, 7.75]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&xs) - 4.5 / 5.5).abs() < 1e-12);
        // Of five, the second and the fourth: one stalled run does not widen it.
        let five = [23.5, 54.97, 60.86, 61.96, 62.0];
        assert!((iqr_over_median(&five) - (61.96 - 54.97) / 60.86).abs() < 1e-12);
    }
}
