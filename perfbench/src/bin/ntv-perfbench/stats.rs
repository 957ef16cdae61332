//! Order statistics for reporting: nearest-rank percentiles, the tail
//! percentile a sample supports, and medians of per-window figures.

/// Nearest-rank percentile of ascending `sorted`: the value at rank
/// `ceil(p · n)` (1-based, clamped to `1..=n`). `None` when empty.
#[must_use]
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail figure `p99_us` reports: the nearest-rank 99th percentile, or
/// a lower one when fewer than 1 000 samples leave fewer than
/// [`TAIL_BEYOND`] samples beyond it. Returns `(value, percentile)`;
/// `None` when the sample has no percentile with ten samples beyond it.
#[must_use]
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let p99_rank = (0.99 * n as f64).ceil() as usize;
    let rank = p99_rank.min(n - TAIL_BEYOND);
    #[allow(clippy::cast_precision_loss)]
    Some((sorted[rank - 1], rank as f64 / n as f64))
}

/// Median of unsorted values (mean of the middle pair for even counts).
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Sort ascending by total order.
#[must_use]
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&v, 0.991), Some(100.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&[7.0], 0.3), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&big), Some((1980.0, 0.99)));
        let small: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 would leave one sample beyond; rank 90 leaves ten.
        assert_eq!(tail(&small), Some((90.0, 0.9)));
        let tiny: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&tiny), None);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
