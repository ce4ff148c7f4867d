//! Order statistics over measured samples.

/// Median of `samples` (mean of the middle two for an even count);
/// 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile `p` (0–100] of an ascending slice.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a tail is chosen from, highest first.
const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail of a latency distribution: the highest percentile of
/// [`TAIL_LADDER`] with at least [`TAIL_MIN_BEYOND`] samples beyond it,
/// as `(percentile, value)`. With too few samples for any of them the
/// tail is the slowest sample, reported as percentile 100. Returns
/// `(100, 0)` for an empty slice.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (100.0, 0.0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    for p in TAIL_LADDER {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if n - rank >= TAIL_MIN_BEYOND {
            return (p, nearest_rank(&sorted, p));
        }
    }
    (100.0, sorted[n - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: 10 lie beyond p99, so p99 is reported.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), (99.0, 990.0));
        // 999 samples: only 9 beyond p99, so the tail falls back to p90.
        let fewer: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&fewer), (90.0, 900.0));
        // 100 samples: exactly 10 beyond p90.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), (90.0, 90.0));
        // 20 samples: 10 beyond the median, none beyond p90.
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(tail(&twenty), (50.0, 10.0));
    }

    #[test]
    fn tail_of_a_short_run_is_its_slowest_sample() {
        assert_eq!(tail(&[17.0, 16.0]), (100.0, 17.0));
        assert_eq!(tail(&[]), (100.0, 0.0));
    }
}
