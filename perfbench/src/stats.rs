//! Timing summaries: the median and the tail percentile rule.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, together with
//! the sample count, so a tail figure never rests on one or two outliers.

/// Samples a tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, lowest first.
const TAILS: [f64; 4] = [90.0, 99.0, 99.9, 99.99];

/// The highest candidate percentile with at least [`MIN_BEYOND`] of `n`
/// samples strictly beyond it, or `None` when even p90 has too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= MIN_BEYOND as f64 - 1e-9)
}

/// The `p`-th percentile (nearest rank) of `sorted`, which must be
/// sorted ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A summarised timing distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile, present only when at least [`MIN_BEYOND`]
    /// samples lie beyond it.
    pub p99: Option<f64>,
    /// The highest percentile the rule allows, with its value.
    pub tail: Option<(f64, f64)>,
}

/// Summarises `samples` (any order); `None` when empty.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail = tail_percentile(n).map(|p| (p, percentile(&sorted, p)));
    let p99 = tail
        .filter(|&(p, _)| p >= 99.0)
        .map(|_| percentile(&sorted, 99.0));
    Some(Summary {
        n,
        p50: percentile(&sorted, 50.0),
        p99,
        tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(10_000_000), Some(99.99));
    }

    #[test]
    fn summary_reports_p99_only_when_the_rule_allows_it() {
        let small: Vec<f64> = (1..=500).map(f64::from).collect();
        let s = summarize(&small).unwrap();
        assert_eq!((s.n, s.p50), (500, 250.0));
        assert_eq!(s.p99, None);
        assert_eq!(s.tail, Some((90.0, 450.0)));

        let big: Vec<f64> = (1..=2_000).rev().map(f64::from).collect();
        let s = summarize(&big).unwrap();
        assert_eq!(s.p50, 1_000.0);
        assert_eq!(s.p99, Some(1_980.0));
        // Exactly twenty samples lie beyond the reported p99.
        assert_eq!(big.iter().filter(|&&v| v > 1_980.0).count(), 20);
        assert!(summarize(&[]).is_none());
    }
}
