//! Percentiles with their sample counts.
//!
//! Percentiles use the nearest-rank definition: the p-th percentile of
//! `n` sorted samples is the sample at 1-based rank `ceil(p/100 * n)`.
//! A tail percentile is only trustworthy when enough samples lie beyond
//! it, so every summary also names the highest percentile that has at
//! least [`MIN_BEYOND`] samples past it.

/// Samples that must lie beyond a percentile for it to be resolved.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Median of unsorted values (nearest rank); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The highest percentile with at least [`MIN_BEYOND`] samples beyond
/// it, and its value; `None` when there are too few samples.
pub fn resolvable_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    // Rank n - MIN_BEYOND leaves exactly MIN_BEYOND samples beyond.
    let p = 100.0 * (n - MIN_BEYOND) as f64 / n as f64;
    Some((p, sorted[n - MIN_BEYOND - 1]))
}

/// One latency distribution, summarised.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile (resolved only if `n >= 1000`).
    pub p99: f64,
    /// Highest resolvable percentile and its value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `values` (any order); `None` when empty.
    pub fn of(values: &[f64]) -> Option<Self> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Self {
            n: v.len(),
            p50: percentile(&v, 50.0)?,
            p99: percentile(&v, 99.0)?,
            tail: resolvable_tail(&v),
        })
    }

    /// `"p50=… p99=… n=… (p97.5=… resolvable)"`, values scaled by `scale`.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p:.2}={:.1}{unit}", v * scale),
            None => "none".to_string(),
        };
        format!(
            "p50={:.1}{unit} p99={:.1}{unit} n={} highest resolvable: {tail}",
            self.p50 * scale,
            self.p99 * scale,
            self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn resolvable_tail_leaves_ten_samples_beyond() {
        assert_eq!(resolvable_tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // 90 of 100: samples 91..=100 lie beyond.
        assert_eq!(resolvable_tail(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(resolvable_tail(&v), Some((99.0, 990.0)));
        let beyond = v.iter().filter(|&&x| x > 990.0).count();
        assert_eq!(beyond, MIN_BEYOND);
    }

    #[test]
    fn summary_counts_samples() {
        let s = Summary::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((s.n, s.p50, s.p99, s.tail), (3, 3.0, 5.0, None));
        assert!(Summary::of(&[]).is_none());
        assert!(s.describe(1.0, "us").contains("n=3"));
    }
}
