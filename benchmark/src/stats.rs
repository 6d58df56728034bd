//! Order statistics for repetition samples and op latencies.

/// Median of a sample (mean of the two middle values for even sizes).
/// `NaN` for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method) so the spreads this
/// program prints are the ones the acceptance rule is stated in. Falls back
/// to (min, max) below two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, clamped into the sample.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Smallest value; `NaN` for an empty sample.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

/// Value at quantile `q` (nearest rank, `0.0..=1.0`) of an unsorted sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return f64::NAN;
    }
    s[((s.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize]
}

/// The tail percentile a sample supports: the highest of p90 / p99 / p99.9
/// that still has at least ten samples beyond it. `None` when even p90 does
/// not (fewer than 100 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    // In per-mille, so that 100 samples at p90 count exactly ten beyond.
    [999usize, 990, 900]
        .into_iter()
        .find(|p| n * (1000 - p) / 1000 >= 10)
        .map(|p| p as f64 / 1000.0)
}

/// Tail value by [`tail_percentile`]; falls back to the maximum when the
/// sample is too small for any percentile. Returns `(percentile, value)`,
/// the percentile being 1.0 for the fallback.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    match tail_percentile(xs.len()) {
        Some(p) => (p, quantile(xs, p)),
        None => (1.0, quantile(xs, 1.0)),
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
    s.sort_by(f64::total_cmp);
    s
}

/// Log-bucket histogram of durations in nanoseconds: bucket `i` holds
/// `[2^i, 2^(i+1))`. Gives the p50/p99 of a span name without keeping every
/// duration.
#[derive(Clone)]
pub struct LogHist {
    buckets: [u64; 64],
    count: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            buckets: [0; 64],
            count: 0,
        }
    }
}

impl LogHist {
    pub fn add(&mut self, ns: u64) {
        self.buckets[(63 - ns.max(1).leading_zeros()) as usize] += 1;
        self.count += 1;
    }

    /// Geometric midpoint of the bucket holding quantile `q`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = (self.count as f64 * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (2f64).powf(i as f64 + 0.5);
            }
        }
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((q1, q3), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert_eq!((q1, q3), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(999), Some(0.90));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), (0.99, 990.0));
        assert_eq!(tail(&[5.0, 9.0]), (1.0, 9.0));
    }

    #[test]
    fn log_hist_quantiles_land_in_the_right_bucket() {
        let mut h = LogHist::default();
        for _ in 0..99 {
            h.add(100); // bucket 6: [64, 128)
        }
        h.add(5_000); // bucket 12: [4096, 8192)
        assert!((64.0..128.0).contains(&h.quantile(0.5)));
        assert!((64.0..128.0).contains(&h.quantile(0.99)));
        assert!((4096.0..8192.0).contains(&h.quantile(1.0)));
        assert!(LogHist::default().quantile(0.5).is_nan());
    }
}
