//! Online statistics and histograms used by the experiment harness.
//!
//! The paper reports means and standard deviations of 1000 ping RTTs (Table I),
//! throughput (Tables II/III), execution times (Table IV) and a latency histogram
//! over 10 000 pings (Fig. 5). [`OnlineStats`] implements Welford's algorithm so a
//! million samples cost O(1) memory; [`Histogram`] produces the binned counts used
//! to regenerate Fig. 5.

use crate::time::Duration;

/// Welford online mean / variance accumulator.
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one sample.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample seen (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// A compact snapshot.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count(),
            mean: self.mean(),
            std_dev: self.std_dev(),
            min: self.min(),
            max: self.max(),
        }
    }
}

/// A frozen snapshot of an [`OnlineStats`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Mean.
    pub mean: f64,
    /// Standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// A fixed-width-bin histogram over `f64` samples.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    bin_width: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    samples: Vec<f64>,
}

impl Histogram {
    /// A histogram covering `[lo, hi)` with `bins` equal-width bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0 && hi > lo, "invalid histogram bounds");
        Histogram {
            lo,
            bin_width: (hi - lo) / bins as f64,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            samples: Vec::new(),
        }
    }

    /// Add one sample.
    pub fn add(&mut self, x: f64) {
        self.samples.push(x);
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((x - self.lo) / self.bin_width) as usize;
        if idx >= self.bins.len() {
            self.overflow += 1;
        } else {
            self.bins[idx] += 1;
        }
    }

    /// Total number of samples (including under/overflow).
    pub fn count(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Samples that fell below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples that fell above the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Iterator of `(bin_low_edge, bin_high_edge, count)`.
    pub fn bins(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.bins.iter().enumerate().map(move |(i, &c)| {
            let lo = self.lo + i as f64 * self.bin_width;
            (lo, lo + self.bin_width, c)
        })
    }

    /// The p-th percentile (`0.0..=1.0`) computed from retained raw samples.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = (p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank]
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Render an ASCII bar chart, one line per bin — used by the Fig. 5 harness.
    pub fn ascii_chart(&self, width: usize) -> String {
        let max = self.bins.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (lo, hi, c) in self.bins() {
            let bar = "#".repeat((c as usize * width) / max as usize);
            out.push_str(&format!("{lo:10.1} - {hi:10.1} | {c:6} | {bar}\n"));
        }
        out
    }
}

/// Throughput helper: bytes transferred over a span, in KB/s as the paper reports.
pub fn throughput_kbps(bytes: u64, elapsed: Duration) -> f64 {
    if elapsed.is_zero() {
        return 0.0;
    }
    (bytes as f64 / 1000.0) / elapsed.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_matches_naive() {
        let data = [4.0, 8.0, 15.0, 16.0, 23.0, 42.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.add(x);
        }
        let mean: f64 = data.iter().sum::<f64>() / data.len() as f64;
        let var: f64 =
            data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.variance() - var).abs() < 1e-9);
        assert_eq!(s.count(), 6);
        assert_eq!(s.min(), 4.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn merge_equals_single_pass() {
        let mut all = OnlineStats::new();
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0 + 20.0;
            all.add(x);
            if i % 2 == 0 {
                a.add(x)
            } else {
                b.add(x)
            }
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-6);
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = OnlineStats::new();
        a.add(1.0);
        a.add(3.0);
        let b = OnlineStats::new();
        let before = a.summary();
        a.merge(&b);
        assert_eq!(a.summary(), before);

        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e.summary(), before);
    }

    #[test]
    fn histogram_bins_and_flows() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, 1.6, 9.9, -1.0, 12.0] {
            h.add(x);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        let bins: Vec<_> = h.bins().collect();
        assert_eq!(bins[0].2, 1);
        assert_eq!(bins[1].2, 2);
        assert_eq!(bins[9].2, 1);
    }

    #[test]
    fn histogram_percentile_and_mean() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        for i in 0..=100 {
            h.add(i as f64);
        }
        assert_eq!(h.percentile(0.0), 0.0);
        assert_eq!(h.percentile(1.0), 100.0);
        assert_eq!(h.percentile(0.5), 50.0);
        assert!((h.mean() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_units() {
        // 1 MB in 1 second = 1000 KBps
        assert!((throughput_kbps(1_000_000, Duration::from_secs(1)) - 1000.0).abs() < 1e-9);
        assert_eq!(throughput_kbps(1_000_000, Duration::ZERO), 0.0);
    }

    #[test]
    fn ascii_chart_has_one_line_per_bin() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        h.add(1.0);
        h.add(1.2);
        h.add(3.0);
        let chart = h.ascii_chart(20);
        assert_eq!(chart.lines().count(), 4);
    }
}
