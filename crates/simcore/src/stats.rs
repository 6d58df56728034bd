//! Sample statistics: the one vocabulary every table, figure and artefact of
//! the workspace uses.
//!
//! The paper reports its results as sample statistics: the mean and standard
//! deviation of 1000 ping RTTs (Table I), throughput (Tables II/III) and the
//! distribution of 10 000 RTTs (Fig. 5). The experiments keep every sample, so
//! these are plain functions over a slice. The conventions are stated once
//! here: an empty sample reads 0, no work counts as success, and a quantile
//! is the lower-rank order statistic ([`quantile`]).

use crate::time::Duration;

/// Mean of a sample; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Unbiased (n − 1) sample standard deviation; 0 with fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let squares: f64 = xs.iter().map(|x| (x - m).powi(2)).sum();
    (squares / (xs.len() - 1) as f64).sqrt()
}

/// Maximum of a sample, floored at 0; 0 when empty.
pub fn fmax(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// The `q` quantile of an unsorted sample: the ⌊(n − 1)·q⌋-th (0-based)
/// order statistic, `q` clamped to `0.0..=1.0`; 0 when empty. It never
/// interpolates, so the median of an even sample is the lower middle value.
/// Sorts a copy by [`f64::total_cmp`] (a NaN sorts above every number rather
/// than panicking) — result vectors, not hot paths.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)) as usize]
}

/// Success ratio with the empty case counted as success (no work, nothing
/// failed) — the convention every scenario artefact uses.
pub fn rate(num: usize, den: usize) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// Bytes transferred over a span, in KB/s as the paper reports; 0 over no time.
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
    fn mean_and_std_dev_known_answer() {
        // Σx = 108 over 6, and Σ(x − 18)² = 196 + 100 + 9 + 4 + 25 + 576 = 910.
        let xs = [4.0, 8.0, 15.0, 16.0, 23.0, 42.0];
        assert_eq!(mean(&xs), 18.0);
        assert!((std_dev(&xs) - (910.0f64 / 5.0).sqrt()).abs() < 1e-12);
        assert_eq!(fmax(&xs), 42.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(fmax(&[]), 0.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(rate(0, 0), 1.0);
    }

    #[test]
    fn stats_helpers_handle_edge_cases() {
        assert_eq!(std_dev(&[7.0]), 0.0, "one sample has no spread");
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(fmax(&[1.0, 5.0, 3.0]), 5.0);
        assert_eq!(rate(3, 4), 0.75);
    }

    #[test]
    fn quantile_picks_order_statistics() {
        // Even n: the median is the lower middle value, the 5th smallest of 10.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&ten, 0.5), 5.0);
        assert_eq!(quantile(&ten, 0.0), 1.0);
        assert_eq!(quantile(&ten, 1.0), 10.0);
        // q is clamped to 0..=1.
        assert_eq!(quantile(&ten, -0.5), 1.0);
        assert_eq!(quantile(&ten, 1.5), 10.0);
        // Unsorted input is handled.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.99), 99.0);
        // A NaN sorts above every number instead of panicking.
        let with_nan = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(quantile(&with_nan, 0.0), 1.0);
        assert_eq!(quantile(&with_nan, 0.5), 2.0);
        assert!(quantile(&with_nan, 1.0).is_nan());
    }

    #[test]
    fn quantile_and_mean_of_zero_to_hundred() {
        // 101 samples: the ⌊100·q⌋-th order statistic is the value itself.
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0), 0.0);
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert!((mean(&xs) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_units() {
        // 1 MB in 1 second = 1000 KBps
        assert!((throughput_kbps(1_000_000, Duration::from_secs(1)) - 1000.0).abs() < 1e-9);
        assert_eq!(throughput_kbps(1_000_000, Duration::ZERO), 0.0);
    }
}
