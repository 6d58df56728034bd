//! Deterministic random-number streams.
//!
//! Every stochastic component of the simulation (link jitter, packet loss, shortcut
//! selection, workload think times) draws from its own [`StreamRng`], derived from a
//! single experiment seed plus a stable stream label. Two components never share a
//! stream, so adding randomness to one component cannot perturb another — a property
//! the experiment harness relies on when comparing configurations.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

use crate::time::Duration;

/// A named, seedable random stream.
///
/// Internally a ChaCha12 generator (stable across platforms and `rand` point
/// releases), seeded from the experiment seed and a stream label via SplitMix64
/// mixing.
#[derive(Clone, Debug)]
pub struct StreamRng {
    inner: ChaCha12Rng,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The FNV-1a 64 offset basis: the `hash` a fresh [`fnv1a`] starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64, continued from `hash` over `bytes` — the workspace's one cheap
/// deterministic hash (stream labels, execution traces, DHT digests, the link
/// integrity tag). A `u64` folds in as its little-endian bytes.
#[inline]
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl StreamRng {
    /// Derive a stream from an experiment seed and a stable label such as
    /// `"link.jitter"` or `"overlay.shortcuts"`.
    pub fn new(seed: u64, label: &str) -> Self {
        let mixed = splitmix64(seed ^ fnv1a(FNV_OFFSET, label.as_bytes()));
        let mut key = [0u8; 32];
        let mut x = mixed;
        for chunk in key.chunks_mut(8) {
            x = splitmix64(x);
            chunk.copy_from_slice(&x.to_le_bytes());
        }
        StreamRng {
            inner: ChaCha12Rng::from_seed(key),
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform index in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty index range");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Exponentially distributed duration with the given mean.
    pub fn exponential(&mut self, mean: Duration) -> Duration {
        let u: f64 = 1.0 - self.unit(); // in (0, 1]
        Duration::from_secs_f64(-mean.as_secs_f64() * u.ln())
    }

    /// Normally distributed duration (Box–Muller), truncated at zero.
    pub fn normal(&mut self, mean: Duration, std_dev: Duration) -> Duration {
        let u1: f64 = 1.0 - self.unit();
        let u2: f64 = self.unit();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        Duration::from_secs_f64(mean.as_secs_f64() + z * std_dev.as_secs_f64())
    }

    /// A random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Fill a byte slice with random data (e.g. random overlay addresses).
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
    }

    /// Choose one element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StreamRng::new(7, "link");
        let mut b = StreamRng::new(7, "link");
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_differ() {
        let mut a = StreamRng::new(7, "link");
        let mut b = StreamRng::new(7, "host");
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn unit_is_in_range() {
        let mut r = StreamRng::new(1, "u");
        for _ in 0..1000 {
            let x = r.unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = StreamRng::new(1, "c");
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = StreamRng::new(3, "exp");
        let mean = Duration::from_millis(10);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| r.exponential(mean).as_secs_f64()).sum();
        let sample_mean = total / n as f64;
        assert!(
            (sample_mean - 0.010).abs() < 0.001,
            "sample mean {sample_mean}"
        );
    }

    #[test]
    fn normal_truncates_at_zero() {
        let mut r = StreamRng::new(4, "norm");
        for _ in 0..1000 {
            // huge std dev would go negative without clamping
            let d = r.normal(Duration::from_micros(1), Duration::from_millis(10));
            assert!(d.as_secs_f64() >= 0.0);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = StreamRng::new(6, "sh");
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
