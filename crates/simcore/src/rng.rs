//! Deterministic random-number streams.
//!
//! Every stochastic component of the simulation (link jitter, packet loss, shortcut
//! selection, workload think times) draws from its own [`StreamRng`], derived from a
//! single experiment seed plus a stable stream label. Two components never share a
//! stream, so adding randomness to one component cannot perturb another — a property
//! the experiment harness relies on when comparing configurations.

use crate::time::Duration;

/// Bytes in one ChaCha keystream block.
const BLOCK: usize = 64;

/// A named, seedable random stream.
///
/// Internally a ChaCha12 keystream (djb variant: 64-bit block counter, zero
/// nonce), keyed from the experiment seed and a stream label via SplitMix64
/// mixing. It reads no entropy source, so its values are stable across
/// platforms and runs.
#[derive(Clone, Debug)]
pub struct StreamRng {
    /// ChaCha key words (state words 4..12).
    key: [u32; 8],
    /// Block counter (state words 12..14; the nonce words 14..16 stay zero).
    counter: u64,
    /// The current keystream block.
    block: [u8; BLOCK],
    /// Next unconsumed byte of `block`; `BLOCK` means "refill needed".
    pos: usize,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
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
        let mut x = splitmix64(seed ^ fnv1a(FNV_OFFSET, label.as_bytes()));
        let mut key = [0u32; 8];
        for halves in key.chunks_exact_mut(2) {
            x = splitmix64(x);
            halves[0] = x as u32;
            halves[1] = (x >> 32) as u32;
        }
        StreamRng {
            key,
            counter: 0,
            block: [0; BLOCK],
            pos: BLOCK,
        }
    }

    /// Compute the next ChaCha12 block into `block` and rewind `pos`.
    fn refill(&mut self) {
        // "expand 32-byte k", the key, the counter, a zero nonce.
        let mut s = [0u32; 16];
        s[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        s[4..12].copy_from_slice(&self.key);
        s[12] = self.counter as u32;
        s[13] = (self.counter >> 32) as u32;
        let initial = s;
        // ChaCha12: six double rounds.
        for _ in 0..6 {
            // Column round.
            quarter_round(&mut s, 0, 4, 8, 12);
            quarter_round(&mut s, 1, 5, 9, 13);
            quarter_round(&mut s, 2, 6, 10, 14);
            quarter_round(&mut s, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut s, 0, 5, 10, 15);
            quarter_round(&mut s, 1, 6, 11, 12);
            quarter_round(&mut s, 2, 7, 8, 13);
            quarter_round(&mut s, 3, 4, 9, 14);
        }
        for (out, (w, w0)) in self.block.chunks_exact_mut(4).zip(s.iter().zip(initial)) {
            out.copy_from_slice(&w.wrapping_add(w0).to_le_bytes());
        }
        self.counter = self.counter.wrapping_add(1);
        self.pos = 0;
    }

    /// A random 64-bit value: the next 8 keystream bytes, little-endian. When
    /// fewer than 8 remain in the block, they are dropped and a new block
    /// starts.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        if self.pos + 8 > BLOCK {
            self.refill();
        }
        let mut word = [0u8; 8];
        word.copy_from_slice(&self.block[self.pos..self.pos + 8]);
        self.pos += 8;
        u64::from_le_bytes(word)
    }

    /// Fill a byte slice with the next keystream bytes (e.g. random overlay
    /// addresses), byte-exact across block boundaries.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut filled = 0;
        while filled < dest.len() {
            if self.pos == BLOCK {
                self.refill();
            }
            let n = (dest.len() - filled).min(BLOCK - self.pos);
            dest[filled..filled + n].copy_from_slice(&self.block[self.pos..self.pos + n]);
            self.pos += n;
            filled += n;
        }
    }

    /// Uniform `f64` in `[0, 1)`: the top 53 bits of a word.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`, without modulo bias: a word at or above
    /// the largest multiple of the span is rejected and redrawn. Panics if
    /// `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        let span = hi - lo;
        let limit = u64::MAX - u64::MAX % span;
        loop {
            let v = self.next_u64();
            if v < limit {
                return lo + v % span;
            }
        }
    }

    /// Uniform index in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.range_u64(0, n as u64) as usize
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

    /// Known answers for one stream: a changed key schedule, block function,
    /// word rule or conversion fails here, not only as a moved history.
    #[test]
    fn keystream_known_answers() {
        let mut r = StreamRng::new(0x1905, "link.jitter");
        let words = [r.next_u64(), r.next_u64(), r.next_u64()];
        assert_eq!(
            words,
            [
                0x5e0d_ca80_9450_939f,
                0x92e6_dec0_405b_cf43,
                0x623e_e0ae_e935_3881
            ]
        );
        let mut bytes = [0u8; 13];
        r.fill_bytes(&mut bytes);
        assert_eq!(
            bytes,
            [176, 151, 25, 220, 136, 78, 67, 221, 79, 119, 205, 10, 236]
        );
        // A word starts at any byte: this one is bytes 37..45 of block 0.
        assert_eq!(r.next_u64(), 0x4ad3_72ff_f772_9c52);
        r.fill_bytes(&mut bytes);
        assert_eq!(
            bytes,
            [7, 99, 96, 113, 70, 52, 78, 17, 227, 68, 114, 7, 112]
        );
        // Six bytes are left in block 0: the next word drops them and is
        // block 1's first.
        assert_eq!(r.next_u64(), 0xfa4f_96bf_481d_5858);
        let mut long = [0u8; 70];
        r.fill_bytes(&mut long);
        assert_eq!(fnv1a(FNV_OFFSET, &long), 0xf3e2_c9e3_1566_33c4);
        assert_eq!(r.unit().to_bits(), 0x3fd8_7d50_182f_0990);
        assert_eq!(r.index(1000), 508);
        assert_eq!(r.range_u64(10, 20), 11);
        let d = r.normal(Duration::from_millis(10), Duration::from_millis(2));
        assert_eq!(d, Duration::from_nanos(11_443_078));
        assert_eq!(StreamRng::new(1, "").next_u64(), 0xfebe_1001_d5dc_1cc2);
    }

    /// RFC 8439 §2.1.1: the quarter round is ChaCha's, whatever the round count.
    #[test]
    fn rfc8439_quarter_round_vector() {
        let mut s = [0u32; 16];
        s[..4].copy_from_slice(&[0x1111_1111, 0x0102_0304, 0x9b8d_6f43, 0x0123_4567]);
        quarter_round(&mut s, 0, 1, 2, 3);
        assert_eq!(s[..4], [0xea2a_92f4, 0xcb1c_f8ce, 0x4581_472e, 0x5881_c4bb]);
    }

    #[test]
    fn fill_bytes_matches_streamed_words() {
        let mut a = StreamRng::new(3, "fill");
        let mut b = a.clone();
        let mut buf = [0u8; 24];
        a.fill_bytes(&mut buf);
        let mut expect = [0u8; 24];
        for chunk in expect.chunks_mut(8) {
            chunk.copy_from_slice(&b.next_u64().to_le_bytes());
        }
        assert_eq!(buf, expect);
    }

    #[test]
    fn clone_preserves_stream_position() {
        let mut a = StreamRng::new(9, "clone");
        a.next_u64();
        let mut b = a.clone();
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
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
    fn range_respects_bounds() {
        let mut r = StreamRng::new(2, "range");
        for _ in 0..1000 {
            assert!((10..20).contains(&r.range_u64(10, 20)));
            assert!(r.index(3) < 3);
            assert!(r.range_u64(1, u64::MAX) >= 1);
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
