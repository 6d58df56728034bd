//! 160-bit overlay addresses and ring arithmetic.
//!
//! Brunet organises nodes on a ring of 2^160 addresses. IPOP assigns each node the
//! SHA-1 hash of its virtual IP address (paper Section III-B), so any node can
//! compute the overlay destination of an IP packet locally. Greedy routing needs
//! ring distances, which we compute with full 160-bit modular arithmetic.
//!
//! The stored form is the 20 big-endian bytes the wire carries; arithmetic
//! reads them as a `(u32, u128)` pair of machine words ([`U160`]), comparison
//! as one `u64` of the leading 8 bytes with the rest read only on a tie —
//! every routed packet pays several of each, and byte loops and `memcmp` were
//! the largest single cost of the ring workloads. A sorted table's binary
//! search then touches 8 bytes of each probed entry, not 20.

use std::cmp::Ordering;
use std::fmt;
use std::net::Ipv4Addr;

use ipop_packet::sha1::Sha1;
use ipop_simcore::StreamRng;

/// A 160-bit address on the Brunet ring.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct Address(pub [u8; 20]);

/// An unsigned 160-bit distance between two addresses.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Distance(pub [u8; 20]);

/// 160 big-endian bits as `(high 32, low 128)`; the derived order is the
/// byte-wise order of the array it was read from.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct U160(u32, u128);

impl U160 {
    #[inline]
    fn read(b: &[u8; 20]) -> U160 {
        let mut lo = [0u8; 16];
        lo.copy_from_slice(&b[4..]);
        U160(
            u32::from_be_bytes([b[0], b[1], b[2], b[3]]),
            u128::from_be_bytes(lo),
        )
    }

    #[inline]
    fn bytes(self) -> [u8; 20] {
        let mut out = [0u8; 20];
        out[..4].copy_from_slice(&self.0.to_be_bytes());
        out[4..].copy_from_slice(&self.1.to_be_bytes());
        out
    }

    /// `self - rhs mod 2^160`.
    #[inline]
    fn wrapping_sub(self, rhs: U160) -> U160 {
        let (lo, borrow) = self.1.overflowing_sub(rhs.1);
        U160(self.0.wrapping_sub(rhs.0).wrapping_sub(borrow as u32), lo)
    }

    /// `self + rhs mod 2^160`.
    #[inline]
    fn wrapping_add(self, rhs: U160) -> U160 {
        let (lo, carry) = self.1.overflowing_add(rhs.1);
        U160(self.0.wrapping_add(rhs.0).wrapping_add(carry as u32), lo)
    }
}

/// The byte-wise order of two 160-bit values, decided by their leading 8
/// bytes read as one big-endian `u64` — which almost always differ — and by
/// the other 12 only on a tie.
#[inline]
fn word_cmp(a: &[u8; 20], b: &[u8; 20]) -> Ordering {
    let head = |x: &[u8; 20]| u64::from_be_bytes([x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]]);
    head(a).cmp(&head(b)).then_with(|| a[8..].cmp(&b[8..]))
}

macro_rules! word_order {
    ($t:ty) => {
        impl Ord for $t {
            #[inline]
            fn cmp(&self, other: &Self) -> Ordering {
                word_cmp(&self.0, &other.0)
            }
        }

        impl PartialOrd for $t {
            #[inline]
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
    };
}

word_order!(Address);
word_order!(Distance);

impl Distance {
    /// The zero distance.
    pub const ZERO: Distance = Distance([0u8; 20]);
    /// The maximum representable distance.
    pub const MAX: Distance = Distance([0xFF; 20]);

    /// Approximate the distance as an `f64` (used for Kleinberg shortcut sampling
    /// and diagnostics; precision loss is irrelevant there).
    pub fn as_f64(&self) -> f64 {
        let U160(hi, lo) = U160::read(&self.0);
        hi as f64 * 2f64.powi(128) + lo as f64
    }

    /// Number of leading zero bits — a cheap logarithmic "closeness" measure.
    pub fn leading_zero_bits(&self) -> u32 {
        match U160::read(&self.0) {
            U160(0, lo) => 32 + lo.leading_zeros(),
            U160(hi, _) => hi.leading_zeros(),
        }
    }
}

impl Address {
    /// The zero address.
    pub const ZERO: Address = Address([0u8; 20]);

    /// The overlay address of a virtual IP: SHA-1 of its four octets, exactly as
    /// the IPOP prototype maps tap addresses onto Brunet addresses.
    pub fn from_ip(ip: Ipv4Addr) -> Address {
        Address(Sha1::digest(&ip.octets()))
    }

    /// The overlay address derived from an arbitrary name (used for DHT keys).
    pub fn from_key(key: &[u8]) -> Address {
        Address(Sha1::digest(key))
    }

    /// A uniformly random address.
    pub fn random(rng: &mut StreamRng) -> Address {
        let mut bytes = [0u8; 20];
        rng.fill_bytes(&mut bytes);
        Address(bytes)
    }

    /// Clockwise (additive) distance from `self` to `other`: `other - self mod 2^160`.
    pub fn clockwise_distance(&self, other: &Address) -> Distance {
        Distance(
            U160::read(&other.0)
                .wrapping_sub(U160::read(&self.0))
                .bytes(),
        )
    }

    /// Ring distance: the smaller of the clockwise and counter-clockwise distances.
    pub fn ring_distance(&self, other: &Address) -> Distance {
        let cw = U160::read(&other.0).wrapping_sub(U160::read(&self.0));
        let ccw = U160(0, 0).wrapping_sub(cw);
        Distance(cw.min(ccw).bytes())
    }

    /// The address at clockwise offset `dist` from `self` (mod 2^160).
    pub fn add_distance(&self, dist: &Distance) -> Address {
        Address(
            U160::read(&self.0)
                .wrapping_add(U160::read(&dist.0))
                .bytes(),
        )
    }

    /// Short hexadecimal prefix for logs and debugging.
    pub fn short(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({}…)", self.short())
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(msb: u8) -> Address {
        let mut a = [0u8; 20];
        a[0] = msb;
        Address(a)
    }

    #[test]
    fn ip_mapping_is_deterministic_and_spread() {
        let a = Address::from_ip(Ipv4Addr::new(172, 16, 0, 2));
        let b = Address::from_ip(Ipv4Addr::new(172, 16, 0, 2));
        let c = Address::from_ip(Ipv4Addr::new(172, 16, 0, 3));
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Adjacent IPs land far apart on the ring (hashing spreads them).
        assert!(a.ring_distance(&c) > Distance::ZERO);
    }

    #[test]
    fn clockwise_distance_wraps() {
        let near_top = addr(0xFF);
        let near_bottom = addr(0x01);
        let cw = near_top.clockwise_distance(&near_bottom);
        // 0x01... - 0xFF... mod 2^160 = 0x02 << 152
        assert_eq!(cw.0[0], 0x02);
        let ccw = near_bottom.clockwise_distance(&near_top);
        assert_eq!(ccw.0[0], 0xFE);
        assert!(near_top.ring_distance(&near_bottom) == cw);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = Address::from_ip(Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(a.clockwise_distance(&a), Distance::ZERO);
        assert_eq!(a.ring_distance(&a), Distance::ZERO);
    }

    #[test]
    fn add_distance_round_trips() {
        let a = Address::from_ip(Ipv4Addr::new(10, 0, 0, 1));
        let b = Address::from_ip(Ipv4Addr::new(10, 0, 0, 2));
        let d = a.clockwise_distance(&b);
        assert_eq!(a.add_distance(&d), b);
    }

    #[test]
    fn distance_helpers() {
        assert_eq!(Distance::ZERO.as_f64(), 0.0);
        assert!(Distance::MAX.as_f64() > 1e48);
        assert_eq!(Distance::ZERO.leading_zero_bits(), 160);
        let d = addr(0x01).clockwise_distance(&addr(0x02));
        assert_eq!(d.leading_zero_bits(), 7);
    }

    #[test]
    fn random_addresses_differ() {
        let mut rng = StreamRng::new(1, "addr");
        let a = Address::random(&mut rng);
        let b = Address::random(&mut rng);
        assert_ne!(a, b);
    }

    /// The byte-at-a-time arithmetic and the derived `[u8; 20]` order the
    /// word-wise versions replaced, kept as the reference they must equal.
    mod reference {
        use super::*;

        pub fn clockwise_distance(from: &Address, to: &Address) -> Distance {
            let mut out = [0u8; 20];
            let mut borrow = 0i16;
            for i in (0..20).rev() {
                let diff = to.0[i] as i16 - from.0[i] as i16 - borrow;
                if diff < 0 {
                    out[i] = (diff + 256) as u8;
                    borrow = 1;
                } else {
                    out[i] = diff as u8;
                    borrow = 0;
                }
            }
            Distance(out)
        }

        pub fn ring_distance(a: &Address, b: &Address) -> Distance {
            let cw = clockwise_distance(a, b);
            let ccw = clockwise_distance(b, a);
            if cw.0 <= ccw.0 {
                cw
            } else {
                ccw
            }
        }

        pub fn add_distance(a: &Address, dist: &Distance) -> Address {
            let mut out = [0u8; 20];
            let mut carry = 0u16;
            for i in (0..20).rev() {
                let sum = a.0[i] as u16 + dist.0[i] as u16 + carry;
                out[i] = (sum & 0xFF) as u8;
                carry = sum >> 8;
            }
            Address(out)
        }

        pub fn leading_zero_bits(d: &Distance) -> u32 {
            let mut bits = 0;
            for &b in &d.0 {
                if b == 0 {
                    bits += 8;
                } else {
                    bits += b.leading_zeros();
                    break;
                }
            }
            bits
        }

        pub fn as_f64(d: &Distance) -> f64 {
            d.0.iter().fold(0.0, |acc, &b| acc * 256.0 + b as f64)
        }
    }

    /// Every word-wise operation against its byte-wise reference on one triple.
    fn check_against_reference(a: Address, b: Address, c: Address) {
        assert_eq!(a.cmp(&b), a.0.cmp(&b.0), "{a} cmp {b}");
        let cw = a.clockwise_distance(&b);
        assert_eq!(cw, reference::clockwise_distance(&a, &b), "{a} -> {b}");
        let ring = a.ring_distance(&b);
        assert_eq!(ring, reference::ring_distance(&a, &b), "{a} <-> {b}");
        assert_eq!(ring, b.ring_distance(&a), "ring distance is symmetric");
        assert_eq!(a.add_distance(&cw), b, "add_distance round-trips");
        assert_eq!(a.add_distance(&cw), reference::add_distance(&a, &cw));
        let cw_c = a.clockwise_distance(&c);
        assert_eq!(cw.cmp(&cw_c), cw.0.cmp(&cw_c.0), "Distance order");
        assert_eq!(cw.leading_zero_bits(), reference::leading_zero_bits(&cw));
        // The reference rounds once per byte past the 53rd bit, the words twice.
        let (f, r) = (cw.as_f64(), reference::as_f64(&cw));
        assert!((f - r).abs() <= r * 1e-14, "as_f64 {f} vs {r}");
    }

    #[test]
    fn word_arithmetic_matches_bytes_on_the_edges() {
        /// `hi` in the last byte of the `u32` word, `lo` in every byte of the `u128`.
        fn seam(hi: u8, lo: u8) -> Address {
            let mut b = [lo; 20];
            b[..4].copy_from_slice(&[0, 0, 0, hi]);
            Address(b)
        }
        let zero = Address::ZERO;
        let mut one = Address::ZERO;
        one.0[19] = 1;
        let max = Address(Distance::MAX.0);
        let (below_seam, above_seam) = (seam(0, 0xFF), seam(1, 0x00));
        let antipode = addr(0x80);
        let mixed = Address::from_ip(Ipv4Addr::new(172, 16, 0, 2));
        let edges = [zero, one, max, below_seam, above_seam, antipode, mixed];
        for a in edges {
            for b in edges {
                for c in edges {
                    check_against_reference(a, b, c);
                }
            }
        }

        // The borrow and the carry cross the seam.
        assert_eq!(below_seam.clockwise_distance(&above_seam).0, one.0);
        assert_eq!(above_seam.clockwise_distance(&below_seam), Distance::MAX);
        assert_eq!(below_seam.add_distance(&Distance(one.0)), above_seam);
        assert_eq!(max.add_distance(&Distance(one.0)), zero);
        // On the exact antipode clockwise and counter-clockwise tie.
        assert_eq!(zero.ring_distance(&antipode).0, antipode.0);
        assert_eq!(antipode.ring_distance(&zero).0, antipode.0);
        let opposite = mixed.add_distance(&Distance(antipode.0));
        assert_eq!(mixed.ring_distance(&opposite).0, antipode.0);
        // The order's ends.
        assert!(Distance::ZERO < Distance(one.0) && Distance(one.0) < Distance::MAX);
        assert!(below_seam < above_seam && above_seam < antipode && antipode < max);
        assert_eq!(zero.clockwise_distance(&max), Distance::MAX);
        assert_eq!(Distance::MAX.leading_zero_bits(), 0);
        assert_eq!(Distance(above_seam.0).leading_zero_bits(), 31);
        assert_eq!(Distance(below_seam.0).leading_zero_bits(), 32);
    }

    proptest::proptest! {
        /// 64 triples a case, so tier-1's default 64 cases compare 4 096.
        /// Byte 20 of `b` and of `c` is not address: it says how long a prefix
        /// to copy from `a`, because independent draws almost never agree past
        /// the first byte and then neither a long borrow chain nor a compare
        /// decided in the low word is ever seen.
        #[test]
        fn word_arithmetic_matches_the_byte_reference(
            batch in proptest::collection::vec(proptest::any::<[[u8; 21]; 3]>(), 64..65)
        ) {
            for [a, b, c] in batch {
                let address = |raw: [u8; 21]| {
                    let mut bytes = [0u8; 20];
                    bytes.copy_from_slice(&raw[..20]);
                    let shared = raw[20] as usize % 21;
                    bytes[..shared].copy_from_slice(&a[..shared]);
                    Address(bytes)
                };
                check_against_reference(address(a), address(b), address(c));
            }
        }

        /// `Address` and `Distance` order is `[u8; 20]` order, on arbitrary
        /// pairs and on pairs that share their first 8 bytes — where the
        /// leading words tie and the other 12 bytes decide, down to the last.
        #[test]
        fn word_order_matches_the_byte_order(a: [u8; 20], b: [u8; 20], tail: [u8; 12]) {
            let mut tied = a;
            tied[8..].copy_from_slice(&tail);
            let mut last = a;
            last[19] = tail[0];
            for (x, y) in [(a, b), (a, tied), (tied, a), (a, last), (last, a), (a, a)] {
                assert_eq!(Address(x).cmp(&Address(y)), x.cmp(&y), "{x:?} {y:?}");
                assert_eq!(Distance(x).cmp(&Distance(y)), x.cmp(&y), "{x:?} {y:?}");
                assert_eq!(Address(x).partial_cmp(&Address(y)), Some(x.cmp(&y)));
            }
        }
    }

    #[test]
    fn display_formats() {
        let a = Address::from_ip(Ipv4Addr::new(172, 16, 0, 2));
        assert_eq!(format!("{a}").len(), 40);
        assert_eq!(a.short().len(), 8);
    }
}
