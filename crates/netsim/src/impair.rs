//! Lossy/adversarial link impairments.
//!
//! The paper pitches IPOP for wide-area grids where packet loss, duplication,
//! corruption and reordering are routine, not exceptional. A [`LinkImpairment`]
//! describes such a dirty path between two hosts: every field is a
//! deterministic, seed-driven probability applied on the delivery path (the
//! same hook the partition primitive uses), so an impaired run replays
//! byte-identically under the same experiment seed.
//!
//! Impairments compose with partitions: a partition drops the packet before
//! the impairment is even consulted, exactly like a mid-path outage on an
//! already-lossy route.

use ipop_packet::ipv4::{Ipv4Packet, Ipv4Payload};
use ipop_packet::Bytes;
use ipop_simcore::{Duration, StreamRng};

/// Probabilistic misbehaviour of one host pair's path (or, as the network
/// default, of every path). All probabilities are per delivered packet.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkImpairment {
    /// Probability the packet is silently dropped.
    pub loss: f64,
    /// Probability the packet is delivered twice (the copy arrives up to
    /// [`LinkImpairment::reorder_window`] later).
    pub duplicate: f64,
    /// Probability 1–3 payload bytes are flipped in flight. The structured
    /// simulator carries parsed packets, so corruption targets the opaque
    /// payload bytes (UDP/TCP payloads, ICMP bodies, raw protocols) — the
    /// part of the packet that reaches the overlay's wire decoders. This
    /// models corruption that slipped past link/transport checksums, the
    /// adversarial case codec hardening exists for.
    pub corrupt: f64,
    /// Probability the packet is held back by a uniform extra delay in
    /// `(0, reorder_window]`, letting later packets overtake it.
    pub reorder: f64,
    /// Bound on the extra delay a reordered (or duplicated) packet suffers.
    pub reorder_window: Duration,
}

impl LinkImpairment {
    /// No impairment at all (every probability zero).
    pub fn none() -> Self {
        Self::default()
    }

    /// Builder: set the loss probability.
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss = p;
        self
    }

    /// Builder: set the duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Builder: set the corruption probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt = p;
        self
    }

    /// Builder: set the reordering probability and its delay bound.
    pub fn with_reorder(mut self, p: f64, window: Duration) -> Self {
        self.reorder = p;
        self.reorder_window = window.max(Duration::from_micros(1));
        self
    }
}

/// What an impairment has done so far, per impaired pair (and aggregated in
/// [`crate::NetCounters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ImpairmentCounters {
    /// Packets silently dropped.
    pub dropped: u64,
    /// Extra copies delivered.
    pub duplicated: u64,
    /// Packets whose payload bytes were flipped.
    pub corrupted: u64,
    /// Packets held back to let later traffic overtake them.
    pub reordered: u64,
}

/// Flip 1–3 bytes of an owned buffer in place. Returns `false` when empty.
fn flip_vec(owned: &mut [u8], rng: &mut StreamRng) -> bool {
    if owned.is_empty() {
        return false;
    }
    let flips = 1 + rng.index(3.min(owned.len()));
    for _ in 0..flips {
        let at = rng.index(owned.len());
        // XOR with a non-zero byte so the flip always changes the value.
        owned[at] ^= (rng.range_u64(1, 256)) as u8;
    }
    true
}

/// Flip 1–3 bytes of a shared buffer, returning the corrupted copy. Other
/// views — the sender's, or a duplicate still in flight — may share the
/// original buffer, so corruption is copy-on-write.
fn flip_bytes(bytes: &Bytes, rng: &mut StreamRng) -> Option<Bytes> {
    if bytes.is_empty() {
        return None;
    }
    let mut owned = bytes.to_vec();
    flip_vec(&mut owned, rng);
    Some(Bytes::from(owned))
}

/// Corrupt the opaque payload bytes of `pkt` in place. Returns `false` when
/// the packet has no corruptible bytes (e.g. an empty payload), in which case
/// it is delivered intact and not counted as corrupted.
pub(crate) fn corrupt_packet(pkt: &mut Ipv4Packet, rng: &mut StreamRng) -> bool {
    match &mut pkt.payload {
        Ipv4Payload::Udp(udp) => {
            if let Some(flipped) = flip_bytes(&udp.payload, rng) {
                udp.payload = flipped;
                return true;
            }
            false
        }
        Ipv4Payload::Tcp(tcp) => flip_vec(&mut tcp.payload, rng),
        Ipv4Payload::Icmp(icmp) => flip_vec(&mut icmp.payload, rng),
        Ipv4Payload::Raw(_, data) => {
            if let Some(flipped) = flip_bytes(data, rng) {
                *data = flipped;
                return true;
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipop_packet::udp::UdpDatagram;
    use std::net::Ipv4Addr;

    #[test]
    fn builders_compose() {
        let imp = LinkImpairment::none()
            .with_loss(0.01)
            .with_duplicate(0.02)
            .with_corrupt(0.03)
            .with_reorder(0.04, Duration::from_millis(5));
        assert_eq!(imp.loss, 0.01);
        assert_eq!(imp.duplicate, 0.02);
        assert_eq!(imp.corrupt, 0.03);
        assert_eq!(imp.reorder, 0.04);
        assert_eq!(imp.reorder_window, Duration::from_millis(5));
    }

    #[test]
    fn corruption_changes_udp_payload_bytes() {
        let mut rng = StreamRng::new(7, "test.corrupt");
        let original = vec![0xAAu8; 64];
        let mut pkt = Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Payload::Udp(UdpDatagram::new(1, 2, original.clone())),
        );
        assert!(corrupt_packet(&mut pkt, &mut rng));
        let Ipv4Payload::Udp(udp) = &pkt.payload else {
            panic!("payload kind preserved");
        };
        assert_eq!(udp.payload.len(), original.len());
        assert_ne!(udp.payload.as_slice(), original.as_slice());
    }

    #[test]
    fn empty_payload_is_not_corruptible() {
        let mut rng = StreamRng::new(7, "test.corrupt");
        let mut pkt = Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Payload::Udp(UdpDatagram::new(1, 2, Vec::new())),
        );
        assert!(!corrupt_packet(&mut pkt, &mut rng));
    }

    #[test]
    fn corruption_is_copy_on_write() {
        let mut rng = StreamRng::new(9, "test.cow");
        let shared = Bytes::from(vec![0x55u8; 32]);
        let mut pkt = Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Payload::Udp(UdpDatagram::new(1, 2, shared.clone())),
        );
        assert!(corrupt_packet(&mut pkt, &mut rng));
        // The original shared buffer is untouched.
        assert_eq!(shared, vec![0x55u8; 32]);
    }
}
