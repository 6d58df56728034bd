//! Ethernet framing and MAC addresses.
//!
//! IPOP reads and writes layer-2 frames on the tap device (paper Section III-A):
//! the kernel hands it Ethernet frames, IPOP extracts the IPv4 payload and discards
//! or locally answers everything else (notably ARP). The virtual interface's MAC
//! and the fabricated "gateway" MAC are the two addresses that ever appear on a
//! virtual link.

use crate::{arp::ArpPacket, ipv4::Ipv4Packet, ParseError};

/// A 48-bit IEEE MAC address.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);
    /// The all-zero address (used as "unspecified").
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// A locally-administered unicast address derived from an index; used when the
    /// simulator fabricates tap-device and gateway MACs.
    pub fn local(index: u64) -> MacAddr {
        let b = index.to_be_bytes();
        // 0x02 = locally administered, unicast.
        MacAddr([0x02, b[3], b[4], b[5], b[6], b[7]])
    }

    /// True for the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == MacAddr::BROADCAST
    }
}

impl std::fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self)
    }
}

impl std::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// The EtherType of a frame payload.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806).
    Arp,
    /// Anything else, preserved verbatim.
    Other(u16),
}

impl EtherType {
    /// Numeric EtherType value.
    pub fn value(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }

    /// From the numeric value.
    pub fn from_value(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

/// The payload of an Ethernet frame.
#[derive(Clone, Debug, PartialEq)]
pub enum FramePayload {
    /// An IPv4 packet.
    Ipv4(Ipv4Packet),
    /// An ARP packet (always contained within the host by IPOP).
    Arp(ArpPacket),
    /// Unparsed bytes of some other EtherType.
    Other(u16, Vec<u8>),
}

/// An Ethernet II frame.
#[derive(Clone, Debug, PartialEq)]
pub struct EthernetFrame {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Payload.
    pub payload: FramePayload,
}

/// Length of the Ethernet II header (no 802.1Q tag, no FCS).
pub const ETHERNET_HEADER_LEN: usize = 14;

impl EthernetFrame {
    /// Build an IPv4 frame.
    pub fn ipv4(src: MacAddr, dst: MacAddr, packet: Ipv4Packet) -> Self {
        EthernetFrame {
            dst,
            src,
            payload: FramePayload::Ipv4(packet),
        }
    }

    /// Build an ARP frame.
    pub fn arp(src: MacAddr, dst: MacAddr, packet: ArpPacket) -> Self {
        EthernetFrame {
            dst,
            src,
            payload: FramePayload::Arp(packet),
        }
    }

    /// The frame's EtherType.
    pub fn ether_type(&self) -> EtherType {
        match &self.payload {
            FramePayload::Ipv4(_) => EtherType::Ipv4,
            FramePayload::Arp(_) => EtherType::Arp,
            FramePayload::Other(v, _) => EtherType::Other(*v),
        }
    }

    /// Total on-wire length in bytes (header + payload, without FCS or padding).
    pub fn wire_len(&self) -> usize {
        ETHERNET_HEADER_LEN
            + match &self.payload {
                FramePayload::Ipv4(p) => p.wire_len(),
                FramePayload::Arp(_) => crate::arp::ARP_PACKET_LEN,
                FramePayload::Other(_, data) => data.len(),
            }
    }

    /// Serialize to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.dst.0);
        out.extend_from_slice(&self.src.0);
        out.extend_from_slice(&self.ether_type().value().to_be_bytes());
        match &self.payload {
            FramePayload::Ipv4(p) => out.extend_from_slice(&p.to_bytes()),
            FramePayload::Arp(p) => out.extend_from_slice(&p.to_bytes()),
            FramePayload::Other(_, data) => out.extend_from_slice(data),
        }
        out
    }

    /// Parse from wire bytes.
    #[allow(
        clippy::indexing_slicing,
        reason = "fixed-offset header reads, all below the up-front length check on the first line of the body"
    )]
    pub fn from_bytes(data: &[u8]) -> Result<Self, ParseError> {
        if data.len() < ETHERNET_HEADER_LEN {
            return Err(ParseError::Truncated("ethernet header"));
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&data[0..6]);
        src.copy_from_slice(&data[6..12]);
        let ety = EtherType::from_value(u16::from_be_bytes([data[12], data[13]]));
        let body = &data[ETHERNET_HEADER_LEN..];
        let payload = match ety {
            EtherType::Ipv4 => FramePayload::Ipv4(Ipv4Packet::from_bytes(body)?),
            EtherType::Arp => FramePayload::Arp(ArpPacket::from_bytes(body)?),
            EtherType::Other(v) => FramePayload::Other(v, body.to_vec()),
        };
        Ok(EthernetFrame {
            dst: MacAddr(dst),
            src: MacAddr(src),
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::{Ipv4Packet, Ipv4Payload};
    use std::net::Ipv4Addr;

    #[test]
    fn mac_display_and_flags() {
        let m = MacAddr([0x02, 0x00, 0x00, 0x00, 0x00, 0x2a]);
        assert_eq!(m.to_string(), "02:00:00:00:00:2a");
        assert!(!m.is_broadcast());
        assert!(MacAddr::BROADCAST.is_broadcast());
    }

    #[test]
    fn local_macs_are_unique_and_local() {
        let a = MacAddr::local(1);
        let b = MacAddr::local(2);
        assert_ne!(a, b);
        assert_eq!(a.0[0], 0x02);
    }

    #[test]
    fn ether_type_round_trip() {
        for v in [0x0800u16, 0x0806, 0x86DD, 0x1234] {
            assert_eq!(EtherType::from_value(v).value(), v);
        }
    }

    #[test]
    fn ipv4_frame_round_trip() {
        let pkt = Ipv4Packet::new(
            Ipv4Addr::new(172, 16, 0, 2),
            Ipv4Addr::new(172, 16, 0, 18),
            Ipv4Payload::Raw(200, vec![1, 2, 3, 4].into()),
        );
        let frame = EthernetFrame::ipv4(MacAddr::local(1), MacAddr::local(2), pkt);
        let bytes = frame.to_bytes();
        assert_eq!(bytes.len(), frame.wire_len());
        let parsed = EthernetFrame::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, frame);
    }

    #[test]
    fn other_payload_round_trip() {
        let frame = EthernetFrame {
            dst: MacAddr::BROADCAST,
            src: MacAddr::local(9),
            payload: FramePayload::Other(0x88B5, vec![0xde, 0xad, 0xbe, 0xef]),
        };
        let parsed = EthernetFrame::from_bytes(&frame.to_bytes()).unwrap();
        assert_eq!(parsed, frame);
        assert_eq!(parsed.ether_type(), EtherType::Other(0x88B5));
    }

    #[test]
    fn truncated_frame_rejected() {
        assert_eq!(
            EthernetFrame::from_bytes(&[0u8; 5]),
            Err(ParseError::Truncated("ethernet header"))
        );
    }
}
