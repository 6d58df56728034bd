//! IPv4 packets (RFC 791).
//!
//! The same type is used on the physical network (where the simulator's links,
//! NATs and firewalls inspect and rewrite it) and on the virtual network (where it
//! is the payload that IPOP extracts from tap frames and tunnels through the
//! overlay). Options and fragmentation are not modelled: IPOP's prototype tunnels
//! whole IP packets and relies on the overlay transport for segmentation.

use std::net::Ipv4Addr;

use crate::bytes::Bytes;
use crate::checksum::{internet_checksum, verify};
use crate::icmp::IcmpPacket;
use crate::tcp::TcpSegment;
use crate::udp::UdpDatagram;
use crate::ParseError;

/// IPv4 protocol numbers the stack understands.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Protocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Any other protocol number, preserved verbatim.
    Other(u8),
}

impl Protocol {
    /// The numeric protocol field value.
    pub fn value(self) -> u8 {
        match self {
            Protocol::Icmp => 1,
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Other(v) => v,
        }
    }

    /// From the numeric value.
    pub fn from_value(v: u8) -> Self {
        match v {
            1 => Protocol::Icmp,
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            other => Protocol::Other(other),
        }
    }
}

/// Parsed fixed IPv4 header fields (no options).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Time to live.
    pub ttl: u8,
    /// Identification field (used by the ping driver to correlate echoes).
    pub identification: u16,
    /// Differentiated services code point (kept for completeness, defaults to 0).
    pub dscp: u8,
}

impl Ipv4Header {
    /// A header with the default TTL of 64.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr) -> Self {
        Ipv4Header {
            src,
            dst,
            ttl: 64,
            identification: 0,
            dscp: 0,
        }
    }
}

/// The transport payload of an IPv4 packet.
#[derive(Clone, Debug, PartialEq)]
pub enum Ipv4Payload {
    /// ICMP message.
    Icmp(IcmpPacket),
    /// UDP datagram.
    Udp(UdpDatagram),
    /// TCP segment.
    Tcp(TcpSegment),
    /// Unparsed payload of some other protocol number.
    Raw(u8, Bytes),
}

impl Ipv4Payload {
    /// The protocol number of this payload.
    pub fn protocol(&self) -> Protocol {
        match self {
            Ipv4Payload::Icmp(_) => Protocol::Icmp,
            Ipv4Payload::Udp(_) => Protocol::Udp,
            Ipv4Payload::Tcp(_) => Protocol::Tcp,
            Ipv4Payload::Raw(v, _) => Protocol::Other(*v),
        }
    }

    /// On-wire length of the payload in bytes.
    pub fn wire_len(&self) -> usize {
        match self {
            Ipv4Payload::Icmp(p) => p.wire_len(),
            Ipv4Payload::Udp(p) => p.wire_len(),
            Ipv4Payload::Tcp(p) => p.wire_len(),
            Ipv4Payload::Raw(_, data) => data.len(),
        }
    }
}

/// Length of the fixed IPv4 header (IHL = 5).
pub const IPV4_HEADER_LEN: usize = 20;

/// A complete IPv4 packet.
#[derive(Clone, Debug, PartialEq)]
pub struct Ipv4Packet {
    /// Header fields.
    pub header: Ipv4Header,
    /// Transport payload.
    pub payload: Ipv4Payload,
}

impl Ipv4Packet {
    /// Build a packet with default header fields (TTL 64).
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, payload: Ipv4Payload) -> Self {
        Ipv4Packet {
            header: Ipv4Header::new(src, dst),
            payload,
        }
    }

    /// Source address.
    pub fn src(&self) -> Ipv4Addr {
        self.header.src
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv4Addr {
        self.header.dst
    }

    /// The payload's protocol number.
    pub fn protocol(&self) -> Protocol {
        self.payload.protocol()
    }

    /// Total on-wire length (header + payload).
    pub fn wire_len(&self) -> usize {
        IPV4_HEADER_LEN + self.payload.wire_len()
    }

    /// Decrement TTL; returns `false` (and leaves TTL at zero) when it expires.
    pub fn decrement_ttl(&mut self) -> bool {
        if self.header.ttl <= 1 {
            self.header.ttl = 0;
            false
        } else {
            self.header.ttl -= 1;
            true
        }
    }

    /// The source/destination transport ports, if the payload is UDP or TCP.
    pub fn ports(&self) -> Option<(u16, u16)> {
        match &self.payload {
            Ipv4Payload::Udp(u) => Some((u.src_port, u.dst_port)),
            Ipv4Payload::Tcp(t) => Some((t.src_port, t.dst_port)),
            _ => None,
        }
    }

    /// Serialize to wire bytes, computing the header checksum and the transport
    /// checksum (with pseudo-header) as a real stack would.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload_bytes = match &self.payload {
            Ipv4Payload::Icmp(p) => p.to_bytes(),
            Ipv4Payload::Udp(p) => p.to_bytes(self.header.src, self.header.dst),
            Ipv4Payload::Tcp(p) => p.to_bytes(self.header.src, self.header.dst),
            Ipv4Payload::Raw(_, data) => data.to_vec(),
        };
        let total_len = (IPV4_HEADER_LEN + payload_bytes.len()) as u16;
        let mut header = [0u8; IPV4_HEADER_LEN];
        header[0] = 0x45; // version 4, IHL 5
        header[1] = self.header.dscp << 2;
        header[2..4].copy_from_slice(&total_len.to_be_bytes());
        header[4..6].copy_from_slice(&self.header.identification.to_be_bytes());
        header[6..8].copy_from_slice(&0x4000u16.to_be_bytes()); // DF set, no fragments
        header[8] = self.header.ttl;
        header[9] = self.payload.protocol().value();
        // checksum at [10..12] computed below
        header[12..16].copy_from_slice(&self.header.src.octets());
        header[16..20].copy_from_slice(&self.header.dst.octets());
        let csum = internet_checksum(&header);
        header[10..12].copy_from_slice(&csum.to_be_bytes());

        let mut out = Vec::with_capacity(IPV4_HEADER_LEN + payload_bytes.len());
        out.extend_from_slice(&header);
        out.extend_from_slice(&payload_bytes);
        out
    }

    /// Parse from wire bytes, verifying the header checksum.
    #[allow(
        clippy::indexing_slicing,
        reason = "fixed-offset header reads below the up-front length check, IHL/total-length validation and header checksum verification: every slice is bounded by a validated length"
    )]
    pub fn from_bytes(data: &[u8]) -> Result<Self, ParseError> {
        if data.len() < IPV4_HEADER_LEN {
            return Err(ParseError::Truncated("ipv4 header"));
        }
        let version = data[0] >> 4;
        let ihl = (data[0] & 0x0F) as usize * 4;
        if version != 4 {
            return Err(ParseError::Unsupported("ip version"));
        }
        if ihl < IPV4_HEADER_LEN || data.len() < ihl {
            return Err(ParseError::BadLength("ipv4 ihl"));
        }
        if !verify(&data[..ihl]) {
            return Err(ParseError::BadChecksum("ipv4 header"));
        }
        let total_len = u16::from_be_bytes([data[2], data[3]]) as usize;
        if total_len < ihl || total_len > data.len() {
            return Err(ParseError::BadLength("ipv4 total length"));
        }
        let dscp = data[1] >> 2;
        let identification = u16::from_be_bytes([data[4], data[5]]);
        let ttl = data[8];
        let protocol = Protocol::from_value(data[9]);
        let src = Ipv4Addr::new(data[12], data[13], data[14], data[15]);
        let dst = Ipv4Addr::new(data[16], data[17], data[18], data[19]);
        let body = &data[ihl..total_len];
        let payload = match protocol {
            Protocol::Icmp => Ipv4Payload::Icmp(IcmpPacket::from_bytes(body)?),
            Protocol::Udp => Ipv4Payload::Udp(UdpDatagram::from_bytes(body, src, dst)?),
            Protocol::Tcp => Ipv4Payload::Tcp(TcpSegment::from_bytes(body, src, dst)?),
            Protocol::Other(v) => Ipv4Payload::Raw(v, Bytes::from(body)),
        };
        Ok(Ipv4Packet {
            header: Ipv4Header {
                src,
                dst,
                ttl,
                identification,
                dscp,
            },
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icmp::IcmpPacket;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    #[test]
    fn protocol_numbers() {
        assert_eq!(Protocol::Icmp.value(), 1);
        assert_eq!(Protocol::Tcp.value(), 6);
        assert_eq!(Protocol::Udp.value(), 17);
        assert_eq!(Protocol::from_value(89), Protocol::Other(89));
        assert_eq!(Protocol::from_value(6), Protocol::Tcp);
    }

    #[test]
    fn raw_round_trip() {
        let pkt = Ipv4Packet::new(
            ip(10, 0, 0, 1),
            ip(10, 0, 0, 2),
            Ipv4Payload::Raw(200, vec![9; 32].into()),
        );
        let bytes = pkt.to_bytes();
        assert_eq!(bytes.len(), pkt.wire_len());
        let parsed = Ipv4Packet::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, pkt);
        assert_eq!(parsed.protocol(), Protocol::Other(200));
        assert_eq!(parsed.ports(), None);
    }

    #[test]
    fn icmp_round_trip() {
        let pkt = Ipv4Packet::new(
            ip(172, 16, 0, 2),
            ip(172, 16, 0, 18),
            Ipv4Payload::Icmp(IcmpPacket::echo_request(7, 3, vec![0xAA; 56])),
        );
        let parsed = Ipv4Packet::from_bytes(&pkt.to_bytes()).unwrap();
        assert_eq!(parsed, pkt);
    }

    #[test]
    fn ttl_decrement() {
        let mut pkt = Ipv4Packet::new(
            ip(1, 1, 1, 1),
            ip(2, 2, 2, 2),
            Ipv4Payload::Raw(0, vec![].into()),
        );
        pkt.header.ttl = 2;
        assert!(pkt.decrement_ttl());
        assert_eq!(pkt.header.ttl, 1);
        assert!(!pkt.decrement_ttl());
        assert_eq!(pkt.header.ttl, 0);
        assert!(!pkt.decrement_ttl());
    }

    #[test]
    fn corrupted_checksum_rejected() {
        let pkt = Ipv4Packet::new(
            ip(1, 1, 1, 1),
            ip(2, 2, 2, 2),
            Ipv4Payload::Raw(0, vec![1].into()),
        );
        let mut bytes = pkt.to_bytes();
        bytes[8] ^= 0xFF; // flip TTL, invalidating the header checksum
        assert!(matches!(
            Ipv4Packet::from_bytes(&bytes),
            Err(ParseError::BadChecksum(_))
        ));
    }

    #[test]
    fn truncation_and_bad_version_rejected() {
        assert!(matches!(
            Ipv4Packet::from_bytes(&[0u8; 10]),
            Err(ParseError::Truncated(_))
        ));
        let pkt = Ipv4Packet::new(
            ip(1, 1, 1, 1),
            ip(2, 2, 2, 2),
            Ipv4Payload::Raw(0, vec![].into()),
        );
        let mut bytes = pkt.to_bytes();
        bytes[0] = 0x65; // version 6
        assert!(matches!(
            Ipv4Packet::from_bytes(&bytes),
            Err(ParseError::Unsupported(_))
        ));
    }

    #[test]
    fn wire_len_matches_serialization_for_payload_types() {
        let udp = Ipv4Packet::new(
            ip(10, 0, 0, 1),
            ip(10, 0, 0, 2),
            Ipv4Payload::Udp(UdpDatagram {
                src_port: 5000,
                dst_port: 53,
                payload: vec![1; 100].into(),
            }),
        );
        assert_eq!(udp.to_bytes().len(), udp.wire_len());
        let tcp = Ipv4Packet::new(
            ip(10, 0, 0, 1),
            ip(10, 0, 0, 2),
            Ipv4Payload::Tcp(TcpSegment::data(80, 1234, 5, 10, vec![7; 64])),
        );
        assert_eq!(tcp.to_bytes().len(), tcp.wire_len());
    }
}
