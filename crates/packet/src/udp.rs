//! UDP (RFC 768).
//!
//! On the physical network UDP carries the Brunet overlay traffic when IPOP runs in
//! UDP mode (the configuration that achieves 75–81 % of physical throughput in the
//! paper's Table III); on the virtual network it is available to applications just
//! like any other transport.

use std::net::Ipv4Addr;

use crate::bytes::Bytes;
use crate::checksum::{finish, pseudo_header_sum, sum_words};
use crate::ParseError;

/// Length of the UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP datagram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload (cheaply cloneable shared buffer).
    pub payload: Bytes,
}

impl UdpDatagram {
    /// Build a datagram.
    pub fn new(src_port: u16, dst_port: u16, payload: impl Into<Bytes>) -> Self {
        UdpDatagram {
            src_port,
            dst_port,
            payload: payload.into(),
        }
    }

    /// On-wire length (header + payload).
    pub fn wire_len(&self) -> usize {
        UDP_HEADER_LEN + self.payload.len()
    }

    /// Serialize, computing the checksum over the IPv4 pseudo-header.
    pub fn to_bytes(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let len = self.wire_len() as u16;
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&len.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.payload);
        let mut acc = pseudo_header_sum(src.octets(), dst.octets(), 17, len);
        acc = sum_words(acc, &out);
        let mut csum = finish(acc);
        if csum == 0 {
            csum = 0xFFFF; // RFC 768: transmitted as all ones when computed as zero
        }
        out[6..8].copy_from_slice(&csum.to_be_bytes());
        out
    }

    /// Parse, verifying length and checksum against the IPv4 pseudo-header.
    #[allow(
        clippy::indexing_slicing,
        reason = "fixed-offset header reads below the up-front length check and the validated UDP length field"
    )]
    pub fn from_bytes(data: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<Self, ParseError> {
        if data.len() < UDP_HEADER_LEN {
            return Err(ParseError::Truncated("udp header"));
        }
        let length = u16::from_be_bytes([data[4], data[5]]) as usize;
        if length < UDP_HEADER_LEN || length > data.len() {
            return Err(ParseError::BadLength("udp length"));
        }
        let checksum = u16::from_be_bytes([data[6], data[7]]);
        if checksum != 0 {
            let mut acc = pseudo_header_sum(src.octets(), dst.octets(), 17, length as u16);
            acc = sum_words(acc, &data[..length]);
            if finish(acc) != 0 {
                return Err(ParseError::BadChecksum("udp"));
            }
        }
        Ok(UdpDatagram {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            payload: Bytes::from(&data[UDP_HEADER_LEN..length]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv4Addr, Ipv4Addr) {
        (
            Ipv4Addr::new(192, 168, 0, 1),
            Ipv4Addr::new(192, 168, 0, 199),
        )
    }

    #[test]
    fn round_trip() {
        let (s, d) = addrs();
        let dg = UdpDatagram::new(40000, 4001, b"brunet ping".to_vec());
        let bytes = dg.to_bytes(s, d);
        assert_eq!(bytes.len(), dg.wire_len());
        assert_eq!(UdpDatagram::from_bytes(&bytes, s, d).unwrap(), dg);
    }

    #[test]
    fn empty_payload_round_trip() {
        let (s, d) = addrs();
        let dg = UdpDatagram::new(1, 2, vec![]);
        assert_eq!(
            UdpDatagram::from_bytes(&dg.to_bytes(s, d), s, d).unwrap(),
            dg
        );
    }

    #[test]
    fn checksum_binds_addresses() {
        let (s, d) = addrs();
        let dg = UdpDatagram::new(40000, 4001, vec![1, 2, 3]);
        let bytes = dg.to_bytes(s, d);
        // Parsing with a different pseudo-header must fail (this is what makes NAT
        // rewriting without checksum adjustment detectable).
        let other = Ipv4Addr::new(10, 0, 0, 9);
        assert!(matches!(
            UdpDatagram::from_bytes(&bytes, other, d),
            Err(ParseError::BadChecksum(_))
        ));
    }

    #[test]
    fn corruption_detected() {
        let (s, d) = addrs();
        let dg = UdpDatagram::new(7, 9, vec![4; 100]);
        let mut bytes = dg.to_bytes(s, d);
        bytes[20] ^= 0xFF;
        assert!(matches!(
            UdpDatagram::from_bytes(&bytes, s, d),
            Err(ParseError::BadChecksum(_))
        ));
    }

    #[test]
    fn zero_checksum_is_accepted() {
        let (s, d) = addrs();
        // A sender that did not compute a checksum sets the field to zero.
        let mut bytes = UdpDatagram::new(5, 6, vec![1, 2]).to_bytes(s, d);
        bytes[6] = 0;
        bytes[7] = 0;
        let parsed = UdpDatagram::from_bytes(&bytes, s, d).unwrap();
        assert_eq!(parsed.payload, vec![1, 2]);
    }

    #[test]
    fn bad_lengths_rejected() {
        let (s, d) = addrs();
        assert!(matches!(
            UdpDatagram::from_bytes(&[0u8; 4], s, d),
            Err(ParseError::Truncated(_))
        ));
        let mut bytes = UdpDatagram::new(5, 6, vec![1, 2]).to_bytes(s, d);
        bytes[4..6].copy_from_slice(&3u16.to_be_bytes()); // shorter than the header
        assert!(matches!(
            UdpDatagram::from_bytes(&bytes, s, d),
            Err(ParseError::BadLength(_))
        ));
    }
}
