//! ARP (RFC 826) over Ethernet/IPv4.
//!
//! IPOP never forwards ARP over the overlay: the host is configured with a static
//! ARP entry for a fabricated gateway, so every ARP request generated by the kernel
//! is either unnecessary or answered locally by the virtual stack (paper Section
//! III-A). The format is still implemented in full so the containment behaviour can
//! be tested end to end.

use std::net::Ipv4Addr;

use crate::ether::MacAddr;
use crate::ParseError;

/// ARP operation code.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum ArpOperation {
    /// Who-has request (1).
    Request,
    /// Is-at reply (2).
    Reply,
}

impl ArpOperation {
    fn value(self) -> u16 {
        match self {
            ArpOperation::Request => 1,
            ArpOperation::Reply => 2,
        }
    }

    fn from_value(v: u16) -> Result<Self, ParseError> {
        match v {
            1 => Ok(ArpOperation::Request),
            2 => Ok(ArpOperation::Reply),
            _ => Err(ParseError::Unsupported("arp operation")),
        }
    }
}

/// An ARP packet for IPv4 over Ethernet (HTYPE=1, PTYPE=0x0800).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArpPacket {
    /// Request or reply.
    pub operation: ArpOperation,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_mac: MacAddr,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

/// Fixed length of an Ethernet/IPv4 ARP packet.
pub const ARP_PACKET_LEN: usize = 28;

impl ArpPacket {
    /// Build a who-has request from `sender` asking about `target_ip`.
    pub fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> Self {
        ArpPacket {
            operation: ArpOperation::Request,
            sender_mac,
            sender_ip,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// Build the reply answering `request`, claiming `our_mac` owns `our_ip`.
    pub fn reply_to(request: &ArpPacket, our_mac: MacAddr, our_ip: Ipv4Addr) -> Self {
        ArpPacket {
            operation: ArpOperation::Reply,
            sender_mac: our_mac,
            sender_ip: our_ip,
            target_mac: request.sender_mac,
            target_ip: request.sender_ip,
        }
    }

    /// Serialize to the 28-byte wire form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ARP_PACKET_LEN);
        out.extend_from_slice(&1u16.to_be_bytes()); // HTYPE: Ethernet
        out.extend_from_slice(&0x0800u16.to_be_bytes()); // PTYPE: IPv4
        out.push(6); // HLEN
        out.push(4); // PLEN
        out.extend_from_slice(&self.operation.value().to_be_bytes());
        out.extend_from_slice(&self.sender_mac.0);
        out.extend_from_slice(&self.sender_ip.octets());
        out.extend_from_slice(&self.target_mac.0);
        out.extend_from_slice(&self.target_ip.octets());
        out
    }

    /// Parse from wire bytes.
    #[allow(
        clippy::indexing_slicing,
        reason = "fixed-offset header reads, all below the up-front length check on the first line of the body"
    )]
    pub fn from_bytes(data: &[u8]) -> Result<Self, ParseError> {
        if data.len() < ARP_PACKET_LEN {
            return Err(ParseError::Truncated("arp packet"));
        }
        let htype = u16::from_be_bytes([data[0], data[1]]);
        let ptype = u16::from_be_bytes([data[2], data[3]]);
        if htype != 1 || ptype != 0x0800 || data[4] != 6 || data[5] != 4 {
            return Err(ParseError::Unsupported("arp hardware/protocol type"));
        }
        let operation = ArpOperation::from_value(u16::from_be_bytes([data[6], data[7]]))?;
        let mut sender_mac = [0u8; 6];
        sender_mac.copy_from_slice(&data[8..14]);
        let sender_ip = Ipv4Addr::new(data[14], data[15], data[16], data[17]);
        let mut target_mac = [0u8; 6];
        target_mac.copy_from_slice(&data[18..24]);
        let target_ip = Ipv4Addr::new(data[24], data[25], data[26], data[27]);
        Ok(ArpPacket {
            operation,
            sender_mac: MacAddr(sender_mac),
            sender_ip,
            target_mac: MacAddr(target_mac),
            target_ip,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    #[test]
    fn request_reply_round_trip() {
        let req = ArpPacket::request(MacAddr::local(1), ip(172, 16, 0, 2), ip(172, 16, 0, 1));
        assert_eq!(ArpPacket::from_bytes(&req.to_bytes()).unwrap(), req);
        assert_eq!(req.to_bytes().len(), ARP_PACKET_LEN);

        let rep = ArpPacket::reply_to(&req, MacAddr::local(7), ip(172, 16, 0, 1));
        assert_eq!(rep.operation, ArpOperation::Reply);
        assert_eq!(rep.target_mac, req.sender_mac);
        assert_eq!(rep.target_ip, req.sender_ip);
        assert_eq!(rep.sender_ip, ip(172, 16, 0, 1));
        assert_eq!(ArpPacket::from_bytes(&rep.to_bytes()).unwrap(), rep);
    }

    #[test]
    fn request_has_zero_target_mac() {
        let req = ArpPacket::request(MacAddr::local(1), ip(10, 0, 0, 1), ip(10, 0, 0, 2));
        assert_eq!(req.target_mac, MacAddr::ZERO);
    }

    #[test]
    fn rejects_truncated_and_foreign_types() {
        assert!(matches!(
            ArpPacket::from_bytes(&[0u8; 10]),
            Err(ParseError::Truncated(_))
        ));
        let mut bytes =
            ArpPacket::request(MacAddr::local(1), ip(10, 0, 0, 1), ip(10, 0, 0, 2)).to_bytes();
        bytes[0] = 9; // bogus HTYPE
        assert!(matches!(
            ArpPacket::from_bytes(&bytes),
            Err(ParseError::Unsupported(_))
        ));
        let mut bytes2 =
            ArpPacket::request(MacAddr::local(1), ip(10, 0, 0, 1), ip(10, 0, 0, 2)).to_bytes();
        bytes2[7] = 9; // bogus operation
        assert!(matches!(
            ArpPacket::from_bytes(&bytes2),
            Err(ParseError::Unsupported(_))
        ));
    }
}
