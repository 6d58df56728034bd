//! Wire formats used throughout the IPOP workspace.
//!
//! Every protocol data unit that crosses a boundary in the system — Ethernet frames
//! between the kernel and the tap device, ARP requests contained inside a host,
//! IPv4/ICMP/UDP/TCP packets on both the physical and the virtual network, and the
//! SHA-1 digests that map virtual IP addresses onto 160-bit overlay addresses — has
//! a structured representation here plus a byte-exact serialization. The simulator
//! carries the structured form for speed but the encapsulation path in `ipop`
//! serializes/parses the virtual IP packet exactly as the real prototype does when
//! it tunnels packets through the overlay (paper Fig. 3).

// Wire decoders must stay total (CONTRACTS.md C2): no unwrap/expect or
// panicking macro in production code (tests are exempt). Indexing is not
// denied here; each header decoder states why its fixed offsets are in bounds.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod arp;
pub mod bytes;
pub mod checksum;
pub mod ether;
pub mod icmp;
pub mod ipv4;
pub mod sha1;
pub mod tcp;
pub mod udp;

pub use arp::{ArpOperation, ArpPacket};
pub use bytes::Bytes;
pub use checksum::internet_checksum;
pub use ether::{EtherType, EthernetFrame, MacAddr};
pub use icmp::{IcmpPacket, IcmpType};
pub use ipv4::{Ipv4Header, Ipv4Packet, Ipv4Payload, Protocol};
pub use sha1::Sha1;
pub use tcp::{TcpFlags, TcpSegment};
pub use udp::UdpDatagram;

/// Errors produced when parsing wire bytes back into structured packets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The buffer is shorter than the fixed header of the protocol named.
    Truncated(&'static str),
    /// A length field disagrees with the amount of data present.
    BadLength(&'static str),
    /// A checksum did not verify.
    BadChecksum(&'static str),
    /// An unsupported version / protocol / operation value.
    Unsupported(&'static str),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Truncated(what) => write!(f, "truncated {what}"),
            ParseError::BadLength(what) => write!(f, "bad length in {what}"),
            ParseError::BadChecksum(what) => write!(f, "bad checksum in {what}"),
            ParseError::Unsupported(what) => write!(f, "unsupported {what}"),
        }
    }
}

impl std::error::Error for ParseError {}
