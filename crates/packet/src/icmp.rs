//! ICMP (RFC 792) — echo request/reply plus the error messages the virtual router
//! can generate (destination unreachable, time exceeded).
//!
//! The paper's Table I and Fig. 5 are built from ICMP echo round-trip times, so the
//! echo path is the most exercised format in the workspace.

use crate::checksum::{internet_checksum, verify};
use crate::ParseError;

/// ICMP message type.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum IcmpType {
    /// Echo reply (0).
    EchoReply,
    /// Destination unreachable (3), with code.
    DestinationUnreachable(u8),
    /// Echo request (8).
    EchoRequest,
    /// Time exceeded (11), with code.
    TimeExceeded(u8),
}

impl IcmpType {
    fn type_code(self) -> (u8, u8) {
        match self {
            IcmpType::EchoReply => (0, 0),
            IcmpType::DestinationUnreachable(c) => (3, c),
            IcmpType::EchoRequest => (8, 0),
            IcmpType::TimeExceeded(c) => (11, c),
        }
    }
}

/// An ICMP message.
#[derive(Clone, Debug, PartialEq)]
pub struct IcmpPacket {
    /// Message type (and code).
    pub icmp_type: IcmpType,
    /// Identifier (echo messages) — ping uses this to tell sessions apart.
    pub identifier: u16,
    /// Sequence number (echo messages).
    pub sequence: u16,
    /// Data carried by the message. For echoes this is the ping payload; for error
    /// messages it is the leading bytes of the offending packet.
    pub payload: Vec<u8>,
}

/// Length of the fixed ICMP header.
pub const ICMP_HEADER_LEN: usize = 8;

impl IcmpPacket {
    /// An echo request with the standard `ping` semantics.
    pub fn echo_request(identifier: u16, sequence: u16, payload: Vec<u8>) -> Self {
        IcmpPacket {
            icmp_type: IcmpType::EchoRequest,
            identifier,
            sequence,
            payload,
        }
    }

    /// The echo reply answering `request` (same identifier, sequence and payload).
    pub fn echo_reply(request: &IcmpPacket) -> Self {
        IcmpPacket {
            icmp_type: IcmpType::EchoReply,
            identifier: request.identifier,
            sequence: request.sequence,
            payload: request.payload.clone(),
        }
    }

    /// A destination-unreachable error with the given code (0 = net, 1 = host, 3 = port).
    pub fn unreachable(code: u8, original: Vec<u8>) -> Self {
        IcmpPacket {
            icmp_type: IcmpType::DestinationUnreachable(code),
            identifier: 0,
            sequence: 0,
            payload: original,
        }
    }

    /// True for echo requests.
    pub fn is_echo_request(&self) -> bool {
        self.icmp_type == IcmpType::EchoRequest
    }

    /// True for echo replies.
    pub fn is_echo_reply(&self) -> bool {
        self.icmp_type == IcmpType::EchoReply
    }

    /// On-wire length.
    pub fn wire_len(&self) -> usize {
        ICMP_HEADER_LEN + self.payload.len()
    }

    /// Serialize, computing the ICMP checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (ty, code) = self.icmp_type.type_code();
        let mut out = Vec::with_capacity(self.wire_len());
        out.push(ty);
        out.push(code);
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.identifier.to_be_bytes());
        out.extend_from_slice(&self.sequence.to_be_bytes());
        out.extend_from_slice(&self.payload);
        let csum = internet_checksum(&out);
        out[2..4].copy_from_slice(&csum.to_be_bytes());
        out
    }

    /// Parse, verifying the checksum.
    #[allow(
        clippy::indexing_slicing,
        reason = "fixed-offset header reads, all below the up-front length check on the first line of the body"
    )]
    pub fn from_bytes(data: &[u8]) -> Result<Self, ParseError> {
        if data.len() < ICMP_HEADER_LEN {
            return Err(ParseError::Truncated("icmp header"));
        }
        if !verify(data) {
            return Err(ParseError::BadChecksum("icmp"));
        }
        let icmp_type = match (data[0], data[1]) {
            (0, _) => IcmpType::EchoReply,
            (3, c) => IcmpType::DestinationUnreachable(c),
            (8, _) => IcmpType::EchoRequest,
            (11, c) => IcmpType::TimeExceeded(c),
            _ => return Err(ParseError::Unsupported("icmp type")),
        };
        let identifier = u16::from_be_bytes([data[4], data[5]]);
        let sequence = u16::from_be_bytes([data[6], data[7]]);
        Ok(IcmpPacket {
            icmp_type,
            identifier,
            sequence,
            payload: data[ICMP_HEADER_LEN..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_round_trip() {
        let req = IcmpPacket::echo_request(0x1234, 7, vec![0x61; 56]);
        let bytes = req.to_bytes();
        assert_eq!(bytes.len(), req.wire_len());
        assert_eq!(IcmpPacket::from_bytes(&bytes).unwrap(), req);
        assert!(req.is_echo_request());
        assert!(!req.is_echo_reply());
    }

    #[test]
    fn reply_copies_request_fields() {
        let req = IcmpPacket::echo_request(9, 42, vec![1, 2, 3]);
        let rep = IcmpPacket::echo_reply(&req);
        assert!(rep.is_echo_reply());
        assert_eq!(rep.identifier, 9);
        assert_eq!(rep.sequence, 42);
        assert_eq!(rep.payload, req.payload);
        assert_eq!(IcmpPacket::from_bytes(&rep.to_bytes()).unwrap(), rep);
    }

    #[test]
    fn error_messages_round_trip() {
        let te = IcmpPacket {
            icmp_type: IcmpType::TimeExceeded(0),
            identifier: 0,
            sequence: 0,
            payload: vec![0x45, 0, 0, 20],
        };
        assert_eq!(IcmpPacket::from_bytes(&te.to_bytes()).unwrap(), te);
        let un = IcmpPacket::unreachable(3, vec![0x45, 0, 0, 20]);
        let parsed = IcmpPacket::from_bytes(&un.to_bytes()).unwrap();
        assert_eq!(parsed.icmp_type, IcmpType::DestinationUnreachable(3));
    }

    #[test]
    fn corruption_detected() {
        let req = IcmpPacket::echo_request(1, 1, vec![5; 16]);
        let mut bytes = req.to_bytes();
        bytes[10] ^= 0x01;
        assert!(matches!(
            IcmpPacket::from_bytes(&bytes),
            Err(ParseError::BadChecksum(_))
        ));
        assert!(matches!(
            IcmpPacket::from_bytes(&[0u8; 4]),
            Err(ParseError::Truncated(_))
        ));
    }

    #[test]
    fn unknown_type_rejected() {
        // Type 13 (timestamp) is not supported; build bytes manually with a valid checksum.
        let mut raw = vec![13u8, 0, 0, 0, 0, 1, 0, 2];
        let csum = internet_checksum(&raw);
        raw[2..4].copy_from_slice(&csum.to_be_bytes());
        assert!(matches!(
            IcmpPacket::from_bytes(&raw),
            Err(ParseError::Unsupported(_))
        ));
    }
}
