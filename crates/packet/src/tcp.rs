//! TCP segment format (RFC 793) with the MSS option.
//!
//! Only the wire format lives here; the connection state machine, retransmission
//! and congestion control are implemented in `ipop-netstack::tcp`. Both the
//! physical network (Brunet's TCP transport mode) and the virtual network
//! (applications such as ttcp, MPI and NFS) exchange these segments, which is what
//! produces the TCP-over-TCP throughput penalty the paper observes in Tables II
//! and III.

use std::net::Ipv4Addr;

use crate::checksum::{finish, pseudo_header_sum, sum_words};
use crate::ParseError;

/// TCP header flags.
#[derive(Copy, Clone, PartialEq, Eq, Default, Hash)]
pub struct TcpFlags {
    /// Synchronize sequence numbers.
    pub syn: bool,
    /// Acknowledgement field significant.
    pub ack: bool,
    /// No more data from sender.
    pub fin: bool,
    /// Reset the connection.
    pub rst: bool,
    /// Push function.
    pub psh: bool,
}

impl TcpFlags {
    /// Only SYN.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
        psh: false,
    };
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// Only ACK.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// FIN+ACK.
    pub const FIN_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
        psh: false,
    };
    /// Only RST.
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
        psh: false,
    };

    fn to_byte(self) -> u8 {
        (u8::from(self.fin))
            | (u8::from(self.syn) << 1)
            | (u8::from(self.rst) << 2)
            | (u8::from(self.psh) << 3)
            | (u8::from(self.ack) << 4)
    }

    fn from_byte(b: u8) -> Self {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
        }
    }
}

impl std::fmt::Debug for TcpFlags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts = Vec::new();
        if self.syn {
            parts.push("SYN");
        }
        if self.ack {
            parts.push("ACK");
        }
        if self.fin {
            parts.push("FIN");
        }
        if self.rst {
            parts.push("RST");
        }
        if self.psh {
            parts.push("PSH");
        }
        if parts.is_empty() {
            parts.push("-");
        }
        write!(f, "{}", parts.join("|"))
    }
}

/// Length of the fixed TCP header (no options).
pub const TCP_HEADER_LEN: usize = 20;

/// A TCP segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: u32,
    /// Acknowledgement number (valid when `flags.ack`).
    pub ack: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// Advertised receive window, in bytes.
    pub window: u16,
    /// Maximum segment size option (only meaningful on SYN segments).
    pub mss: Option<u16>,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl TcpSegment {
    /// A SYN segment advertising `mss` and `window`.
    pub fn syn(src_port: u16, dst_port: u16, seq: u32, window: u16, mss: u16) -> Self {
        TcpSegment {
            src_port,
            dst_port,
            seq,
            ack: 0,
            flags: TcpFlags::SYN,
            window,
            mss: Some(mss),
            payload: Vec::new(),
        }
    }

    /// A data segment with ACK set.
    pub fn data(src_port: u16, dst_port: u16, seq: u32, ack: u32, payload: Vec<u8>) -> Self {
        TcpSegment {
            src_port,
            dst_port,
            seq,
            ack,
            flags: TcpFlags::ACK,
            window: u16::MAX,
            mss: None,
            payload,
        }
    }

    /// A pure ACK segment.
    pub fn ack(src_port: u16, dst_port: u16, seq: u32, ack: u32, window: u16) -> Self {
        TcpSegment {
            src_port,
            dst_port,
            seq,
            ack,
            flags: TcpFlags::ACK,
            window,
            mss: None,
            payload: Vec::new(),
        }
    }

    /// Sequence space consumed by this segment (payload plus SYN/FIN flags).
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + u32::from(self.flags.syn) + u32::from(self.flags.fin)
    }

    /// Header length including options, in bytes.
    pub fn header_len(&self) -> usize {
        TCP_HEADER_LEN + if self.mss.is_some() { 4 } else { 0 }
    }

    /// Total on-wire length.
    pub fn wire_len(&self) -> usize {
        self.header_len() + self.payload.len()
    }

    /// Serialize, computing the checksum over the IPv4 pseudo-header.
    pub fn to_bytes(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let header_len = self.header_len();
        let data_offset_words = (header_len / 4) as u8;
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push(data_offset_words << 4);
        out.push(self.flags.to_byte());
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&[0, 0]); // urgent pointer
        if let Some(mss) = self.mss {
            out.push(2); // kind: MSS
            out.push(4); // length
            out.extend_from_slice(&mss.to_be_bytes());
        }
        out.extend_from_slice(&self.payload);
        let mut acc = pseudo_header_sum(src.octets(), dst.octets(), 6, out.len() as u16);
        acc = sum_words(acc, &out);
        let csum = finish(acc);
        out[16..18].copy_from_slice(&csum.to_be_bytes());
        out
    }

    /// Parse, verifying the checksum against the IPv4 pseudo-header.
    #[allow(
        clippy::indexing_slicing,
        reason = "fixed-offset header reads below the up-front length check; the option walk re-validates every length byte before stepping"
    )]
    pub fn from_bytes(data: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<Self, ParseError> {
        if data.len() < TCP_HEADER_LEN {
            return Err(ParseError::Truncated("tcp header"));
        }
        let mut acc = pseudo_header_sum(src.octets(), dst.octets(), 6, data.len() as u16);
        acc = sum_words(acc, data);
        if finish(acc) != 0 {
            return Err(ParseError::BadChecksum("tcp"));
        }
        let data_offset = ((data[12] >> 4) as usize) * 4;
        if data_offset < TCP_HEADER_LEN || data_offset > data.len() {
            return Err(ParseError::BadLength("tcp data offset"));
        }
        let mut mss = None;
        let mut opt = &data[TCP_HEADER_LEN..data_offset];
        while !opt.is_empty() {
            match opt[0] {
                0 => break,           // end of options
                1 => opt = &opt[1..], // NOP
                2 => {
                    // The MSS option is exactly 4 bytes; a mutated length
                    // byte would silently desynchronize the rest of the
                    // option list if it were not validated here.
                    if opt.len() < 4 || opt[1] != 4 {
                        return Err(ParseError::BadLength("tcp mss option"));
                    }
                    mss = Some(u16::from_be_bytes([opt[2], opt[3]]));
                    opt = &opt[4..];
                }
                _ => {
                    // Skip any other option by its length byte.
                    if opt.len() < 2 || (opt[1] as usize) < 2 || (opt[1] as usize) > opt.len() {
                        return Err(ParseError::BadLength("tcp option"));
                    }
                    opt = &opt[opt[1] as usize..];
                }
            }
        }
        Ok(TcpSegment {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: TcpFlags::from_byte(data[13]),
            window: u16::from_be_bytes([data[14], data[15]]),
            mss,
            payload: data[data_offset..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv4Addr, Ipv4Addr) {
        (Ipv4Addr::new(172, 16, 0, 2), Ipv4Addr::new(172, 16, 0, 18))
    }

    #[test]
    fn flags_round_trip() {
        for flags in [
            TcpFlags::SYN,
            TcpFlags::SYN_ACK,
            TcpFlags::ACK,
            TcpFlags::FIN_ACK,
            TcpFlags::RST,
        ] {
            assert_eq!(TcpFlags::from_byte(flags.to_byte()), flags);
        }
        assert_eq!(format!("{:?}", TcpFlags::SYN_ACK), "SYN|ACK");
        assert_eq!(format!("{:?}", TcpFlags::default()), "-");
    }

    #[test]
    fn syn_with_mss_round_trip() {
        let (s, d) = addrs();
        let seg = TcpSegment::syn(5001, 5201, 1000, 65535, 1460);
        let bytes = seg.to_bytes(s, d);
        assert_eq!(bytes.len(), seg.wire_len());
        assert_eq!(bytes.len(), 24);
        let parsed = TcpSegment::from_bytes(&bytes, s, d).unwrap();
        assert_eq!(parsed, seg);
        assert_eq!(parsed.mss, Some(1460));
        assert_eq!(parsed.seq_len(), 1);
    }

    #[test]
    fn data_segment_round_trip() {
        let (s, d) = addrs();
        let seg = TcpSegment::data(5001, 5201, 77, 99, vec![0x42; 1460]);
        let parsed = TcpSegment::from_bytes(&seg.to_bytes(s, d), s, d).unwrap();
        assert_eq!(parsed, seg);
        assert_eq!(parsed.seq_len(), 1460);
    }

    #[test]
    fn ack_segment_has_no_payload() {
        let (s, d) = addrs();
        let seg = TcpSegment::ack(1, 2, 10, 20, 4096);
        let parsed = TcpSegment::from_bytes(&seg.to_bytes(s, d), s, d).unwrap();
        assert!(parsed.payload.is_empty());
        assert_eq!(parsed.seq_len(), 0);
        assert_eq!(parsed.window, 4096);
    }

    #[test]
    fn checksum_binds_pseudo_header() {
        let (s, d) = addrs();
        let seg = TcpSegment::data(1, 2, 3, 4, vec![1, 2, 3]);
        let bytes = seg.to_bytes(s, d);
        assert!(matches!(
            TcpSegment::from_bytes(&bytes, Ipv4Addr::new(9, 9, 9, 9), d),
            Err(ParseError::BadChecksum(_))
        ));
    }

    #[test]
    fn corruption_and_truncation_detected() {
        let (s, d) = addrs();
        let seg = TcpSegment::data(1, 2, 3, 4, vec![7; 32]);
        let mut bytes = seg.to_bytes(s, d);
        bytes[25] ^= 0x80;
        assert!(matches!(
            TcpSegment::from_bytes(&bytes, s, d),
            Err(ParseError::BadChecksum(_))
        ));
        assert!(matches!(
            TcpSegment::from_bytes(&[0u8; 8], s, d),
            Err(ParseError::Truncated(_))
        ));
    }

    #[test]
    fn mss_option_length_byte_is_validated() {
        let (s, d) = addrs();
        let seg = TcpSegment::syn(5001, 5201, 1000, 65535, 1460);
        let mut bytes = seg.to_bytes(s, d);
        // Corrupt the MSS option's length byte (kind at 20, length at 21) and
        // re-seal the checksum so the mutation reaches the option parser —
        // modelling corruption that slipped past the transport checksum.
        bytes[21] = 8;
        bytes[16..18].copy_from_slice(&[0, 0]);
        let mut acc = pseudo_header_sum(s.octets(), d.octets(), 6, bytes.len() as u16);
        acc = sum_words(acc, &bytes);
        let csum = finish(acc);
        bytes[16..18].copy_from_slice(&csum.to_be_bytes());
        assert!(matches!(
            TcpSegment::from_bytes(&bytes, s, d),
            Err(ParseError::BadLength("tcp mss option"))
        ));
    }

    #[test]
    fn fin_consumes_sequence_space() {
        let seg = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::FIN_ACK,
            window: 100,
            mss: None,
            payload: vec![1, 2, 3],
        };
        assert_eq!(seg.seq_len(), 4);
    }
}
