//! Physical transports for overlay traffic.
//!
//! Brunet can run its edges over UDP or TCP (paper Section II-C); Tables I–III
//! compare IPOP in both modes. The adapters here map the overlay's
//! "send this [`LinkMessage`] to that endpoint" interface onto UDP datagrams or
//! length-prefixed TCP streams carried by the host's *physical* [`NetStack`] — so
//! overlay traffic experiences exactly the same kernel stack, NAT and firewall
//! behaviour as any other traffic in the simulation.

use std::collections::BTreeMap;

use ipop_netstack::{NetStack, SocketHandle};
use ipop_packet::Bytes;
use ipop_simcore::SimTime;

use crate::packets::{Endpoint, LinkMessage};

/// Bytes of the optional end-of-message integrity tag.
const TAG_BYTES: usize = 8;

/// The longest message (integrity tag included) either transport carries:
/// what fits one UDP datagram, 65 535 − 20 (IPv4) − 8 (UDP). The TCP framing
/// holds its 32-bit length prefix to the same ceiling, so both transports
/// accept the same message set and a forged prefix cannot make the receiver
/// buffer a "frame" that never ends.
const MAX_MESSAGE_BYTES: usize = 65_507;

/// FNV-1a over the encoded message. Not cryptographic — it exists to stop
/// corrupted-but-still-parseable packets (the kind an unlucky byte flip
/// produces) from reaching the overlay and minting phantom peers, at a cost
/// of one multiply per byte.
fn fnv64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Verify and strip a trailing integrity tag. Returns the body without the
/// tag (a zero-copy sub-slice) or `None` on a short or mismatched tag.
fn check_tag(data: &Bytes) -> Option<Bytes> {
    let len = data.len().checked_sub(TAG_BYTES)?;
    let want = u64::from_be_bytes(data.as_slice()[len..].try_into().ok()?);
    if fnv64(&data.as_slice()[..len]) != want {
        return None;
    }
    Some(data.slice(..len))
}

/// Which physical transport carries overlay traffic.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TransportMode {
    /// One datagram per link message.
    Udp,
    /// Persistent per-peer TCP connections with length-prefixed framing.
    Tcp,
}

/// A transport adapter between an overlay node and the physical stack.
pub trait OverlayTransport {
    /// The mode this adapter implements.
    fn mode(&self) -> TransportMode;
    /// Queue a message for `dst`.
    fn send(&mut self, stack: &mut NetStack, now: SimTime, dst: Endpoint, msg: &LinkMessage);
    /// Collect received messages as `(source endpoint, message)` pairs.
    fn poll(&mut self, stack: &mut NetStack, now: SimTime) -> Vec<(Endpoint, LinkMessage)>;
    /// Running count of datagrams/frames that arrived but failed to decode as
    /// a [`LinkMessage`]. The host agent diffs this across polls to account
    /// malformed traffic in overlay stats.
    fn parse_errors(&self) -> u64;
    /// Running count of messages dropped for a missing or mismatched
    /// integrity tag (a subset of [`Self::parse_errors`]). Zero for adapters
    /// without tag support or with the tag disabled.
    fn tag_rejects(&self) -> u64 {
        0
    }
}

/// UDP transport: one datagram per message.
pub struct UdpTransport {
    socket: SocketHandle,
    /// Append and require the FNV-64 integrity tag on every datagram.
    integrity_tag: bool,
    /// Messages that failed to parse (diagnostics).
    pub parse_errors: u64,
    /// Messages dropped for a bad integrity tag (diagnostics).
    pub tag_rejects: u64,
}

impl UdpTransport {
    /// Bind the overlay UDP port on the given stack.
    pub fn bind(stack: &mut NetStack, port: u16) -> Self {
        let socket = stack.udp_bind(port).expect("overlay UDP port available");
        UdpTransport {
            socket,
            integrity_tag: false,
            parse_errors: 0,
            tag_rejects: 0,
        }
    }

    /// Enable or disable the per-datagram integrity tag. Both ends of every
    /// link must agree: a tagged datagram does not decode untagged and vice
    /// versa.
    pub fn with_integrity_tag(mut self, on: bool) -> Self {
        self.integrity_tag = on;
        self
    }
}

impl OverlayTransport for UdpTransport {
    fn mode(&self) -> TransportMode {
        TransportMode::Udp
    }

    fn send(&mut self, stack: &mut NetStack, _now: SimTime, dst: Endpoint, msg: &LinkMessage) {
        if self.integrity_tag {
            let body = msg.to_wire();
            let mut tagged = Vec::with_capacity(body.len() + TAG_BYTES);
            tagged.extend_from_slice(&body);
            tagged.extend_from_slice(&fnv64(&body).to_be_bytes());
            let _ = stack.udp_send(self.socket, dst.0, dst.1, tagged);
        } else {
            let _ = stack.udp_send(self.socket, dst.0, dst.1, msg.to_wire());
        }
    }

    fn poll(&mut self, stack: &mut NetStack, _now: SimTime) -> Vec<(Endpoint, LinkMessage)> {
        let mut out = Vec::new();
        while let Ok(Some(msg)) = stack.udp_recv(self.socket) {
            let body = if self.integrity_tag {
                match check_tag(&msg.data) {
                    Some(body) => body,
                    None => {
                        self.tag_rejects += 1;
                        self.parse_errors += 1;
                        continue;
                    }
                }
            } else {
                msg.data
            };
            match LinkMessage::from_wire(&body) {
                Ok(parsed) => out.push(((msg.src, msg.src_port), parsed)),
                Err(_) => self.parse_errors += 1,
            }
        }
        out
    }

    fn parse_errors(&self) -> u64 {
        self.parse_errors
    }

    fn tag_rejects(&self) -> u64 {
        self.tag_rejects
    }
}

struct TcpPeer {
    handle: SocketHandle,
    rx: Vec<u8>,
    tx_backlog: Vec<u8>,
}

/// TCP transport: one persistent connection per peer, messages framed with a
/// 32-bit big-endian length prefix.
pub struct TcpTransport {
    listener: SocketHandle,
    /// Ordered map: `poll` iterates the peers, and the order in which their
    /// messages surface must be deterministic for same-seed replays.
    peers: BTreeMap<Endpoint, TcpPeer>,
    /// Append and require the FNV-64 integrity tag inside every frame.
    integrity_tag: bool,
    /// Messages that failed to parse (diagnostics).
    pub parse_errors: u64,
    /// Messages dropped for a bad integrity tag (diagnostics).
    pub tag_rejects: u64,
}

impl TcpTransport {
    /// Listen on the overlay TCP port on the given stack.
    pub fn bind(stack: &mut NetStack, port: u16) -> Self {
        let listener = stack.tcp_listen(port).expect("overlay TCP port available");
        TcpTransport {
            listener,
            peers: BTreeMap::new(),
            integrity_tag: false,
            parse_errors: 0,
            tag_rejects: 0,
        }
    }

    /// Enable or disable the per-frame integrity tag. Both ends of every
    /// connection must agree; the tag lives inside the frame body so the
    /// length prefix covers it.
    pub fn with_integrity_tag(mut self, on: bool) -> Self {
        self.integrity_tag = on;
        self
    }

    /// Number of live peer connections.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    fn frame(msg: &LinkMessage, integrity_tag: bool) -> Vec<u8> {
        let body = msg.to_wire();
        let tag_len = if integrity_tag { TAG_BYTES } else { 0 };
        let mut out = Vec::with_capacity(body.len() + 4 + tag_len);
        out.extend_from_slice(&((body.len() + tag_len) as u32).to_be_bytes());
        out.extend_from_slice(&body);
        if integrity_tag {
            out.extend_from_slice(&fnv64(&body).to_be_bytes());
        }
        out
    }

    fn flush_peer(stack: &mut NetStack, peer: &mut TcpPeer) {
        if peer.tx_backlog.is_empty() {
            return;
        }
        if let Ok(sent) = stack.tcp_send(peer.handle, &peer.tx_backlog) {
            peer.tx_backlog.drain(..sent);
        }
    }

    /// The length prefix at the head of `rx`, once all four bytes are in.
    fn frame_len(rx: &[u8]) -> Option<usize> {
        let prefix = rx.first_chunk::<4>()?;
        Some(u32::from_be_bytes(*prefix) as usize)
    }

    /// Decode every complete frame at the head of `rx`. Stops at a length
    /// prefix beyond [`MAX_MESSAGE_BYTES`] and leaves it there: `poll` drops
    /// the peer that sent it.
    fn extract_frames(
        rx: &mut Vec<u8>,
        integrity_tag: bool,
        errors: &mut u64,
        rejects: &mut u64,
    ) -> Vec<LinkMessage> {
        let mut out = Vec::new();
        while let Some(len) = Self::frame_len(rx) {
            if len > MAX_MESSAGE_BYTES || rx.len() < 4 + len {
                break;
            }
            let body = Bytes::from(&rx[4..4 + len]);
            rx.drain(..4 + len);
            let body = if integrity_tag {
                match check_tag(&body) {
                    Some(body) => body,
                    None => {
                        *rejects += 1;
                        *errors += 1;
                        continue;
                    }
                }
            } else {
                body
            };
            match LinkMessage::from_wire(&body) {
                Ok(msg) => out.push(msg),
                Err(_) => *errors += 1,
            }
        }
        out
    }
}

impl OverlayTransport for TcpTransport {
    fn mode(&self) -> TransportMode {
        TransportMode::Tcp
    }

    fn send(&mut self, stack: &mut NetStack, now: SimTime, dst: Endpoint, msg: &LinkMessage) {
        let framed = Self::frame(msg, self.integrity_tag);
        let peer = self.peers.entry(dst).or_insert_with(|| {
            let handle = stack
                .tcp_connect(dst.0, dst.1, now)
                .expect("tcp connect allocates a socket");
            TcpPeer {
                handle,
                rx: Vec::new(),
                tx_backlog: Vec::new(),
            }
        });
        peer.tx_backlog.extend_from_slice(&framed);
        Self::flush_peer(stack, peer);
    }

    fn poll(&mut self, stack: &mut NetStack, _now: SimTime) -> Vec<(Endpoint, LinkMessage)> {
        let mut out = Vec::new();
        // Accept new inbound connections; key them by the peer's actual endpoint.
        while let Ok(Some(handle)) = stack.tcp_accept(self.listener) {
            if let Some(sock_remote) = stack.tcp_remote(handle) {
                self.peers.entry(sock_remote).or_insert(TcpPeer {
                    handle,
                    rx: Vec::new(),
                    tx_backlog: Vec::new(),
                });
            }
        }
        let mut dead = Vec::new();
        for (ep, peer) in self.peers.iter_mut() {
            Self::flush_peer(stack, peer);
            loop {
                let chunk = stack.tcp_recv(peer.handle, 64 * 1024).unwrap_or_default();
                if chunk.is_empty() {
                    break;
                }
                peer.rx.extend_from_slice(&chunk);
            }
            for msg in Self::extract_frames(
                &mut peer.rx,
                self.integrity_tag,
                &mut self.parse_errors,
                &mut self.tag_rejects,
            ) {
                out.push((*ep, msg));
            }
            // A byte stream cannot be resynchronised after a bad length:
            // the peer goes, the transport keeps serving the others.
            let forged = Self::frame_len(&peer.rx).is_some_and(|len| len > MAX_MESSAGE_BYTES);
            if forged {
                self.parse_errors += 1;
            }
            if forged || (stack.tcp_is_closed(peer.handle) && peer.rx.is_empty()) {
                dead.push(*ep);
            }
        }
        for ep in dead {
            if let Some(p) = self.peers.remove(&ep) {
                stack.release(p.handle);
            }
        }
        out
    }

    fn parse_errors(&self) -> u64 {
        self.parse_errors
    }

    fn tag_rejects(&self) -> u64 {
        self.tag_rejects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use ipop_netstack::StackConfig;
    use ipop_simcore::Duration;
    use std::net::Ipv4Addr;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn pump(a: &mut NetStack, b: &mut NetStack, now: &mut SimTime) {
        for _ in 0..10_000 {
            a.poll(*now);
            b.poll(*now);
            let fa = a.take_packets();
            let fb = b.take_packets();
            if fa.is_empty() && fb.is_empty() {
                break;
            }
            *now += Duration::from_micros(100);
            for p in fa {
                b.handle_packet(*now, p);
            }
            for p in fb {
                a.handle_packet(*now, p);
            }
        }
    }

    fn ping_msg(n: u64) -> LinkMessage {
        LinkMessage::Ping {
            from: Address::from_key(b"t"),
            nonce: n,
        }
    }

    #[test]
    fn udp_transport_round_trip() {
        let mut sa = NetStack::new(StackConfig::new(A));
        let mut sb = NetStack::new(StackConfig::new(B));
        let mut ta = UdpTransport::bind(&mut sa, 4001);
        let mut tb = UdpTransport::bind(&mut sb, 4001);
        let mut now = SimTime::ZERO;
        ta.send(&mut sa, now, (B, 4001), &ping_msg(7));
        pump(&mut sa, &mut sb, &mut now);
        let got = tb.poll(&mut sb, now);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, ping_msg(7));
        assert_eq!(got[0].0 .0, A);
        assert_eq!(ta.mode(), TransportMode::Udp);
    }

    #[test]
    fn udp_transport_counts_garbage() {
        let mut sa = NetStack::new(StackConfig::new(A));
        let mut sb = NetStack::new(StackConfig::new(B));
        let sock = sa.udp_bind(9999).unwrap();
        let mut tb = UdpTransport::bind(&mut sb, 4001);
        sa.udp_send(sock, B, 4001, vec![0xFF, 0xFE]).unwrap();
        let mut now = SimTime::ZERO;
        pump(&mut sa, &mut sb, &mut now);
        assert!(tb.poll(&mut sb, now).is_empty());
        assert_eq!(tb.parse_errors, 1);
    }

    #[test]
    fn tcp_transport_round_trip_and_reuse() {
        let mut sa = NetStack::new(StackConfig::new(A));
        let mut sb = NetStack::new(StackConfig::new(B));
        let mut ta = TcpTransport::bind(&mut sa, 4001);
        let mut tb = TcpTransport::bind(&mut sb, 4001);
        let mut now = SimTime::ZERO;
        ta.send(&mut sa, now, (B, 4001), &ping_msg(1));
        ta.send(&mut sa, now, (B, 4001), &ping_msg(2));
        // Let the handshake and data flow; poll repeatedly as data arrives.
        let mut got = Vec::new();
        for _ in 0..50 {
            pump(&mut sa, &mut sb, &mut now);
            got.extend(tb.poll(&mut sb, now));
            ta.poll(&mut sa, now);
            if got.len() >= 2 {
                break;
            }
            now += Duration::from_millis(10);
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].1, ping_msg(1));
        assert_eq!(got[1].1, ping_msg(2));
        assert_eq!(ta.peer_count(), 1, "a single TCP connection is reused");
        assert_eq!(ta.mode(), TransportMode::Tcp);

        // The receiver can answer over the same (accepted) connection.
        let reply_to = got[0].0;
        tb.send(&mut sb, now, reply_to, &ping_msg(3));
        let mut back = Vec::new();
        for _ in 0..50 {
            pump(&mut sa, &mut sb, &mut now);
            back.extend(ta.poll(&mut sa, now));
            tb.poll(&mut sb, now);
            if !back.is_empty() {
                break;
            }
            now += Duration::from_millis(10);
        }
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].1, ping_msg(3));
        assert_eq!(tb.peer_count(), 1);
    }

    #[test]
    fn tcp_forged_length_prefix_drops_the_peer_not_the_transport() {
        const C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
        let mut stacks = [A, B, C].map(|ip| NetStack::new(StackConfig::new(ip)));
        let mut now = SimTime::ZERO;
        // Every stack's packets to whichever stack they address.
        fn pump3(stacks: &mut [NetStack; 3], now: &mut SimTime) {
            for _ in 0..10_000 {
                let mut sent = Vec::new();
                for s in stacks.iter_mut() {
                    s.poll(*now);
                    sent.extend(s.take_packets());
                }
                if sent.is_empty() {
                    break;
                }
                *now += Duration::from_micros(100);
                for p in sent {
                    let to = [A, B, C].iter().position(|ip| *ip == p.dst());
                    stacks[to.expect("a known stack")].handle_packet(*now, p);
                }
            }
        }
        // B is the victim, C an honest peer with a connection of its own.
        let mut tb = TcpTransport::bind(&mut stacks[1], 4001);
        let mut tc = TcpTransport::bind(&mut stacks[2], 4001);
        let mut got = Vec::new();
        tc.send(&mut stacks[2], now, (B, 4001), &ping_msg(1));
        // A writes a length no message can have and keeps streaming.
        let attacker = stacks[0].tcp_connect(B, 4001, now).unwrap();
        let mut stream = 0xFFFF_FFFFu32.to_be_bytes().to_vec();
        stream.resize(4 + 256 * 1024, 0xAB);
        let (mut written, mut most_held) = (0, 0);
        for _ in 0..200 {
            pump3(&mut stacks, &mut now);
            written += stacks[0]
                .tcp_send(attacker, &stream[written..])
                .unwrap_or(0);
            got.extend(tb.poll(&mut stacks[1], now));
            tc.poll(&mut stacks[2], now);
            let held: usize = tb.peers.values().map(|p| p.rx.len()).sum();
            most_held = most_held.max(held);
            now += Duration::from_millis(1);
        }
        assert_eq!(written, stream.len(), "all of it was on its way");
        assert!(most_held < MAX_MESSAGE_BYTES, "held {most_held} bytes");
        assert!(tb.parse_errors >= 1);
        assert_eq!(tb.peer_count(), 1, "only the honest peer is left");

        // The honest peer never noticed.
        tc.send(&mut stacks[2], now, (B, 4001), &ping_msg(2));
        for _ in 0..50 {
            pump3(&mut stacks, &mut now);
            got.extend(tb.poll(&mut stacks[1], now));
            tc.poll(&mut stacks[2], now);
            now += Duration::from_millis(10);
        }
        let pings: Vec<LinkMessage> = got.into_iter().map(|(_, msg)| msg).collect();
        assert_eq!(pings, vec![ping_msg(1), ping_msg(2)]);
        assert_eq!(tc.peer_count(), 1, "over the connection it had all along");
    }

    #[test]
    fn udp_integrity_tag_round_trips_and_rejects_corruption() {
        let mut sa = NetStack::new(StackConfig::new(A));
        let mut sb = NetStack::new(StackConfig::new(B));
        let mut ta = UdpTransport::bind(&mut sa, 4001).with_integrity_tag(true);
        let mut tb = UdpTransport::bind(&mut sb, 4001).with_integrity_tag(true);
        let mut now = SimTime::ZERO;

        // Clean round trip with the tag on.
        ta.send(&mut sa, now, (B, 4001), &ping_msg(7));
        pump(&mut sa, &mut sb, &mut now);
        let got = tb.poll(&mut sb, now);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, ping_msg(7));
        assert_eq!(tb.tag_rejects(), 0);

        // A corrupted-but-parseable datagram: flip one payload byte and
        // recompute nothing. Without the tag this would decode as a valid
        // message from a phantom address; with it, the receiver drops it.
        let mut wire = ping_msg(7).to_wire().to_vec();
        let tag = fnv64(&wire).to_be_bytes();
        wire[5] ^= 0x40;
        wire.extend_from_slice(&tag);
        assert!(
            LinkMessage::from_bytes(&wire[..wire.len() - TAG_BYTES]).is_ok(),
            "the corrupted body must still parse, or the tag proves nothing"
        );
        let raw = sa.udp_bind(9998).unwrap();
        sa.udp_send(raw, B, 4001, wire).unwrap();
        pump(&mut sa, &mut sb, &mut now);
        assert!(tb.poll(&mut sb, now).is_empty());
        assert_eq!(tb.tag_rejects(), 1);
        assert_eq!(tb.parse_errors, 1);

        // Too short to even hold a tag.
        sa.udp_send(raw, B, 4001, vec![1, 2, 3]).unwrap();
        pump(&mut sa, &mut sb, &mut now);
        assert!(tb.poll(&mut sb, now).is_empty());
        assert_eq!(tb.tag_rejects(), 2);
    }

    #[test]
    fn tcp_integrity_tag_round_trips_and_rejects_corruption() {
        let mut sa = NetStack::new(StackConfig::new(A));
        let mut sb = NetStack::new(StackConfig::new(B));
        let mut ta = TcpTransport::bind(&mut sa, 4001).with_integrity_tag(true);
        let mut tb = TcpTransport::bind(&mut sb, 4001).with_integrity_tag(true);
        let mut now = SimTime::ZERO;
        ta.send(&mut sa, now, (B, 4001), &ping_msg(9));
        let mut got = Vec::new();
        for _ in 0..50 {
            pump(&mut sa, &mut sb, &mut now);
            got.extend(tb.poll(&mut sb, now));
            ta.poll(&mut sa, now);
            if !got.is_empty() {
                break;
            }
            now += Duration::from_millis(10);
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, ping_msg(9));
        assert_eq!(tb.tag_rejects(), 0);

        // Corrupt one body byte inside an otherwise well-formed frame; the
        // stream resynchronises on the next frame because the length prefix
        // is intact.
        let mut frame = TcpTransport::frame(&ping_msg(9), true);
        frame[6] ^= 0x04;
        frame.extend_from_slice(&TcpTransport::frame(&ping_msg(10), true));
        let mut rx = frame;
        let (mut errors, mut rejects) = (0, 0);
        let out = TcpTransport::extract_frames(&mut rx, true, &mut errors, &mut rejects);
        assert_eq!(out, vec![ping_msg(10)]);
        assert_eq!((errors, rejects), (1, 1));
    }

    #[test]
    fn integrity_tag_off_keeps_the_wire_format_unchanged() {
        // Tag-off peers speak the seed wire format byte for byte.
        assert_eq!(
            TcpTransport::frame(&ping_msg(1), false).len(),
            TcpTransport::frame(&ping_msg(1), true).len() - TAG_BYTES
        );
        let body = ping_msg(1).to_wire();
        let framed = TcpTransport::frame(&ping_msg(1), false);
        assert_eq!(&framed[4..], body.as_slice());
    }

    #[test]
    fn tcp_transport_handles_large_messages_across_segments() {
        let mut sa = NetStack::new(StackConfig::new(A));
        let mut sb = NetStack::new(StackConfig::new(B));
        let mut ta = TcpTransport::bind(&mut sa, 4001);
        let mut tb = TcpTransport::bind(&mut sb, 4001);
        let mut now = SimTime::ZERO;
        let big = LinkMessage::Routed(crate::packets::RoutedPacket::new(
            Address::from_key(b"a"),
            Address::from_key(b"b"),
            crate::packets::DeliveryMode::Exact,
            crate::packets::RoutedPayload::IpTunnel(vec![0x55; 20_000].into()),
        ));
        ta.send(&mut sa, now, (B, 4001), &big);
        let mut got = Vec::new();
        for _ in 0..200 {
            pump(&mut sa, &mut sb, &mut now);
            ta.poll(&mut sa, now);
            got.extend(tb.poll(&mut sb, now));
            if !got.is_empty() {
                break;
            }
            now += Duration::from_millis(5);
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, big);
    }
}
