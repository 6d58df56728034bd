//! Physical transport for overlay traffic.
//!
//! Brunet can run its edges over UDP or TCP (paper Section II-C); Tables I–III
//! compare IPOP in both modes. [`Transport`] maps the overlay's "send this
//! [`LinkMessage`] to that endpoint" interface onto UDP datagrams or
//! length-prefixed TCP streams carried by the host's *physical* [`NetStack`] — so
//! overlay traffic experiences exactly the same kernel stack, NAT and firewall
//! behaviour as any other traffic in the simulation. Both framings carry the
//! same sealed message; they differ only in how it is framed.

use std::collections::BTreeMap;

use ipop_netstack::{NetStack, SocketHandle};
use ipop_packet::Bytes;
use ipop_simcore::{fnv1a, SimTime, FNV_OFFSET};

use crate::packets::{Endpoint, LinkMessage};

/// Bytes of the optional end-of-message integrity tag.
const TAG_BYTES: usize = 8;

/// The longest message (integrity tag included) either framing carries:
/// what fits one UDP datagram, 65 535 − 20 (IPv4) − 8 (UDP). The TCP framing
/// holds its 32-bit length prefix to the same ceiling, so both framings
/// accept the same message set and a forged prefix cannot make the receiver
/// buffer a "frame" that never ends.
const MAX_MESSAGE_BYTES: usize = 65_507;

/// Which physical transport carries overlay traffic.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TransportMode {
    /// One datagram per link message.
    Udp,
    /// Persistent per-peer TCP connections with length-prefixed framing.
    Tcp,
}

/// The overlay's transport over the host's physical stack.
pub struct Transport {
    framing: Framing,
    codec: Codec,
}

enum Framing {
    /// One datagram per message.
    Udp(SocketHandle),
    /// One persistent connection per peer, each message behind a 32-bit
    /// big-endian length prefix.
    Tcp {
        listener: SocketHandle,
        /// Ordered map: `poll` iterates the peers, and the order in which
        /// their messages surface must be deterministic for same-seed replays.
        peers: BTreeMap<Endpoint, TcpPeer>,
    },
}

/// The half both framings share: the message codec and the optional FNV-1a
/// integrity tag. The tag is not cryptographic — it stops
/// corrupted-but-still-parseable messages (the kind an unlucky byte flip
/// produces) from reaching the overlay and minting phantom peers, at a cost
/// of one multiply per byte.
struct Codec {
    /// Append and require the tag on every message (inside the frame body in
    /// TCP mode, so the length prefix covers it). Both ends of every link
    /// must agree: a tagged message does not decode untagged and vice versa.
    tag: bool,
    /// Messages dropped for a missing or mismatched tag.
    rejects: u64,
}

impl Codec {
    fn new(tag: bool) -> Self {
        Codec { tag, rejects: 0 }
    }

    /// Encode `msg`, then append the tag if it is on.
    fn seal(&self, msg: &LinkMessage) -> Vec<u8> {
        let mut wire = msg.to_bytes();
        if self.tag {
            let tag = fnv1a(FNV_OFFSET, &wire);
            wire.extend_from_slice(&tag.to_be_bytes());
        }
        wire
    }

    /// Check and strip the tag if it is on, then decode. A message that
    /// fails either step is counted in `malformed` and yields `None`.
    fn open(&mut self, mut data: Bytes, malformed: &mut u64) -> Option<LinkMessage> {
        if self.tag {
            let body = data.len().checked_sub(TAG_BYTES).filter(|&len| {
                let (body, tag) = data.as_slice().split_at(len);
                *tag == fnv1a(FNV_OFFSET, body).to_be_bytes()
            });
            let Some(len) = body else {
                self.rejects += 1;
                *malformed += 1;
                return None;
            };
            data = data.slice(..len);
        }
        let msg = LinkMessage::from_wire(&data).ok();
        *malformed += u64::from(msg.is_none());
        msg
    }
}

struct TcpPeer {
    handle: SocketHandle,
    rx: Vec<u8>,
    tx_backlog: Vec<u8>,
}

impl TcpPeer {
    fn new(handle: SocketHandle) -> Self {
        TcpPeer {
            handle,
            rx: Vec::new(),
            tx_backlog: Vec::new(),
        }
    }

    fn flush(&mut self, stack: &mut NetStack) {
        if self.tx_backlog.is_empty() {
            return;
        }
        if let Ok(sent) = stack.tcp_send(self.handle, &self.tx_backlog) {
            self.tx_backlog.drain(..sent);
        }
    }
}

/// Append `sealed` to a TCP byte stream behind its 32-bit big-endian length.
fn push_frame(stream: &mut Vec<u8>, sealed: &[u8]) {
    stream.extend_from_slice(&(sealed.len() as u32).to_be_bytes());
    stream.extend_from_slice(sealed);
}

/// The length prefix at the head of `rx`, once all four bytes are in.
fn frame_len(rx: &[u8]) -> Option<usize> {
    let prefix = rx.first_chunk::<4>()?;
    Some(u32::from_be_bytes(*prefix) as usize)
}

/// Pop the complete frame at the head of `rx`, if there is one. Stops at a
/// length prefix beyond [`MAX_MESSAGE_BYTES`] and leaves it there: `poll`
/// drops the peer that sent it.
fn next_frame(rx: &mut Vec<u8>) -> Option<Bytes> {
    let len = frame_len(rx).filter(|&len| len <= MAX_MESSAGE_BYTES && rx.len() >= 4 + len)?;
    let body = Bytes::from(&rx[4..4 + len]);
    rx.drain(..4 + len);
    Some(body)
}

impl Transport {
    /// Bind the overlay `port` on `stack` in `mode`, with the integrity tag
    /// on or off.
    pub fn bind(stack: &mut NetStack, mode: TransportMode, port: u16, integrity_tag: bool) -> Self {
        let framing = match mode {
            TransportMode::Udp => {
                Framing::Udp(stack.udp_bind(port).expect("overlay UDP port available"))
            }
            TransportMode::Tcp => Framing::Tcp {
                listener: stack.tcp_listen(port).expect("overlay TCP port available"),
                peers: BTreeMap::new(),
            },
        };
        Transport {
            framing,
            codec: Codec::new(integrity_tag),
        }
    }

    /// The mode this transport was bound in.
    pub fn mode(&self) -> TransportMode {
        match self.framing {
            Framing::Udp(_) => TransportMode::Udp,
            Framing::Tcp { .. } => TransportMode::Tcp,
        }
    }

    /// Running count of messages dropped for a missing or mismatched
    /// integrity tag (always 0 with the tag off); each is also one of the
    /// malformed messages [`Self::poll`] reports.
    pub fn tag_rejects(&self) -> u64 {
        self.codec.rejects
    }

    /// Queue a message for `dst`; in TCP mode the first one opens the
    /// connection.
    pub fn send(&mut self, stack: &mut NetStack, now: SimTime, dst: Endpoint, msg: &LinkMessage) {
        let sealed = self.codec.seal(msg);
        match &mut self.framing {
            Framing::Udp(socket) => {
                let _ = stack.udp_send(*socket, dst.0, dst.1, sealed);
            }
            Framing::Tcp { peers, .. } => {
                let peer = peers.entry(dst).or_insert_with(|| {
                    let handle = stack
                        .tcp_connect(dst.0, dst.1, now)
                        .expect("tcp connect allocates a socket");
                    TcpPeer::new(handle)
                });
                push_frame(&mut peer.tx_backlog, &sealed);
                peer.flush(stack);
            }
        }
    }

    /// Collect the received messages as `(source endpoint, message)` pairs,
    /// with the number of datagrams or frames that arrived malformed in this
    /// poll: a bad tag, an undecodable body, or a forged length prefix.
    pub fn poll(&mut self, stack: &mut NetStack) -> (Vec<(Endpoint, LinkMessage)>, u64) {
        let (mut out, mut malformed) = (Vec::new(), 0);
        let codec = &mut self.codec;
        match &mut self.framing {
            Framing::Udp(socket) => {
                while let Ok(Some(d)) = stack.udp_recv(*socket) {
                    if let Some(msg) = codec.open(d.data, &mut malformed) {
                        out.push(((d.src, d.src_port), msg));
                    }
                }
            }
            Framing::Tcp { listener, peers } => {
                // Accept new inbound connections; key them by the peer's
                // actual endpoint.
                while let Ok(Some(handle)) = stack.tcp_accept(*listener) {
                    if let Some(remote) = stack.tcp_remote(handle) {
                        peers.entry(remote).or_insert_with(|| TcpPeer::new(handle));
                    }
                }
                peers.retain(|ep, peer| {
                    peer.flush(stack);
                    loop {
                        let chunk = stack.tcp_recv(peer.handle, 64 * 1024).unwrap_or_default();
                        if chunk.is_empty() {
                            break;
                        }
                        peer.rx.extend_from_slice(&chunk);
                    }
                    while let Some(body) = next_frame(&mut peer.rx) {
                        if let Some(msg) = codec.open(body, &mut malformed) {
                            out.push((*ep, msg));
                        }
                    }
                    // A byte stream cannot be resynchronised after a bad
                    // length: the peer goes, the transport keeps serving the
                    // others.
                    let forged = frame_len(&peer.rx).is_some_and(|len| len > MAX_MESSAGE_BYTES);
                    malformed += u64::from(forged);
                    let dead = forged || (stack.tcp_is_closed(peer.handle) && peer.rx.is_empty());
                    if dead {
                        stack.release(peer.handle);
                    }
                    !dead
                });
            }
        }
        (out, malformed)
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

    /// The live TCP connections of `t`.
    fn peers(t: &Transport) -> &BTreeMap<Endpoint, TcpPeer> {
        let Framing::Tcp { peers, .. } = &t.framing else {
            panic!("a TCP transport");
        };
        peers
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
        let mut ta = Transport::bind(&mut sa, TransportMode::Udp, 4001, false);
        let mut tb = Transport::bind(&mut sb, TransportMode::Udp, 4001, false);
        let mut now = SimTime::ZERO;
        ta.send(&mut sa, now, (B, 4001), &ping_msg(7));
        pump(&mut sa, &mut sb, &mut now);
        let (got, _) = tb.poll(&mut sb);
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
        let mut tb = Transport::bind(&mut sb, TransportMode::Udp, 4001, false);
        sa.udp_send(sock, B, 4001, vec![0xFF, 0xFE]).unwrap();
        let mut now = SimTime::ZERO;
        pump(&mut sa, &mut sb, &mut now);
        let (got, malformed) = tb.poll(&mut sb);
        assert!(got.is_empty());
        assert_eq!(malformed, 1);
    }

    #[test]
    fn tcp_transport_round_trip_and_reuse() {
        let mut sa = NetStack::new(StackConfig::new(A));
        let mut sb = NetStack::new(StackConfig::new(B));
        let mut ta = Transport::bind(&mut sa, TransportMode::Tcp, 4001, false);
        let mut tb = Transport::bind(&mut sb, TransportMode::Tcp, 4001, false);
        let mut now = SimTime::ZERO;
        ta.send(&mut sa, now, (B, 4001), &ping_msg(1));
        ta.send(&mut sa, now, (B, 4001), &ping_msg(2));
        // Let the handshake and data flow; poll repeatedly as data arrives.
        let mut got = Vec::new();
        for _ in 0..50 {
            pump(&mut sa, &mut sb, &mut now);
            got.extend(tb.poll(&mut sb).0);
            ta.poll(&mut sa);
            if got.len() >= 2 {
                break;
            }
            now += Duration::from_millis(10);
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].1, ping_msg(1));
        assert_eq!(got[1].1, ping_msg(2));
        assert_eq!(peers(&ta).len(), 1, "a single TCP connection is reused");
        assert_eq!(ta.mode(), TransportMode::Tcp);

        // The receiver can answer over the same (accepted) connection.
        let reply_to = got[0].0;
        tb.send(&mut sb, now, reply_to, &ping_msg(3));
        let mut back = Vec::new();
        for _ in 0..50 {
            pump(&mut sa, &mut sb, &mut now);
            back.extend(ta.poll(&mut sa).0);
            tb.poll(&mut sb);
            if !back.is_empty() {
                break;
            }
            now += Duration::from_millis(10);
        }
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].1, ping_msg(3));
        assert_eq!(peers(&tb).len(), 1);
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
        let mut tb = Transport::bind(&mut stacks[1], TransportMode::Tcp, 4001, false);
        let mut tc = Transport::bind(&mut stacks[2], TransportMode::Tcp, 4001, false);
        let (mut got, mut malformed) = (Vec::new(), 0);
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
            let (msgs, bad) = tb.poll(&mut stacks[1]);
            got.extend(msgs);
            malformed += bad;
            tc.poll(&mut stacks[2]);
            let held: usize = peers(&tb).values().map(|p| p.rx.len()).sum();
            most_held = most_held.max(held);
            now += Duration::from_millis(1);
        }
        assert_eq!(written, stream.len(), "all of it was on its way");
        assert!(most_held < MAX_MESSAGE_BYTES, "held {most_held} bytes");
        assert!(malformed >= 1);
        assert_eq!(peers(&tb).len(), 1, "only the honest peer is left");

        // The honest peer never noticed.
        tc.send(&mut stacks[2], now, (B, 4001), &ping_msg(2));
        for _ in 0..50 {
            pump3(&mut stacks, &mut now);
            got.extend(tb.poll(&mut stacks[1]).0);
            tc.poll(&mut stacks[2]);
            now += Duration::from_millis(10);
        }
        let pings: Vec<LinkMessage> = got.into_iter().map(|(_, msg)| msg).collect();
        assert_eq!(pings, vec![ping_msg(1), ping_msg(2)]);
        assert_eq!(peers(&tc).len(), 1, "over the connection it had all along");
    }

    #[test]
    fn udp_integrity_tag_round_trips_and_rejects_corruption() {
        let mut sa = NetStack::new(StackConfig::new(A));
        let mut sb = NetStack::new(StackConfig::new(B));
        let mut ta = Transport::bind(&mut sa, TransportMode::Udp, 4001, true);
        let mut tb = Transport::bind(&mut sb, TransportMode::Udp, 4001, true);
        let mut now = SimTime::ZERO;

        // Clean round trip with the tag on.
        ta.send(&mut sa, now, (B, 4001), &ping_msg(7));
        pump(&mut sa, &mut sb, &mut now);
        let (got, _) = tb.poll(&mut sb);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, ping_msg(7));
        assert_eq!(tb.tag_rejects(), 0);

        // A corrupted-but-parseable datagram: flip one payload byte and
        // recompute nothing. Without the tag this would decode as a valid
        // message from a phantom address; with it, the receiver drops it.
        let mut wire = ping_msg(7).to_wire().to_vec();
        let tag = fnv1a(FNV_OFFSET, &wire).to_be_bytes();
        wire[5] ^= 0x40;
        wire.extend_from_slice(&tag);
        assert!(
            LinkMessage::from_bytes(&wire[..wire.len() - TAG_BYTES]).is_ok(),
            "the corrupted body must still parse, or the tag proves nothing"
        );
        let raw = sa.udp_bind(9998).unwrap();
        sa.udp_send(raw, B, 4001, wire).unwrap();
        pump(&mut sa, &mut sb, &mut now);
        assert_eq!(tb.poll(&mut sb), (vec![], 1));
        assert_eq!(tb.tag_rejects(), 1);

        // Too short to even hold a tag.
        sa.udp_send(raw, B, 4001, vec![1, 2, 3]).unwrap();
        pump(&mut sa, &mut sb, &mut now);
        assert_eq!(tb.poll(&mut sb), (vec![], 1));
        assert_eq!(tb.tag_rejects(), 2);
    }

    #[test]
    fn tcp_integrity_tag_round_trips_and_rejects_corruption() {
        let mut sa = NetStack::new(StackConfig::new(A));
        let mut sb = NetStack::new(StackConfig::new(B));
        let mut ta = Transport::bind(&mut sa, TransportMode::Tcp, 4001, true);
        let mut tb = Transport::bind(&mut sb, TransportMode::Tcp, 4001, true);
        let mut now = SimTime::ZERO;
        ta.send(&mut sa, now, (B, 4001), &ping_msg(9));
        let mut got = Vec::new();
        for _ in 0..50 {
            pump(&mut sa, &mut sb, &mut now);
            got.extend(tb.poll(&mut sb).0);
            ta.poll(&mut sa);
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
        let mut rx = Vec::new();
        push_frame(&mut rx, &tb.codec.seal(&ping_msg(9)));
        rx[6] ^= 0x04;
        push_frame(&mut rx, &tb.codec.seal(&ping_msg(10)));
        let (mut out, mut malformed) = (Vec::new(), 0);
        while let Some(body) = next_frame(&mut rx) {
            out.extend(tb.codec.open(body, &mut malformed));
        }
        assert_eq!(out, vec![ping_msg(10)]);
        assert_eq!((malformed, tb.tag_rejects()), (1, 1));
    }

    #[test]
    fn integrity_tag_off_keeps_the_wire_format_unchanged() {
        // Tag-off peers speak the seed wire format byte for byte: a datagram
        // is the encoded message, a frame its length and then the message.
        let (off, on) = (Codec::new(false), Codec::new(true));
        let body = ping_msg(1).to_wire();
        assert_eq!(off.seal(&ping_msg(1)), body.as_slice());
        assert_eq!(on.seal(&ping_msg(1)).len(), body.len() + TAG_BYTES);
        let mut framed = Vec::new();
        push_frame(&mut framed, &off.seal(&ping_msg(1)));
        assert_eq!(framed[..4], (body.len() as u32).to_be_bytes());
        assert_eq!(&framed[4..], body.as_slice());
    }

    #[test]
    fn tcp_transport_handles_large_messages_across_segments() {
        let mut sa = NetStack::new(StackConfig::new(A));
        let mut sb = NetStack::new(StackConfig::new(B));
        let mut ta = Transport::bind(&mut sa, TransportMode::Tcp, 4001, false);
        let mut tb = Transport::bind(&mut sb, TransportMode::Tcp, 4001, false);
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
            ta.poll(&mut sa);
            got.extend(tb.poll(&mut sb).0);
            if !got.is_empty() {
                break;
            }
            now += Duration::from_millis(5);
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, big);
    }
}
