//! Overlay wire formats.
//!
//! Everything two Brunet nodes exchange over a physical transport is a
//! [`LinkMessage`]: either link-local control traffic (the connection/linking
//! handshake, keep-alive pings) or a [`RoutedPacket`] that is forwarded greedily
//! across the ring. Routed packets carry the IPOP tunnel payload (a serialized
//! virtual IPv4 packet — paper Fig. 3), the connection-setup messages that are
//! routed to their target before a direct edge exists, and the DHT operations used
//! by Brunet-ARP.
//!
//! The formats are byte-exact so the simulator accounts for realistic header
//! overhead on every physical link.

// This is a wire-decode module: decoders must return typed errors, never
// panic (PR 7 contract, machine-checked by ipop-lint rule D3).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::net::Ipv4Addr;

use ipop_packet::{Bytes, ParseError};

use crate::address::Address;
use crate::dht::SyncDigestEntry;

/// A physical transport endpoint (address, UDP/TCP port).
pub type Endpoint = (Ipv4Addr, u16);

/// How a routed packet is delivered at the end of the greedy route.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DeliveryMode {
    /// Deliver only to the node whose address equals the destination exactly
    /// (used for IP tunnelling, where the destination is known to exist).
    Exact,
    /// Deliver to the node closest to the destination (used for DHT operations and
    /// connection requests addressed to an arbitrary point on the ring).
    Closest,
}

/// The kind of structured connection being requested. Ordered strongest
/// first (`Near < Far < Leaf`): of two classifications proposed for one edge,
/// the smaller is the one to keep.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ConnectionKind {
    /// Ring neighbour (structured near) connection.
    Near,
    /// Kleinberg shortcut (structured far) connection.
    Far,
    /// Bootstrap/leaf connection used while joining.
    Leaf,
}

/// Payload of a routed overlay packet.
#[derive(Clone, Debug, PartialEq)]
pub enum RoutedPayload {
    /// A tunnelled virtual IPv4 packet (serialized bytes, shared — cloning a
    /// routed packet does not copy the tunnelled payload).
    IpTunnel(Bytes),
    /// Request to establish a direct connection with the initiator.
    ConnectRequest {
        /// Correlates request and response.
        token: u64,
        /// The initiator's overlay address.
        initiator: Address,
        /// Kind of connection requested.
        kind: ConnectionKind,
        /// Physical endpoints (local and NAT-observed) the initiator can be reached at.
        endpoints: Vec<Endpoint>,
    },
    /// Response to a [`RoutedPayload::ConnectRequest`], routed back to the initiator.
    ConnectResponse {
        /// Token from the request.
        token: u64,
        /// The responder's overlay address.
        responder: Address,
        /// The responder's reachable physical endpoints.
        endpoints: Vec<Endpoint>,
    },
    /// Store a value at the node closest to `key` (overwrite semantics). The
    /// value is a shared buffer, so storing and replicating never copy it.
    DhtPut {
        /// DHT key.
        key: Address,
        /// Value bytes (shared).
        value: Bytes,
        /// Soft-state lifetime of the record, in milliseconds.
        ttl_ms: u64,
        /// Publisher's version of this value (bumped when the published value
        /// changes, e.g. a Brunet-ARP mapping moving to a new host). The key's
        /// owner assigns the stored record a version at least this high and
        /// strictly above any conflicting record it replaces.
        version: u64,
    },
    /// Look up `key`; the responsible node answers with a `DhtReply`.
    DhtGet {
        /// DHT key.
        key: Address,
        /// Correlates request and reply.
        token: u64,
    },
    /// Answer to a [`RoutedPayload::DhtGet`].
    DhtReply {
        /// Token from the request.
        token: u64,
        /// The stored value, if any (shared).
        value: Option<Bytes>,
    },
    /// Atomic create-if-absent: store the value under `key` only if no live
    /// record exists there. The owner answers with a `DhtCreateReply` either
    /// way. This is the claim primitive of the DHCP-style address allocator.
    DhtCreate {
        /// DHT key.
        key: Address,
        /// Value bytes (shared).
        value: Bytes,
        /// Soft-state lifetime of the record, in milliseconds.
        ttl_ms: u64,
        /// Correlates request and reply.
        token: u64,
    },
    /// Answer to a [`RoutedPayload::DhtCreate`].
    DhtCreateReply {
        /// Token from the request.
        token: u64,
        /// True when the record was created; false when a live record already
        /// existed under the key.
        created: bool,
        /// The pre-existing value on conflict (`created == false`).
        existing: Option<Bytes>,
    },
    /// A record copy pushed by the key's ring owner to a neighbouring node
    /// (replication, read repair and graceful-leave handoff traffic). The
    /// receiver keeps its own copy instead when that copy is fresher by
    /// `(version, expiry)`.
    DhtReplicate {
        /// DHT key.
        key: Address,
        /// Value bytes (shared).
        value: Bytes,
        /// Remaining lifetime of the record, in milliseconds.
        ttl_ms: u64,
        /// Version of the record at the sender.
        version: u64,
        /// Non-zero when the sender is coordinating a quorum write and wants a
        /// [`RoutedPayload::DhtReplicateAck`] carrying this token; zero for
        /// fire-and-forget replication (re-replication, handoff, repair).
        token: u64,
    },
    /// A replica answers a [`RoutedPayload::DhtReplicate`] with a non-zero
    /// token.
    DhtReplicateAck {
        /// Token echoed from the replicate.
        token: u64,
        /// True when the replica now holds a live record with the pushed
        /// value (stored it, or already had it). False when it kept a fresher
        /// *conflicting* record — such an ack must not count toward a write
        /// quorum, or a claim could be confirmed while the majority holds the
        /// other claimant's record.
        stored: bool,
    },
    /// A quorum-read coordinator polling one member of a key's replica set for
    /// its local copy (never routed further than the addressed node).
    DhtGetReplica {
        /// DHT key.
        key: Address,
        /// Correlates the poll with its [`RoutedPayload::DhtReplicaValue`].
        token: u64,
    },
    /// A replica's answer to a [`RoutedPayload::DhtGetReplica`].
    DhtReplicaValue {
        /// Token echoed from the poll.
        token: u64,
        /// The replica's live copy: `(value, version, remaining ttl in ms)`,
        /// or `None` when it holds no live record under the key.
        copy: Option<(Bytes, u64, u64)>,
    },
    /// Delete the record under `key` (lease release). The owner drops its copy
    /// and forwards the removal to the replicas it pushed.
    DhtRemove {
        /// DHT key.
        key: Address,
    },
    /// Conditional removal: drop the record under `key` only if its stored
    /// value *and version* equal the withdrawn claim's. Sent by a
    /// quorum-write coordinator withdrawing a failed claim from replicas that
    /// may have stored it (their acks were lost) — unconditional removal
    /// could delete a conflicting fresher record a replica legitimately
    /// kept, and a value-only match could delete the same claimant's
    /// *re-claimed* (newer, committed) record if the withdraw was delayed.
    DhtWithdraw {
        /// DHT key.
        key: Address,
        /// The withdrawn claim's value (shared).
        value: Bytes,
        /// The withdrawn claim's version.
        version: u64,
    },
    /// Anti-entropy digest: a compact summary of records the sender holds
    /// (or publishes), sent periodically so replica sets converge even when
    /// no read ever touches a key. The receiver compares each entry with its
    /// own store and answers with a [`RoutedPayload::DhtSyncPull`] for
    /// records the sender has fresher — and, for owner-to-replica sweeps,
    /// pushes back records *it* has fresher via plain replicates.
    DhtSyncDigest {
        /// Compact per-record summaries (see [`crate::dht::SyncDigestEntry`]).
        entries: Vec<SyncDigestEntry>,
        /// True for the owner→replica sweep (the receiver may push back
        /// fresher copies); false for the publisher→owner sweep, where the
        /// receiver only pulls — a conflicting owner record is the renewal
        /// path's business, and the publisher is not a replica to push to.
        from_owner: bool,
    },
    /// Answer to a [`RoutedPayload::DhtSyncDigest`]: the listed records are
    /// missing or stale at the receiver — re-send them. The digest sender
    /// responds with replicates (stored records) or refresh puts/renewals
    /// (its own publications).
    DhtSyncPull {
        /// Keys whose records should be re-sent.
        keys: Vec<Address>,
    },
    /// Join (or renew membership in) a topic's subscriber set. Routed
    /// `Closest` to the topic key — `SHA-1("topic:" + name)` — so whichever
    /// node currently owns that point of the ring (the topic *root*) merges
    /// the subscriber into the topic's DHT record. Subscriptions are soft
    /// state: the subscriber re-sends this at half the TTL, and an entry
    /// that stops being renewed ages out of the record.
    PubSubSubscribe {
        /// The topic's DHT key.
        topic: Address,
        /// The subscriber's overlay address.
        subscriber: Address,
        /// Soft-state lifetime of this subscription, in milliseconds.
        ttl_ms: u64,
    },
    /// Leave a topic's subscriber set (graceful unsubscribe; a crashed
    /// subscriber is instead pruned by TTL expiry or a dead-edge verdict).
    PubSubUnsubscribe {
        /// The topic's DHT key.
        topic: Address,
        /// The subscriber's overlay address.
        subscriber: Address,
    },
    /// A published message, routed `Closest` to the topic key. The topic
    /// root reads the subscriber set from its DHT record and fans the
    /// message out along a bounded-degree relay tree of
    /// [`RoutedPayload::PubSubDeliver`] packets.
    PubSubPublish {
        /// The topic's DHT key.
        topic: Address,
        /// Publisher-drawn message id (latency bookkeeping for workloads).
        msg_id: u64,
        /// Message body (shared — fan-out clones never copy it).
        payload: Bytes,
    },
    /// One edge of the relay-tree fan-out, routed `Exact` to a subscriber.
    /// Besides delivering locally, the receiver is delegated `relay_to`: it
    /// re-partitions that list into at most `pubsub_fanout` chunks and sends
    /// each chunk onward — the tree's degree stays bounded while the whole
    /// subscriber set is covered. The body is encoded *last* so a forwarding
    /// hop can reuse the cached wire image (patching only hops/TTL) and the
    /// body bytes are sliced, never copied, on decode.
    PubSubDeliver {
        /// The topic's DHT key.
        topic: Address,
        /// Message id echoed from the publish.
        msg_id: u64,
        /// Subscribers this receiver must forward the message to.
        relay_to: Vec<Address>,
        /// Message body (shared).
        payload: Bytes,
    },
    /// A retryable refusal of a [`RoutedPayload::PubSubPublish`]: the node
    /// that received the publish is (transiently) closest to the topic key
    /// but holds no live subscriber-set record — typically the re-home window
    /// after a topic-root crash, before the record migrates. The publisher
    /// re-originates the same message (same id) after a short backoff instead
    /// of losing it.
    PubSubNack {
        /// The topic's DHT key, echoed from the publish.
        topic: Address,
        /// Message id echoed from the publish.
        msg_id: u64,
    },
    /// Open a virtual stream to the destination node: the active side of the
    /// SYN / SYN-ACK handshake. Routed `Exact` — streams connect overlay
    /// *nodes*, not ring regions.
    StreamSyn {
        /// Initiator-drawn stream id, unique per (initiator, remote) pair.
        stream_id: u64,
        /// The initiator's initial receive window, in bytes.
        window: u32,
    },
    /// Accept a [`RoutedPayload::StreamSyn`], completing the handshake.
    StreamSynAck {
        /// Stream id echoed from the SYN.
        stream_id: u64,
        /// The acceptor's initial receive window, in bytes.
        window: u32,
    },
    /// One ordered segment of stream payload. The body is encoded *last* (as
    /// in [`RoutedPayload::PubSubDeliver`]) so forwarding hops patch the
    /// cached wire image instead of re-encoding, and receivers slice the body
    /// out of the shared buffer.
    StreamData {
        /// Stream id (scoped to the sending node).
        stream_id: u64,
        /// Byte offset of the first payload byte in the stream.
        seq: u64,
        /// The sender's current receive window (piggybacked flow control).
        window: u32,
        /// Segment payload (shared).
        payload: Bytes,
    },
    /// Cumulative acknowledgement of stream data: everything below `ack` has
    /// been received in order. Also the window-update vehicle — the receiver
    /// re-opens its window here as the application drains.
    StreamAck {
        /// Stream id echoed from the data.
        stream_id: u64,
        /// Next byte offset expected (everything below it is acknowledged).
        ack: u64,
        /// The acker's current receive window, in bytes.
        window: u32,
    },
    /// Close one direction of a stream. The FIN occupies one sequence number
    /// (`seq`), so it is acknowledged — and retransmitted — like data.
    StreamFin {
        /// Stream id.
        stream_id: u64,
        /// Sequence number of the FIN (one past the last payload byte).
        seq: u64,
    },
}

/// A packet routed hop-by-hop across the overlay ring.
#[derive(Clone, Debug)]
pub struct RoutedPacket {
    /// Originating node.
    pub src: Address,
    /// Destination point on the ring.
    pub dst: Address,
    /// Delivery rule at the end of the route.
    pub mode: DeliveryMode,
    /// Hops taken so far.
    pub hops: u8,
    /// Maximum hops before the packet is dropped.
    pub ttl: u8,
    /// Payload.
    pub payload: RoutedPayload,
    /// Wire image this packet was decoded from, when it carries an IP tunnel,
    /// a pub/sub delivery or a stream segment (the payloads forwarded
    /// verbatim in bulk).
    /// Forwarding nodes re-encode by patching the hop/TTL bytes of this image
    /// instead of re-serializing the whole tunnelled payload; validity is
    /// checked structurally in [`LinkMessage::to_wire`], so mutating header
    /// fields (the forwarding path bumps `hops`) stays safe.
    wire: Option<Bytes>,
}

impl PartialEq for RoutedPacket {
    fn eq(&self, other: &Self) -> bool {
        // The cached wire image is a transport detail, not identity.
        self.src == other.src
            && self.dst == other.dst
            && self.mode == other.mode
            && self.hops == other.hops
            && self.ttl == other.ttl
            && self.payload == other.payload
    }
}

impl RoutedPacket {
    /// A routed packet with the default TTL of 32 hops.
    pub fn new(src: Address, dst: Address, mode: DeliveryMode, payload: RoutedPayload) -> Self {
        RoutedPacket {
            src,
            dst,
            mode,
            hops: 0,
            ttl: 32,
            payload,
            wire: None,
        }
    }
}

/// A message exchanged directly between two physical endpoints.
#[derive(Clone, Debug, PartialEq)]
pub enum LinkMessage {
    /// Link handshake: "I am `from`, I want a `kind` edge, and I observe your
    /// traffic as coming from `observed`".
    Hello {
        /// Sender's overlay address.
        from: Address,
        /// Connection kind being established.
        kind: ConnectionKind,
        /// The sender's view of the receiver's endpoint — this is how a node behind
        /// a NAT learns its translated address (paper Section III-D).
        observed: Endpoint,
        /// Handshake token.
        token: u64,
    },
    /// Handshake acknowledgement (same fields, confirming the edge).
    HelloAck {
        /// Sender's overlay address.
        from: Address,
        /// Connection kind confirmed.
        kind: ConnectionKind,
        /// The acker's view of the receiver's endpoint.
        observed: Endpoint,
        /// Token echoed from the Hello.
        token: u64,
    },
    /// Connection keep-alive probe.
    Ping {
        /// Sender's overlay address.
        from: Address,
        /// Probe nonce.
        nonce: u64,
    },
    /// Keep-alive answer.
    Pong {
        /// Sender's overlay address.
        from: Address,
        /// Nonce echoed from the ping.
        nonce: u64,
    },
    /// Graceful teardown of the edge.
    Close {
        /// Sender's overlay address.
        from: Address,
    },
    /// Link-monitor liveness probe: unlike the idle keep-alive
    /// [`LinkMessage::Ping`], a probe demands a [`LinkMessage::ProbeAck`]
    /// within an RTT-adaptive deadline — a few consecutive misses declare the
    /// edge dead in seconds instead of waiting out the connection timeout.
    Probe {
        /// Sender's overlay address.
        from: Address,
        /// Probe nonce (matches the ack to the RTT sample).
        nonce: u64,
    },
    /// Answer to a [`LinkMessage::Probe`]; the echoed nonce dates the probe
    /// so the sender can take an RTT sample.
    ProbeAck {
        /// Sender's overlay address.
        from: Address,
        /// Nonce echoed from the probe.
        nonce: u64,
    },
    /// A routed overlay packet being forwarded along this edge.
    Routed(RoutedPacket),
    /// Periodic neighbour-set gossip: the sender's view of (a sample of) its own
    /// established edges. Receivers use the entries as link candidates, which is
    /// what lets the structured-near sets converge to the true ring neighbours
    /// (Brunet's connection-table exchange, Section II-C).
    Neighbors {
        /// Sender's overlay address.
        from: Address,
        /// Sampled established peers of the sender: `(address, endpoint)`.
        neighbors: Vec<(Address, Endpoint)>,
    },
}

/// Offset of the `hops` byte inside an encoded `LinkMessage::Routed` (tag 1 +
/// src 20 + dst 20 + mode 1).
const ROUTED_HOPS_OFFSET: usize = 42;
/// Offset of the `ttl` byte (directly after `hops`).
const ROUTED_TTL_OFFSET: usize = 43;
/// Offset of the tunnelled payload bytes (header + payload tag 1 + length 4).
const ROUTED_TUNNEL_OFFSET: usize = 49;
/// Fixed bytes of an encoded `PubSubDeliver` besides the relay list and body:
/// routed header 44 + payload tag 1 + topic 20 + msg_id 8 + relay count 2 +
/// body length 4. The body starts at `PUBSUB_DELIVER_FIXED + 20 × relays`.
const PUBSUB_DELIVER_FIXED: usize = 79;
/// Fixed bytes of an encoded `StreamData` besides the body: routed header 44 +
/// payload tag 1 + stream_id 8 + seq 8 + window 4 + body length 4. The body
/// starts at `STREAM_DATA_FIXED`.
const STREAM_DATA_FIXED: usize = 69;

// --------------------------------------------------------------------- encoding

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer {
            buf: Vec::with_capacity(64),
        }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn addr(&mut self, a: &Address) {
        self.buf.extend_from_slice(&a.0);
    }
    fn endpoint(&mut self, e: &Endpoint) {
        self.buf.extend_from_slice(&e.0.octets());
        self.u16(e.1);
    }
    fn bytes32(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(&(b.len() as u32).to_be_bytes());
        self.buf.extend_from_slice(b);
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    /// When decoding from a shared buffer, the buffer itself — so payload
    /// fields can be sliced out of it instead of copied.
    src: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader {
            data,
            pos: 0,
            src: None,
        }
    }

    fn shared(data: &'a Bytes) -> Self {
        Reader {
            data,
            pos: 0,
            src: Some(data),
        }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], ParseError> {
        // `get` makes the bounds check and the slice one total operation: no
        // index expression below can panic, whatever the wire claims.
        let s = self
            .data
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or(ParseError::Truncated("overlay message"))?;
        self.pos += n;
        Ok(s)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ParseError> {
        self.take(N)?
            .try_into()
            .map_err(|_| ParseError::Truncated("overlay message"))
    }
    fn u8(&mut self) -> Result<u8, ParseError> {
        let [b] = self.array::<1>()?;
        Ok(b)
    }
    fn u16(&mut self) -> Result<u16, ParseError> {
        Ok(u16::from_be_bytes(self.array()?))
    }
    fn u32(&mut self) -> Result<u32, ParseError> {
        Ok(u32::from_be_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, ParseError> {
        Ok(u64::from_be_bytes(self.array()?))
    }
    fn addr(&mut self) -> Result<Address, ParseError> {
        Ok(Address(self.array()?))
    }
    fn endpoint(&mut self) -> Result<Endpoint, ParseError> {
        let ip = Ipv4Addr::from(self.array::<4>()?);
        let port = self.u16()?;
        Ok((ip, port))
    }
    /// A 32-bit-length-prefixed byte field, shared with the source buffer when
    /// decoding from one (zero copy) and copied otherwise.
    fn bytes32(&mut self) -> Result<Bytes, ParseError> {
        let len = self.u32()? as usize;
        let start = self.pos;
        let slice = self.take(len)?;
        Ok(match self.src {
            Some(src) => src.slice(start..start + len),
            None => Bytes::from(slice),
        })
    }
    /// Bytes left to read.
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
    /// Validate an element count read off the wire against the bytes actually
    /// present (`per_elem` is each element's minimum encoded size). A mutated
    /// count field otherwise turns into a huge `Vec::with_capacity` before the
    /// element reads fail — this rejects it up front, allocation-free.
    fn counted(&self, count: usize, per_elem: usize) -> Result<usize, ParseError> {
        if count * per_elem > self.remaining() {
            return Err(ParseError::BadLength("overlay element count"));
        }
        Ok(count)
    }
}

fn write_endpoints(w: &mut Writer, eps: &[Endpoint]) {
    w.u8(eps.len() as u8);
    for e in eps {
        w.endpoint(e);
    }
}

fn read_endpoints(r: &mut Reader<'_>) -> Result<Vec<Endpoint>, ParseError> {
    let raw = r.u8()? as usize;
    let n = r.counted(raw, 6)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.endpoint()?);
    }
    Ok(out)
}

impl ConnectionKind {
    fn code(self) -> u8 {
        match self {
            ConnectionKind::Near => 0,
            ConnectionKind::Far => 1,
            ConnectionKind::Leaf => 2,
        }
    }
    fn from_code(c: u8) -> Result<Self, ParseError> {
        match c {
            0 => Ok(ConnectionKind::Near),
            1 => Ok(ConnectionKind::Far),
            2 => Ok(ConnectionKind::Leaf),
            _ => Err(ParseError::Unsupported("connection kind")),
        }
    }
}

impl RoutedPacket {
    /// The cached wire image with `hops`/`ttl` patched in, if the cache is
    /// still structurally valid for this packet (same src/dst/mode, the same
    /// payload fields, and a body that is the exact buffer region the image
    /// was decoded from). Covers the two payloads that get forwarded or
    /// fanned out verbatim: `IpTunnel` and `PubSubDeliver`.
    fn patched_wire(&self) -> Option<Bytes> {
        let wire = self.wire.as_ref()?;
        if wire.len() < ROUTED_TUNNEL_OFFSET
            || wire[0] != 5
            || wire[1..21] != self.src.0
            || wire[21..41] != self.dst.0
            || wire[41]
                != match self.mode {
                    DeliveryMode::Exact => 0,
                    DeliveryMode::Closest => 1,
                }
        {
            return None;
        }
        let body_matches = match &self.payload {
            RoutedPayload::IpTunnel(payload) => {
                wire.len() == ROUTED_TUNNEL_OFFSET + payload.len()
                    && wire[44] == 0
                    && payload.same_region(&wire.slice(ROUTED_TUNNEL_OFFSET..))
            }
            RoutedPayload::PubSubDeliver {
                topic,
                msg_id,
                relay_to,
                payload,
            } => {
                let body_at = PUBSUB_DELIVER_FIXED + 20 * relay_to.len();
                wire.len() == body_at + payload.len()
                    && wire[44] == 19
                    && wire[45..65] == topic.0
                    && wire[65..73] == msg_id.to_be_bytes()
                    && wire[73..75] == (relay_to.len() as u16).to_be_bytes()
                    && relay_to
                        .iter()
                        .enumerate()
                        .all(|(i, addr)| wire[75 + 20 * i..95 + 20 * i] == addr.0)
                    && payload.same_region(&wire.slice(body_at..))
            }
            RoutedPayload::StreamData {
                stream_id,
                seq,
                window,
                payload,
            } => {
                wire.len() == STREAM_DATA_FIXED + payload.len()
                    && wire[44] == 23
                    && wire[45..53] == stream_id.to_be_bytes()
                    && wire[53..61] == seq.to_be_bytes()
                    && wire[61..65] == window.to_be_bytes()
                    && payload.same_region(&wire.slice(STREAM_DATA_FIXED..))
            }
            _ => return None,
        };
        if !body_matches {
            return None;
        }
        if wire[ROUTED_HOPS_OFFSET] == self.hops && wire[ROUTED_TTL_OFFSET] == self.ttl {
            // Nothing mutated: reuse the image as-is, zero copy.
            return Some(wire.clone());
        }
        let mut out = wire.to_vec();
        out[ROUTED_HOPS_OFFSET] = self.hops;
        out[ROUTED_TTL_OFFSET] = self.ttl;
        Some(Bytes::from(out))
    }

    fn write(&self, w: &mut Writer) {
        w.addr(&self.src);
        w.addr(&self.dst);
        w.u8(match self.mode {
            DeliveryMode::Exact => 0,
            DeliveryMode::Closest => 1,
        });
        w.u8(self.hops);
        w.u8(self.ttl);
        match &self.payload {
            RoutedPayload::IpTunnel(data) => {
                w.u8(0);
                w.bytes32(data);
            }
            RoutedPayload::ConnectRequest {
                token,
                initiator,
                kind,
                endpoints,
            } => {
                w.u8(1);
                w.u64(*token);
                w.addr(initiator);
                w.u8(kind.code());
                write_endpoints(w, endpoints);
            }
            RoutedPayload::ConnectResponse {
                token,
                responder,
                endpoints,
            } => {
                w.u8(2);
                w.u64(*token);
                w.addr(responder);
                write_endpoints(w, endpoints);
            }
            RoutedPayload::DhtPut {
                key,
                value,
                ttl_ms,
                version,
            } => {
                w.u8(3);
                w.addr(key);
                w.u64(*ttl_ms);
                w.u64(*version);
                w.bytes32(value);
            }
            RoutedPayload::DhtGet { key, token } => {
                w.u8(4);
                w.addr(key);
                w.u64(*token);
            }
            RoutedPayload::DhtReply { token, value } => {
                w.u8(5);
                w.u64(*token);
                match value {
                    Some(v) => {
                        w.u8(1);
                        w.bytes32(v);
                    }
                    None => w.u8(0),
                }
            }
            RoutedPayload::DhtCreate {
                key,
                value,
                ttl_ms,
                token,
            } => {
                w.u8(6);
                w.addr(key);
                w.u64(*ttl_ms);
                w.u64(*token);
                w.bytes32(value);
            }
            RoutedPayload::DhtCreateReply {
                token,
                created,
                existing,
            } => {
                w.u8(7);
                w.u64(*token);
                w.u8(u8::from(*created));
                match existing {
                    Some(v) => {
                        w.u8(1);
                        w.bytes32(v);
                    }
                    None => w.u8(0),
                }
            }
            RoutedPayload::DhtReplicate {
                key,
                value,
                ttl_ms,
                version,
                token,
            } => {
                w.u8(8);
                w.addr(key);
                w.u64(*ttl_ms);
                w.u64(*version);
                w.u64(*token);
                w.bytes32(value);
            }
            RoutedPayload::DhtRemove { key } => {
                w.u8(9);
                w.addr(key);
            }
            RoutedPayload::DhtReplicateAck { token, stored } => {
                w.u8(10);
                w.u64(*token);
                w.u8(u8::from(*stored));
            }
            RoutedPayload::DhtGetReplica { key, token } => {
                w.u8(11);
                w.addr(key);
                w.u64(*token);
            }
            RoutedPayload::DhtReplicaValue { token, copy } => {
                w.u8(12);
                w.u64(*token);
                match copy {
                    Some((value, version, ttl_ms)) => {
                        w.u8(1);
                        w.u64(*version);
                        w.u64(*ttl_ms);
                        w.bytes32(value);
                    }
                    None => w.u8(0),
                }
            }
            RoutedPayload::DhtWithdraw {
                key,
                value,
                version,
            } => {
                w.u8(13);
                w.addr(key);
                w.u64(*version);
                w.bytes32(value);
            }
            RoutedPayload::DhtSyncDigest {
                entries,
                from_owner,
            } => {
                w.u8(14);
                w.u8(u8::from(*from_owner));
                w.u16(entries.len().min(u16::MAX as usize) as u16);
                for e in entries.iter().take(u16::MAX as usize) {
                    w.addr(&e.key);
                    w.u64(e.version);
                    w.u64(e.value_hash);
                    w.u64(e.ttl_bucket);
                }
            }
            RoutedPayload::DhtSyncPull { keys } => {
                w.u8(15);
                w.u16(keys.len().min(u16::MAX as usize) as u16);
                for k in keys.iter().take(u16::MAX as usize) {
                    w.addr(k);
                }
            }
            RoutedPayload::PubSubSubscribe {
                topic,
                subscriber,
                ttl_ms,
            } => {
                w.u8(16);
                w.addr(topic);
                w.addr(subscriber);
                w.u64(*ttl_ms);
            }
            RoutedPayload::PubSubUnsubscribe { topic, subscriber } => {
                w.u8(17);
                w.addr(topic);
                w.addr(subscriber);
            }
            RoutedPayload::PubSubPublish {
                topic,
                msg_id,
                payload,
            } => {
                w.u8(18);
                w.addr(topic);
                w.u64(*msg_id);
                w.bytes32(payload);
            }
            RoutedPayload::PubSubDeliver {
                topic,
                msg_id,
                relay_to,
                payload,
            } => {
                // Body last, so a forwarding hop's patch path and the fan-out
                // decode can share the buffer region (see PUBSUB_DELIVER_FIXED).
                w.u8(19);
                w.addr(topic);
                w.u64(*msg_id);
                w.u16(relay_to.len().min(u16::MAX as usize) as u16);
                for addr in relay_to.iter().take(u16::MAX as usize) {
                    w.addr(addr);
                }
                w.bytes32(payload);
            }
            RoutedPayload::PubSubNack { topic, msg_id } => {
                w.u8(20);
                w.addr(topic);
                w.u64(*msg_id);
            }
            RoutedPayload::StreamSyn { stream_id, window } => {
                w.u8(21);
                w.u64(*stream_id);
                w.u32(*window);
            }
            RoutedPayload::StreamSynAck { stream_id, window } => {
                w.u8(22);
                w.u64(*stream_id);
                w.u32(*window);
            }
            RoutedPayload::StreamData {
                stream_id,
                seq,
                window,
                payload,
            } => {
                // Body last, so a forwarding hop's patch path and the receive
                // decode can share the buffer region (see STREAM_DATA_FIXED).
                w.u8(23);
                w.u64(*stream_id);
                w.u64(*seq);
                w.u32(*window);
                w.bytes32(payload);
            }
            RoutedPayload::StreamAck {
                stream_id,
                ack,
                window,
            } => {
                w.u8(24);
                w.u64(*stream_id);
                w.u64(*ack);
                w.u32(*window);
            }
            RoutedPayload::StreamFin { stream_id, seq } => {
                w.u8(25);
                w.u64(*stream_id);
                w.u64(*seq);
            }
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, ParseError> {
        let src = r.addr()?;
        let dst = r.addr()?;
        let mode = match r.u8()? {
            0 => DeliveryMode::Exact,
            1 => DeliveryMode::Closest,
            _ => return Err(ParseError::Unsupported("delivery mode")),
        };
        let hops = r.u8()?;
        let ttl = r.u8()?;
        let payload = match r.u8()? {
            0 => RoutedPayload::IpTunnel(r.bytes32()?),
            1 => RoutedPayload::ConnectRequest {
                token: r.u64()?,
                initiator: r.addr()?,
                kind: ConnectionKind::from_code(r.u8()?)?,
                endpoints: read_endpoints(r)?,
            },
            2 => RoutedPayload::ConnectResponse {
                token: r.u64()?,
                responder: r.addr()?,
                endpoints: read_endpoints(r)?,
            },
            3 => RoutedPayload::DhtPut {
                key: r.addr()?,
                ttl_ms: r.u64()?,
                version: r.u64()?,
                value: r.bytes32()?,
            },
            4 => RoutedPayload::DhtGet {
                key: r.addr()?,
                token: r.u64()?,
            },
            5 => {
                let token = r.u64()?;
                let value = if r.u8()? == 1 {
                    Some(r.bytes32()?)
                } else {
                    None
                };
                RoutedPayload::DhtReply { token, value }
            }
            6 => RoutedPayload::DhtCreate {
                key: r.addr()?,
                ttl_ms: r.u64()?,
                token: r.u64()?,
                value: r.bytes32()?,
            },
            7 => {
                let token = r.u64()?;
                let created = r.u8()? == 1;
                let existing = if r.u8()? == 1 {
                    Some(r.bytes32()?)
                } else {
                    None
                };
                RoutedPayload::DhtCreateReply {
                    token,
                    created,
                    existing,
                }
            }
            8 => RoutedPayload::DhtReplicate {
                key: r.addr()?,
                ttl_ms: r.u64()?,
                version: r.u64()?,
                token: r.u64()?,
                value: r.bytes32()?,
            },
            9 => RoutedPayload::DhtRemove { key: r.addr()? },
            10 => RoutedPayload::DhtReplicateAck {
                token: r.u64()?,
                stored: r.u8()? == 1,
            },
            11 => RoutedPayload::DhtGetReplica {
                key: r.addr()?,
                token: r.u64()?,
            },
            12 => {
                let token = r.u64()?;
                let copy = if r.u8()? == 1 {
                    let version = r.u64()?;
                    let ttl_ms = r.u64()?;
                    Some((r.bytes32()?, version, ttl_ms))
                } else {
                    None
                };
                RoutedPayload::DhtReplicaValue { token, copy }
            }
            13 => RoutedPayload::DhtWithdraw {
                key: r.addr()?,
                version: r.u64()?,
                value: r.bytes32()?,
            },
            14 => {
                let from_owner = r.u8()? == 1;
                let raw = r.u16()? as usize;
                let count = r.counted(raw, 44)?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push(SyncDigestEntry {
                        key: r.addr()?,
                        version: r.u64()?,
                        value_hash: r.u64()?,
                        ttl_bucket: r.u64()?,
                    });
                }
                RoutedPayload::DhtSyncDigest {
                    entries,
                    from_owner,
                }
            }
            15 => {
                let raw = r.u16()? as usize;
                let count = r.counted(raw, 20)?;
                let mut keys = Vec::with_capacity(count);
                for _ in 0..count {
                    keys.push(r.addr()?);
                }
                RoutedPayload::DhtSyncPull { keys }
            }
            16 => RoutedPayload::PubSubSubscribe {
                topic: r.addr()?,
                subscriber: r.addr()?,
                ttl_ms: r.u64()?,
            },
            17 => RoutedPayload::PubSubUnsubscribe {
                topic: r.addr()?,
                subscriber: r.addr()?,
            },
            18 => RoutedPayload::PubSubPublish {
                topic: r.addr()?,
                msg_id: r.u64()?,
                payload: r.bytes32()?,
            },
            19 => {
                let topic = r.addr()?;
                let msg_id = r.u64()?;
                let raw = r.u16()? as usize;
                let count = r.counted(raw, 20)?;
                let mut relay_to = Vec::with_capacity(count);
                for _ in 0..count {
                    relay_to.push(r.addr()?);
                }
                RoutedPayload::PubSubDeliver {
                    topic,
                    msg_id,
                    relay_to,
                    payload: r.bytes32()?,
                }
            }
            20 => RoutedPayload::PubSubNack {
                topic: r.addr()?,
                msg_id: r.u64()?,
            },
            21 => RoutedPayload::StreamSyn {
                stream_id: r.u64()?,
                window: r.u32()?,
            },
            22 => RoutedPayload::StreamSynAck {
                stream_id: r.u64()?,
                window: r.u32()?,
            },
            23 => RoutedPayload::StreamData {
                stream_id: r.u64()?,
                seq: r.u64()?,
                window: r.u32()?,
                payload: r.bytes32()?,
            },
            24 => RoutedPayload::StreamAck {
                stream_id: r.u64()?,
                ack: r.u64()?,
                window: r.u32()?,
            },
            25 => RoutedPayload::StreamFin {
                stream_id: r.u64()?,
                seq: r.u64()?,
            },
            _ => return Err(ParseError::Unsupported("routed payload")),
        };
        Ok(RoutedPacket {
            src,
            dst,
            mode,
            hops,
            ttl,
            payload,
            wire: None,
        })
    }
}

impl LinkMessage {
    /// Serialize to a shared wire buffer.
    ///
    /// For a routed IP-tunnel packet that was itself decoded from the wire,
    /// the cached image is reused: only the mutated `hops`/`ttl` header bytes
    /// are patched, and the tunnelled payload is **not** re-encoded. This is
    /// the forwarding fast path — intermediate hops pay one buffer copy
    /// instead of a field-by-field re-serialization.
    pub fn to_wire(&self) -> Bytes {
        if let LinkMessage::Routed(pkt) = self {
            if let Some(patched) = pkt.patched_wire() {
                return patched;
            }
        }
        Bytes::from(self.to_bytes())
    }

    /// Serialize to wire bytes (full encode, no cache).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            LinkMessage::Hello {
                from,
                kind,
                observed,
                token,
            } => {
                w.u8(0);
                w.addr(from);
                w.u8(kind.code());
                w.endpoint(observed);
                w.u64(*token);
            }
            LinkMessage::HelloAck {
                from,
                kind,
                observed,
                token,
            } => {
                w.u8(1);
                w.addr(from);
                w.u8(kind.code());
                w.endpoint(observed);
                w.u64(*token);
            }
            LinkMessage::Ping { from, nonce } => {
                w.u8(2);
                w.addr(from);
                w.u64(*nonce);
            }
            LinkMessage::Pong { from, nonce } => {
                w.u8(3);
                w.addr(from);
                w.u64(*nonce);
            }
            LinkMessage::Close { from } => {
                w.u8(4);
                w.addr(from);
            }
            LinkMessage::Probe { from, nonce } => {
                w.u8(7);
                w.addr(from);
                w.u64(*nonce);
            }
            LinkMessage::ProbeAck { from, nonce } => {
                w.u8(8);
                w.addr(from);
                w.u64(*nonce);
            }
            LinkMessage::Routed(pkt) => {
                w.u8(5);
                pkt.write(&mut w);
            }
            LinkMessage::Neighbors { from, neighbors } => {
                w.u8(6);
                w.addr(from);
                w.u8(neighbors.len().min(255) as u8);
                for (addr, ep) in neighbors.iter().take(255) {
                    w.addr(addr);
                    w.endpoint(ep);
                }
            }
        }
        w.buf
    }

    /// Parse from a shared wire buffer. Tunnelled and pub/sub bodies are
    /// sliced out of `data` (zero copy), and routed IP-tunnel / pub/sub
    /// delivery packets remember the wire image so forwarding can patch
    /// instead of re-encode.
    pub fn from_wire(data: &Bytes) -> Result<Self, ParseError> {
        let mut r = Reader::shared(data);
        let mut msg = Self::read(&mut r)?;
        if r.remaining() != 0 {
            return Err(ParseError::BadLength("overlay trailing bytes"));
        }
        if let LinkMessage::Routed(pkt) = &mut msg {
            if matches!(
                pkt.payload,
                RoutedPayload::IpTunnel(_)
                    | RoutedPayload::PubSubDeliver { .. }
                    | RoutedPayload::StreamData { .. }
            ) {
                pkt.wire = Some(data.clone());
            }
        }
        Ok(msg)
    }

    /// Parse from wire bytes.
    pub fn from_bytes(data: &[u8]) -> Result<Self, ParseError> {
        let mut r = Reader::new(data);
        let msg = Self::read(&mut r)?;
        if r.remaining() != 0 {
            // A message followed by garbage is not a valid wire image; strict
            // rejection keeps a mutated length field from silently shortening
            // the decoded payload.
            return Err(ParseError::BadLength("overlay trailing bytes"));
        }
        Ok(msg)
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, ParseError> {
        let msg = match r.u8()? {
            0 => LinkMessage::Hello {
                from: r.addr()?,
                kind: ConnectionKind::from_code(r.u8()?)?,
                observed: r.endpoint()?,
                token: r.u64()?,
            },
            1 => LinkMessage::HelloAck {
                from: r.addr()?,
                kind: ConnectionKind::from_code(r.u8()?)?,
                observed: r.endpoint()?,
                token: r.u64()?,
            },
            2 => LinkMessage::Ping {
                from: r.addr()?,
                nonce: r.u64()?,
            },
            3 => LinkMessage::Pong {
                from: r.addr()?,
                nonce: r.u64()?,
            },
            4 => LinkMessage::Close { from: r.addr()? },
            5 => LinkMessage::Routed(RoutedPacket::read(r)?),
            6 => {
                let from = r.addr()?;
                let raw = r.u8()? as usize;
                let count = r.counted(raw, 26)?;
                let mut neighbors = Vec::with_capacity(count);
                for _ in 0..count {
                    neighbors.push((r.addr()?, r.endpoint()?));
                }
                LinkMessage::Neighbors { from, neighbors }
            }
            7 => LinkMessage::Probe {
                from: r.addr()?,
                nonce: r.u64()?,
            },
            8 => LinkMessage::ProbeAck {
                from: r.addr()?,
                nonce: r.u64()?,
            },
            _ => return Err(ParseError::Unsupported("link message")),
        };
        Ok(msg)
    }

    /// The sender's overlay address, when the message carries one at link level.
    pub fn sender(&self) -> Option<Address> {
        match self {
            LinkMessage::Hello { from, .. }
            | LinkMessage::HelloAck { from, .. }
            | LinkMessage::Ping { from, .. }
            | LinkMessage::Pong { from, .. }
            | LinkMessage::Close { from }
            | LinkMessage::Probe { from, .. }
            | LinkMessage::ProbeAck { from, .. }
            | LinkMessage::Neighbors { from, .. } => Some(*from),
            LinkMessage::Routed(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u8) -> Address {
        let mut b = [0u8; 20];
        b[19] = n;
        Address(b)
    }

    fn ep(last: u8, port: u16) -> Endpoint {
        (Ipv4Addr::new(10, 0, 0, last), port)
    }

    #[test]
    fn link_control_messages_round_trip() {
        let msgs = vec![
            LinkMessage::Hello {
                from: a(1),
                kind: ConnectionKind::Near,
                observed: ep(2, 4001),
                token: 77,
            },
            LinkMessage::HelloAck {
                from: a(2),
                kind: ConnectionKind::Leaf,
                observed: ep(1, 4001),
                token: 77,
            },
            LinkMessage::Ping {
                from: a(3),
                nonce: 123_456,
            },
            LinkMessage::Pong {
                from: a(4),
                nonce: 123_456,
            },
            LinkMessage::Close { from: a(5) },
            LinkMessage::Probe {
                from: a(10),
                nonce: 987_654,
            },
            LinkMessage::ProbeAck {
                from: a(11),
                nonce: 987_654,
            },
            LinkMessage::Neighbors {
                from: a(6),
                neighbors: vec![(a(7), ep(7, 4001)), (a(8), ep(8, 4002))],
            },
            LinkMessage::Neighbors {
                from: a(9),
                neighbors: vec![],
            },
        ];
        for m in msgs {
            let parsed = LinkMessage::from_bytes(&m.to_bytes()).unwrap();
            assert_eq!(parsed, m);
            assert!(parsed.sender().is_some());
        }
    }

    #[test]
    fn routed_payloads_round_trip() {
        let payloads = vec![
            RoutedPayload::IpTunnel(vec![0xAB; 1400].into()),
            RoutedPayload::ConnectRequest {
                token: 9,
                initiator: a(7),
                kind: ConnectionKind::Far,
                endpoints: vec![ep(1, 4001), ep(2, 20_001)],
            },
            RoutedPayload::ConnectResponse {
                token: 9,
                responder: a(8),
                endpoints: vec![ep(3, 4001)],
            },
            RoutedPayload::DhtPut {
                key: a(9),
                value: b"172.16.0.5 -> brunet".to_vec().into(),
                ttl_ms: 120_000,
                version: 3,
            },
            RoutedPayload::DhtGet {
                key: a(9),
                token: 42,
            },
            RoutedPayload::DhtReply {
                token: 42,
                value: Some(vec![1, 2, 3].into()),
            },
            RoutedPayload::DhtReply {
                token: 43,
                value: None,
            },
            RoutedPayload::DhtCreate {
                key: a(10),
                value: vec![0xCC; 20].into(),
                ttl_ms: 60_000,
                token: 44,
            },
            RoutedPayload::DhtCreateReply {
                token: 44,
                created: true,
                existing: None,
            },
            RoutedPayload::DhtCreateReply {
                token: 45,
                created: false,
                existing: Some(vec![0xDD; 20].into()),
            },
            RoutedPayload::DhtReplicate {
                key: a(11),
                value: vec![0xEE; 4].into(),
                ttl_ms: 30_000,
                version: 7,
                token: 0,
            },
            RoutedPayload::DhtReplicate {
                key: a(11),
                value: vec![0xEF; 4].into(),
                ttl_ms: 30_000,
                version: 1,
                token: 91,
            },
            RoutedPayload::DhtReplicateAck {
                token: 91,
                stored: true,
            },
            RoutedPayload::DhtReplicateAck {
                token: 91,
                stored: false,
            },
            RoutedPayload::DhtWithdraw {
                key: a(14),
                value: vec![0xBB; 20].into(),
                version: 6,
            },
            RoutedPayload::DhtGetReplica {
                key: a(13),
                token: 92,
            },
            RoutedPayload::DhtReplicaValue {
                token: 92,
                copy: Some((vec![0xAA; 20].into(), 4, 15_000)),
            },
            RoutedPayload::DhtReplicaValue {
                token: 93,
                copy: None,
            },
            RoutedPayload::DhtRemove { key: a(12) },
            RoutedPayload::DhtSyncDigest {
                entries: vec![
                    SyncDigestEntry {
                        key: a(15),
                        version: 9,
                        value_hash: 0xDEAD_BEEF_1234_5678,
                        ttl_bucket: 14,
                    },
                    SyncDigestEntry {
                        key: a(16),
                        version: 2,
                        value_hash: 1,
                        ttl_bucket: 0,
                    },
                ],
                from_owner: true,
            },
            RoutedPayload::DhtSyncDigest {
                entries: vec![],
                from_owner: false,
            },
            RoutedPayload::DhtSyncPull {
                keys: vec![a(15), a(16)],
            },
            RoutedPayload::DhtSyncPull { keys: vec![] },
            RoutedPayload::PubSubSubscribe {
                topic: a(20),
                subscriber: a(21),
                ttl_ms: 120_000,
            },
            RoutedPayload::PubSubUnsubscribe {
                topic: a(20),
                subscriber: a(21),
            },
            RoutedPayload::PubSubPublish {
                topic: a(20),
                msg_id: 0xFEED_FACE_CAFE_BEEF,
                payload: vec![0x42; 600].into(),
            },
            RoutedPayload::PubSubDeliver {
                topic: a(20),
                msg_id: 7,
                relay_to: vec![a(22), a(23), a(24)],
                payload: vec![0x43; 600].into(),
            },
            RoutedPayload::PubSubDeliver {
                topic: a(20),
                msg_id: 8,
                relay_to: vec![],
                payload: vec![].into(),
            },
            RoutedPayload::PubSubNack {
                topic: a(20),
                msg_id: 7,
            },
            RoutedPayload::StreamSyn {
                stream_id: 0x1234_5678_9ABC_DEF0,
                window: 65_536,
            },
            RoutedPayload::StreamSynAck {
                stream_id: 0x1234_5678_9ABC_DEF0,
                window: 32_768,
            },
            RoutedPayload::StreamData {
                stream_id: 3,
                seq: 1_048_576,
                window: 16_384,
                payload: vec![0x66; 1200].into(),
            },
            RoutedPayload::StreamData {
                stream_id: 3,
                seq: 0,
                window: 0,
                payload: vec![].into(),
            },
            RoutedPayload::StreamAck {
                stream_id: 3,
                ack: 1_049_776,
                window: 65_536,
            },
            RoutedPayload::StreamFin {
                stream_id: 3,
                seq: 1_049_776,
            },
        ];
        for p in payloads {
            let pkt = RoutedPacket::new(a(1), a(2), DeliveryMode::Closest, p);
            let msg = LinkMessage::Routed(pkt.clone());
            let parsed = LinkMessage::from_bytes(&msg.to_bytes()).unwrap();
            assert_eq!(parsed, msg);
            assert_eq!(parsed.sender(), None);
        }
    }

    #[test]
    fn hop_and_ttl_fields_survive() {
        let mut pkt = RoutedPacket::new(
            a(1),
            a(2),
            DeliveryMode::Exact,
            RoutedPayload::IpTunnel(vec![1].into()),
        );
        pkt.hops = 5;
        pkt.ttl = 9;
        let LinkMessage::Routed(parsed) =
            LinkMessage::from_bytes(&LinkMessage::Routed(pkt.clone()).to_bytes()).unwrap()
        else {
            panic!("expected routed")
        };
        assert_eq!(parsed.hops, 5);
        assert_eq!(parsed.ttl, 9);
    }

    #[test]
    fn large_tunnel_payload_uses_32bit_length() {
        let big = vec![7u8; 100_000];
        let pkt = RoutedPacket::new(
            a(1),
            a(2),
            DeliveryMode::Exact,
            RoutedPayload::IpTunnel(big.clone().into()),
        );
        let LinkMessage::Routed(parsed) =
            LinkMessage::from_bytes(&LinkMessage::Routed(pkt).to_bytes()).unwrap()
        else {
            panic!("expected routed")
        };
        assert_eq!(parsed.payload, RoutedPayload::IpTunnel(big.into()));
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(LinkMessage::from_bytes(&[]).is_err());
        assert!(LinkMessage::from_bytes(&[99]).is_err());
        assert!(LinkMessage::from_bytes(&[0, 1, 2]).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut wire = LinkMessage::Ping {
            from: a(1),
            nonce: 7,
        }
        .to_bytes();
        assert!(LinkMessage::from_bytes(&wire).is_ok());
        wire.push(0);
        assert_eq!(
            LinkMessage::from_bytes(&wire),
            Err(ParseError::BadLength("overlay trailing bytes"))
        );
        assert!(LinkMessage::from_wire(&Bytes::from(wire)).is_err());
    }

    #[test]
    fn truncation_at_every_length_is_a_typed_error() {
        // Every proper prefix of a valid message must fail cleanly, never
        // panic or decode to something else.
        let pkt = RoutedPacket::new(
            a(1),
            a(2),
            DeliveryMode::Closest,
            RoutedPayload::DhtSyncDigest {
                entries: vec![SyncDigestEntry {
                    key: a(15),
                    version: 9,
                    value_hash: 3,
                    ttl_bucket: 14,
                }],
                from_owner: true,
            },
        );
        let wire = LinkMessage::Routed(pkt).to_bytes();
        for cut in 0..wire.len() {
            assert!(
                LinkMessage::from_bytes(&wire[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn inflated_count_fields_are_rejected_before_allocating() {
        // A DhtSyncPull claiming u16::MAX keys with no key bytes behind the
        // count must be rejected by the length pre-check.
        let pkt = RoutedPacket::new(
            a(1),
            a(2),
            DeliveryMode::Closest,
            RoutedPayload::DhtSyncPull { keys: vec![] },
        );
        let mut wire = LinkMessage::Routed(pkt).to_bytes();
        let count_at = wire.len() - 2;
        wire[count_at..].copy_from_slice(&u16::MAX.to_be_bytes());
        assert_eq!(
            LinkMessage::from_bytes(&wire),
            Err(ParseError::BadLength("overlay element count"))
        );
        // Same for a Neighbors gossip claiming 255 entries.
        let mut wire = LinkMessage::Neighbors {
            from: a(3),
            neighbors: vec![],
        }
        .to_bytes();
        let count_at = wire.len() - 1;
        wire[count_at] = 255;
        assert_eq!(
            LinkMessage::from_bytes(&wire),
            Err(ParseError::BadLength("overlay element count"))
        );
        // And for a PubSubDeliver whose relay count is inflated past the
        // bytes actually present.
        let pkt = RoutedPacket::new(
            a(1),
            a(2),
            DeliveryMode::Exact,
            RoutedPayload::PubSubDeliver {
                topic: a(20),
                msg_id: 1,
                relay_to: vec![],
                payload: vec![].into(),
            },
        );
        let mut wire = LinkMessage::Routed(pkt).to_bytes();
        // relay count sits just before the 4-byte body length (empty body).
        let count_at = wire.len() - 6;
        wire[count_at..count_at + 2].copy_from_slice(&u16::MAX.to_be_bytes());
        assert_eq!(
            LinkMessage::from_bytes(&wire),
            Err(ParseError::BadLength("overlay element count"))
        );
    }

    #[test]
    fn pubsub_deliver_forwarding_patches_cached_wire() {
        // A relay hop that bumps hops/ttl must produce exactly the bytes a
        // full re-encode would, without touching the body region.
        let pkt = RoutedPacket::new(
            a(1),
            a(2),
            DeliveryMode::Exact,
            RoutedPayload::PubSubDeliver {
                topic: a(20),
                msg_id: 99,
                relay_to: vec![a(3), a(4)],
                payload: vec![0x55; 900].into(),
            },
        );
        let wire = LinkMessage::Routed(pkt).to_wire();
        let LinkMessage::Routed(mut decoded) = LinkMessage::from_wire(&wire).unwrap() else {
            panic!("expected routed")
        };
        // Unmutated: the cached image is reused as-is, zero copy.
        assert!(LinkMessage::Routed(decoded.clone())
            .to_wire()
            .same_region(&wire));
        decoded.hops += 1;
        decoded.ttl -= 1;
        let patched = LinkMessage::Routed(decoded.clone()).to_wire();
        assert_eq!(
            patched.as_slice(),
            LinkMessage::Routed(decoded).to_bytes().as_slice()
        );
    }

    #[test]
    fn stream_data_forwarding_patches_cached_wire() {
        // A forwarding hop that bumps hops/ttl on a stream segment must
        // produce exactly the bytes a full re-encode would, without touching
        // the body region.
        let pkt = RoutedPacket::new(
            a(1),
            a(2),
            DeliveryMode::Exact,
            RoutedPayload::StreamData {
                stream_id: 42,
                seq: 9_000,
                window: 65_536,
                payload: vec![0x5A; 1400].into(),
            },
        );
        let wire = LinkMessage::Routed(pkt).to_wire();
        let LinkMessage::Routed(mut decoded) = LinkMessage::from_wire(&wire).unwrap() else {
            panic!("expected routed")
        };
        // Unmutated: the cached image is reused as-is, zero copy.
        assert!(LinkMessage::Routed(decoded.clone())
            .to_wire()
            .same_region(&wire));
        // The body itself is a slice of the wire buffer, not a copy.
        let RoutedPayload::StreamData { payload, .. } = &decoded.payload else {
            panic!("expected stream data")
        };
        assert!(payload.same_region(&wire.slice(wire.len() - payload.len()..)));
        decoded.hops += 1;
        decoded.ttl -= 1;
        let patched = LinkMessage::Routed(decoded.clone()).to_wire();
        assert_eq!(
            patched.as_slice(),
            LinkMessage::Routed(decoded).to_bytes().as_slice()
        );
    }

    #[test]
    fn stream_data_patch_rejects_mutated_fields() {
        // Any field change besides hops/ttl must fall back to a full
        // re-encode (the cached image no longer matches structurally).
        let pkt = RoutedPacket::new(
            a(1),
            a(2),
            DeliveryMode::Exact,
            RoutedPayload::StreamData {
                stream_id: 7,
                seq: 100,
                window: 1_000,
                payload: vec![0x11; 64].into(),
            },
        );
        let wire = LinkMessage::Routed(pkt).to_wire();
        let LinkMessage::Routed(decoded) = LinkMessage::from_wire(&wire).unwrap() else {
            panic!("expected routed")
        };
        let mut mutated = decoded.clone();
        let RoutedPayload::StreamData { seq, .. } = &mut mutated.payload else {
            panic!("expected stream data")
        };
        *seq += 1;
        let reencoded = LinkMessage::Routed(mutated.clone()).to_wire();
        assert_eq!(
            reencoded.as_slice(),
            LinkMessage::Routed(mutated).to_bytes().as_slice()
        );
    }

    #[test]
    fn pubsub_fanout_copies_share_one_wire_body() {
        // Decoding a deliver and re-addressing it to N subscribers must keep
        // every copy's body in the original wire buffer (no re-encode of the
        // message bytes per delivery).
        let body: Bytes = vec![0x77; 1200].into();
        let pkt = RoutedPacket::new(
            a(1),
            a(2),
            DeliveryMode::Exact,
            RoutedPayload::PubSubDeliver {
                topic: a(20),
                msg_id: 5,
                relay_to: vec![a(3), a(4), a(5)],
                payload: body,
            },
        );
        let wire = LinkMessage::Routed(pkt).to_wire();
        let LinkMessage::Routed(decoded) = LinkMessage::from_wire(&wire).unwrap() else {
            panic!("expected routed")
        };
        let RoutedPayload::PubSubDeliver { payload, .. } = &decoded.payload else {
            panic!("expected deliver")
        };
        let body_at = wire.len() - payload.len();
        assert!(payload.same_region(&wire.slice(body_at..)));
        for i in 0..8u8 {
            let copy = RoutedPacket::new(
                a(1),
                a(30 + i),
                DeliveryMode::Exact,
                RoutedPayload::PubSubDeliver {
                    topic: a(20),
                    msg_id: 5,
                    relay_to: vec![],
                    payload: payload.clone(),
                },
            );
            let RoutedPayload::PubSubDeliver { payload: p, .. } = &copy.payload else {
                unreachable!()
            };
            assert!(p.same_region(&wire.slice(body_at..)));
        }
    }
}
