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

// Every overlay wire decoder lives here, and decoders return typed errors,
// never panic (CONTRACTS.md C2): no unwrap/expect, panicking macro or index
// expression in this module's production code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

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
    /// subscriber set is covered.
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
    /// One ordered segment of stream payload.
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
#[derive(Clone, Debug, PartialEq)]
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

// --------------------------------------------------------------------- codec

/// One field type's wire form, written once: `put` appends the encoding and
/// `get` reads it back. `MIN` is a lower bound on the encoded size — exact
/// for every type a counted list holds, so [`get_list`] can bound a count by
/// the bytes present before it allocates; an enum claims only its tag byte.
trait Wire: Sized {
    const MIN: usize;
    fn put(&self, buf: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Result<Self, ParseError>;
}

/// A decode cursor over a shared buffer. Length-prefixed bodies are sliced
/// out of `src` (zero copy); `data` is `src`'s bytes, cached so that a
/// fixed-size read does not go through the `Bytes` handle.
struct Reader<'a> {
    src: &'a Bytes,
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
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
    /// Bytes left to read.
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
}

/// Big-endian integers.
macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN: usize = std::mem::size_of::<$t>();
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_be_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, ParseError> {
                Ok(Self::from_be_bytes(r.array()?))
            }
        }
    )*};
}
wire_int!(u8, u16, u32, u64);

/// One byte, 1 for true; any other value decodes as false.
impl Wire for bool {
    const MIN: usize = 1;
    fn put(&self, buf: &mut Vec<u8>) {
        u8::from(*self).put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ParseError> {
        Ok(u8::get(r)? == 1)
    }
}

impl Wire for Address {
    const MIN: usize = 20;
    fn put(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ParseError> {
        Ok(Address(r.array()?))
    }
}

impl Wire for Ipv4Addr {
    const MIN: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.octets());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ParseError> {
        Ok(Ipv4Addr::from(r.array::<4>()?))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN: usize = A::MIN + B::MIN;
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ParseError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// A 32-bit length prefix, then the bytes; decoding slices them out of the
/// shared buffer instead of copying.
impl Wire for Bytes {
    const MIN: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        buf.extend_from_slice(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ParseError> {
        let len = u32::get(r)? as usize;
        let start = r.pos;
        r.take(len)?;
        Ok(r.src.slice(start..start + len))
    }
}

/// A presence byte (1 for `Some`; any other value decodes as `None`), then
/// the value.
impl<T: Wire> Wire for Option<T> {
    const MIN: usize = 1;
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Some(v) => {
                buf.push(1);
                v.put(buf);
            }
            None => buf.push(0),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ParseError> {
        Ok(if u8::get(r)? == 1 {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

/// A replica's copy `(value, version, ttl_ms)`: the numbers first and the
/// body last, so decoding slices it.
impl Wire for (Bytes, u64, u64) {
    const MIN: usize = 20;
    fn put(&self, buf: &mut Vec<u8>) {
        self.1.put(buf);
        self.2.put(buf);
        self.0.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ParseError> {
        let (version, ttl_ms) = (u64::get(r)?, u64::get(r)?);
        Ok((Bytes::get(r)?, version, ttl_ms))
    }
}

/// A list's count prefix, `u8` or `u16`.
trait Count: Wire + Copy + Into<usize> + TryFrom<usize> {
    const MAX: Self;
}
impl Count for u8 {
    const MAX: Self = u8::MAX;
}
impl Count for u16 {
    const MAX: Self = u16::MAX;
}

/// A count, then the items; a list longer than the count can say is cut to
/// its first `N::MAX` items.
fn put_list<N: Count, T: Wire>(items: &[T], buf: &mut Vec<u8>) {
    let n = N::try_from(items.len()).unwrap_or(N::MAX);
    n.put(buf);
    for item in items.iter().take(n.into()) {
        item.put(buf);
    }
}

/// Read a list written by [`put_list`]. The count is checked against the
/// bytes actually present (each item takes at least `T::MIN`) before the
/// list is allocated: a mutated count field cannot turn into a huge
/// `Vec::with_capacity`.
fn get_list<N: Count, T: Wire>(r: &mut Reader<'_>) -> Result<Vec<T>, ParseError> {
    let n: usize = N::get(r)?.into();
    if n * T::MIN > r.remaining() {
        return Err(ParseError::BadLength("overlay element count"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(T::get(r)?);
    }
    Ok(out)
}

/// A struct's codec: its fields, with their types, in wire order.
macro_rules! wire_struct {
    ($ty:ident { $($f:ident: $t:ty),* $(,)? }) => {
        impl Wire for $ty {
            const MIN: usize = 0 $(+ <$t as Wire>::MIN)*;
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$f.put(buf);)*
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, ParseError> {
                Ok($ty { $($f: <$t as Wire>::get(r)?),* })
            }
        }
    };
}

/// An enum's codec: every variant once, with its tag byte and its fields in
/// wire order. `put` and `get` are both generated from that one list, so
/// they cannot disagree on a tag or on a field's place. `name as u8` (or
/// `as u16`) marks a list field and the width of its count. An unknown tag
/// decodes to `Unsupported($what)`.
macro_rules! wire_enum {
    ($ty:ident, $what:literal {
        $($tag:literal $v:ident $(($t:ident))? $({ $($f:ident $(as $n:ident)?),* })?,)*
    }) => {
        impl Wire for $ty {
            const MIN: usize = 1;
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $($ty::$v $(($t))? $({ $($f),* })? => {
                        buf.push($tag);
                        $($t.put(buf);)?
                        $($(wire_field!(put buf, $f $(as $n)?);)*)?
                    })*
                }
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, ParseError> {
                Ok(match u8::get(r)? {
                    $($tag => $ty::$v
                        $((wire_field!(get r, $t)))?
                        $({ $($f: wire_field!(get r, $f $(as $n)?)),* })?,)*
                    _ => return Err(ParseError::Unsupported($what)),
                })
            }
        }
    };
}

/// One field of a `wire_enum!` arm: its `Wire` impl, or `put_list` / `get_list` for a list.
#[rustfmt::skip]
macro_rules! wire_field {
    (put $buf:ident, $f:ident) => { $f.put($buf) };
    (put $buf:ident, $f:ident as $n:ident) => { put_list::<$n, _>($f, $buf) };
    (get $r:ident, $f:ident) => { Wire::get($r)? };
    (get $r:ident, $f:ident as $n:ident) => { get_list::<$n, _>($r)? };
}

wire_enum!(DeliveryMode, "delivery mode" { 0 Exact, 1 Closest, });
wire_enum!(ConnectionKind, "connection kind" { 0 Near, 1 Far, 2 Leaf, });
wire_struct! { SyncDigestEntry { key: Address, version: u64, value_hash: u64, ttl_bucket: u64 } }
wire_struct! {
    RoutedPacket { src: Address, dst: Address, mode: DeliveryMode, hops: u8, ttl: u8, payload: RoutedPayload }
}

// Every body (`value`, `payload`, `data`) is encoded last, so decoding from a
// shared buffer slices it instead of copying.
wire_enum!(RoutedPayload, "routed payload" {
    0 IpTunnel(data),
    1 ConnectRequest { token, initiator, kind, endpoints as u8 },
    2 ConnectResponse { token, responder, endpoints as u8 },
    3 DhtPut { key, ttl_ms, version, value },
    4 DhtGet { key, token },
    5 DhtReply { token, value },
    6 DhtCreate { key, ttl_ms, token, value },
    7 DhtCreateReply { token, created, existing },
    8 DhtReplicate { key, ttl_ms, version, token, value },
    9 DhtRemove { key },
    10 DhtReplicateAck { token, stored },
    11 DhtGetReplica { key, token },
    12 DhtReplicaValue { token, copy },
    13 DhtWithdraw { key, version, value },
    14 DhtSyncDigest { from_owner, entries as u16 },
    15 DhtSyncPull { keys as u16 },
    16 PubSubSubscribe { topic, subscriber, ttl_ms },
    17 PubSubUnsubscribe { topic, subscriber },
    18 PubSubPublish { topic, msg_id, payload },
    19 PubSubDeliver { topic, msg_id, relay_to as u16, payload },
    20 PubSubNack { topic, msg_id },
    21 StreamSyn { stream_id, window },
    22 StreamSynAck { stream_id, window },
    23 StreamData { stream_id, seq, window, payload },
    24 StreamAck { stream_id, ack, window },
    25 StreamFin { stream_id, seq },
});

wire_enum!(LinkMessage, "link message" {
    0 Hello { from, kind, observed, token },
    1 HelloAck { from, kind, observed, token },
    2 Ping { from, nonce },
    3 Pong { from, nonce },
    4 Close { from },
    5 Routed(pkt),
    6 Neighbors { from, neighbors as u8 },
    7 Probe { from, nonce },
    8 ProbeAck { from, nonce },
});

impl LinkMessage {
    /// Serialize to a shared wire buffer.
    pub fn to_wire(&self) -> Bytes {
        Bytes::from(self.to_bytes())
    }

    /// Serialize to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        self.put(&mut buf);
        buf
    }

    /// Parse from a shared wire buffer — the one decoder. Every
    /// length-prefixed body (tunnelled packets, pub/sub and stream payloads,
    /// DHT values) is sliced out of `data` (zero copy). A message followed by
    /// garbage is not a valid wire image: strict rejection keeps a mutated
    /// length field from silently shortening the decoded payload.
    pub fn from_wire(data: &Bytes) -> Result<Self, ParseError> {
        let mut r = Reader {
            src: data,
            data: data.as_slice(),
            pos: 0,
        };
        let msg = Self::get(&mut r)?;
        if r.remaining() != 0 {
            return Err(ParseError::BadLength("overlay trailing bytes"));
        }
        Ok(msg)
    }

    /// Parse from wire bytes (copied into a shared buffer first).
    pub fn from_bytes(data: &[u8]) -> Result<Self, ParseError> {
        Self::from_wire(&Bytes::from(data))
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

/// Bytes of one encoded subscriber-set entry: address 20 + expiry ms 8.
const SUB_ENTRY_BYTES: usize = 28;

/// Encode a subscriber set — `(address, absolute expiry in virtual ms)` pairs
/// — as a DHT record value. Entries must already be in ring order (the
/// `BTreeMap` iteration order of the caller), which keeps re-encodes
/// byte-stable and fan-out plans deterministic.
pub fn encode_subscriber_set(entries: &[(Address, u64)]) -> Bytes {
    let mut buf = Vec::with_capacity(4 + entries.len() * SUB_ENTRY_BYTES);
    buf.extend_from_slice(&(entries.len() as u32).to_be_bytes());
    for (addr, expires_ms) in entries {
        buf.extend_from_slice(&addr.0);
        buf.extend_from_slice(&expires_ms.to_be_bytes());
    }
    Bytes::from(buf)
}

/// Decode a subscriber-set record value. Rejects inflated counts before
/// allocating and trailing bytes after the last entry, consistent with the
/// wire codec's hardening.
pub fn decode_subscriber_set(value: &Bytes) -> Result<Vec<(Address, u64)>, ParseError> {
    let data = value.as_slice();
    let (count_bytes, body) = data
        .split_first_chunk::<4>()
        .ok_or(ParseError::Truncated("subscriber set"))?;
    let count = u32::from_be_bytes(*count_bytes) as usize;
    if count.checked_mul(SUB_ENTRY_BYTES) != Some(body.len()) {
        return Err(ParseError::BadLength("subscriber set count"));
    }
    let mut out = Vec::with_capacity(count);
    for entry in body.chunks_exact(SUB_ENTRY_BYTES) {
        let (addr, ms) = entry.split_at(20);
        let addr: [u8; 20] = addr
            .try_into()
            .map_err(|_| ParseError::BadLength("subscriber entry"))?;
        let ms: [u8; 8] = ms
            .try_into()
            .map_err(|_| ParseError::BadLength("subscriber entry"))?;
        out.push((Address(addr), u64::from_be_bytes(ms)));
    }
    Ok(out)
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

    /// The body of a routed packet decoded from `wire`, checked to be the
    /// buffer's tail region (sliced, not copied).
    fn decoded_body(wire: &Bytes) -> Bytes {
        let LinkMessage::Routed(decoded) = LinkMessage::from_wire(wire).unwrap() else {
            panic!("expected routed")
        };
        let (RoutedPayload::IpTunnel(body)
        | RoutedPayload::PubSubDeliver { payload: body, .. }
        | RoutedPayload::StreamData { payload: body, .. }) = decoded.payload
        else {
            panic!("expected a bulk payload")
        };
        assert!(body.same_region(&wire.slice(wire.len() - body.len()..)));
        body
    }

    #[test]
    fn stream_data_forwarding_patches_cached_wire() {
        // A forwarding hop that bumps hops/ttl on a stream segment decoded
        // from the received buffer must send exactly the bytes of a fresh
        // encode, and they must decode to the forwarded segment.
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
        decoded.hops += 1;
        decoded.ttl -= 1;
        let forwarded = LinkMessage::Routed(decoded);
        let sent = forwarded.to_wire();
        assert_eq!(sent.as_slice(), forwarded.to_bytes().as_slice());
        assert_eq!(LinkMessage::from_wire(&sent).unwrap(), forwarded);
    }

    #[test]
    fn pubsub_fanout_copies_share_one_wire_body() {
        // The three bulk payloads decode as slices of the received buffer.
        for payload in [
            RoutedPayload::IpTunnel(vec![0x5A; 1400].into()),
            RoutedPayload::StreamData {
                stream_id: 42,
                seq: 9_000,
                window: 65_536,
                payload: vec![0x5B; 1200].into(),
            },
        ] {
            let pkt = RoutedPacket::new(a(1), a(2), DeliveryMode::Exact, payload);
            decoded_body(&LinkMessage::Routed(pkt).to_wire());
        }
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
        let payload = decoded_body(&wire);
        let body_at = wire.len() - payload.len();
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

#[cfg(test)]
mod wire_min {
    use super::*;

    /// `Wire::MIN` bounds a decoded count before the list is allocated (C2):
    /// too high rejects valid lists, too low loosens the bound. For every
    /// list element type it must be the encoded size.
    #[test]
    fn min_is_the_encoded_size_of_every_list_element() {
        fn sizes<T: Wire>(v: T) -> (usize, usize) {
            let mut buf = Vec::new();
            v.put(&mut buf);
            (T::MIN, buf.len())
        }
        let ep: Endpoint = (Ipv4Addr::new(10, 0, 0, 1), 4000);
        let addr = Address([7; 20]);
        let entry = SyncDigestEntry {
            key: addr,
            version: 1,
            value_hash: 2,
            ttl_bucket: 3,
        };
        assert_eq!(sizes(ep), (6, 6));
        assert_eq!(sizes((addr, ep)), (26, 26));
        assert_eq!(sizes(addr), (20, 20));
        assert_eq!(sizes(entry), (44, 44));
    }
}
