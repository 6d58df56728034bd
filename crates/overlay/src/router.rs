//! The routing core: greedy structured routing over whatever edges exist.
//!
//! Brunet keeps three jobs apart (paper Section II-C): the connection
//! protocol, the linking handshake, and routing. This is the third — the
//! configuration, the connection table, the outbox, the rng and token
//! counter and the flat counters, with [`Core::originate`] / [`Core::route`]
//! over them. [`crate::node::OverlayNode`] owns one [`Core`] beside its
//! components and lends it to them call by call. Which edges the table
//! should hold is not decided here: a component that is lent the core fills
//! it, and routing takes what it finds.

use std::collections::VecDeque;

use ipop_simcore::{SimTime, StreamRng};

use crate::address::Address;
use crate::node::{OverlayConfig, OverlayStats};
use crate::packets::{
    ConnectionKind, DeliveryMode, Endpoint, LinkMessage, RoutedPacket, RoutedPayload,
};
use crate::table::{Connection, ConnectionState, ConnectionTable};

/// What [`Core::route`] hands back when a packet's path ends at this node.
pub(crate) enum Arrival {
    /// Due here — addressed to this node, or `Closest` with no peer closer.
    /// Whoever routed it hands it to the component that owns its wire tag.
    Here(RoutedPacket),
    /// `Exact`-addressed to a node that is not in the overlay; this one is
    /// merely the closest left, and has already counted the packet as
    /// dropped. Only pub/sub has a use for it (a delegated fan-out chunk is
    /// salvaged).
    Stray(RoutedPacket),
}

/// The routing core: what is left of a node once the protocols are out —
/// configuration, connection table, greedy routing, the outbox, the rng and
/// token counter, the flat counters.
pub(crate) struct Core {
    pub(crate) cfg: OverlayConfig,
    pub(crate) table: ConnectionTable,
    pub(crate) outbox: Vec<(Endpoint, LinkMessage)>,
    /// True once this node ever held an established edge — an isolated node
    /// that *had* peers must not self-acknowledge quorum writes against a
    /// copy set of one (see [`crate::dht::Dht::commit`]).
    pub(crate) ever_connected: bool,
    next_token: u64,
    pub(crate) rng: StreamRng,
    pub(crate) stats: OverlayStats,
    /// False before `start` and after a graceful leave: the node is not part
    /// of the overlay and neither answers handshakes nor routes traffic.
    pub(crate) started: bool,
}

impl Core {
    /// Every configuration passes through here, so here is where the knobs
    /// that make no sense at zero are raised to one.
    pub(crate) fn new(mut cfg: OverlayConfig, rng: StreamRng) -> Self {
        cfg.packet_ttl = cfg.packet_ttl.max(1);
        cfg.pubsub_fanout = cfg.pubsub_fanout.max(1);
        Core {
            cfg,
            table: ConnectionTable::new(),
            outbox: Vec::new(),
            ever_connected: false,
            next_token: 1,
            rng,
            stats: OverlayStats::default(),
            started: false,
        }
    }

    pub(crate) fn is_connected(&self) -> bool {
        !self.table.is_empty()
    }

    /// Record `peer` at `endpoint` as an established edge of `kind`.
    pub(crate) fn link_up(
        &mut self,
        now: SimTime,
        peer: Address,
        endpoint: Endpoint,
        kind: ConnectionKind,
    ) {
        self.ever_connected = true;
        self.table.upsert(Connection {
            peer,
            endpoint,
            kind,
            state: ConnectionState::Established,
            last_heard: now,
            last_ping_sent: now,
        });
    }

    /// Tell every peer the edges are going away (graceful leave).
    pub(crate) fn close_all(&mut self) {
        let from = self.cfg.address;
        let peers: Vec<Endpoint> = self.table.established().map(|c| c.endpoint).collect();
        for ep in peers {
            self.push_out(ep, LinkMessage::Close { from });
        }
    }

    /// Messages queued for the physical transport: `(destination endpoint, message)`.
    ///
    /// Hands the buffer over rather than draining it in place, on purpose: the
    /// re-allocation in `push_out` is most of the ring workloads' allocation
    /// traffic, but keeping the capacity (tried for this and for
    /// `VStreams::out`, PR 22) saved no measurable time and raised peak RSS
    /// 18 % on `ring_route` and 39 % on `streams` — every one of thousands of
    /// nodes then retains its largest burst.
    pub(crate) fn take_outbox(&mut self) -> Vec<(Endpoint, LinkMessage)> {
        std::mem::take(&mut self.outbox)
    }

    /// The `count` established peers closest (ring distance) to `key`,
    /// nearest first — the nodes that should hold this key's replicas.
    pub(crate) fn replica_targets(&self, key: &Address, count: usize) -> Vec<Address> {
        let mut peers = self.table.peers();
        peers.sort_by_cached_key(|peer| (peer.ring_distance(key), *peer));
        peers.truncate(count);
        peers
    }

    /// Is this node the ring owner of `key` (closer than every established
    /// peer)? Mirrors the `Closest` delivery rule, so the node that greedy
    /// routing delivers a DHT operation to also believes it owns the key.
    pub(crate) fn owns_key(&self, key: &Address) -> bool {
        self.table.best_distance_to(key) >= self.cfg.address.ring_distance(key)
    }

    /// A packet this node originates, counted.
    pub(crate) fn originated(
        &mut self,
        dst: Address,
        mode: DeliveryMode,
        payload: RoutedPayload,
    ) -> RoutedPacket {
        self.stats.originated += 1;
        RoutedPacket::new(self.cfg.address, dst, mode, payload)
    }

    /// Originate `payload` towards `dst`: the one entry point through which
    /// this node's own traffic — and every component's — enters routing. A
    /// packet that is due at this very node comes straight back, and the
    /// caller hands it on (a component to itself, for its own tags) before
    /// doing anything else: routing is depth first.
    #[must_use = "a packet due here must be handed to the component that owns its tag"]
    pub(crate) fn originate(
        &mut self,
        dst: Address,
        mode: DeliveryMode,
        payload: RoutedPayload,
    ) -> Option<Arrival> {
        let pkt = self.originated(dst, mode, payload);
        self.route(pkt)
    }

    /// Forward `pkt` one hop along the ring, or — when no peer is closer to
    /// its destination than this node — return it as arrived.
    #[must_use = "a packet due here must be handed to the component that owns its tag"]
    pub(crate) fn route(&mut self, mut pkt: RoutedPacket) -> Option<Arrival> {
        // A connect request routed toward the initiator's own address must
        // never be handed back to the initiator itself — it has to terminate
        // at the nearest *other* node.
        let exclude = match &pkt.payload {
            RoutedPayload::ConnectRequest { initiator, .. } => Some(*initiator),
            _ => None,
        };
        // Origination (a forwarded packet always arrives with `hops >= 1`):
        // stamp this node's configured hop budget.
        if pkt.hops == 0 {
            pkt.ttl = self.cfg.packet_ttl;
        }
        let my_dist = self.cfg.address.ring_distance(&pkt.dst);
        let closer = self
            .table
            .closest_to_excluding(&pkt.dst, exclude.as_ref())
            .filter(|c| c.peer.ring_distance(&pkt.dst) < my_dist);
        let Some(endpoint) = closer.map(|c| c.endpoint) else {
            return self.arrive(pkt);
        };
        if pkt.hops >= pkt.ttl {
            self.stats.dropped_ttl += 1;
            return None;
        }
        pkt.hops += 1;
        self.push_out(endpoint, LinkMessage::Routed(pkt));
        self.stats.forwarded += 1;
        None
    }

    /// `pkt`'s path ends here: count it as delivered or dropped.
    fn arrive(&mut self, pkt: RoutedPacket) -> Option<Arrival> {
        if pkt.mode == DeliveryMode::Exact && pkt.dst != self.cfg.address {
            // We are the closest node but not the intended target. For
            // connect housekeeping this is routine (the response can race
            // the edge it is about to create); for application payloads it
            // means the destination is not in the overlay at all.
            return match pkt.payload {
                RoutedPayload::ConnectRequest { .. } | RoutedPayload::ConnectResponse { .. } => {
                    self.stats.dropped_maintenance += 1;
                    None
                }
                _ => {
                    self.stats.dropped_no_target += 1;
                    Some(Arrival::Stray(pkt))
                }
            };
        }
        self.stats.delivered += 1;
        Some(Arrival::Here(pkt))
    }

    pub(crate) fn push_out(&mut self, ep: Endpoint, msg: LinkMessage) {
        self.stats.link_tx += 1;
        self.outbox.push((ep, msg));
    }

    pub(crate) fn fresh_token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }
}

/// Everything in `queue`, oldest first — the body of every agent-facing
/// drain. The embedding agent polls each of them on every pump pass and most
/// find nothing, so an empty queue costs neither an iteration nor a `Vec`;
/// a non-empty one keeps its capacity for the next burst.
pub(crate) fn drain_all<T>(queue: &mut VecDeque<T>) -> Vec<T> {
    if queue.is_empty() {
        return Vec::new();
    }
    queue.drain(..).collect()
}
