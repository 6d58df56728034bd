//! The Brunet-like overlay node: its configuration, its counters, and the
//! dispatcher in front of the protocol components.
//!
//! The node is a pure state machine: the host agent that embeds it feeds it
//! incoming link messages ([`OverlayNode::on_message`]) and periodic ticks
//! ([`OverlayNode::on_tick`]), then drains [`OverlayNode::take_outbox`] for
//! messages to hand to the physical transport and [`OverlayNode::take_delivered`]
//! for payloads addressed to this node (IPOP picks up tunnelled IP packets there).
//!
//! Inside, [`OverlayNode`] owns the routing core ([`crate::router`]:
//! connection table, greedy routing, outbox, counters) beside one component
//! per protocol: [`crate::ring`] (join, linking, repair, shortcuts, gossip —
//! what keeps the table filled), [`crate::monitor`], [`crate::dht`],
//! [`crate::pubsub`], [`crate::vstream`]. A link message goes to the
//! component that owns it; a packet whose route ends here is handed to the
//! component that owns its wire tag; a component sends by originating through
//! the core it is lent for the call.

use std::collections::VecDeque;

use ipop_packet::Bytes;
use ipop_simcore::{Duration, SimTime, StreamRng};

use crate::address::Address;
use crate::dht::{Dht, DhtConfig, SoftStateStore};
use crate::monitor::{DeathRule, LinkMonitor};
use crate::packets::{
    ConnectionKind, DeliveryMode, Endpoint, LinkMessage, RoutedPacket, RoutedPayload,
};
use crate::pubsub::PubSub;
use crate::ring::Ring;
use crate::router::{drain_all, Arrival, Core};
use crate::table::ConnectionTable;
use crate::vstream::{StreamEvent, VStreams};

/// TTL of records stored through [`OverlayNode::dht_put`], which names none.
const DEFAULT_TTL: Duration = Duration::from_secs(120);

/// Consecutive unanswered probes before an edge is declared dead (used
/// when [`OverlayConfig::phi_accrual`] is off).
const PROBE_FAILURE_LIMIT: u32 = 3;

/// Structured-near connections a node keeps on each side of the ring.
pub const NEAR_PER_SIDE: usize = 2;

/// Configuration of an overlay node.
#[derive(Clone, Debug, PartialEq)]
pub struct OverlayConfig {
    /// This node's 160-bit address (for IPOP: SHA-1 of its virtual IP).
    pub address: Address,
    /// The local physical endpoint the transport listens on.
    pub local_endpoint: Endpoint,
    /// Physical endpoints of bootstrap nodes already in the overlay.
    pub bootstrap: Vec<Endpoint>,
    /// Maximum number of Kleinberg shortcut connections (0 turns shortcuts
    /// off: the ablation switch).
    pub max_shortcuts: usize,
    /// Interval between maintenance ticks (ring repair, shortcut formation).
    pub maintenance_interval: Duration,
    /// Idle interval after which an edge is considered dead and removed
    /// (the slow backstop; the link monitor below detects crashed peers in
    /// seconds).
    pub connection_timeout: Duration,
    /// Fast dead-edge detection: probe established edges that have gone
    /// silent and drop them after a few missed acks, so routing stops
    /// forwarding packets into a crashed hop long before
    /// [`OverlayConfig::connection_timeout`].
    pub link_monitor: bool,
    /// Idle interval after which the link monitor probes an edge — the heartbeat
    /// of every edge a converged ring leaves silent; one exchange refreshes both ends.
    pub probe_interval: Duration,
    /// Phi-accrual suspicion: weigh consecutive probe misses by the edge's
    /// observed loss rate instead of counting them against a fixed limit. A
    /// clean edge still dies after 3 misses, but an edge that routinely
    /// drops probes (1–5% loss) needs proportionally more consecutive
    /// misses — eliminating false dead-edge verdicts on lossy links while a
    /// real crash is still detected in seconds.
    pub phi_accrual: bool,
    /// Suspicion threshold: an edge is declared dead when
    /// `φ = misses × -log₁₀(loss estimate)` reaches this value. The default
    /// (6.0) reproduces the 3-miss behaviour exactly on clean edges (whose
    /// loss estimate is floored at 1%, worth φ = 2 per miss).
    pub phi_threshold: f64,
    /// Hop budget stamped on packets this node originates. The wire default
    /// (32) suits rings up to ~10k nodes; greedy tail paths at 100k need
    /// more, so scale deployments raise it to a few multiples of `log₂N`.
    pub packet_ttl: u8,
    /// Maximum out-degree of the pub/sub relay tree: a topic root (and each
    /// relay below it) splits the subscribers it is responsible for into at
    /// most this many delegated chunks per publish. Higher values shorten the
    /// tree (lower fan-out latency) at the cost of more concurrent sends per
    /// node.
    pub pubsub_fanout: usize,
    /// Configuration of the replicated soft-state DHT.
    pub dht: DhtConfig,
}

impl OverlayConfig {
    /// Reasonable defaults for a node at `address` listening on `local_endpoint`.
    pub fn new(address: Address, local_endpoint: Endpoint) -> Self {
        OverlayConfig {
            address,
            local_endpoint,
            bootstrap: Vec::new(),
            max_shortcuts: 4,
            maintenance_interval: Duration::from_millis(500),
            connection_timeout: Duration::from_secs(45),
            link_monitor: true,
            probe_interval: Duration::from_secs(1),
            phi_accrual: true,
            phi_threshold: 6.0,
            packet_ttl: 32,
            pubsub_fanout: 4,
            dht: DhtConfig::default(),
        }
    }

    /// Builder: disable fast dead-edge detection — crashed peers linger in
    /// the routing table until [`OverlayConfig::connection_timeout`] (the
    /// pre-link-monitor behaviour; ablation switch).
    pub fn without_link_monitor(mut self) -> Self {
        self.link_monitor = false;
        self
    }

    /// Builder: disable the anti-entropy sweep — replica sets reconcile only
    /// opportunistically on reads and renewals (ablation switch).
    pub fn without_anti_entropy(mut self) -> Self {
        self.dht.sweep_interval = None;
        self
    }
}

/// Counters describing a node's routing activity.
#[derive(Clone, Copy, Debug, Default)]
pub struct OverlayStats {
    /// Routed packets originated by this node.
    pub originated: u64,
    /// Routed packets forwarded on behalf of other nodes.
    pub forwarded: u64,
    /// Routed packets delivered locally.
    pub delivered: u64,
    /// Routed packets dropped because the TTL expired.
    pub dropped_ttl: u64,
    /// Exact-mode packets dropped because this node was closest but not the target.
    pub dropped_no_target: u64,
    /// Maintenance traffic (connect requests/responses) that ended at a node
    /// other than its target — routine while the ring is still converging.
    pub dropped_maintenance: u64,
    /// Link messages sent.
    pub link_tx: u64,
    /// Link messages received.
    pub link_rx: u64,
    /// DHT records currently stored on this node (gauge).
    pub dht_records: u64,
    /// Bytes of DHT values currently stored on this node (gauge).
    pub dht_bytes: u64,
    /// Stored records this node holds as a replica for the ring owner (gauge).
    pub dht_replicas: u64,
    /// Soft-state refresh puts sent for records this node publishes.
    pub dht_refreshes: u64,
    /// Stored records dropped because their TTL expired.
    pub dht_expired: u64,
    /// Quorum writes this node coordinated (creates fanned out for acks).
    pub dht_quorum_writes: u64,
    /// Quorum writes that failed to reach a majority before the timeout (the
    /// claim was rejected so the claimant retries elsewhere).
    pub dht_quorum_write_timeouts: u64,
    /// Quorum reads this node coordinated (replica sets polled).
    pub dht_quorum_reads: u64,
    /// Quorum reads concluded early because too few replicas answered in time.
    pub dht_quorum_read_timeouts: u64,
    /// Stale or missing copies repaired after a quorum read.
    pub dht_read_repairs: u64,
    /// Lease renewals whose `DhtCreateReply` never arrived within the renewal
    /// timeout (alarm: the renewal was re-issued instead of silently dropped).
    pub dht_renewal_timeouts: u64,
    /// Claimed leases lost because a renewal found a conflicting record (e.g.
    /// the other side of a healed partition won the key).
    pub dht_leases_lost: u64,
    /// Link-monitor liveness probes sent on silent edges.
    pub link_probes_sent: u64,
    /// Probes whose ack missed the adaptive deadline.
    pub link_probe_timeouts: u64,
    /// Edges declared dead by the link monitor (consecutive probe misses) and
    /// removed from the routing table — long before the connection timeout.
    pub dead_edges_detected: u64,
    /// Anti-entropy digest messages sent (owner→replica and publisher→owner).
    pub dht_sync_digests: u64,
    /// Records re-sent because a digest receiver pulled them (they were
    /// missing or stale at the other end).
    pub dht_sync_pulls: u64,
    /// Fresher local copies pushed back at a digest sender.
    pub dht_sync_pushes: u64,
    /// Shortcut target draws rejected because the predicted responder was
    /// already a connected peer (the draw was retried at no protocol cost).
    pub shortcut_redraws: u64,
    /// Inbound datagrams/frames dropped at the overlay ingress because they
    /// failed to decode as a link message (truncated or corrupted in flight,
    /// or garbage from a misbehaving sender).
    pub malformed_dropped: u64,
    /// Probe deadlines re-armed instead of counted as misses because this
    /// node itself stalled past them (no pump tick ran while the deadline
    /// expired) — self-inflicted silence is not evidence against the peer.
    pub link_probe_deadline_clamps: u64,
    /// Pub/sub subscribes (and soft-state renewals) this node merged into a
    /// topic record as the topic's root.
    pub pubsub_subscriptions: u64,
    /// Pub/sub publishes this node fanned out as the topic's root.
    pub pubsub_publishes: u64,
    /// `PubSubDeliver` packets originated here (root fan-out plus relay
    /// re-delegation).
    pub pubsub_fanout_sent: u64,
    /// Pub/sub messages delivered to this node's local subscriber inbox.
    pub pubsub_delivered: u64,
    /// Pub/sub messages for a topic this node does not subscribe to, dropped.
    pub pubsub_unknown_topic: u64,
    /// Deliver packets whose delegated relay list this node re-fanned onward.
    pub pubsub_relayed: u64,
    /// Dead subscribers removed from owned topic records when the link
    /// monitor declared their edge dead (receipt-driven cleanup).
    pub pubsub_pruned: u64,
    /// Delegations salvaged at the ring-closest node after their chunk head
    /// left the overlay — the rest of the chunk still gets the message, only
    /// the departed head's own copy is lost.
    pub pubsub_salvaged: u64,
    /// Publishes this node nacked as a topic root that had no subscriber-set
    /// record yet (re-home window): the publisher retries instead of losing
    /// the message.
    pub pubsub_nacks_sent: u64,
    /// Retryable publish nacks received back from a topic root.
    pub pubsub_nacks_received: u64,
    /// Publishes re-routed after a retryable nack.
    pub pubsub_publish_retries: u64,
    /// Publishes abandoned after exhausting the nack-retry budget.
    pub pubsub_publish_failures: u64,
    /// Virtual streams opened from this node (`stream_connect`).
    pub stream_opened: u64,
    /// Virtual streams accepted from remote SYNs.
    pub stream_accepted: u64,
    /// Stream DATA segments sent (first transmissions).
    pub stream_data_sent: u64,
    /// Stream DATA segments received in order and delivered.
    pub stream_data_received: u64,
    /// Stream frames re-sent on RTO expiry.
    pub stream_retransmits: u64,
    /// Streams that exhausted their retransmit budget.
    pub stream_failed: u64,
    /// Streams closed cleanly (either side's FIN acknowledged).
    pub stream_closed: u64,
    /// Stream frames for streams this node no longer (or never) tracked.
    pub stream_orphan_frames: u64,
    /// Stream ACKs rejected for acknowledging bytes never sent.
    pub stream_bad_acks: u64,
    /// Stream DATA segments dropped for an impossible sequence range.
    pub stream_bad_seqs: u64,
    /// Quorum acks and replica answers dropped because they came from a peer
    /// the operation never pushed to / polled, or from one that had already
    /// answered.
    pub dht_bad_acks: u64,
    /// Entries dropped from delegated pub/sub fan-out chunks because no
    /// honest root plans them: an address named twice, or the very node the
    /// chunk was delivered to.
    pub pubsub_bad_chunk_entries: u64,
    /// `Neighbors` gossip dropped unread: its sender held no established edge.
    pub gossip_from_strangers: u64,
}

/// A Brunet-style structured-ring overlay node.
// `repr(C)` keeps the fields in this order: what every link message touches —
// the core's counters, flags and edge vector, the ring's candidate vector —
// sits together; the entries of each vector are one more contiguous slice.
// Left to the compiler the ring landed behind `delivered`, away from the core,
// and `ring_route` (3 000 nodes, one cold node per event) read 5 % slower.
#[repr(C)]
pub struct OverlayNode {
    core: Core,
    /// Join, linking, ring repair, shortcuts and gossip (see [`crate::ring`]).
    ring: Ring,
    delivered: VecDeque<RoutedPacket>,
    /// Fast dead-edge detection (see [`crate::monitor`]).
    monitor: LinkMonitor,
    /// The replicated soft-state DHT (see [`crate::dht`]).
    dht: Dht,
    /// Topic-based publish/subscribe (see [`crate::pubsub`]).
    pubsub: PubSub,
    /// The virtual-stream engine (see [`crate::vstream`]).
    vstreams: VStreams,
}

impl OverlayNode {
    /// Create a node (does not contact the network until [`OverlayNode::start`]).
    pub fn new(cfg: OverlayConfig, rng: StreamRng) -> Self {
        OverlayNode {
            ring: Ring::new(cfg.local_endpoint),
            core: Core::new(cfg, rng),
            delivered: VecDeque::new(),
            monitor: LinkMonitor::default(),
            dht: Dht::default(),
            pubsub: PubSub::default(),
            vstreams: VStreams::new(),
        }
    }

    /// This node's overlay address.
    pub fn address(&self) -> Address {
        self.core.cfg.address
    }

    /// Routing statistics (the DHT gauges are sampled at call time).
    pub fn stats(&self) -> OverlayStats {
        let mut s = self.core.stats;
        let store = self.dht.store();
        s.dht_records = store.len() as u64;
        s.dht_bytes = store.stored_bytes() as u64;
        s.dht_replicas = store.replicas_held() as u64;
        let vs = &self.vstreams.stats;
        s.stream_opened = vs.opened;
        s.stream_accepted = vs.accepted;
        s.stream_data_sent = vs.data_sent;
        s.stream_data_received = vs.data_received;
        s.stream_retransmits = vs.retransmits;
        s.stream_failed = vs.failed;
        s.stream_closed = vs.closed;
        s.stream_orphan_frames = vs.orphan_frames;
        s.stream_bad_acks = vs.bad_acks;
        s.stream_bad_seqs = vs.bad_seqs;
        let ms = &self.monitor.stats;
        s.link_probes_sent = ms.probes_sent;
        s.link_probe_timeouts = ms.probe_timeouts;
        s.dead_edges_detected = ms.dead_edges;
        s.link_probe_deadline_clamps = ms.deadline_clamps;
        s
    }

    /// Routed packets forwarded for other nodes so far — the one counter the
    /// embedding agent reads on every pump pass (it charges CPU per forward),
    /// without the snapshot [`OverlayNode::stats`] assembles.
    pub fn forwarded(&self) -> u64 {
        self.core.stats.forwarded
    }

    /// The node's configuration.
    pub fn config(&self) -> &OverlayConfig {
        &self.core.cfg
    }

    /// The connection table (read-only).
    pub fn connections(&self) -> &ConnectionTable {
        &self.core.table
    }

    /// True once at least one edge is established.
    pub fn is_connected(&self) -> bool {
        self.core.is_connected()
    }

    /// Borrow the local DHT store (read-only; for diagnostics and tests).
    pub fn dht_store(&self) -> &SoftStateStore {
        self.dht.store()
    }

    // ------------------------------------------------------------------ control

    /// Begin joining the overlay: contact the bootstrap endpoints.
    pub fn start(&mut self, now: SimTime) {
        self.core.started = true;
        self.ring.start(&mut self.core, now);
    }

    /// Install an already-established edge without a handshake, marking the
    /// node started and connected. Scale harnesses use this to warm-start a
    /// converged ring (seeding both directions of each Near edge) so 10k+
    /// node runs skip the bootstrap phase; protocol-level convergence stays
    /// covered by the smaller end-to-end tests.
    pub fn seed_connection(
        &mut self,
        now: SimTime,
        peer: Address,
        endpoint: Endpoint,
        kind: ConnectionKind,
    ) {
        debug_assert_ne!(peer, self.core.cfg.address, "cannot seed an edge to self");
        self.core.started = true;
        self.core.link_up(now, peer, endpoint, kind);
    }

    /// Gracefully leave: hand every stored DHT record off to the ring
    /// neighbours closest to its key, then tell every peer the edges are going
    /// away. Handoff runs before the Close messages so receivers still accept
    /// the records while the edges exist.
    pub fn leave(&mut self, now: SimTime) {
        // Withdraw our subscriptions while the routes still exist, so topic
        // roots stop fanning out to a node that is gone.
        self.pubsub
            .unsubscribe_all(&mut self.core, &mut self.dht, now);
        self.dht.hand_off(&mut self.core, now);
        self.core.close_all();
        self.core.started = false;
    }

    /// Messages queued for the physical transport: `(destination endpoint, message)`.
    pub fn take_outbox(&mut self) -> Vec<(Endpoint, LinkMessage)> {
        self.core.take_outbox()
    }

    /// Routed packets delivered to this node (IP tunnel payloads and the like).
    pub fn take_delivered(&mut self) -> Vec<RoutedPacket> {
        drain_all(&mut self.delivered)
    }

    /// Pub/sub messages delivered to this node: `(topic key, msg id, body)`.
    pub fn take_pubsub_delivered(&mut self) -> Vec<(Address, u64, Bytes)> {
        drain_all(&mut self.pubsub.inbox)
    }

    /// Completed DHT lookups: `(token, value)`.
    pub fn take_dht_replies(&mut self) -> Vec<(u64, Option<Bytes>)> {
        drain_all(&mut self.dht.replies)
    }

    /// Completed DHT creates: `(token, created, existing value on conflict)`.
    pub fn take_dht_create_replies(&mut self) -> Vec<(u64, bool, Option<Bytes>)> {
        drain_all(&mut self.dht.create_replies)
    }

    /// Keys of claimed leases this node lost: a TTL/2 renewal came back
    /// `created == false`, meaning a conflicting record owns the key (typical
    /// after a healed partition). The publication has already been dropped;
    /// the embedding agent re-allocates.
    pub fn take_lost_leases(&mut self) -> Vec<Address> {
        drain_all(&mut self.dht.lost_leases)
    }

    /// True while one of the agent-facing `take_*` drains has something. The
    /// stream and pub/sub drains are not among them: they wait for the
    /// application.
    pub fn has_output(&self) -> bool {
        !(self.delivered.is_empty()
            && self.dht.replies.is_empty()
            && self.dht.create_replies.is_empty()
            && self.dht.lost_leases.is_empty())
    }

    // ---------------------------------------------------------------- app sends

    /// Tunnel a serialized virtual IP packet to the node owning `dst`.
    pub fn send_ip(
        &mut self,
        now: SimTime,
        dst: Address,
        packet_bytes: impl Into<ipop_packet::Bytes>,
    ) {
        let payload = RoutedPayload::IpTunnel(packet_bytes.into());
        let arrived = self.core.originate(dst, DeliveryMode::Exact, payload);
        self.dispatch(now, arrived);
    }

    /// Store `value` at the node closest to `key` with the default TTL, and
    /// keep it alive: the record is registered locally and re-put at TTL/2
    /// until [`OverlayNode::dht_unpublish`] or [`OverlayNode::dht_remove`].
    pub fn dht_put(&mut self, now: SimTime, key: Address, value: impl Into<Bytes>) {
        self.dht_put_ttl(now, key, value, DEFAULT_TTL);
    }

    /// [`OverlayNode::dht_put`] with an explicit soft-state TTL.
    pub fn dht_put_ttl(
        &mut self,
        now: SimTime,
        key: Address,
        value: impl Into<Bytes>,
        ttl: Duration,
    ) {
        self.dht.put(&mut self.core, now, key, value.into(), ttl);
    }

    /// Atomically create the record under `key` if no live record exists
    /// (create-if-absent, the allocator's claim primitive). The outcome
    /// arrives via [`OverlayNode::take_dht_create_replies`] with the returned
    /// token; on success this node becomes the record's publisher and renews
    /// it at TTL/2 like a put.
    pub fn dht_create(
        &mut self,
        now: SimTime,
        key: Address,
        value: impl Into<Bytes>,
        ttl: Duration,
    ) -> u64 {
        self.dht.create(&mut self.core, now, key, value.into(), ttl)
    }

    /// Request the value stored under `key`; the reply arrives via
    /// [`OverlayNode::take_dht_replies`] with the returned token.
    pub fn dht_get(&mut self, now: SimTime, key: Address) -> u64 {
        self.dht.get(&mut self.core, now, key)
    }

    /// Delete the record under `key` (lease release) and stop refreshing it.
    pub fn dht_remove(&mut self, now: SimTime, key: Address) {
        self.dht.remove(&mut self.core, now, key);
    }

    /// Stop refreshing the record under `key` without deleting it from the
    /// DHT (it ages out one TTL later).
    pub fn dht_unpublish(&mut self, key: &Address) {
        self.dht.unpublish(key);
    }

    /// Abandon an outstanding [`OverlayNode::dht_create`]: a reply that
    /// arrives after this (e.g. delayed past the caller's claim timeout) is
    /// still surfaced, but no longer turns the claim into a refreshed
    /// publication this node would renew forever.
    pub fn dht_cancel_create(&mut self, token: u64) {
        self.dht.cancel_create(token);
    }

    // ------------------------------------------------------------------ pub/sub

    /// Subscribe to the topic at `topic` (see [`crate::pubsub::topic_key`])
    /// with soft-state lifetime `ttl`. The subscription is announced now and
    /// renewed at TTL/2 until [`OverlayNode::pubsub_unsubscribe`]; delivered
    /// messages arrive via [`OverlayNode::take_pubsub_delivered`].
    pub fn pubsub_subscribe(&mut self, now: SimTime, topic: Address, ttl: Duration) {
        self.pubsub
            .subscribe(&mut self.core, &mut self.dht, now, topic, ttl);
    }

    /// Leave the topic: stop renewing and ask the root to drop this node from
    /// the subscriber set immediately.
    pub fn pubsub_unsubscribe(&mut self, now: SimTime, topic: Address) {
        self.pubsub
            .unsubscribe(&mut self.core, &mut self.dht, now, topic);
    }

    /// Publish `payload` to the topic: the message routes to the topic root,
    /// which fans it out to every live subscriber. Returns the message id
    /// echoed in every delivery (latency bookkeeping for workloads).
    pub fn pubsub_publish(
        &mut self,
        now: SimTime,
        topic: Address,
        payload: impl Into<Bytes>,
    ) -> u64 {
        self.pubsub
            .publish(&mut self.core, &mut self.dht, now, topic, payload.into())
    }

    // ---------------------------------------------------------- virtual streams

    /// Open a virtual stream to `remote` and return its id. The stream id
    /// carries an address-order parity bit so simultaneous opens in both
    /// directions can never collide in the peer's `(remote, id)` table.
    pub fn stream_connect(&mut self, now: SimTime, remote: Address) -> u64 {
        let parity = u64::from(self.core.cfg.address > remote);
        let stream_id = (self.core.fresh_token() << 1) | parity;
        self.vstreams.connect(now, remote, stream_id);
        self.flush_streams(now);
        stream_id
    }

    /// Queue bytes for ordered, reliable delivery on an open stream. Returns
    /// false if the stream is unknown or already closing.
    pub fn stream_send(
        &mut self,
        now: SimTime,
        remote: Address,
        stream_id: u64,
        data: impl Into<Bytes>,
    ) -> bool {
        let ok = self.vstreams.send(now, remote, stream_id, data.into());
        self.flush_streams(now);
        ok
    }

    /// Close a stream: buffered data still delivers, then a FIN tears the
    /// stream down in both directions.
    pub fn stream_close(&mut self, now: SimTime, remote: Address, stream_id: u64) {
        self.vstreams.close(now, remote, stream_id);
        self.flush_streams(now);
    }

    /// Streams accepted from remote SYNs since the last call:
    /// `(remote, stream id)`.
    pub fn take_stream_accepted(&mut self) -> Vec<(Address, u64)> {
        self.vstreams.take_accepted()
    }

    /// In-order stream payload since the last call: `(remote, stream id,
    /// chunk)`. Chunks are zero-copy views of the received wire frames.
    pub fn take_stream_data(&mut self) -> Vec<(Address, u64, Bytes)> {
        self.vstreams.take_recv()
    }

    /// Stream lifecycle events since the last call.
    pub fn take_stream_events(&mut self) -> Vec<StreamEvent> {
        self.vstreams.take_events()
    }

    /// Route every frame the stream engine queued. Stream frames address a
    /// specific node, so they ride `Exact` delivery like tunnel traffic.
    fn flush_streams(&mut self, now: SimTime) {
        for (remote, payload) in self.vstreams.take_outgoing() {
            let arrived = self.core.originate(remote, DeliveryMode::Exact, payload);
            self.dispatch(now, arrived);
        }
    }

    // ------------------------------------------------------------------- intake

    /// Process a link message received from physical endpoint `from`.
    pub fn on_message(&mut self, now: SimTime, from: Endpoint, msg: LinkMessage) {
        let core = &mut self.core;
        if !core.started {
            // Not yet started, or gracefully departed: the node is not part of
            // the overlay and must not answer handshakes or route traffic.
            return;
        }
        core.stats.link_rx += 1;
        if let Some(peer) = msg.sender() {
            core.table.note_heard(&peer, now, from);
        }
        match msg {
            LinkMessage::Routed(pkt) => {
                self.ring.learn_from(core, &pkt.payload);
                let arrived = core.route(pkt);
                self.dispatch(now, arrived);
            }
            LinkMessage::ProbeAck { from: peer, nonce } => {
                self.monitor.on_ack(now, peer, nonce);
            }
            LinkMessage::Close { from: peer } => {
                core.table.remove(&peer);
                self.ring.forget(&peer);
                self.monitor.forget(&peer);
            }
            link => self.ring.on_link(core, now, from, link),
        }
    }

    /// Periodic maintenance: bootstrap retries, ring repair, shortcut formation,
    /// keep-alives and dead-edge removal. The embedding agent should call this every
    /// [`OverlayConfig::maintenance_interval`].
    pub fn on_tick(&mut self, now: SimTime) {
        if !self.core.started {
            return;
        }
        // 1–5. Bootstrap, ring repair, shortcuts, keep-alive and expiry.
        self.ring.tick(&mut self.core, now);
        // 5b. The heartbeat on idle edges, and fast dead-edge detection.
        if self.core.cfg.link_monitor {
            self.run_link_monitor(now);
        }
        // 6. DHT soft-state maintenance: expiry, lease renewal, re-replication.
        self.dht.tick(&mut self.core, now);
        // 6b. Pub/sub soft state: renew this node's subscriptions at TTL/2
        //     (the renewal also re-homes them after a topic-root crash) and
        //     re-route nacked publishes whose backoff elapsed.
        self.pubsub.tick(&mut self.core, &mut self.dht, now);
        // 6c. Virtual streams: the RTO sweep rides the same maintenance
        //     alarm as every other deterministic timer.
        self.vstreams.tick(now);
        self.flush_streams(now);
        // 7. Gossip our neighbour view to the peers that were not sent it yet —
        //    last, so the view is what the link monitor left of the table.
        self.ring.gossip(&mut self.core);
    }

    // ---------------------------------------------------------------- dispatch

    /// Hand a packet that [`Core::route`] returned as arrived to the
    /// component that owns its wire tag.
    fn dispatch(&mut self, now: SimTime, arrived: Option<Arrival>) {
        let pkt = match arrived {
            None => return,
            Some(Arrival::Here(pkt)) => pkt,
            Some(Arrival::Stray(pkt)) => {
                return self
                    .pubsub
                    .on_stray(&mut self.core, &mut self.dht, now, pkt.payload);
            }
        };
        let src = pkt.src;
        match pkt.payload {
            RoutedPayload::IpTunnel(_) => self.delivered.push_back(pkt),
            payload @ (RoutedPayload::ConnectRequest { .. }
            | RoutedPayload::ConnectResponse { .. }) => {
                self.ring.on_payload(&mut self.core, now, payload);
            }
            payload @ (RoutedPayload::DhtPut { .. }
            | RoutedPayload::DhtGet { .. }
            | RoutedPayload::DhtReply { .. }
            | RoutedPayload::DhtCreate { .. }
            | RoutedPayload::DhtCreateReply { .. }
            | RoutedPayload::DhtReplicate { .. }
            | RoutedPayload::DhtReplicateAck { .. }
            | RoutedPayload::DhtGetReplica { .. }
            | RoutedPayload::DhtReplicaValue { .. }
            | RoutedPayload::DhtRemove { .. }
            | RoutedPayload::DhtWithdraw { .. }
            | RoutedPayload::DhtSyncDigest { .. }
            | RoutedPayload::DhtSyncPull { .. }) => {
                self.dht.on_payload(&mut self.core, now, src, payload);
            }
            payload @ (RoutedPayload::PubSubSubscribe { .. }
            | RoutedPayload::PubSubUnsubscribe { .. }
            | RoutedPayload::PubSubPublish { .. }
            | RoutedPayload::PubSubDeliver { .. }
            | RoutedPayload::PubSubNack { .. }) => {
                self.pubsub
                    .on_payload(&mut self.core, &mut self.dht, now, src, payload);
            }
            payload @ (RoutedPayload::StreamSyn { .. }
            | RoutedPayload::StreamSynAck { .. }
            | RoutedPayload::StreamData { .. }
            | RoutedPayload::StreamAck { .. }
            | RoutedPayload::StreamFin { .. }) => {
                self.vstreams.on_payload(now, src, &payload);
                self.flush_streams(now);
            }
        }
    }

    // ------------------------------------------------------------- link monitor

    /// Account inbound traffic that failed to decode as a link message (the
    /// transport already dropped it; this surfaces the count in the stats).
    pub fn note_malformed(&mut self, count: u64) {
        self.core.stats.malformed_dropped += count;
    }

    /// Apply one [`LinkMonitor::run`] pass: drop the edges it declared dead,
    /// probe the ones it found silent.
    fn run_link_monitor(&mut self, now: SimTime) {
        let core = &mut self.core;
        let rule = if core.cfg.phi_accrual {
            DeathRule::Phi(core.cfg.phi_threshold)
        } else {
            DeathRule::Misses(PROBE_FAILURE_LIMIT)
        };
        let edges = core.table.established();
        let verdicts = self.monitor.run(
            now,
            edges.map(|c| (c.peer, c.endpoint, c.last_heard)),
            core.cfg.probe_interval,
            core.cfg.maintenance_interval,
            rule,
        );
        let me = core.cfg.address;
        for (peer, endpoint) in verdicts.dead {
            core.table.remove(&peer);
            self.ring.forget(&peer);
            // Receipt-driven pub/sub cleanup: a dead peer stops receiving
            // fan-out immediately instead of aging out of topic records.
            self.pubsub.on_dead_peer(core, &mut self.dht, now, peer);
            // Tell the peer too: if the verdict was a false positive (probe
            // acks lost on a live link), a silent removal would leave a
            // half-open edge — this node answers the peer's probes forever
            // while never routing to it, and the two sides disagree on
            // ownership and replica sets indefinitely. The Close is simply
            // lost when the peer really is dead.
            core.push_out(endpoint, LinkMessage::Close { from: me });
        }
        for (peer, endpoint) in verdicts.probe {
            let nonce = core.rng.next_u64();
            self.monitor.arm(now, peer, nonce);
            core.push_out(endpoint, LinkMessage::Probe { from: me, nonce });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap as Map;
    use std::net::Ipv4Addr;

    /// The two knobs that make no sense at zero are raised to one wherever
    /// the configuration came from — fields are `pub`, so a builder's clamp
    /// would be bypassed by plain assignment.
    #[test]
    fn knobs_assigned_zero_run_with_one() {
        let cfg = OverlayConfig {
            packet_ttl: 0,
            pubsub_fanout: 0,
            ..OverlayConfig::new(Address::ZERO, ep(0))
        };
        let node = OverlayNode::new(cfg, StreamRng::new(1, "clamp"));
        let c = node.config();
        assert_eq!((c.packet_ttl, c.pubsub_fanout), (1, 1));
    }

    /// A tiny in-memory "physical network": endpoints map straight to nodes, every
    /// message is delivered instantly. NAT/firewall behaviour is tested at the
    /// `ipop` level; here we validate the protocol logic itself.
    struct Harness {
        nodes: Vec<OverlayNode>,
        by_endpoint: Map<Endpoint, usize>,
        crashed: Vec<bool>,
        /// Partition group per node: messages between different groups are
        /// silently dropped (links stay up — the "network split" case, as
        /// opposed to `crash`).
        group: Vec<u8>,
        now: SimTime,
    }

    fn ep(i: usize) -> Endpoint {
        (
            Ipv4Addr::new(10, 0, (i / 200) as u8, (i % 200 + 1) as u8),
            4001,
        )
    }

    impl Harness {
        fn new(n: usize) -> Self {
            Self::with_cfg(n, |c| c)
        }

        /// A harness whose node configs pass through `tweak` (e.g. to shorten
        /// the connection timeout for crash tests).
        fn with_cfg(n: usize, tweak: impl Fn(OverlayConfig) -> OverlayConfig) -> Self {
            let mut nodes = Vec::new();
            let mut by_endpoint = Map::new();
            for i in 0..n {
                let mut rng = StreamRng::new(42, &format!("overlay-test-{i}"));
                let addr = Address::random(&mut rng);
                let bootstrap = if i == 0 { vec![] } else { vec![ep(0)] };
                let cfg = tweak(OverlayConfig {
                    bootstrap,
                    ..OverlayConfig::new(addr, ep(i))
                });
                nodes.push(OverlayNode::new(cfg, rng));
                by_endpoint.insert(ep(i), i);
            }
            Harness {
                nodes,
                by_endpoint,
                crashed: vec![false; n],
                group: vec![0; n],
                now: SimTime::ZERO,
            }
        }

        /// Split the network: nodes in `minority` stop exchanging messages
        /// with everyone else until [`Harness::heal`].
        fn partition(&mut self, minority: &[usize]) {
            for &i in minority {
                self.group[i] = 1;
            }
        }

        fn heal(&mut self) {
            self.group.fill(0);
        }

        fn start_all(&mut self) {
            let now = self.now;
            for n in &mut self.nodes {
                n.start(now);
            }
            self.pump();
        }

        /// Kill node `i` without any goodbye: its queued output is discarded
        /// and messages addressed to it disappear.
        fn crash(&mut self, i: usize) {
            self.crashed[i] = true;
            self.by_endpoint.remove(&ep(i));
            let _ = self.nodes[i].take_outbox();
        }

        /// Deliver queued messages until quiescent.
        fn pump(&mut self) {
            for _ in 0..200 {
                let mut any = false;
                for i in 0..self.nodes.len() {
                    if self.crashed[i] {
                        let _ = self.nodes[i].take_outbox();
                        continue;
                    }
                    let out = self.nodes[i].take_outbox();
                    for (dst, msg) in out {
                        any = true;
                        if let Some(&j) = self.by_endpoint.get(&dst) {
                            if self.group[i] != self.group[j] {
                                continue; // partitioned: the message is lost
                            }
                            let from = ep(i);
                            self.nodes[j].on_message(self.now, from, msg);
                        }
                    }
                }
                if !any {
                    break;
                }
            }
        }

        /// Run `ticks` maintenance rounds with message pumping in between.
        fn run(&mut self, ticks: usize) {
            for _ in 0..ticks {
                self.now += Duration::from_millis(500);
                for (i, n) in self.nodes.iter_mut().enumerate() {
                    if !self.crashed[i] {
                        n.on_tick(self.now);
                    }
                }
                self.pump();
            }
        }

        /// Index of the live node whose address is ring-closest to `key`.
        fn owner_of(&self, key: &Address) -> usize {
            (0..self.nodes.len())
                .filter(|&i| !self.crashed[i])
                .min_by_key(|&i| self.nodes[i].address().ring_distance(key))
                .expect("at least one live node")
        }
    }

    #[test]
    fn two_nodes_connect_via_bootstrap() {
        let mut h = Harness::new(2);
        h.start_all();
        assert!(h.nodes[1].is_connected());
        assert!(h.nodes[0].is_connected());
    }

    #[test]
    fn ring_forms_and_ip_tunnel_is_delivered() {
        let mut h = Harness::new(12);
        h.start_all();
        h.run(30);
        // Every node should have near connections on both sides by now.
        for n in &h.nodes {
            assert!(
                n.is_connected(),
                "node {} disconnected",
                n.address().short()
            );
        }
        // Tunnel a payload from node 3 to node 9's exact address.
        let dst = h.nodes[9].address();
        let now = h.now;
        h.nodes[3].send_ip(now, dst, vec![0xAB; 64]);
        h.pump();
        let delivered = h.nodes[9].take_delivered();
        assert_eq!(delivered.len(), 1, "tunnelled packet must arrive");
        assert_eq!(
            delivered[0].payload,
            RoutedPayload::IpTunnel(vec![0xAB; 64].into())
        );
        assert_eq!(delivered[0].src, h.nodes[3].address());
    }

    #[test]
    fn exact_delivery_to_absent_address_is_dropped() {
        let mut h = Harness::new(6);
        h.start_all();
        h.run(15);
        let mut rng = StreamRng::new(7, "absent");
        let absent = Address::random(&mut rng);
        let now = h.now;
        h.nodes[2].send_ip(now, absent, vec![1, 2, 3]);
        h.pump();
        let total_dropped: u64 = h.nodes.iter().map(|n| n.stats().dropped_no_target).sum();
        assert_eq!(total_dropped, 1);
        for n in &mut h.nodes {
            assert!(n.take_delivered().is_empty());
        }
    }

    #[test]
    fn dht_put_then_get_round_trips() {
        let mut h = Harness::new(10);
        h.start_all();
        h.run(25);
        let key = Address::from_key(b"172.16.0.55");
        let now = h.now;
        h.nodes[1].dht_put(now, key, b"mapping-value".to_vec());
        h.pump();
        let stored: usize = h.nodes.iter().map(|n| n.dht_store().len()).sum();
        assert_eq!(
            stored, 3,
            "the owner stores the key and replicates it to R-1 = 2 neighbours"
        );
        let now = h.now;
        let token = h.nodes[7].dht_get(now, key);
        h.pump();
        let replies = h.nodes[7].take_dht_replies();
        assert_eq!(
            replies,
            vec![(
                token,
                Some(ipop_packet::Bytes::from(b"mapping-value".as_slice()))
            )]
        );
        // A lookup for an unknown key returns None.
        let missing = Address::from_key(b"10.9.9.9");
        let now = h.now;
        let token2 = h.nodes[7].dht_get(now, missing);
        h.pump();
        let replies2 = h.nodes[7].take_dht_replies();
        assert_eq!(replies2, vec![(token2, None)]);
    }

    #[test]
    fn node_departure_is_repaired() {
        let mut h = Harness::new(8);
        h.start_all();
        h.run(20);
        // Node 5 leaves gracefully.
        let now = h.now;
        h.nodes[5].leave(now);
        h.pump();
        for (i, n) in h.nodes.iter().enumerate() {
            if i != 5 {
                assert!(
                    !n.connections().contains(&h.nodes[5].address()),
                    "node {i} still has an edge to the departed node"
                );
            }
        }
        // The remaining ring still delivers.
        h.run(10);
        let dst = h.nodes[7].address();
        let now = h.now;
        h.nodes[1].send_ip(now, dst, vec![9; 10]);
        h.pump();
        assert_eq!(h.nodes[7].take_delivered().len(), 1);
    }

    #[test]
    fn routing_uses_multiple_hops_and_respects_ttl() {
        let mut h = Harness::new(16);
        h.start_all();
        h.run(30);
        let dst = h.nodes[13].address();
        let now = h.now;
        h.nodes[2].send_ip(now, dst, vec![1; 8]);
        h.pump();
        assert_eq!(h.nodes[13].take_delivered().len(), 1);
        // TTL of zero is dropped immediately when it needs to be forwarded.
        let mut pkt = RoutedPacket::new(
            h.nodes[2].address(),
            dst,
            DeliveryMode::Exact,
            RoutedPayload::IpTunnel(vec![7].into()),
        );
        pkt.hops = 32;
        pkt.ttl = 32;
        let before: u64 = h.nodes.iter().map(|n| n.stats().dropped_ttl).sum();
        let now = h.now;
        let far_ep = ep(2);
        h.nodes[2].on_message(now, far_ep, LinkMessage::Routed(pkt));
        h.pump();
        let after: u64 = h.nodes.iter().map(|n| n.stats().dropped_ttl).sum();
        let delivered = h.nodes[13].take_delivered().len();
        assert!(
            after > before || delivered == 1,
            "either dropped by ttl or node 2 was adjacent"
        );
    }

    #[test]
    fn shortcuts_form_when_enabled() {
        let mut h = Harness::new(20);
        h.start_all();
        h.run(40);
        let far_edges: usize = h
            .nodes
            .iter()
            .map(|n| n.connections().count_kind(ConnectionKind::Far))
            .sum();
        assert!(far_edges > 0, "some shortcut connections should exist");
    }

    /// Regression: a node with free shortcut budget and reachable far targets
    /// must converge to (at least) `max_shortcuts` Far edges. Before the
    /// floored, mantissa-bearing draw in `request_shortcut`, degenerate draws
    /// (distances inside the node's own neighbour gap, or re-draws of already
    /// connected peers) silently burnt maintenance ticks and could pin a node
    /// below its budget indefinitely.
    #[test]
    fn shortcut_budget_converges_to_max_shortcuts() {
        let mut h = Harness::new(32);
        h.start_all();
        h.run(120);
        for (i, n) in h.nodes.iter().enumerate() {
            let far = n.connections().count_kind(ConnectionKind::Far);
            assert!(
                far >= n.config().max_shortcuts,
                "node {i} ({}) stuck at {far}/{} Far edges",
                n.address().short(),
                n.config().max_shortcuts
            );
        }
    }

    #[test]
    fn dht_create_is_create_if_absent() {
        let mut h = Harness::new(10);
        h.start_all();
        h.run(25);
        let key = Address::from_key(b"dhcp:172.16.9.10");
        let ttl = Duration::from_secs(600);
        let now = h.now;
        let t1 = h.nodes[2].dht_create(now, key, b"claim-A".to_vec(), ttl);
        h.pump();
        assert_eq!(
            h.nodes[2].take_dht_create_replies(),
            vec![(t1, true, None)],
            "first claim wins"
        );
        let now = h.now;
        let t2 = h.nodes[8].dht_create(now, key, b"claim-B".to_vec(), ttl);
        h.pump();
        assert_eq!(
            h.nodes[8].take_dht_create_replies(),
            vec![(
                t2,
                false,
                Some(ipop_packet::Bytes::from(b"claim-A".as_slice()))
            )],
            "second claim loses and sees the winner's value"
        );
        // The loser did not become a publisher: only the winner refreshes.
        assert_eq!(h.nodes[8].stats().dht_refreshes, 0);
    }

    #[test]
    fn cancelled_create_never_becomes_a_publication() {
        let mut h = Harness::new(8);
        h.start_all();
        h.run(20);
        let key = Address::from_key(b"abandoned-claim");
        let now = h.now;
        let token = h.nodes[2].dht_create(now, key, b"stale".to_vec(), Duration::from_secs(8));
        // The caller gives up before the (successful) reply arrives.
        h.nodes[2].dht_cancel_create(token);
        h.pump();
        // The reply is still surfaced (created=true at the owner)...
        assert_eq!(
            h.nodes[2].take_dht_create_replies(),
            vec![(token, true, None)]
        );
        // ...but the claim was not promoted to a publication: no refresh is
        // ever sent and the record ages out on its own.
        h.run(30); // 15 s > ttl + ttl/2
        assert_eq!(h.nodes[2].stats().dht_refreshes, 0);
        let copies: usize = h
            .nodes
            .iter()
            .map(|n| usize::from(n.dht_store().get(&key).is_some()))
            .sum();
        assert_eq!(copies, 0, "abandoned record expired instead of renewing");
    }

    #[test]
    fn dht_replication_survives_owner_crash() {
        // Short connection timeout so the ring repairs quickly after the crash.
        let mut h = Harness::with_cfg(12, |mut c| {
            c.connection_timeout = Duration::from_secs(5);
            c
        });
        h.start_all();
        h.run(30);
        let key = Address::from_key(b"172.16.9.77");
        let now = h.now;
        // Long TTL so the publisher's TTL/2 refresh cannot repair the loss
        // inside the test window: only replication can.
        h.nodes[1].dht_put_ttl(now, key, b"replicated".to_vec(), Duration::from_secs(3600));
        h.pump();
        h.run(2);
        let copies: usize = h
            .nodes
            .iter()
            .map(|n| usize::from(n.dht_store().get(&key).is_some()))
            .sum();
        assert_eq!(copies, 3, "R = 3 copies exist before the crash");
        let owner = h.owner_of(&key);
        assert!(
            h.nodes[owner].dht_store().get(&key).is_some(),
            "the ring owner holds the record"
        );
        h.crash(owner);
        // Wait out the connection timeout so routing stops pointing at the
        // dead node, then resolve.
        h.run(30);
        let querier = if owner == 4 { 5 } else { 4 };
        let now = h.now;
        let token = h.nodes[querier].dht_get(now, key);
        h.pump();
        assert_eq!(
            h.nodes[querier].take_dht_replies(),
            vec![(
                token,
                Some(ipop_packet::Bytes::from(b"replicated".as_slice()))
            )],
            "a replica serves the record after the owner crashed"
        );
        // The new owner re-replicated: R copies exist again among live nodes.
        let copies: usize = h
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| !h.crashed[*i])
            .map(|(_, n)| usize::from(n.dht_store().get(&key).is_some()))
            .sum();
        assert!(copies >= 3, "re-replication restored redundancy: {copies}");
    }

    #[test]
    fn graceful_leave_hands_off_all_records() {
        let mut h = Harness::new(12);
        h.start_all();
        h.run(30);
        // Store several records so the leaving node owns at least one.
        let keys: Vec<Address> = (0..8)
            .map(|i| Address::from_key(format!("172.16.9.{i}").as_bytes()))
            .collect();
        let now = h.now;
        for (i, key) in keys.iter().enumerate() {
            h.nodes[i % 4].dht_put_ttl(now, *key, vec![i as u8; 6], Duration::from_secs(3600));
        }
        h.pump();
        h.run(2);
        let owner = h.owner_of(&keys[0]);
        let owned_before = h.nodes[owner].dht_store().len();
        assert!(owned_before > 0, "the leaving node holds records");
        let now = h.now;
        h.nodes[owner].leave(now);
        h.pump();
        h.crashed[owner] = true; // departed: exclude from ownership queries
        h.by_endpoint.remove(&ep(owner));
        assert_eq!(
            h.nodes[owner].dht_store().len(),
            0,
            "handoff cleared the store"
        );
        h.run(5);
        // Every key still resolves from a node that was not involved.
        for key in &keys {
            let querier = (h.owner_of(key) + 1) % h.nodes.len();
            let querier = if h.crashed[querier] {
                (querier + 1) % h.nodes.len()
            } else {
                querier
            };
            let now = h.now;
            let token = h.nodes[querier].dht_get(now, *key);
            h.pump();
            let replies = h.nodes[querier].take_dht_replies();
            assert_eq!(replies.len(), 1);
            assert_eq!(replies[0].0, token);
            assert!(
                replies[0].1.is_some(),
                "record for {key:?} lost in graceful leave"
            );
        }
    }

    #[test]
    fn dht_records_expire_without_refresh_and_survive_with_it() {
        let mut h = Harness::new(8);
        h.start_all();
        h.run(20);
        let fleeting = Address::from_key(b"fleeting");
        let leased = Address::from_key(b"leased");
        let now = h.now;
        h.nodes[1].dht_put_ttl(now, fleeting, b"gone-soon".to_vec(), Duration::from_secs(4));
        h.nodes[1].dht_unpublish(&fleeting); // no renewal: pure soft state
        h.nodes[2].dht_put_ttl(now, leased, b"renewed".to_vec(), Duration::from_secs(4));
        h.pump();
        // 10 s later the unrefreshed record has aged out, the leased one lives.
        h.run(20);
        let now = h.now;
        let t1 = h.nodes[5].dht_get(now, fleeting);
        let t2 = h.nodes[5].dht_get(now, leased);
        h.pump();
        let mut replies = h.nodes[5].take_dht_replies();
        replies.sort_by_key(|(t, _)| *t);
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0], (t1, None), "unrefreshed soft state expired");
        assert_eq!(
            replies[1],
            (t2, Some(ipop_packet::Bytes::from(b"renewed".as_slice()))),
            "TTL/2 refresh kept the lease alive"
        );
        let refreshes: u64 = h.nodes.iter().map(|n| n.stats().dht_refreshes).sum();
        assert!(refreshes >= 2, "refreshes happened: {refreshes}");
        let expired: u64 = h.nodes.iter().map(|n| n.stats().dht_expired).sum();
        assert!(expired >= 1, "expiry swept the dead record: {expired}");
    }

    #[test]
    fn dht_remove_deletes_owner_and_replica_copies() {
        let mut h = Harness::new(10);
        h.start_all();
        h.run(25);
        let key = Address::from_key(b"dhcp:release-me");
        let now = h.now;
        h.nodes[3].dht_put_ttl(now, key, b"lease".to_vec(), Duration::from_secs(3600));
        h.pump();
        h.run(2);
        let copies: usize = h
            .nodes
            .iter()
            .map(|n| usize::from(n.dht_store().get(&key).is_some()))
            .sum();
        assert_eq!(copies, 3);
        let now = h.now;
        h.nodes[3].dht_remove(now, key);
        h.pump();
        let copies: usize = h
            .nodes
            .iter()
            .map(|n| usize::from(n.dht_store().get(&key).is_some()))
            .sum();
        assert_eq!(copies, 0, "release removed the owner copy and all replicas");
        // And the publisher no longer refreshes it back into existence.
        h.run(10);
        let copies: usize = h
            .nodes
            .iter()
            .map(|n| usize::from(n.dht_store().get(&key).is_some()))
            .sum();
        assert_eq!(copies, 0);
    }

    /// Number of live copies of `key` across non-crashed nodes.
    fn copies(h: &Harness, key: &Address) -> usize {
        h.nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| !h.crashed[*i])
            .filter(|(_, n)| n.dht_store().get(key).is_some())
            .count()
    }

    #[test]
    fn quorum_read_serves_freshest_and_repairs_stale_replica() {
        let mut h = Harness::new(10);
        h.start_all();
        h.run(25);
        let key = Address::from_key(b"172.16.9.40");
        let now = h.now;
        h.nodes[1].dht_put_ttl(now, key, b"host-A".to_vec(), Duration::from_secs(3600));
        h.pump();
        h.run(2);
        assert_eq!(copies(&h, &key), 3);
        let owner = h.owner_of(&key);
        let holders: Vec<usize> = (0..h.nodes.len())
            .filter(|&i| i != owner && h.nodes[i].dht_store().get(&key).is_some())
            .collect();
        assert_eq!(holders.len(), 2, "two replicas besides the owner");
        // Partition one replica holder away, then overwrite the record at the
        // owner (a Brunet-ARP mapping migrating to a new host). The partitioned
        // replica keeps the stale v1 copy.
        let stale = holders[0];
        h.partition(&[stale]);
        let put = RoutedPacket::new(
            h.nodes[1].address(),
            key,
            DeliveryMode::Closest,
            RoutedPayload::DhtPut {
                key,
                value: b"host-B".to_vec().into(),
                ttl_ms: 3_600_000,
                version: 1,
            },
        );
        let now = h.now;
        let owner_ep = ep(99);
        h.nodes[owner].on_message(now, owner_ep, LinkMessage::Routed(put));
        h.pump();
        let stale_rec = h.nodes[stale].dht_store().get(&key).expect("stale copy");
        assert_eq!(
            stale_rec.value,
            ipop_packet::Bytes::from(b"host-A".as_slice()),
            "partitioned replica missed the update"
        );
        let stale_version = stale_rec.version;
        let owner_version = h.nodes[owner].dht_store().get(&key).unwrap().version;
        assert!(
            owner_version > stale_version,
            "owner bumped the version ({owner_version}) over the record it replaced ({stale_version})"
        );
        // Heal, then read through the quorum path: the freshest copy wins and
        // the stale replica is repaired asynchronously.
        h.heal();
        let now = h.now;
        let token = h.nodes[7].dht_get(now, key);
        h.pump();
        assert_eq!(
            h.nodes[7].take_dht_replies(),
            vec![(token, Some(ipop_packet::Bytes::from(b"host-B".as_slice())))],
            "quorum read returns the freshest value"
        );
        let repaired = h.nodes[stale].dht_store().get(&key).expect("repaired copy");
        assert_eq!(
            repaired.value,
            ipop_packet::Bytes::from(b"host-B".as_slice()),
            "read repair replaced the stale replica"
        );
        assert_eq!(repaired.version, owner_version);
        let repairs: u64 = h.nodes.iter().map(|n| n.stats().dht_read_repairs).sum();
        assert!(repairs >= 1, "repair counted: {repairs}");
    }

    #[test]
    fn quorum_create_fails_without_replica_acks() {
        let mut h = Harness::new(8);
        h.start_all();
        h.run(20);
        // The claimant claims a key it owns itself while partitioned from
        // everyone: the local copy cannot reach a majority of the copy set, so
        // the claim must be rejected and withdrawn, not half-claimed.
        let claimant = 3;
        let key = h.nodes[claimant].address();
        assert_eq!(h.owner_of(&key), claimant);
        h.partition(&[claimant]);
        let now = h.now;
        let token =
            h.nodes[claimant].dht_create(now, key, b"claim".to_vec(), Duration::from_secs(600));
        h.pump();
        assert!(
            h.nodes[claimant].take_dht_create_replies().is_empty(),
            "no premature ack without a write quorum"
        );
        // 10 ticks = 5 s > the 4 s quorum timeout.
        h.run(10);
        assert_eq!(
            h.nodes[claimant].take_dht_create_replies(),
            vec![(token, false, None)],
            "unreplicated claim is rejected"
        );
        assert!(
            h.nodes[claimant].dht_store().get(&key).is_none(),
            "the failed claim was withdrawn from the local store"
        );
        assert!(h.nodes[claimant].stats().dht_quorum_write_timeouts >= 1);
        h.heal();
    }

    #[test]
    fn replica_handoff_to_crashing_peer_is_rereplicated() {
        // Short connection timeout so the ring repairs quickly after the crash.
        let mut h = Harness::with_cfg(12, |mut c| {
            c.connection_timeout = Duration::from_secs(5);
            c
        });
        h.start_all();
        h.run(30);
        let key = Address::from_key(b"172.16.9.123");
        let now = h.now;
        h.nodes[1].dht_put_ttl(now, key, b"handed-off".to_vec(), Duration::from_secs(3600));
        // Publisher renewals cannot repair the loss inside the test window
        // (TTL/2 = 30 min); only handoff + re-replication can.
        h.nodes[1].dht_unpublish(&key);
        h.pump();
        h.run(2);
        let owner = h.owner_of(&key);
        let now = h.now;
        h.nodes[owner].leave(now);
        h.pump();
        h.crashed[owner] = true;
        h.by_endpoint.remove(&ep(owner));
        // The node the handoff made the new owner crashes before it can do
        // anything at all — not even one maintenance tick.
        let new_owner = h.owner_of(&key);
        assert!(
            h.nodes[new_owner].dht_store().get(&key).is_some(),
            "handoff reached the next owner"
        );
        h.crash(new_owner);
        // Ring repair + re-replication by the surviving holder(s).
        h.run(30);
        assert!(
            copies(&h, &key) >= 2,
            "the surviving holder re-replicated: {} copies",
            copies(&h, &key)
        );
        let querier = (0..h.nodes.len())
            .find(|&i| !h.crashed[i] && i != h.owner_of(&key))
            .unwrap();
        let now = h.now;
        let token = h.nodes[querier].dht_get(now, key);
        h.pump();
        assert_eq!(
            h.nodes[querier].take_dht_replies(),
            vec![(
                token,
                Some(ipop_packet::Bytes::from(b"handed-off".as_slice()))
            )],
            "the record survived both the leave and the immediate crash"
        );
    }

    #[test]
    fn lease_renewal_timeout_reclaims_instead_of_dropping() {
        let mut h = Harness::new(8);
        h.start_all();
        h.run(20);
        let key = Address::from_key(b"dhcp:172.16.9.9");
        let now = h.now;
        // TTL 8 s → renewal due at 4 s.
        let token = h.nodes[2].dht_create(now, key, b"me".to_vec(), Duration::from_secs(8));
        h.pump();
        assert_eq!(
            h.nodes[2].take_dht_create_replies(),
            vec![(token, true, None)]
        );
        // Cut the claimant off: its renewal create is lost, the reply never
        // arrives. After the renewal timeout it must alarm and re-issue, not
        // silently let the lease expire while keeping the address.
        h.partition(&[2]);
        // 30 ticks = 15 s: past renewal due (4 s) and renewal timeout (10 s).
        h.run(30);
        assert!(
            h.nodes[2].stats().dht_renewal_timeouts >= 1,
            "lost renewal reply alarmed"
        );
        h.heal();
        // Long enough for the next renewal-timeout re-issue to fire and land.
        h.run(25);
        // The re-issued renewal re-claimed the (by now expired) key: the
        // record is live again and the claimant still owns it.
        let now = h.now;
        let t2 = h.nodes[5].dht_get(now, key);
        h.pump();
        assert_eq!(
            h.nodes[5].take_dht_replies(),
            vec![(t2, Some(ipop_packet::Bytes::from(b"me".as_slice())))],
            "the lease survived the lost renewal reply"
        );
    }

    #[test]
    fn conflicting_renewal_surfaces_lost_lease() {
        let mut h = Harness::new(8);
        h.start_all();
        h.run(20);
        let key = Address::from_key(b"dhcp:172.16.9.10");
        let now = h.now;
        let token = h.nodes[2].dht_create(now, key, b"claim-A".to_vec(), Duration::from_secs(8));
        h.pump();
        assert_eq!(
            h.nodes[2].take_dht_create_replies(),
            vec![(token, true, None)]
        );
        // Another publisher overwrites the record with a fresher version (the
        // healed-partition winner); the loser's next renewal must discover the
        // conflict and surface the lost lease instead of clobbering it.
        let owner = h.owner_of(&key);
        let put = RoutedPacket::new(
            h.nodes[6].address(),
            key,
            DeliveryMode::Closest,
            RoutedPayload::DhtPut {
                key,
                value: b"claim-B".to_vec().into(),
                ttl_ms: 600_000,
                version: 5,
            },
        );
        let now = h.now;
        let fake_ep = ep(98);
        h.nodes[owner].on_message(now, fake_ep, LinkMessage::Routed(put));
        h.pump();
        // 10 ticks = 5 s: past the 4 s renewal point of the 8 s lease.
        h.run(10);
        assert_eq!(
            h.nodes[2].take_lost_leases(),
            vec![key],
            "the losing claim is surfaced to the agent"
        );
        assert_eq!(h.nodes[2].stats().dht_leases_lost, 1);
        // And the winner's record was not clobbered by the loser's renewal.
        let owner_now = h.owner_of(&key);
        assert_eq!(
            h.nodes[owner_now].dht_store().get(&key).unwrap().value,
            ipop_packet::Bytes::from(b"claim-B".as_slice())
        );
    }

    /// A single started node with one faked established peer, for white-box
    /// message-level tests ((`node`, own address, peer address)).
    fn node_with_peer() -> (OverlayNode, Address, Address) {
        let mut rng = StreamRng::new(77, "whitebox");
        let addr = Address::random(&mut rng);
        let mut node = OverlayNode::new(OverlayConfig::new(addr, ep(0)), rng);
        node.start(SimTime::ZERO);
        let peer = Address::from_key(b"remote-peer");
        node.on_message(
            SimTime::ZERO,
            ep(1),
            LinkMessage::Hello {
                from: peer,
                kind: ConnectionKind::Near,
                observed: ep(0),
                token: 1,
            },
        );
        let _ = node.take_outbox();
        (node, addr, peer)
    }

    /// `has_output` answers for every agent-facing drain: work that completes
    /// locally (a send to this node, a lookup it answers itself) shows up at
    /// once, and draining it clears the flag.
    #[test]
    fn has_output_tracks_local_completions() {
        let mut rng = StreamRng::new(78, "whitebox");
        let addr = Address::random(&mut rng);
        let mut node = OverlayNode::new(OverlayConfig::new(addr, ep(0)), rng);
        node.start(SimTime::ZERO);
        assert!(!node.has_output());

        node.send_ip(SimTime::ZERO, addr, b"to myself".to_vec());
        assert!(node.has_output());
        assert_eq!(node.take_delivered().len(), 1);
        assert!(!node.has_output());

        let token = node.dht_get(SimTime::ZERO, Address::from_key(b"key"));
        assert!(node.has_output(), "a lone node answers its own lookup");
        assert_eq!(node.take_dht_replies(), vec![(token, None)]);
        assert!(!node.has_output());
        assert!(node.take_delivered().is_empty());

        // Pub/sub output waits for the application, like stream output.
        let topic = crate::pubsub::topic_key("own");
        node.pubsub_subscribe(SimTime::ZERO, topic, Duration::from_secs(60));
        let msg_id = node.pubsub_publish(SimTime::ZERO, topic, b"to my topic".to_vec());
        assert!(!node.has_output());
        let body = Bytes::from(b"to my topic".as_slice());
        assert_eq!(node.take_pubsub_delivered(), vec![(topic, msg_id, body)]);
    }

    /// Tokens of `DhtCreate` payloads in a drained outbox.
    fn create_tokens(out: &[(Endpoint, LinkMessage)]) -> Vec<u64> {
        out.iter()
            .filter_map(|(_, msg)| match msg {
                LinkMessage::Routed(pkt) => match &pkt.payload {
                    RoutedPayload::DhtCreate { token, .. } => Some(*token),
                    _ => None,
                },
                _ => None,
            })
            .collect()
    }

    #[test]
    fn quorum_failed_renewal_keeps_the_lease() {
        // A renewal answered `created: false` with NO existing value is a
        // write-quorum failure at the coordinator, not a conflict: the lease
        // must be kept and retried, not surfaced as lost. Only a reply
        // carrying the winner's value means the lease is gone.
        let (mut node, addr, peer) = node_with_peer();
        let key = peer; // owned by the remote peer, so traffic routes out
        let t0 = SimTime::ZERO;
        let claim_token = node.dht_create(t0, key, b"mine".to_vec(), Duration::from_secs(8));
        let _ = node.take_outbox();
        let reply = |token, created, existing: Option<&[u8]>| {
            LinkMessage::Routed(RoutedPacket::new(
                peer,
                addr,
                DeliveryMode::Exact,
                RoutedPayload::DhtCreateReply {
                    token,
                    created,
                    existing: existing.map(ipop_packet::Bytes::from),
                },
            ))
        };
        node.on_message(t0, ep(1), reply(claim_token, true, None));
        assert_eq!(
            node.take_dht_create_replies(),
            vec![(claim_token, true, None)]
        );
        // TTL/2 later the renewal create goes out.
        let t1 = t0 + Duration::from_secs(4);
        node.on_tick(t1);
        let renew = create_tokens(&node.take_outbox());
        assert_eq!(renew.len(), 1, "one renewal create issued");
        // Quorum failure: keep the lease, no lost-lease event.
        node.on_message(t1, ep(1), reply(renew[0], false, None));
        assert!(
            node.take_lost_leases().is_empty(),
            "lease kept on quorum failure"
        );
        assert_eq!(node.stats().dht_leases_lost, 0);
        // The renewal timeout re-issues and alarms.
        let t2 = t1 + Duration::from_secs(11);
        node.on_tick(t2);
        assert!(node.stats().dht_renewal_timeouts >= 1);
        let renew2 = create_tokens(&node.take_outbox());
        assert_eq!(renew2.len(), 1, "renewal re-issued after the timeout");
        // A genuine conflict (winner's value attached) loses the lease.
        node.on_message(t2, ep(1), reply(renew2[0], false, Some(b"theirs")));
        assert_eq!(node.take_lost_leases(), vec![key]);
        assert_eq!(node.stats().dht_leases_lost, 1);
        // And no further renewals are issued for the dropped publication.
        node.on_tick(t2 + Duration::from_secs(20));
        assert!(create_tokens(&node.take_outbox()).is_empty());
    }

    #[test]
    fn replica_reports_not_stored_for_conflicting_pushes_and_honors_withdraw() {
        let (mut node, addr, peer) = node_with_peer();
        let key = Address::from_key(b"contested");
        let t0 = SimTime::ZERO;
        let replicate = |value: &[u8], version, token| {
            LinkMessage::Routed(RoutedPacket::new(
                peer,
                addr,
                DeliveryMode::Exact,
                RoutedPayload::DhtReplicate {
                    key,
                    value: ipop_packet::Bytes::from(value),
                    ttl_ms: 60_000,
                    version,
                    token,
                },
            ))
        };
        let acks = |out: &[(Endpoint, LinkMessage)]| -> Vec<(u64, bool)> {
            out.iter()
                .filter_map(|(_, msg)| match msg {
                    LinkMessage::Routed(pkt) => match &pkt.payload {
                        RoutedPayload::DhtReplicateAck { token, stored } => Some((*token, *stored)),
                        _ => None,
                    },
                    _ => None,
                })
                .collect()
        };
        // Fresh store: acked as stored.
        node.on_message(t0, ep(1), replicate(b"claim-A", 2, 7));
        assert_eq!(acks(&node.take_outbox()), vec![(7, true)]);
        // A staler conflicting push is refused — and the ack says so, so it
        // cannot count toward the pusher's write quorum.
        node.on_message(t0, ep(1), replicate(b"claim-B", 1, 8));
        assert_eq!(acks(&node.take_outbox()), vec![(8, false)]);
        assert_eq!(
            node.dht_store().get(&key).unwrap().value,
            ipop_packet::Bytes::from(b"claim-A".as_slice())
        );
        // Withdrawing the losing value, or the stored value at a different
        // version (a delayed withdraw racing a re-claim), is a no-op; only
        // the exact (value, version) pair removes the record.
        let withdraw = |value: &[u8], version| {
            LinkMessage::Routed(RoutedPacket::new(
                peer,
                addr,
                DeliveryMode::Exact,
                RoutedPayload::DhtWithdraw {
                    key,
                    value: ipop_packet::Bytes::from(value),
                    version,
                },
            ))
        };
        node.on_message(t0, ep(1), withdraw(b"claim-B", 1));
        assert!(node.dht_store().get(&key).is_some(), "winner survives");
        node.on_message(t0, ep(1), withdraw(b"claim-A", 1));
        assert!(
            node.dht_store().get(&key).is_some(),
            "stale-version withdraw cannot delete the re-claimed record"
        );
        node.on_message(t0, ep(1), withdraw(b"claim-A", 2));
        assert!(node.dht_store().get(&key).is_none(), "withdrawn claim gone");
    }

    #[test]
    fn link_monitor_detects_dead_edge_within_seconds() {
        let mut h = Harness::new(10);
        h.start_all();
        h.run(25);
        let victim = 4;
        let peers_of_victim: Vec<usize> = (0..h.nodes.len())
            .filter(|&i| {
                i != victim
                    && h.nodes[i]
                        .connections()
                        .contains(&h.nodes[victim].address())
            })
            .collect();
        assert!(!peers_of_victim.is_empty(), "victim had edges");
        h.crash(victim);
        // 20 ticks = 10 s: far less than the 45 s connection timeout, ample
        // for probe_interval + probe_failure_limit adaptive misses.
        h.run(20);
        let victim_addr = h.nodes[victim].address();
        for i in 0..h.nodes.len() {
            if i != victim && !h.crashed[i] {
                assert!(
                    !h.nodes[i].connections().contains(&victim_addr),
                    "node {i} still routes into the crashed peer 10 s later"
                );
            }
        }
        let detected: u64 = h
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| !h.crashed[*i])
            .map(|(_, n)| n.stats().dead_edges_detected)
            .sum();
        assert!(detected >= 1, "the link monitor declared the edges dead");
        let probes: u64 = h.nodes.iter().map(|n| n.stats().link_probes_sent).sum();
        assert!(probes >= 1, "probes were sent to the silent peer");
    }

    #[test]
    fn link_monitor_heartbeat_never_misses_on_healthy_edges() {
        // A converged ring does not gossip, so idle edges are silent and the
        // monitor probes each every probe_interval: the heartbeat flows, every
        // probe is acked in time, and no edge is ever declared dead.
        let mut h = Harness::new(8);
        h.start_all();
        h.run(40);
        let probes: u64 = h.nodes.iter().map(|n| n.stats().link_probes_sent).sum();
        assert!(probes > 0, "idle edges are probed");
        let detected: u64 = h.nodes.iter().map(|n| n.stats().dead_edges_detected).sum();
        assert_eq!(detected, 0, "no false positives on live edges");
        let timeouts: u64 = h.nodes.iter().map(|n| n.stats().link_probe_timeouts).sum();
        assert_eq!(timeouts, 0, "no probe ever missed its deadline");
    }

    #[test]
    fn stalled_monitor_clamps_deadlines_instead_of_charging_misses() {
        let mut h = Harness::new(4);
        h.start_all();
        h.run(20);
        let victim = 2;
        h.crash(victim);
        // Three ticks: the silent peer's edges go idle past probe_interval
        // and probes are armed. The heartbeat has given every edge an RTT
        // sample, so the deadlines are sub-second and a miss or two may be
        // charged already — a verdict takes three.
        h.run(3);
        let probes: u64 = h.nodes.iter().map(|n| n.stats().link_probes_sent).sum();
        assert!(probes >= 1, "a probe went out to the silent peer");
        let timeouts =
            |h: &Harness| -> u64 { h.nodes.iter().map(|n| n.stats().link_probe_timeouts).sum() };
        let charged_before = timeouts(&h);
        // Every node stalls for six seconds (a CPU-starved host): the armed
        // deadlines expire inside the gap. The next monitor pass must clamp
        // them forward instead of charging the peers misses.
        h.now += Duration::from_secs(6);
        h.run(1);
        let clamps: u64 = h
            .nodes
            .iter()
            .map(|n| n.stats().link_probe_deadline_clamps)
            .sum();
        assert!(clamps >= 1, "the stalled watchers clamped their deadlines");
        assert_eq!(
            timeouts(&h),
            charged_before,
            "no miss was charged straight out of the stall"
        );
        let dead: u64 = h.nodes.iter().map(|n| n.stats().dead_edges_detected).sum();
        assert_eq!(dead, 0, "no verdict straight out of the stall");
        // The clamp only defers: with ticks back to normal the genuinely
        // crashed peer is still detected dead within seconds.
        h.run(20);
        let dead: u64 = h.nodes.iter().map(|n| n.stats().dead_edges_detected).sum();
        assert!(
            dead >= 1,
            "the crashed peer was still detected after the stall"
        );
    }

    #[test]
    fn forged_probe_acks_reach_the_monitor_and_change_nothing() {
        // CONTRACTS C6 through the real ingress: `from` and `nonce` of a
        // `ProbeAck` are the wire's word (the node-free half of this audit
        // is `monitor::tests::forged_probe_acks_leave_the_edge_health_untouched`).
        let (mut node, me, peer) = node_with_peer();
        let at = |ms: u64| SimTime::ZERO + Duration::from_millis(ms);
        // Drain one tick's outbox down to the probe nonce, if one went out.
        let probe_nonce = |node: &mut OverlayNode| {
            node.take_outbox().iter().find_map(|(_, msg)| match msg {
                LinkMessage::Probe { nonce, .. } => Some(*nonce),
                _ => None,
            })
        };
        let ack = |from: Address, nonce: u64| LinkMessage::ProbeAck { from, nonce };
        node.on_tick(at(500));
        assert_eq!(probe_nonce(&mut node), None, "the edge is not silent yet");
        node.on_tick(at(1000));
        let first = probe_nonce(&mut node).expect("the silent peer is probed");
        let armed = node.monitor.health(&peer).cloned();
        assert!(armed.is_some());

        // The right nonce under the wrong name — a stranger (no edge) or
        // this node itself — is not the ack of the probe in flight.
        let stranger = Address::from_key(b"no-such-edge");
        node.on_message(at(1100), ep(7), ack(stranger, first));
        node.on_message(at(1100), ep(0), ack(me, first));
        assert_eq!(node.monitor.health(&peer).cloned(), armed);
        assert!(node.monitor.health(&stranger).is_none());
        assert!(node.monitor.health(&me).is_none());

        // The deadline (1 s before any RTT sample) is charged and the probe
        // superseded: its own late ack is now a stale nonce and must not
        // take the miss back, nor may guessed ones.
        node.on_tick(at(2000));
        let second = probe_nonce(&mut node).expect("re-probed after the miss");
        assert_eq!(node.stats().link_probe_timeouts, 1);
        let charged = node.monitor.health(&peer).cloned();
        assert_ne!(charged, armed);
        for forged in [first, second.wrapping_add(1), 0, u64::MAX] {
            node.on_message(at(2100), ep(1), ack(peer, forged));
        }
        assert_eq!(node.monitor.health(&peer).cloned(), charged);
        // The honest ack is the one that counts — once: replayed with no
        // probe outstanding it changes nothing either.
        node.on_message(at(2200), ep(1), ack(peer, second));
        let acked = node.monitor.health(&peer).cloned();
        assert_ne!(acked, charged);
        node.on_message(at(2300), ep(1), ack(peer, second));
        assert_eq!(node.monitor.health(&peer).cloned(), acked);
        assert_eq!(node.stats().dead_edges_detected, 0);
    }

    #[test]
    fn link_monitor_disabled_keeps_edges_until_connection_timeout() {
        let mut h = Harness::with_cfg(8, |c| c.without_link_monitor());
        h.start_all();
        h.run(20);
        let victim = 3;
        let victim_addr = h.nodes[victim].address();
        h.crash(victim);
        h.run(20); // 10 s — far short of the 45 s timeout
        let still_pointing = (0..h.nodes.len())
            .filter(|&i| i != victim && h.nodes[i].connections().contains(&victim_addr))
            .count();
        assert!(
            still_pointing > 0,
            "without the monitor the dead edges linger (the pre-PR behaviour)"
        );
        let probes: u64 = h.nodes.iter().map(|n| n.stats().link_probes_sent).sum();
        assert_eq!(probes, 0, "no probes with the monitor disabled");
    }

    #[test]
    fn anti_entropy_converges_diverged_replica_without_reads() {
        let mut h = Harness::new(10);
        h.start_all();
        h.run(25);
        let key = Address::from_key(b"172.16.9.60");
        let now = h.now;
        h.nodes[1].dht_put_ttl(now, key, b"host-A".to_vec(), Duration::from_secs(3600));
        h.pump();
        h.run(2);
        assert_eq!(copies(&h, &key), 3);
        let owner = h.owner_of(&key);
        let holders: Vec<usize> = (0..h.nodes.len())
            .filter(|&i| i != owner && h.nodes[i].dht_store().get(&key).is_some())
            .collect();
        // Partition one replica holder (no ticks run, so its edges survive),
        // overwrite the record at the owner, heal: the replica now holds a
        // stale v1 copy and nothing ever reads the key.
        let stale = holders[0];
        h.partition(&[stale]);
        let put = RoutedPacket::new(
            h.nodes[1].address(),
            key,
            DeliveryMode::Closest,
            RoutedPayload::DhtPut {
                key,
                value: b"host-B".to_vec().into(),
                ttl_ms: 3_600_000,
                version: 1,
            },
        );
        let now = h.now;
        let fake_ep = ep(97);
        h.nodes[owner].on_message(now, fake_ep, LinkMessage::Routed(put));
        h.pump();
        assert_eq!(
            h.nodes[stale].dht_store().get(&key).unwrap().value,
            ipop_packet::Bytes::from(b"host-A".as_slice()),
            "partitioned replica missed the overwrite"
        );
        h.heal();
        // Up to one random sweep offset plus one interval: 2 × 10 s = 40 ticks.
        h.run(45);
        let repaired = h.nodes[stale].dht_store().get(&key).expect("still held");
        assert_eq!(
            repaired.value,
            ipop_packet::Bytes::from(b"host-B".as_slice()),
            "the sweep converged the stale replica with no read in sight"
        );
        let digests: u64 = h.nodes.iter().map(|n| n.stats().dht_sync_digests).sum();
        assert!(digests >= 1, "digests flowed: {digests}");
        let reads: u64 = h.nodes.iter().map(|n| n.stats().dht_quorum_reads).sum();
        assert_eq!(reads, 0, "no read repaired it — anti-entropy did");
    }

    #[test]
    fn put_through_crashed_hop_is_recovered_within_a_sweep() {
        let mut h = Harness::new(12);
        h.start_all();
        h.run(30);
        // The key is a node's own address, so that node is its ring owner.
        let owner = 7;
        let key = h.nodes[owner].address();
        assert_eq!(h.owner_of(&key), owner);
        // The owner crashes; before anyone notices, a publisher stores a
        // record under the key. Greedy routing forwards the put straight into
        // the dead node: the record is lost in flight. The TTL is an hour, so
        // the publisher's TTL/2 refresh cannot repair it inside the test —
        // recovery (≤ ~25 s) beats both that and the 45 s timeout.
        h.crash(owner);
        let publisher = 2;
        assert_ne!(publisher, owner);
        let now = h.now;
        h.nodes[publisher].dht_put_ttl(now, key, b"survivor".to_vec(), Duration::from_secs(3600));
        h.pump();
        assert_eq!(copies(&h, &key), 0, "the put died in the crashed hop");
        // Link monitor kills the dead edges (~7 s), then the publisher's next
        // sweep digest reaches the new owner, which pulls the record.
        // Random sweep offset (≤10 s) + interval (10 s) + detection: 50 ticks = 25 s.
        h.run(50);
        assert!(
            copies(&h, &key) >= 1,
            "the publisher sweep recovered the lost put"
        );
        let querier = 5;
        let now = h.now;
        let token = h.nodes[querier].dht_get(now, key);
        h.pump();
        assert_eq!(
            h.nodes[querier].take_dht_replies(),
            vec![(
                token,
                Some(ipop_packet::Bytes::from(b"survivor".as_slice()))
            )],
            "the record resolves again within one sweep interval"
        );
        let pulls: u64 = h.nodes.iter().map(|n| n.stats().dht_sync_pulls).sum();
        assert!(pulls >= 1, "recovery went through the pull path: {pulls}");
    }

    #[test]
    fn healed_partition_remerges_via_bootstrap_heartbeat() {
        // A long partition plus fast dead-edge detection scrubs each side's
        // knowledge of the other completely (edges dropped, candidates
        // purged, gossip dried up). The bootstrap re-link heartbeat must
        // re-merge the sub-rings after the heal.
        let mut h = Harness::new(12);
        h.start_all();
        h.run(25);
        let minority = [8usize, 9, 10];
        h.partition(&minority);
        // 30 ticks = 15 s: the monitor kills every cross-group edge and each
        // side re-forms its own ring.
        h.run(30);
        for &i in &minority {
            for j in 0..h.nodes.len() {
                if !minority.contains(&j) {
                    assert!(
                        !h.nodes[i].connections().contains(&h.nodes[j].address()),
                        "cross-partition edge {i}->{j} survived the monitor"
                    );
                }
            }
        }
        h.heal();
        // 70 ticks = 35 s ≥ the 30 s heartbeat: the minority re-links to the
        // bootstrap's component and gossip merges the rings.
        h.run(70);
        let bridged = minority.iter().any(|&i| {
            (0..h.nodes.len())
                .filter(|j| !minority.contains(j))
                .any(|j| h.nodes[i].connections().contains(&h.nodes[j].address()))
        });
        assert!(bridged, "the healed sides re-linked");
        // And traffic crosses the merged ring again.
        let dst = h.nodes[2].address();
        let now = h.now;
        h.nodes[9].send_ip(now, dst, vec![0x42; 16]);
        h.pump();
        assert_eq!(
            h.nodes[2].take_delivered().len(),
            1,
            "minority-to-majority delivery works after the heal"
        );
    }

    #[test]
    fn isolated_node_cannot_self_acknowledge_quorum_writes() {
        let mut h = Harness::new(8);
        h.start_all();
        h.run(20);
        // Cut a node off and let the link monitor empty its table: with zero
        // peers its single copy must not satisfy a write quorum of a copy
        // set that is supposed to span three nodes.
        let claimant = 3;
        h.partition(&[claimant]);
        h.run(25);
        assert_eq!(
            h.nodes[claimant].connections().established().count(),
            0,
            "the monitor dropped every edge of the isolated node"
        );
        let key = Address::from_key(b"dhcp:172.16.9.66");
        let now = h.now;
        let token =
            h.nodes[claimant].dht_create(now, key, b"mine".to_vec(), Duration::from_secs(600));
        h.pump();
        assert_eq!(
            h.nodes[claimant].take_dht_create_replies(),
            vec![(token, false, None)],
            "the isolated claim fails retryably instead of self-acking"
        );
        assert!(
            h.nodes[claimant].dht_store().get(&key).is_none(),
            "no half-claimed record lingers"
        );
        assert!(h.nodes[claimant].stats().dht_quorum_write_timeouts >= 1);
        h.heal();
    }

    #[test]
    fn observed_endpoint_learning() {
        // A node told about a different observed endpoint starts advertising it.
        let mut rng = StreamRng::new(1, "obs");
        let addr = Address::random(&mut rng);
        let mut node = OverlayNode::new(OverlayConfig::new(addr, ep(0)), rng);
        node.start(SimTime::ZERO);
        let translated = (Ipv4Addr::new(128, 227, 56, 1), 20_001);
        let peer_addr = Address::from_key(b"peer");
        node.on_message(
            SimTime::ZERO,
            ep(1),
            LinkMessage::Hello {
                from: peer_addr,
                kind: ConnectionKind::Leaf,
                observed: translated,
                token: 5,
            },
        );
        assert!(node.ring.advertised.contains(&translated));
        assert!(node.ring.advertised.contains(&ep(0)));
    }

    #[test]
    fn pubsub_publish_reaches_every_subscriber() {
        let mut h = Harness::new(12);
        h.start_all();
        h.run(30);
        let topic = crate::pubsub::topic_key("chat");
        let subscribers = [1usize, 3, 5, 7, 9, 11];
        let now = h.now;
        for &i in &subscribers {
            h.nodes[i].pubsub_subscribe(now, topic, Duration::from_secs(60));
        }
        h.pump();
        // The topic record lives at the key's ring owner and replicates.
        let root = h.owner_of(&topic);
        assert!(h.nodes[root].dht_store().get(&topic).is_some());
        let now = h.now;
        let msg_id = h.nodes[2].pubsub_publish(now, topic, b"hello room".to_vec());
        h.pump();
        for &i in &subscribers {
            let got = h.nodes[i].take_pubsub_delivered();
            assert_eq!(
                got,
                vec![(topic, msg_id, Bytes::from(b"hello room".as_slice()))],
                "subscriber {i} missed the publish"
            );
        }
        // Non-subscribers got nothing.
        for i in [0usize, 2, 4] {
            assert!(h.nodes[i].take_pubsub_delivered().is_empty());
        }
        // The relay tree stayed bounded: no node sent more than
        // `pubsub_fanout` deliveries for the single publish.
        for n in &h.nodes {
            assert!(n.stats().pubsub_fanout_sent <= n.config().pubsub_fanout as u64);
        }
        let relayed: u64 = h.nodes.iter().map(|n| n.stats().pubsub_relayed).sum();
        assert!(relayed >= 1, "6 subscribers at fanout 4 need relaying");
    }

    #[test]
    fn pubsub_unsubscribe_stops_delivery() {
        let mut h = Harness::new(8);
        h.start_all();
        h.run(25);
        let topic = crate::pubsub::topic_key("ephemeral");
        let now = h.now;
        h.nodes[2].pubsub_subscribe(now, topic, Duration::from_secs(60));
        h.nodes[5].pubsub_subscribe(now, topic, Duration::from_secs(60));
        h.pump();
        let now = h.now;
        h.nodes[2].pubsub_unsubscribe(now, topic);
        h.pump();
        let now = h.now;
        h.nodes[6].pubsub_publish(now, topic, vec![1, 2, 3]);
        h.pump();
        assert!(h.nodes[2].take_pubsub_delivered().is_empty());
        assert_eq!(h.nodes[5].take_pubsub_delivered().len(), 1);
        // Last subscriber out deletes the record everywhere.
        let now = h.now;
        h.nodes[5].pubsub_unsubscribe(now, topic);
        h.pump();
        h.run(2);
        let stored: usize = h
            .nodes
            .iter()
            .filter(|n| n.dht_store().get(&topic).is_some())
            .count();
        assert_eq!(stored, 0, "empty topic record must be removed");
    }

    #[test]
    fn pubsub_root_crash_rehomes_subscriptions() {
        let mut h = Harness::new(10);
        h.start_all();
        h.run(30);
        let topic = crate::pubsub::topic_key("durable");
        let root = h.owner_of(&topic);
        // Everyone except the root subscribes, with a short TTL so renewals
        // fire within a few seconds.
        let subscribers: Vec<usize> = (0..h.nodes.len()).filter(|&i| i != root).collect();
        let now = h.now;
        for &i in &subscribers {
            h.nodes[i].pubsub_subscribe(now, topic, Duration::from_secs(8));
        }
        h.pump();
        h.crash(root);
        // 30 ticks = 15 s: the ring repairs, dead edges are scrubbed, and
        // every subscription passes its TTL/2 renewal — which routes to the
        // key's *new* owner.
        h.run(30);
        let now = h.now;
        let publisher = subscribers[0];
        let msg_id = h.nodes[publisher].pubsub_publish(now, topic, b"after crash".to_vec());
        h.pump();
        for &i in &subscribers {
            let got = h.nodes[i].take_pubsub_delivered();
            assert!(
                got.contains(&(topic, msg_id, Bytes::from(b"after crash".as_slice()))),
                "subscriber {i} lost its subscription to the root crash"
            );
        }
    }

    #[test]
    fn pubsub_dead_subscriber_is_pruned_from_topic_record() {
        // 4 nodes form a full mesh, so the topic root holds a direct edge to
        // every subscriber and the link monitor's verdict reaches the record.
        let mut h = Harness::new(4);
        h.start_all();
        h.run(25);
        let topic = crate::pubsub::topic_key("pruned");
        let now = h.now;
        for i in 0..4 {
            h.nodes[i].pubsub_subscribe(now, topic, Duration::from_secs(600));
        }
        h.pump();
        let root = h.owner_of(&topic);
        let victim = (0..4).find(|&i| i != root).unwrap();
        let victim_addr = h.nodes[victim].address();
        h.crash(victim);
        h.run(25);
        let now = h.now;
        let record = h.nodes[root].dht_store().live(&topic, now);
        let entries = crate::pubsub::decode_subscriber_set(&record.expect("record").value).unwrap();
        assert!(
            !entries.iter().any(|(a, _)| *a == victim_addr),
            "crashed subscriber still in the topic record"
        );
        let pruned: u64 = h
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| !h.crashed[*i])
            .map(|(_, n)| n.stats().pubsub_pruned)
            .sum();
        assert!(pruned >= 1, "the dead-edge verdict pruned the subscriber");
    }

    #[test]
    fn pubsub_deliver_to_absent_head_salvages_delegation() {
        // A Deliver whose Exact target is not in the overlay ends at the
        // ring-closest node, which must re-fan the delegated chunk instead of
        // dropping it with the head.
        let mut h = Harness::new(8);
        h.start_all();
        h.run(20);
        let topic = crate::pubsub::topic_key("salvage-direct");
        let now = h.now;
        for i in [2, 6] {
            h.nodes[i].pubsub_subscribe(now, topic, Duration::from_secs(60));
        }
        h.pump();
        let mut rng = StreamRng::new(9, "absent-head");
        let absent = Address::random(&mut rng);
        let relay_to = vec![h.nodes[2].address(), h.nodes[6].address()];
        let pkt = RoutedPacket::new(
            h.nodes[0].address(),
            absent,
            DeliveryMode::Exact,
            RoutedPayload::PubSubDeliver {
                topic,
                msg_id: 42,
                relay_to,
                payload: vec![7, 7].into(),
            },
        );
        let now = h.now;
        let arrived = h.nodes[0].core.route(pkt);
        h.nodes[0].dispatch(now, arrived);
        h.pump();
        assert_eq!(h.nodes[2].take_pubsub_delivered().len(), 1);
        assert_eq!(h.nodes[6].take_pubsub_delivered().len(), 1);
        let salvaged: u64 = h.nodes.iter().map(|n| n.stats().pubsub_salvaged).sum();
        assert_eq!(salvaged, 1, "exactly one node salvaged the delegation");
    }

    #[test]
    fn pubsub_fanout_survives_a_crashed_subscriber() {
        let mut h = Harness::new(12);
        h.start_all();
        h.run(30);
        let topic = crate::pubsub::topic_key("salvage");
        let subscribers = [1usize, 3, 5, 7, 9, 11];
        let now = h.now;
        for &i in &subscribers {
            h.nodes[i].pubsub_subscribe(now, topic, Duration::from_secs(600));
        }
        h.pump();
        // Kill one subscriber and publish immediately — before any TTL,
        // renewal or dead-edge verdict can remove it from the record. Its
        // delegated chunk must still reach everyone else via the salvage
        // path at the ring-closest node.
        let victim = 5;
        h.crash(victim);
        h.run(22); // let the monitor scrub the dead edges so routing moves on
        let now = h.now;
        let msg_id = h.nodes[0].pubsub_publish(now, topic, b"survivors".to_vec());
        h.pump();
        for &i in &subscribers {
            if i == victim {
                continue;
            }
            let got = h.nodes[i].take_pubsub_delivered();
            assert!(
                got.contains(&(topic, msg_id, Bytes::from(b"survivors".as_slice()))),
                "live subscriber {i} lost the message to the dead chunk head"
            );
        }
    }

    #[test]
    fn virtual_stream_transfers_bytes_across_the_ring() {
        let mut h = Harness::new(8);
        h.start_all();
        h.run(20);
        let dst = h.nodes[6].address();
        let now = h.now;
        let sid = h.nodes[1].stream_connect(now, dst);
        h.pump();
        assert_eq!(
            h.nodes[6].take_stream_accepted(),
            vec![(h.nodes[1].address(), sid)]
        );
        let body: Vec<u8> = (0..10_000u32).map(|i| (i % 241) as u8).collect();
        let now = h.now;
        assert!(h.nodes[1].stream_send(now, dst, sid, body.clone()));
        h.nodes[1].stream_close(now, dst, sid);
        h.run(4);
        let got: Vec<u8> = h.nodes[6]
            .take_stream_data()
            .into_iter()
            .flat_map(|(_, _, c)| c.to_vec())
            .collect();
        assert_eq!(got, body, "stream bytes arrive complete and in order");
        assert!(h.nodes[6]
            .take_stream_events()
            .iter()
            .any(|e| matches!(e, StreamEvent::RemoteClosed { .. })));
        assert!(h.nodes[1]
            .take_stream_events()
            .iter()
            .any(|e| matches!(e, StreamEvent::Closed { .. })));
        assert_eq!(h.nodes[1].stats().stream_opened, 1);
        assert_eq!(h.nodes[6].stats().stream_accepted, 1);
        assert_eq!(h.nodes[6].stats().stream_closed, 1);
    }

    #[test]
    fn simultaneous_stream_opens_in_both_directions_do_not_collide() {
        let mut h = Harness::new(2);
        h.start_all();
        let (a0, a1) = (h.nodes[0].address(), h.nodes[1].address());
        let now = h.now;
        // Both sides open with the same token counter value; the parity bit
        // keeps the ids distinct in each other's (remote, id) tables.
        let s01 = h.nodes[0].stream_connect(now, a1);
        let s10 = h.nodes[1].stream_connect(now, a0);
        h.pump();
        let now = h.now;
        assert!(h.nodes[0].stream_send(now, a1, s01, b"zero to one".to_vec()));
        assert!(h.nodes[1].stream_send(now, a0, s10, b"one to zero".to_vec()));
        h.pump();
        let at1: Vec<u8> = h.nodes[1]
            .take_stream_data()
            .into_iter()
            .flat_map(|(_, _, c)| c.to_vec())
            .collect();
        let at0: Vec<u8> = h.nodes[0]
            .take_stream_data()
            .into_iter()
            .flat_map(|(_, _, c)| c.to_vec())
            .collect();
        assert_eq!(at1, b"zero to one");
        assert_eq!(at0, b"one to zero");
        assert_eq!(h.nodes[0].take_stream_accepted(), vec![(a1, s10)]);
        assert_eq!(h.nodes[1].take_stream_accepted(), vec![(a0, s01)]);
    }

    #[test]
    fn publish_at_recordless_root_is_nacked_and_retried_not_lost() {
        // The re-home window in miniature: the publish lands (Closest) on a
        // node that does not hold the topic's subscriber-set record yet —
        // exactly what happens when a publish beats the record migration to
        // the new root after a crash. The bare root must nack, and the
        // publisher must re-route until the record is reachable again.
        let mut h = Harness::new(8);
        h.start_all();
        h.run(20);
        let topic = crate::pubsub::topic_key("rehome-nack");
        let root = h.owner_of(&topic);
        let subscribers: Vec<usize> = (0..h.nodes.len()).filter(|&i| i != root).collect();
        let now = h.now;
        for &i in &subscribers {
            h.nodes[i].pubsub_subscribe(now, topic, Duration::from_secs(600));
        }
        h.pump();
        // Publisher registers the publish, but the frame is steered to a
        // node that is NOT the topic owner (Exact to a wrong address while
        // the payload still names the topic) — the "new root without the
        // record" of the re-home window.
        let publisher = subscribers[0];
        let wrong = *subscribers
            .iter()
            .find(|&&i| i != publisher && !h.nodes[i].core.owns_key(&topic))
            .unwrap();
        // The real frame is lost on its way out; what is left is a publish
        // the publisher still remembers.
        let payload = Bytes::from(b"risky".as_slice());
        let now = h.now;
        let msg_id = h.nodes[publisher].pubsub_publish(now, topic, payload.clone());
        let _ = h.nodes[publisher].take_outbox();
        let now = h.now;
        let wrong_addr = h.nodes[wrong].address();
        let src = h.nodes[publisher].address();
        let pkt = RoutedPacket::new(
            src,
            wrong_addr,
            DeliveryMode::Exact,
            RoutedPayload::PubSubPublish {
                topic,
                msg_id,
                payload,
            },
        );
        let arrived = h.nodes[publisher].core.route(pkt);
        h.nodes[publisher].dispatch(now, arrived);
        h.pump(); // nack comes back
        assert_eq!(h.nodes[wrong].stats().pubsub_nacks_sent, 1);
        assert_eq!(h.nodes[publisher].stats().pubsub_nacks_received, 1);
        // The backoff elapses on the maintenance tick; the retry routes
        // Closest and reaches the real root, which fans out.
        h.run(4);
        let mut delivered_to = 0;
        for &i in &subscribers {
            let got = h.nodes[i].take_pubsub_delivered();
            if got.iter().any(|(t, m, _)| (*t, *m) == (topic, msg_id)) {
                delivered_to += 1;
            }
        }
        assert_eq!(
            delivered_to,
            subscribers.len(),
            "the nacked publish must still reach every subscriber"
        );
        assert!(h.nodes[publisher].stats().pubsub_publish_retries >= 1);
        assert_eq!(h.nodes[publisher].stats().pubsub_publish_failures, 0);
    }
}
