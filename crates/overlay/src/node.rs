//! The Brunet-like overlay node: connection management, greedy structured routing,
//! decentralized join/leave handling, NAT-traversing link establishment, Kleinberg
//! shortcuts and a simple DHT.
//!
//! The node is a pure state machine: the host agent that embeds it feeds it
//! incoming link messages ([`OverlayNode::on_message`]) and periodic ticks
//! ([`OverlayNode::on_tick`]), then drains [`OverlayNode::take_outbox`] for
//! messages to hand to the physical transport and [`OverlayNode::take_delivered`]
//! for payloads addressed to this node (IPOP picks up tunnelled IP packets there).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ipop_packet::Bytes;
use ipop_simcore::{Duration, SimTime, StreamRng};

use crate::address::{Address, Distance};
use crate::dht::{
    apply_record_copy, sync_compare, sync_digest_entry, sync_value_hash, wire_expiry, DhtConfig,
    DhtRecord, DhtStore, SoftStateStore, SyncAction, SyncDigestEntry,
};
use crate::monitor::{DeathRule, LinkMonitor};
use crate::packets::{
    ConnectionKind, DeliveryMode, Endpoint, LinkMessage, RoutedPacket, RoutedPayload,
};
use crate::pubsub::{decode_subscriber_set, encode_subscriber_set, plan_fanout};
use crate::table::{Connection, ConnectionState, ConnectionTable};
use crate::vstream::{StreamEvent, VStreams};

/// Configuration of an overlay node.
#[derive(Clone, Debug)]
pub struct OverlayConfig {
    /// This node's 160-bit address (for IPOP: SHA-1 of its virtual IP).
    pub address: Address,
    /// The local physical endpoint the transport listens on.
    pub local_endpoint: Endpoint,
    /// Physical endpoints of bootstrap nodes already in the overlay.
    pub bootstrap: Vec<Endpoint>,
    /// Desired number of structured-near connections per ring side.
    pub near_per_side: usize,
    /// Maximum number of Kleinberg shortcut connections.
    pub max_shortcuts: usize,
    /// Whether to build shortcut connections at all (ablation switch).
    pub shortcuts_enabled: bool,
    /// Interval between maintenance ticks (ring repair, shortcut formation).
    pub maintenance_interval: Duration,
    /// Idle interval after which a keep-alive ping is sent on an edge.
    pub ping_interval: Duration,
    /// Idle interval after which an edge is considered dead and removed
    /// (the slow backstop; the link monitor below detects crashed peers in
    /// seconds).
    pub connection_timeout: Duration,
    /// Fast dead-edge detection: probe established edges that have gone
    /// silent and drop them after a few missed acks, so routing stops
    /// forwarding packets into a crashed hop long before
    /// [`OverlayConfig::connection_timeout`].
    pub link_monitor: bool,
    /// Idle interval after which the link monitor probes an edge. Healthy
    /// edges hear gossip every maintenance tick, so probes only flow to
    /// peers that actually went silent.
    pub probe_interval: Duration,
    /// Consecutive unanswered probes before an edge is declared dead (used
    /// when [`OverlayConfig::phi_accrual`] is off).
    pub probe_failure_limit: u32,
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
    /// How often a node with no live edge to any bootstrap endpoint re-sends
    /// hellos there. With fast dead-edge detection a long partition scrubs
    /// each side's knowledge of the other within seconds; this heartbeat is
    /// what re-merges the sub-rings after the partition heals (the hellos
    /// are simply lost while it lasts).
    pub bootstrap_retry_interval: Duration,
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
            near_per_side: 2,
            max_shortcuts: 4,
            shortcuts_enabled: true,
            maintenance_interval: Duration::from_millis(500),
            ping_interval: Duration::from_secs(10),
            connection_timeout: Duration::from_secs(45),
            link_monitor: true,
            probe_interval: Duration::from_secs(1),
            probe_failure_limit: 3,
            phi_accrual: true,
            phi_threshold: 6.0,
            bootstrap_retry_interval: Duration::from_secs(30),
            packet_ttl: 32,
            pubsub_fanout: 4,
            dht: DhtConfig::default(),
        }
    }

    /// Builder: set bootstrap endpoints.
    pub fn with_bootstrap(mut self, bootstrap: Vec<Endpoint>) -> Self {
        self.bootstrap = bootstrap;
        self
    }

    /// Builder: disable shortcut connections (used by the ablation experiment).
    pub fn without_shortcuts(mut self) -> Self {
        self.shortcuts_enabled = false;
        self
    }

    /// Builder: fall back to single-node DHT reads and unacknowledged creates
    /// (the pre-quorum behaviour; ablation switch).
    pub fn without_dht_quorum(mut self) -> Self {
        self.dht.quorum = false;
        self
    }

    /// Builder: disable fast dead-edge detection — crashed peers linger in
    /// the routing table until [`OverlayConfig::connection_timeout`] (the
    /// pre-link-monitor behaviour; ablation switch).
    pub fn without_link_monitor(mut self) -> Self {
        self.link_monitor = false;
        self
    }

    /// Builder: set the idle interval before the link monitor probes an edge.
    pub fn with_probe_interval(mut self, interval: Duration) -> Self {
        self.probe_interval = interval;
        self
    }

    /// Builder: fall back to the fixed consecutive-miss limit instead of
    /// phi-accrual suspicion (the pre-phi behaviour; ablation switch).
    pub fn without_phi_accrual(mut self) -> Self {
        self.phi_accrual = false;
        self
    }

    /// Builder: set the phi-accrual suspicion threshold.
    pub fn with_phi_threshold(mut self, threshold: f64) -> Self {
        self.phi_threshold = threshold;
        self
    }

    /// Builder: disable the anti-entropy sweep — replica sets reconcile only
    /// opportunistically on reads and renewals (ablation switch).
    pub fn without_anti_entropy(mut self) -> Self {
        self.dht.sweep = false;
        self
    }

    /// Builder: set the interval between anti-entropy sweeps.
    pub fn with_sweep_interval(mut self, interval: Duration) -> Self {
        self.dht.sweep_interval = interval;
        self
    }

    /// Builder: set the shortcut (Far connection) budget.
    pub fn with_max_shortcuts(mut self, max_shortcuts: usize) -> Self {
        self.max_shortcuts = max_shortcuts;
        self
    }

    /// Builder: set the number of structured-near neighbours kept per side.
    pub fn with_near_per_side(mut self, near_per_side: usize) -> Self {
        self.near_per_side = near_per_side.max(1);
        self
    }

    /// Builder: set the interval between maintenance ticks.
    pub fn with_maintenance_interval(mut self, interval: Duration) -> Self {
        self.maintenance_interval = interval;
        self
    }

    /// Builder: set the hop budget for packets this node originates.
    pub fn with_packet_ttl(mut self, ttl: u8) -> Self {
        self.packet_ttl = ttl.max(1);
        self
    }

    /// Builder: set the maximum out-degree of the pub/sub relay tree.
    pub fn with_pubsub_fanout(mut self, fanout: usize) -> Self {
        self.pubsub_fanout = fanout.max(1);
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
}

/// A topic this node subscribes to: the soft-state TTL it asked for and when
/// the subscription was last (re-)announced. Renewed at TTL/2 like any other
/// soft-state publication.
struct PubSubSubscription {
    ttl: Duration,
    last_renew: SimTime,
}

/// A publish this node originated, retained until the retry budget would be
/// pointless: a topic root caught mid-re-home answers a retryable
/// [`RoutedPayload::PubSubNack`] instead of dropping the message, and the
/// publisher re-routes it from here once the backoff elapses.
struct PendingPublish {
    topic: Address,
    payload: Bytes,
    /// Nack-triggered retries so far.
    attempts: u32,
    /// When the next retry fires; `None` while the publish is in flight.
    retry_at: Option<SimTime>,
}

/// Bound on retained publishes: old entries beyond this are evicted oldest
/// first (a fan-out is not acknowledged, so "still pending" only means "not
/// yet nacked and not yet evicted").
const MAX_PENDING_PUBLISHES: usize = 64;

/// Nack-triggered retries before a publish is abandoned (counted in
/// [`OverlayStats::pubsub_publish_failures`]).
const MAX_PUBLISH_RETRIES: u32 = 8;

/// Base backoff between publish retries, doubled per attempt (capped).
const PUBLISH_RETRY_BACKOFF: Duration = Duration::from_millis(250);

/// Token used by internally originated quorum creates (pub/sub topic-record
/// rewrites): [`OverlayNode::send_create_reply`] suppresses the reply for it.
/// Real create tokens come from `fresh_token`, which starts at 1.
const INTERNAL_QUORUM_TOKEN: u64 = 0;

struct PendingLink {
    kind: ConnectionKind,
    started: SimTime,
}

/// Cap on digest entries per anti-entropy message; larger key sets are
/// chunked across several digests.
const SYNC_DIGEST_CHUNK: usize = 64;

/// A record this node publishes and keeps alive by renewing at TTL/2
/// (DHCP-style lease renewal — paper Section III-E's soft-state mappings).
///
/// Two renewal modes exist. Plain publications (Brunet-ARP mappings, name
/// records) re-put: last-writer-wins overwrite is exactly what VM migration
/// needs. Claimed publications (successful `DhtCreate`s, i.e. address leases)
/// renew with another `DhtCreate`: the owner extends a record matching our
/// value and rejects a conflicting one, so a claim that lost a healed
/// partition is *discovered* (and surfaced as a lost lease) instead of
/// silently clobbering the winner.
struct Publication {
    value: Bytes,
    ttl: Duration,
    /// Version of the current value; bumped when a re-publish changes it.
    version: u64,
    last_refresh: SimTime,
    /// Renew with create-if-absent-or-match instead of a blind put.
    renew_with_create: bool,
    /// Outstanding renewal create: `(token, issued)`. A renewal whose reply
    /// does not arrive within [`DhtConfig::renewal_timeout`] is re-issued and
    /// counted in [`OverlayStats::dht_renewal_timeouts`].
    renew_inflight: Option<(u64, SimTime)>,
}

/// A quorum write this node is coordinating: the record is stored locally and
/// pushed to the key's replica set with an ack token; the `DhtCreateReply` is
/// sent only once a majority of the copy set (local copy included) holds it.
struct QuorumCreate {
    origin: Address,
    origin_token: u64,
    key: Address,
    value: Bytes,
    /// Version the record was stored and pushed with.
    version: u64,
    /// `None` for a first-time claim (the record was created by this
    /// operation); `Some(expiry)` for a lease renewal, applied to the local
    /// record only once the quorum acks. Only fresh claims are withdrawn on
    /// quorum failure: a failed renewal keeps the coordinator's pre-renewal
    /// expiry, while replicas that stored the extended push before their ack
    /// was lost may keep the longer expiry — soft state that ages out, at
    /// worst occupying the key one extra TTL if the claimant then crashes.
    extends_to: Option<SimTime>,
    /// The replicas the record was pushed to — on failure a fresh claim is
    /// withdrawn from them too (an ack may have been lost after the store).
    targets: Vec<Address>,
    acks_needed: usize,
    acks: usize,
    issued: SimTime,
}

/// A quorum read this node is coordinating: the replica set has been polled
/// and the freshest copy by `(version, expiry)` is returned to the origin once
/// a majority of the copy set answered with at least one live copy in sight
/// (or every poll answered, or the poll timed out). Stale and missing copies
/// discovered along the way are repaired asynchronously. Replica answers are
/// reconstructed as [`DhtRecord`]s so freshness and TTL rules stay the
/// store's own.
struct QuorumRead {
    origin: Address,
    origin_token: u64,
    key: Address,
    /// How many replicas were polled.
    polled: usize,
    replies_needed: usize,
    /// Answers received so far: `(replica, its live copy)`.
    responses: Vec<(Address, Option<DhtRecord>)>,
    issued: SimTime,
}

/// An outstanding `DhtCreate`, remembered so a successful claim turns into a
/// publication (the creator becomes the record's refreshing owner).
struct PendingCreate {
    key: Address,
    value: Bytes,
    ttl: Duration,
    issued: SimTime,
}

/// How long an unanswered `DhtCreate` stays pending before it is forgotten.
/// A reply arriving later is treated as stale and must not turn into a
/// publication — the caller has long since given up on the claim (and, for
/// the DHCP allocator, moved on to a different address).
const PENDING_CREATE_TIMEOUT: Duration = Duration::from_secs(60);

/// Expiry skew tolerated before a quorum read repairs a same-version,
/// same-value copy. A replica's expiry is reconstructed from its remaining
/// TTL at the coordinator, so it arrives inflated by the reply's transit
/// time; genuine renewals differ by at least TTL/2, far above this.
const READ_REPAIR_SLACK: Duration = Duration::from_secs(2);

/// A Brunet-style structured-ring overlay node.
pub struct OverlayNode {
    cfg: OverlayConfig,
    /// Endpoints we advertise: the local endpoint plus any NAT-translated endpoints
    /// peers have observed for us.
    advertised: Vec<Endpoint>,
    table: ConnectionTable,
    outbox: Vec<(Endpoint, LinkMessage)>,
    delivered: VecDeque<RoutedPacket>,
    dht: Box<dyn DhtStore + Send>,
    dht_replies: VecDeque<(u64, Option<Bytes>)>,
    dht_create_replies: VecDeque<(u64, bool, Option<Bytes>)>,
    /// Records this node publishes, keyed by DHT key. `BTreeMap` so the
    /// refresh scan emits messages in a deterministic order.
    published: BTreeMap<Address, Publication>,
    /// Outstanding creates: token → claim. Never iterated, only keyed.
    pending_creates: BTreeMap<u64, PendingCreate>,
    /// Quorum writes this node is coordinating, keyed by ack token. `BTreeMap`
    /// because the timeout sweep iterates it while emitting failure replies.
    pending_quorum_creates: BTreeMap<u64, QuorumCreate>,
    /// Quorum reads this node is coordinating, keyed by poll token. `BTreeMap`
    /// because the timeout sweep iterates it while emitting replies/repairs.
    pending_quorum_reads: BTreeMap<u64, QuorumRead>,
    /// Claimed leases whose renewal found a conflicting record; the embedding
    /// agent drains this and re-allocates.
    lost_leases: VecDeque<Address>,
    pending_links: BTreeMap<u64, PendingLink>,
    /// Fast dead-edge detection (see [`crate::monitor`]).
    monitor: LinkMonitor,
    /// Instant of the next anti-entropy sweep; `None` until the first tick
    /// draws a random initial offset (so a fleet started together does not
    /// sweep in lockstep).
    next_sweep: Option<SimTime>,
    /// True once this node ever held an established edge — an isolated node
    /// that *had* peers must not self-acknowledge quorum writes against a
    /// copy set of one (see [`OverlayNode::commit_create`]).
    ever_connected: bool,
    /// When the bootstrap re-link heartbeat last fired.
    last_bootstrap_probe: SimTime,
    /// Established-peer snapshot of the last re-replication scan; the scan
    /// only reruns when this set changes (new records and refresh puts
    /// replicate immediately on the store path instead).
    last_replica_peers: Vec<Address>,
    /// Neighbour candidates learned from gossip: address → endpoint. Ordered so
    /// candidate scans (which emit hellos) are deterministic across runs.
    candidates: BTreeMap<Address, Endpoint>,
    /// Topics this node subscribes to, keyed by topic key. `BTreeMap` so the
    /// renewal scan emits subscribes in a deterministic order.
    pubsub_subs: BTreeMap<Address, PubSubSubscription>,
    /// Topic keys this node has served as root for (merged a subscribe or
    /// rewrote the record). Scanned on dead-edge verdicts to prune the dead
    /// peer out of owned subscriber sets; entries fall away once the record
    /// is gone or owned elsewhere.
    pubsub_topics_seen: BTreeSet<Address>,
    /// Pub/sub messages delivered to this node: `(topic key, msg id, body)`.
    pubsub_inbox: VecDeque<(Address, u64, Bytes)>,
    /// Publishes awaiting root confirmation of fan-out, keyed by msg id; a
    /// retryable nack from a re-homing root schedules a re-route here.
    /// Bounded: the oldest entries are evicted past
    /// [`MAX_PENDING_PUBLISHES`].
    pending_publishes: BTreeMap<u64, PendingPublish>,
    /// Insertion order of `pending_publishes` for bounded eviction.
    publish_order: VecDeque<u64>,
    /// The virtual-stream engine (see [`crate::vstream`]).
    vstreams: VStreams,
    next_token: u64,
    rng: StreamRng,
    stats: OverlayStats,
    started: bool,
}

impl OverlayNode {
    /// Create a node (does not contact the network until [`OverlayNode::start`]).
    pub fn new(cfg: OverlayConfig, rng: StreamRng) -> Self {
        let advertised = vec![cfg.local_endpoint];
        OverlayNode {
            cfg,
            advertised,
            table: ConnectionTable::new(),
            outbox: Vec::new(),
            delivered: VecDeque::new(),
            dht: Box::new(SoftStateStore::new()),
            dht_replies: VecDeque::new(),
            dht_create_replies: VecDeque::new(),
            published: BTreeMap::new(),
            pending_creates: BTreeMap::new(),
            pending_quorum_creates: BTreeMap::new(),
            pending_quorum_reads: BTreeMap::new(),
            lost_leases: VecDeque::new(),
            pending_links: BTreeMap::new(),
            monitor: LinkMonitor::default(),
            next_sweep: None,
            ever_connected: false,
            last_bootstrap_probe: SimTime::ZERO,
            last_replica_peers: Vec::new(),
            candidates: BTreeMap::new(),
            pubsub_subs: BTreeMap::new(),
            pubsub_topics_seen: BTreeSet::new(),
            pubsub_inbox: VecDeque::new(),
            pending_publishes: BTreeMap::new(),
            publish_order: VecDeque::new(),
            vstreams: VStreams::new(),
            next_token: 1,
            rng,
            stats: OverlayStats::default(),
            started: false,
        }
    }

    /// This node's overlay address.
    pub fn address(&self) -> Address {
        self.cfg.address
    }

    /// The endpoints this node advertises (local plus NAT-observed).
    pub fn advertised_endpoints(&self) -> &[Endpoint] {
        &self.advertised
    }

    /// Routing statistics (the DHT gauges are sampled at call time).
    pub fn stats(&self) -> OverlayStats {
        let mut s = self.stats;
        s.dht_records = self.dht.len() as u64;
        s.dht_bytes = self.dht.stored_bytes() as u64;
        s.dht_replicas = self.dht.replicas_held() as u64;
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

    /// The node's configuration.
    pub fn config(&self) -> &OverlayConfig {
        &self.cfg
    }

    /// The connection table (read-only).
    pub fn connections(&self) -> &ConnectionTable {
        &self.table
    }

    /// True once at least one edge is established.
    pub fn is_connected(&self) -> bool {
        self.table.established().next().is_some()
    }

    /// Number of entries in the local DHT store.
    pub fn dht_stored(&self) -> usize {
        self.dht.len()
    }

    /// Borrow the local DHT store (read-only; for diagnostics and tests).
    pub fn dht_store(&self) -> &dyn DhtStore {
        self.dht.as_ref()
    }

    // ------------------------------------------------------------------ control

    /// Begin joining the overlay: contact the bootstrap endpoints.
    pub fn start(&mut self, now: SimTime) {
        self.started = true;
        for ep in self.cfg.bootstrap.clone() {
            self.send_hello(now, ep, ConnectionKind::Leaf);
        }
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
        debug_assert_ne!(peer, self.cfg.address, "cannot seed an edge to self");
        self.started = true;
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

    /// Gracefully leave: hand every stored DHT record off to the ring
    /// neighbours closest to its key, then tell every peer the edges are going
    /// away. Handoff runs before the Close messages so receivers still accept
    /// the records while the edges exist.
    pub fn leave(&mut self, now: SimTime) {
        // Withdraw our subscriptions while the routes still exist, so topic
        // roots stop fanning out to a node that is gone.
        let topics: Vec<Address> = self.pubsub_subs.keys().copied().collect();
        for topic in topics {
            self.pubsub_unsubscribe(now, topic);
        }
        let replication = self.cfg.dht.replication;
        for key in self.dht.keys() {
            let Some(rec) = self.dht.get(&key) else {
                continue;
            };
            if rec.expired(now) {
                continue;
            }
            let value = rec.value.clone();
            let ttl_ms = rec.remaining_ttl_ms(now);
            let version = rec.version;
            // Unconditionally push to the peers closest to the key (at least
            // one even with replication disabled): the nearest of them becomes
            // the key's owner once we are gone, and idempotent overwrites of
            // existing replicas are harmless.
            let targets = self.replica_targets(&key, replication.saturating_sub(1).max(1));
            for peer in targets {
                let payload = RoutedPayload::DhtReplicate {
                    key,
                    value: value.clone(),
                    ttl_ms,
                    version,
                    token: 0,
                };
                self.originate(now, peer, DeliveryMode::Exact, payload);
            }
            self.dht.remove(&key);
        }
        let peers: Vec<(Endpoint, Address)> =
            self.table.iter().map(|c| (c.endpoint, c.peer)).collect();
        for (ep, _peer) in peers {
            self.push_out(
                ep,
                LinkMessage::Close {
                    from: self.cfg.address,
                },
            );
        }
        self.started = false;
    }

    /// Messages queued for the physical transport: `(destination endpoint, message)`.
    pub fn take_outbox(&mut self) -> Vec<(Endpoint, LinkMessage)> {
        std::mem::take(&mut self.outbox)
    }

    /// Routed packets delivered to this node (IP tunnel payloads and the like).
    pub fn take_delivered(&mut self) -> Vec<RoutedPacket> {
        self.delivered.drain(..).collect()
    }

    /// Pub/sub messages delivered to this node: `(topic key, msg id, body)`.
    pub fn take_pubsub_delivered(&mut self) -> Vec<(Address, u64, Bytes)> {
        self.pubsub_inbox.drain(..).collect()
    }

    /// Completed DHT lookups: `(token, value)`.
    pub fn take_dht_replies(&mut self) -> Vec<(u64, Option<Bytes>)> {
        self.dht_replies.drain(..).collect()
    }

    /// Completed DHT creates: `(token, created, existing value on conflict)`.
    pub fn take_dht_create_replies(&mut self) -> Vec<(u64, bool, Option<Bytes>)> {
        self.dht_create_replies.drain(..).collect()
    }

    /// Keys of claimed leases this node lost: a TTL/2 renewal came back
    /// `created == false`, meaning a conflicting record owns the key (typical
    /// after a healed partition). The publication has already been dropped;
    /// the embedding agent re-allocates.
    pub fn take_lost_leases(&mut self) -> Vec<Address> {
        self.lost_leases.drain(..).collect()
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
        self.originate(now, dst, DeliveryMode::Exact, payload);
    }

    /// Store `value` at the node closest to `key` with the default TTL, and
    /// keep it alive: the record is registered locally and re-put at TTL/2
    /// until [`OverlayNode::dht_unpublish`] or [`OverlayNode::dht_remove`].
    pub fn dht_put(&mut self, now: SimTime, key: Address, value: impl Into<Bytes>) {
        let ttl = self.cfg.dht.default_ttl;
        self.dht_put_ttl(now, key, value, ttl);
    }

    /// [`OverlayNode::dht_put`] with an explicit soft-state TTL.
    pub fn dht_put_ttl(
        &mut self,
        now: SimTime,
        key: Address,
        value: impl Into<Bytes>,
        ttl: Duration,
    ) {
        let value = value.into();
        // Re-publishing a different value under the same key (a Brunet-ARP
        // mapping migrating to this host) bumps the version so the new value
        // supersedes the old one's replicas everywhere.
        let version = match self.published.get(&key) {
            Some(p) if p.value == value => p.version,
            Some(p) => (p.version + 1).max(Self::version_for(now)),
            None => Self::version_for(now),
        };
        self.published.insert(
            key,
            Publication {
                value: value.clone(),
                ttl,
                version,
                last_refresh: now,
                renew_with_create: false,
                renew_inflight: None,
            },
        );
        self.send_put(now, key, value, ttl, version);
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
        let value = value.into();
        let token = self.fresh_token();
        self.pending_creates.insert(
            token,
            PendingCreate {
                key,
                value: value.clone(),
                ttl,
                issued: now,
            },
        );
        let ttl_ms = ttl.as_nanos() / 1_000_000;
        let payload = RoutedPayload::DhtCreate {
            key,
            value,
            ttl_ms,
            token,
        };
        self.originate(now, key, DeliveryMode::Closest, payload);
        token
    }

    /// Request the value stored under `key`; the reply arrives via
    /// [`OverlayNode::take_dht_replies`] with the returned token.
    pub fn dht_get(&mut self, now: SimTime, key: Address) -> u64 {
        let token = self.fresh_token();
        let payload = RoutedPayload::DhtGet { key, token };
        self.originate(now, key, DeliveryMode::Closest, payload);
        token
    }

    /// Delete the record under `key` (lease release) and stop refreshing it.
    pub fn dht_remove(&mut self, now: SimTime, key: Address) {
        self.published.remove(&key);
        let payload = RoutedPayload::DhtRemove { key };
        self.originate(now, key, DeliveryMode::Closest, payload);
    }

    /// Stop refreshing the record under `key` without deleting it from the
    /// DHT (it ages out one TTL later).
    pub fn dht_unpublish(&mut self, key: &Address) {
        self.published.remove(key);
    }

    /// Abandon an outstanding [`OverlayNode::dht_create`]: a reply that
    /// arrives after this (e.g. delayed past the caller's claim timeout) is
    /// still surfaced, but no longer turns the claim into a refreshed
    /// publication this node would renew forever.
    pub fn dht_cancel_create(&mut self, token: u64) {
        self.pending_creates.remove(&token);
    }

    fn send_put(&mut self, now: SimTime, key: Address, value: Bytes, ttl: Duration, version: u64) {
        let ttl_ms = ttl.as_nanos() / 1_000_000;
        let payload = RoutedPayload::DhtPut {
            key,
            value,
            ttl_ms,
            version,
        };
        self.originate(now, key, DeliveryMode::Closest, payload);
    }

    // ------------------------------------------------------------------ pub/sub

    /// Subscribe to the topic at `topic` (see [`crate::pubsub::topic_key`])
    /// with soft-state lifetime `ttl`. The subscription is announced now and
    /// renewed at TTL/2 until [`OverlayNode::pubsub_unsubscribe`]; delivered
    /// messages arrive via [`OverlayNode::take_pubsub_delivered`].
    pub fn pubsub_subscribe(&mut self, now: SimTime, topic: Address, ttl: Duration) {
        self.pubsub_subs.insert(
            topic,
            PubSubSubscription {
                ttl,
                last_renew: now,
            },
        );
        self.send_subscribe(now, topic, ttl);
    }

    /// Leave the topic: stop renewing and ask the root to drop this node from
    /// the subscriber set immediately.
    pub fn pubsub_unsubscribe(&mut self, now: SimTime, topic: Address) {
        self.pubsub_subs.remove(&topic);
        let payload = RoutedPayload::PubSubUnsubscribe {
            topic,
            subscriber: self.cfg.address,
        };
        self.originate(now, topic, DeliveryMode::Closest, payload);
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
        let msg_id = self.rng.next_u64();
        let payload = payload.into();
        // Retain the message until the root either fans it out (no nack ever
        // comes back; the entry ages out of the bounded table) or nacks it
        // (re-home window: the retry re-routes to the key's current owner).
        self.pending_publishes.insert(
            msg_id,
            PendingPublish {
                topic,
                payload: payload.clone(),
                attempts: 0,
                retry_at: None,
            },
        );
        self.publish_order.push_back(msg_id);
        while self.pending_publishes.len() > MAX_PENDING_PUBLISHES {
            match self.publish_order.pop_front() {
                Some(old) => {
                    self.pending_publishes.remove(&old);
                }
                None => break,
            }
        }
        self.send_publish(now, topic, msg_id, payload);
        msg_id
    }

    /// Route one `PubSubPublish` frame towards the topic key's current owner.
    fn send_publish(&mut self, now: SimTime, topic: Address, msg_id: u64, payload: Bytes) {
        let publish = RoutedPayload::PubSubPublish {
            topic,
            msg_id,
            payload,
        };
        self.originate(now, topic, DeliveryMode::Closest, publish);
    }

    /// A topic root nacked one of our publishes (it had no subscriber-set
    /// record — typically mid-re-home). Schedule a backed-off retry; after
    /// [`MAX_PUBLISH_RETRIES`] the publish is abandoned and counted.
    fn on_pubsub_nack(&mut self, now: SimTime, msg_id: u64) {
        let Some(p) = self.pending_publishes.get_mut(&msg_id) else {
            return; // evicted, already failed, or not ours
        };
        self.stats.pubsub_nacks_received += 1;
        if p.attempts >= MAX_PUBLISH_RETRIES {
            self.pending_publishes.remove(&msg_id);
            self.publish_order.retain(|id| *id != msg_id);
            self.stats.pubsub_publish_failures += 1;
            return;
        }
        let backoff = Duration::from_nanos(PUBLISH_RETRY_BACKOFF.as_nanos() << p.attempts.min(4));
        p.retry_at = Some(now + backoff);
    }

    fn send_subscribe(&mut self, now: SimTime, topic: Address, ttl: Duration) {
        let ttl_ms = ttl.as_nanos() / 1_000_000;
        let payload = RoutedPayload::PubSubSubscribe {
            topic,
            subscriber: self.cfg.address,
            ttl_ms,
        };
        self.originate(now, topic, DeliveryMode::Closest, payload);
    }

    /// Root-side view of a topic record: the live (unexpired) subscriber
    /// entries, in ring order. Missing, expired or undecodable records read
    /// as empty.
    fn pubsub_live_entries(&self, now: SimTime, topic: &Address) -> Vec<(Address, u64)> {
        let now_ms = now.as_nanos() / 1_000_000;
        let Some(rec) = self.dht.get(topic).filter(|rec| !rec.expired(now)) else {
            return Vec::new();
        };
        let Ok(mut entries) = decode_subscriber_set(&rec.value) else {
            return Vec::new();
        };
        entries.retain(|(_, expires_ms)| *expires_ms > now_ms);
        entries
    }

    /// Root-side rewrite of a topic record after a membership change. An
    /// empty set deletes the record (propagating the removal to replicas,
    /// like a `DhtRemove`); otherwise the record is re-stored strictly above
    /// the previous version — so replicas accept the rewrite — with a TTL
    /// covering the longest-lived entry, and re-replicated.
    fn pubsub_store_entries(&mut self, now: SimTime, topic: Address, entries: &[(Address, u64)]) {
        if entries.is_empty() {
            self.pubsub_topics_seen.remove(&topic);
            if let Some(rec) = self.dht.remove(&topic) {
                for peer in rec.replicated_to {
                    let payload = RoutedPayload::DhtRemove { key: topic };
                    self.originate(now, peer, DeliveryMode::Exact, payload);
                }
            }
            return;
        }
        let now_ms = now.as_nanos() / 1_000_000;
        let ttl_ms = entries
            .iter()
            .map(|(_, expires_ms)| expires_ms.saturating_sub(now_ms))
            .max()
            .unwrap_or(1)
            .max(1);
        let version = match self.dht.get(&topic).filter(|rec| !rec.expired(now)) {
            Some(rec) => (rec.version + 1).max(Self::version_for(now)),
            None => Self::version_for(now),
        };
        self.pubsub_topics_seen.insert(topic);
        let value = encode_subscriber_set(entries);
        self.store_record(now, topic, value.clone(), ttl_ms, false, version);
        // Push the rewrite through the quorum create path — the same conflict
        // rules as DHCP lease claims — instead of fire-and-forget
        // replication. During a root re-home the *old* root's replicas may
        // hold the new root's fresher record; their `stored: false` acks
        // starve the quorum and the stale rewrite is withdrawn (from this
        // store and any replica that took it) rather than resurrected as a
        // ghost subscriber set. The sentinel token suppresses the
        // `DhtCreateReply` no caller is waiting for.
        self.commit_create(
            now,
            topic,
            value,
            ttl_ms,
            version,
            INTERNAL_QUORUM_TOKEN,
            self.cfg.address,
            None,
        );
    }

    /// Send one relay-tree level: split `recipients` into at most
    /// `pubsub_fanout` chunks and deliver to each chunk head, delegating the
    /// rest of its chunk. The body `Bytes` is shared across every copy — the
    /// fan-out never re-encodes or re-copies the message itself.
    fn pubsub_fan_out(
        &mut self,
        now: SimTime,
        topic: Address,
        msg_id: u64,
        payload: &Bytes,
        recipients: &[Address],
    ) {
        for (head, relay_to) in plan_fanout(recipients, self.cfg.pubsub_fanout) {
            self.stats.pubsub_fanout_sent += 1;
            let deliver = RoutedPayload::PubSubDeliver {
                topic,
                msg_id,
                relay_to,
                payload: payload.clone(),
            };
            self.originate(now, head, DeliveryMode::Exact, deliver);
        }
    }

    /// Renew soft-state subscriptions at TTL/2 (run from the maintenance
    /// tick). The re-sent subscribe also re-homes the subscription after a
    /// root crash: it routes to whichever node owns the topic key *now*.
    fn pubsub_tick(&mut self, now: SimTime) {
        let due: Vec<(Address, Duration)> = self
            .pubsub_subs
            .iter()
            .filter(|(_, s)| now.saturating_since(s.last_renew) >= s.ttl / 2)
            .map(|(topic, s)| (*topic, s.ttl))
            .collect();
        for (topic, ttl) in due {
            if let Some(s) = self.pubsub_subs.get_mut(&topic) {
                s.last_renew = now;
            }
            self.send_subscribe(now, topic, ttl);
        }
        // Nacked publishes whose backoff elapsed re-route to whoever owns
        // the topic key now.
        let retries: Vec<(u64, Address, Bytes)> = self
            .pending_publishes
            .iter()
            .filter(|(_, p)| p.retry_at.is_some_and(|t| t <= now))
            .map(|(id, p)| (*id, p.topic, p.payload.clone()))
            .collect();
        for (msg_id, topic, payload) in retries {
            if let Some(p) = self.pending_publishes.get_mut(&msg_id) {
                p.attempts += 1;
                p.retry_at = None;
            }
            self.stats.pubsub_publish_retries += 1;
            self.send_publish(now, topic, msg_id, payload);
        }
    }

    /// Receipt-driven cleanup: when the link monitor declares `peer` dead,
    /// drop it from every owned topic record so subsequent publishes stop
    /// fanning out to it — TTL expiry would take half a subscription lifetime
    /// to do the same.
    fn pubsub_prune_subscriber(&mut self, now: SimTime, peer: Address) {
        let topics: Vec<Address> = self.pubsub_topics_seen.iter().copied().collect();
        for topic in topics {
            if self
                .dht
                .get(&topic)
                .filter(|rec| !rec.expired(now))
                .is_none()
            {
                // Record gone (last subscriber left, or aged out): stop
                // scanning this topic on future verdicts.
                self.pubsub_topics_seen.remove(&topic);
                continue;
            }
            if !self.owns_key(&topic) {
                continue;
            }
            let mut entries = self.pubsub_live_entries(now, &topic);
            let before = entries.len();
            entries.retain(|(addr, _)| *addr != peer);
            if entries.len() != before {
                self.stats.pubsub_pruned += 1;
                self.pubsub_store_entries(now, topic, &entries);
            }
        }
    }

    // ---------------------------------------------------------- virtual streams

    /// Open a virtual stream to `remote` and return its id. The stream id
    /// carries an address-order parity bit so simultaneous opens in both
    /// directions can never collide in the peer's `(remote, id)` table.
    pub fn stream_connect(&mut self, now: SimTime, remote: Address) -> u64 {
        let parity = u64::from(self.cfg.address > remote);
        let stream_id = (self.fresh_token() << 1) | parity;
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
            self.originate(now, remote, DeliveryMode::Exact, payload);
        }
    }

    // ------------------------------------------------------------------- intake

    /// Process a link message received from physical endpoint `from`.
    pub fn on_message(&mut self, now: SimTime, from: Endpoint, msg: LinkMessage) {
        if !self.started {
            // Not yet started, or gracefully departed: the node is not part of
            // the overlay and must not answer handshakes or route traffic.
            return;
        }
        self.stats.link_rx += 1;
        if let Some(peer) = msg.sender() {
            self.table.note_heard(&peer, now, from);
        }
        match msg {
            LinkMessage::Hello {
                from: peer,
                kind,
                observed,
                token,
            } => {
                self.learn_observed(observed);
                if peer != self.cfg.address {
                    let merged = self.merged_kind(&peer, kind);
                    self.table.upsert(Connection {
                        peer,
                        endpoint: from,
                        kind: merged,
                        state: ConnectionState::Established,
                        last_heard: now,
                        last_ping_sent: now,
                    });
                    self.ever_connected = true;
                    let ack = LinkMessage::HelloAck {
                        from: self.cfg.address,
                        kind,
                        observed: from,
                        token,
                    };
                    self.push_out(from, ack);
                }
            }
            LinkMessage::HelloAck {
                from: peer,
                kind,
                observed,
                token,
            } => {
                self.learn_observed(observed);
                self.pending_links.remove(&token);
                if peer != self.cfg.address {
                    let merged = self.merged_kind(&peer, kind);
                    self.table.upsert(Connection {
                        peer,
                        endpoint: from,
                        kind: merged,
                        state: ConnectionState::Established,
                        last_heard: now,
                        last_ping_sent: now,
                    });
                    self.ever_connected = true;
                }
            }
            LinkMessage::Ping { from: peer, nonce } => {
                self.push_out(
                    from,
                    LinkMessage::Pong {
                        from: self.cfg.address,
                        nonce,
                    },
                );
                let _ = peer;
            }
            LinkMessage::Pong { .. } => {
                // last_heard already updated above.
            }
            LinkMessage::Probe { from: peer, nonce } => {
                self.push_out(
                    from,
                    LinkMessage::ProbeAck {
                        from: self.cfg.address,
                        nonce,
                    },
                );
                let _ = peer;
            }
            LinkMessage::ProbeAck { from: peer, nonce } => {
                self.monitor.on_ack(now, peer, nonce);
            }
            LinkMessage::Close { from: peer } => {
                self.table.remove(&peer);
                self.candidates.remove(&peer);
                self.monitor.forget(&peer);
            }
            LinkMessage::Routed(pkt) => {
                self.route(now, pkt);
            }
            LinkMessage::Neighbors { from: _, neighbors } => {
                for (addr, ep) in neighbors {
                    self.add_candidate(addr, ep);
                }
            }
        }
    }

    /// Periodic maintenance: bootstrap retries, ring repair, shortcut formation,
    /// keep-alives and dead-edge removal. The embedding agent should call this every
    /// [`OverlayConfig::maintenance_interval`].
    pub fn on_tick(&mut self, now: SimTime) {
        if !self.started {
            return;
        }
        // 1. Bootstrap (or re-bootstrap after losing every edge) — and the
        //    re-link heartbeat: a node whose edges to every bootstrap
        //    endpoint are gone re-hellos them periodically even while it has
        //    other edges. A partitioned sub-ring scrubs all knowledge of the
        //    other side in seconds (fast dead-edge detection), so this is
        //    the path that re-merges the rings once the partition heals.
        let relink_due = !self.cfg.bootstrap.is_empty()
            && now.saturating_since(self.last_bootstrap_probe) >= self.cfg.bootstrap_retry_interval
            && !self
                .table
                .established()
                .any(|c| self.cfg.bootstrap.contains(&c.endpoint));
        if self.table.is_empty() || relink_due {
            self.last_bootstrap_probe = now;
            for ep in self.cfg.bootstrap.clone() {
                self.send_hello(now, ep, ConnectionKind::Leaf);
            }
        }
        // 2. Ring repair: request a connection to the node nearest ourselves, and
        //    link towards any gossip candidate that improves our neighbour set.
        self.request_near_connections(now);
        // 2b. Reclassify Near edges that fell outside the near set: connect
        //     requests issued while the ring is still converging terminate at
        //     whatever node is closest within a tiny connected component, so
        //     early hubs accumulate dozens of symmetric "Near" edges to
        //     distant peers. Those edges are, in truth, far links — counting
        //     them against the shortcut budget (instead of leaving the near
        //     count inflated forever) is what lets the far budget fill.
        self.reclassify_near_edges();
        // 3. Shortcuts.
        if self.cfg.shortcuts_enabled
            && self.table.count_kind(ConnectionKind::Far) < self.cfg.max_shortcuts
            && self.table.established_addrs().len() >= 2
        {
            self.request_shortcut(now);
        }
        // 4. Keep-alive and expiry — plus fast dead-edge detection.
        self.run_keepalive(now);
        if self.cfg.link_monitor {
            self.run_link_monitor(now);
        }
        // 5. Drop stale pending links.
        let timeout = self.cfg.connection_timeout;
        self.pending_links
            .retain(|_, p| now.saturating_since(p.started) < timeout);
        // 6. DHT soft-state maintenance: expiry, lease renewal, re-replication.
        self.dht_tick(now);
        // 6b. Pub/sub soft state: renew this node's subscriptions at TTL/2
        //     (the renewal also re-homes them after a topic-root crash) and
        //     re-route nacked publishes whose backoff elapsed.
        self.pubsub_tick(now);
        // 6c. Virtual streams: the RTO sweep rides the same maintenance
        //     alarm as every other deterministic timer.
        self.vstreams.tick(now);
        self.flush_streams(now);
        // 7. Gossip our neighbour view to every established peer: ring
        //    neighbours on both sides plus a random sample, so knowledge of a
        //    node spreads along the ring and the near sets can converge.
        self.gossip_neighbors();
        if self.candidates.len() > 64 {
            self.candidates.clear();
        }
    }

    /// Send each established peer a sample of our connection table: our near
    /// neighbours on both sides plus up to two random other peers.
    fn gossip_neighbors(&mut self) {
        let me = self.cfg.address;
        // The near view is taken here, not handed down from the top of the
        // tick: keep-alive expiry and the link monitor drop edges in between.
        let mut sample: Vec<(Address, Endpoint)> =
            Vec::with_capacity(2 * self.cfg.near_per_side + 2);
        sample.extend(
            self.table
                .near_view(&me, self.cfg.near_per_side)
                .map(|c| (c.peer, c.endpoint)),
        );
        // The shuffle draws once per element, so it sees every other peer
        // even though only two survive.
        let mut others: Vec<(Address, Endpoint)> = self
            .table
            .established()
            .map(|c| (c.peer, c.endpoint))
            .filter(|(a, _)| !sample.iter().any(|(s, _)| s == a))
            .collect();
        self.rng.shuffle(&mut others);
        sample.extend(others.into_iter().take(2));
        sample.sort_by_key(|(a, _)| *a);
        if sample.is_empty() {
            return;
        }
        self.outbox.reserve(self.table.established_addrs().len());
        for c in self.table.established() {
            let mut neighbors = Vec::with_capacity(sample.len());
            neighbors.extend(sample.iter().copied().filter(|(a, _)| *a != c.peer));
            if neighbors.is_empty() {
                continue;
            }
            // `push_out`, spelled out: the table is borrowed by the loop.
            self.stats.link_tx += 1;
            let msg = LinkMessage::Neighbors {
                from: me,
                neighbors,
            };
            self.outbox.push((c.endpoint, msg));
        }
    }

    // ----------------------------------------------------------------- routing

    /// A packet this node originates, counted.
    fn originated(
        &mut self,
        dst: Address,
        mode: DeliveryMode,
        payload: RoutedPayload,
    ) -> RoutedPacket {
        self.stats.originated += 1;
        RoutedPacket::new(self.cfg.address, dst, mode, payload)
    }

    /// Originate `payload` towards `dst`: the one entry point through which
    /// this node's own traffic — and every component's `(dst, payload)`
    /// output — enters routing.
    fn originate(
        &mut self,
        now: SimTime,
        dst: Address,
        mode: DeliveryMode,
        payload: RoutedPayload,
    ) {
        let pkt = self.originated(dst, mode, payload);
        self.route(now, pkt);
    }

    fn route(&mut self, now: SimTime, mut pkt: RoutedPacket) {
        // Connect traffic advertises reachable endpoints: every node on the
        // routing path learns the initiator/responder as a neighbour candidate,
        // which is what lets the near sets converge without a separate gossip
        // exchange. A connect request routed toward the initiator's own address
        // must also never be handed back to the initiator itself — it has to
        // terminate at the nearest *other* node.
        // Prefer the *last* advertised endpoint: a node lists its local address
        // first and NAT-observed translations after it, and only the translated
        // address is reachable from outside the sender's site.
        let exclude = match &pkt.payload {
            RoutedPayload::ConnectRequest {
                initiator,
                endpoints,
                ..
            } => {
                if let Some(ep) = endpoints.last() {
                    self.add_candidate(*initiator, *ep);
                }
                Some(*initiator)
            }
            RoutedPayload::ConnectResponse {
                responder,
                endpoints,
                ..
            } => {
                if let Some(ep) = endpoints.last() {
                    self.add_candidate(*responder, *ep);
                }
                None
            }
            _ => None,
        };
        // Origination (a forwarded packet always arrives with `hops >= 1`):
        // stamp this node's configured hop budget.
        if pkt.hops == 0 {
            pkt.ttl = self.cfg.packet_ttl;
        }
        let my_dist = self.cfg.address.ring_distance(&pkt.dst);
        let next = self
            .table
            .closest_to_excluding(&pkt.dst, exclude.as_ref())
            .map(|c| (c.peer, c.endpoint, c.peer.ring_distance(&pkt.dst)));
        match next {
            Some((_, endpoint, dist)) if dist < my_dist => {
                if pkt.hops >= pkt.ttl {
                    self.stats.dropped_ttl += 1;
                    return;
                }
                pkt.hops += 1;
                self.push_out(endpoint, LinkMessage::Routed(pkt));
                self.stats.forwarded += 1;
            }
            _ => self.deliver_local(now, pkt),
        }
    }

    fn deliver_local(&mut self, now: SimTime, pkt: RoutedPacket) {
        match pkt.mode {
            DeliveryMode::Exact if pkt.dst != self.cfg.address => {
                // We are the closest node but not the intended target. For
                // connect housekeeping this is routine (the response can race
                // the edge it is about to create); for application payloads it
                // means the destination is not in the overlay at all.
                match &pkt.payload {
                    RoutedPayload::ConnectRequest { .. }
                    | RoutedPayload::ConnectResponse { .. } => {
                        self.stats.dropped_maintenance += 1;
                    }
                    RoutedPayload::PubSubDeliver {
                        topic,
                        msg_id,
                        relay_to,
                        payload,
                    } if !relay_to.is_empty() => {
                        // The chunk head left the ring between fan-out
                        // planning and delivery. This node — the closest
                        // remaining one — salvages the delegation so the
                        // rest of the chunk still gets the message; only
                        // the departed head's own copy is lost.
                        self.stats.dropped_no_target += 1;
                        self.stats.pubsub_salvaged += 1;
                        let (topic, msg_id, payload) = (*topic, *msg_id, payload.clone());
                        let relay_to = relay_to.clone();
                        self.pubsub_fan_out(now, topic, msg_id, &payload, &relay_to);
                    }
                    _ => self.stats.dropped_no_target += 1,
                }
                return;
            }
            _ => {}
        }
        self.stats.delivered += 1;
        match &pkt.payload {
            RoutedPayload::ConnectRequest {
                token,
                initiator,
                kind,
                endpoints,
            } => {
                if *initiator == self.cfg.address {
                    return; // our own request came back around the ring
                }
                // Answer with a routed response carrying our endpoints, and
                // simultaneously hole-punch towards the initiator's endpoints.
                let kind = *kind;
                let eps = endpoints.clone();
                let payload = RoutedPayload::ConnectResponse {
                    token: *token,
                    responder: self.cfg.address,
                    endpoints: self.advertised.clone(),
                };
                self.originate(now, *initiator, DeliveryMode::Exact, payload);
                for ep in eps {
                    self.send_hello(now, ep, kind);
                }
            }
            RoutedPayload::ConnectResponse {
                token,
                responder,
                endpoints,
            } => {
                if *responder == self.cfg.address {
                    return;
                }
                // Only act while the request is still pending. The responder
                // hellos our endpoints directly as well, and those usually win
                // the race: the HelloAck consumes the token. Falling back to
                // `Near` here re-helloed every completed *shortcut* as Near,
                // promoting the fresh Far edge on both ends — heavily-chosen
                // responders snowballed into full Near meshes and their far
                // budget could never fill.
                let Some(kind) = self.pending_links.get(token).map(|p| p.kind) else {
                    return;
                };
                for ep in endpoints.clone() {
                    self.send_hello(now, ep, kind);
                }
            }
            RoutedPayload::DhtPut {
                key,
                value,
                ttl_ms,
                version,
            } => {
                let key = *key;
                // Put is publisher-authoritative (last-writer-wins): the
                // stored version ends up at least the incoming one and
                // strictly above any conflicting record being replaced, so
                // the new value supersedes stale replicas everywhere.
                let stored_version = match self.dht.get(&key).filter(|rec| !rec.expired(now)) {
                    // No local copy does NOT mean no conflicting copy: ring
                    // churn can make a fresh node the key's owner while old
                    // replicas still hold higher-versioned records. Flooring
                    // at the time-derived version keeps this write above any
                    // copy written earlier.
                    None => (*version).max(Self::version_for(now)),
                    Some(e) if e.value == *value => e.version.max(*version),
                    Some(e) if *version > e.version => *version,
                    Some(e) => e.version + 1,
                };
                self.store_record(now, key, value.clone(), *ttl_ms, false, stored_version);
                self.replicate_key(now, key);
            }
            RoutedPayload::DhtGet { key, token } => {
                self.handle_dht_get(now, *key, *token, pkt.src);
            }
            RoutedPayload::DhtReply { token, value } => {
                self.dht_replies.push_back((*token, value.clone()));
            }
            RoutedPayload::DhtCreate {
                key,
                value,
                ttl_ms,
                token,
            } => {
                self.handle_dht_create(now, *key, value.clone(), *ttl_ms, *token, pkt.src);
            }
            RoutedPayload::DhtCreateReply {
                token,
                created,
                existing,
            } => {
                if self.on_renewal_reply(now, *token, *created, existing.as_ref()) {
                    // Internal lease-renewal traffic; not surfaced to callers.
                    return;
                }
                if let Some(claim) = self.pending_creates.remove(token) {
                    if *created {
                        // The claim succeeded: this node now owns the record
                        // and keeps it alive like any other publication —
                        // renewing with create so a conflicting winner (e.g.
                        // after a healed partition) is detected, not clobbered.
                        self.published.insert(
                            claim.key,
                            Publication {
                                value: claim.value,
                                ttl: claim.ttl,
                                version: 1,
                                last_refresh: now,
                                renew_with_create: true,
                                renew_inflight: None,
                            },
                        );
                    }
                }
                self.dht_create_replies
                    .push_back((*token, *created, existing.clone()));
            }
            RoutedPayload::DhtReplicate {
                key,
                value,
                ttl_ms,
                version,
                token,
            } => {
                // Never let a stale copy clobber a fresher one: the existing
                // record survives when it outranks the incoming push.
                apply_record_copy(self.dht.as_mut(), *key, value, *ttl_ms, *version, true, now);
                if *token != 0 {
                    // `stored` only when this node now holds a live record
                    // with the pushed value; keeping a fresher *conflicting*
                    // record must not help a claim reach its write quorum.
                    let stored = self
                        .dht
                        .get(key)
                        .filter(|rec| !rec.expired(now))
                        .is_some_and(|rec| rec.value == *value);
                    let payload = RoutedPayload::DhtReplicateAck {
                        token: *token,
                        stored,
                    };
                    self.originate(now, pkt.src, DeliveryMode::Exact, payload);
                }
            }
            RoutedPayload::DhtReplicateAck { token, stored } => {
                if !*stored {
                    // The replica kept a conflicting record; the claim can
                    // only conclude via the quorum timeout (and fail).
                    return;
                }
                let quorum_reached = match self.pending_quorum_creates.get_mut(token) {
                    Some(qc) => {
                        qc.acks += 1;
                        qc.acks >= qc.acks_needed
                    }
                    None => false,
                };
                if quorum_reached {
                    if let Some(qc) = self.pending_quorum_creates.remove(token) {
                        // A renewal extends the local expiry only now that a
                        // majority holds the extended record — a failed one
                        // must leave the pre-renewal expiry in place.
                        if let Some(t) = qc.extends_to {
                            if let Some(rec) = self
                                .dht
                                .get_mut(&qc.key)
                                .filter(|rec| rec.value == qc.value)
                            {
                                rec.expires_at = rec.expires_at.max(t);
                            }
                        }
                        self.send_create_reply(now, qc.origin, qc.origin_token, true, None);
                    }
                }
            }
            RoutedPayload::DhtGetReplica { key, token } => {
                let copy = self
                    .dht
                    .get(key)
                    .filter(|rec| !rec.expired(now))
                    .map(|rec| (rec.value.clone(), rec.version, rec.remaining_ttl_ms(now)));
                let payload = RoutedPayload::DhtReplicaValue {
                    token: *token,
                    copy,
                };
                self.originate(now, pkt.src, DeliveryMode::Exact, payload);
            }
            RoutedPayload::DhtReplicaValue { token, copy } => {
                if let Some(read) = self.pending_quorum_reads.get_mut(token) {
                    let copy = copy.as_ref().map(|(value, version, ttl_ms)| DhtRecord {
                        value: value.clone(),
                        expires_at: wire_expiry(now, *ttl_ms),
                        version: *version,
                        replica: true,
                        replicated_to: Vec::new(),
                    });
                    read.responses.push((pkt.src, copy));
                    // Conclude on a majority only once a live copy is in sight
                    // (ours or a reply's): a record-less replica answering
                    // fastest must not turn a live record into a miss — that
                    // would also skip the repair that fixes the gap. With no
                    // live copy anywhere, wait for every poll (or the
                    // timeout) before answering None.
                    let key = read.key;
                    let quorum = read.responses.len() >= read.replies_needed;
                    let all_in = read.responses.len() >= read.polled;
                    let any_live = read.responses.iter().any(|(_, c)| c.is_some());
                    let own_live = self.dht.get(&key).is_some_and(|rec| !rec.expired(now));
                    if all_in || (quorum && (any_live || own_live)) {
                        self.conclude_quorum_read(now, *token);
                    }
                }
            }
            RoutedPayload::DhtRemove { key } => {
                if let Some(rec) = self.dht.remove(key) {
                    // Propagate the removal to the replicas we pushed.
                    for peer in rec.replicated_to {
                        let payload = RoutedPayload::DhtRemove { key: *key };
                        self.originate(now, peer, DeliveryMode::Exact, payload);
                    }
                }
            }
            RoutedPayload::DhtWithdraw {
                key,
                value,
                version,
            } => {
                // Conditional removal: drop our copy only when it still holds
                // the withdrawn value at the withdrawn version — a fresher
                // conflicting record stays, and so does the same claimant's
                // *re-claimed* (newer) record when the withdraw was delayed
                // past the retry.
                if self
                    .dht
                    .get(key)
                    .is_some_and(|rec| rec.value == *value && rec.version == *version)
                {
                    self.dht.remove(key);
                }
            }
            RoutedPayload::DhtSyncDigest {
                entries,
                from_owner,
            } => {
                let entries = entries.clone();
                self.handle_sync_digest(now, &entries, *from_owner, pkt.src);
            }
            RoutedPayload::DhtSyncPull { keys } => {
                let keys = keys.clone();
                self.handle_sync_pull(now, &keys, pkt.src);
            }
            RoutedPayload::IpTunnel(_) => {
                self.delivered.push_back(pkt);
            }
            RoutedPayload::PubSubSubscribe {
                topic,
                subscriber,
                ttl_ms,
            } => {
                // We own the topic key (Closest delivery): merge the
                // subscriber into the record, pruning entries whose soft
                // state already lapsed.
                let (topic, subscriber, ttl_ms) = (*topic, *subscriber, *ttl_ms);
                self.stats.pubsub_subscriptions += 1;
                let expires_ms = wire_expiry(now, ttl_ms).as_nanos() / 1_000_000;
                let mut entries = self.pubsub_live_entries(now, &topic);
                entries.retain(|(addr, _)| *addr != subscriber);
                entries.push((subscriber, expires_ms));
                entries.sort_by_key(|(addr, _)| *addr);
                self.pubsub_store_entries(now, topic, &entries);
            }
            RoutedPayload::PubSubUnsubscribe { topic, subscriber } => {
                let (topic, subscriber) = (*topic, *subscriber);
                let mut entries = self.pubsub_live_entries(now, &topic);
                let before = entries.len();
                entries.retain(|(addr, _)| *addr != subscriber);
                if entries.len() != before || entries.is_empty() {
                    self.pubsub_store_entries(now, topic, &entries);
                }
            }
            RoutedPayload::PubSubPublish {
                topic,
                msg_id,
                payload,
            } => {
                // Topic-root fan-out. The subscriber set is read in ring
                // order; if this node subscribes too it takes its copy
                // directly instead of sending itself a Deliver.
                let (topic, msg_id, payload) = (*topic, *msg_id, payload.clone());
                if self
                    .dht
                    .get(&topic)
                    .filter(|rec| !rec.expired(now))
                    .is_none()
                {
                    // No subscriber-set record here. Either the topic truly
                    // has no subscribers, or this root is mid-re-home and the
                    // record has not migrated yet. Dropping silently loses
                    // the message in the second case — answer a retryable
                    // nack so the publisher re-routes (the retry lands after
                    // the ring repairs and reaches whoever owns the key by
                    // then).
                    self.stats.pubsub_nacks_sent += 1;
                    let payload = RoutedPayload::PubSubNack { topic, msg_id };
                    self.originate(now, pkt.src, DeliveryMode::Exact, payload);
                    return;
                }
                self.stats.pubsub_publishes += 1;
                let mut recipients: Vec<Address> = self
                    .pubsub_live_entries(now, &topic)
                    .into_iter()
                    .map(|(addr, _)| addr)
                    .collect();
                if let Some(at) = recipients.iter().position(|a| *a == self.cfg.address) {
                    recipients.remove(at);
                    self.stats.pubsub_delivered += 1;
                    self.pubsub_inbox
                        .push_back((topic, msg_id, payload.clone()));
                }
                self.pubsub_fan_out(now, topic, msg_id, &payload, &recipients);
            }
            RoutedPayload::PubSubDeliver {
                topic,
                msg_id,
                relay_to,
                payload,
            } => {
                let (topic, msg_id, payload) = (*topic, *msg_id, payload.clone());
                let relay_to = relay_to.clone();
                self.stats.pubsub_delivered += 1;
                self.pubsub_inbox
                    .push_back((topic, msg_id, payload.clone()));
                if !relay_to.is_empty() {
                    // Delegated chunk: re-apply the bounded split one tree
                    // level down, sharing the same body bytes.
                    self.stats.pubsub_relayed += 1;
                    self.pubsub_fan_out(now, topic, msg_id, &payload, &relay_to);
                }
            }
            RoutedPayload::PubSubNack { msg_id, .. } => {
                let msg_id = *msg_id;
                self.on_pubsub_nack(now, msg_id);
            }
            RoutedPayload::StreamSyn { .. }
            | RoutedPayload::StreamSynAck { .. }
            | RoutedPayload::StreamData { .. }
            | RoutedPayload::StreamAck { .. }
            | RoutedPayload::StreamFin { .. } => {
                self.vstreams.on_payload(now, pkt.src, &pkt.payload);
                self.flush_streams(now);
            }
        }
    }

    // -------------------------------------------------------------- maintenance

    fn request_near_connections(&mut self, now: SimTime) {
        // (a) Routed request addressed to our own address in Closest mode: the node
        //     nearest to us on the ring answers, giving us at least one true
        //     neighbour; repeated requests plus gossip converge the near set.
        if self.table.count_kind(ConnectionKind::Near) < 2 * self.cfg.near_per_side
            && self.is_connected()
        {
            let token = self.fresh_token();
            self.pending_links.insert(
                token,
                PendingLink {
                    kind: ConnectionKind::Near,
                    started: now,
                },
            );
            let mut pkt = self.originated(
                self.cfg.address,
                DeliveryMode::Closest,
                RoutedPayload::ConnectRequest {
                    token,
                    initiator: self.cfg.address,
                    kind: ConnectionKind::Near,
                    endpoints: self.advertised.clone(),
                },
            );
            // Send it through a random established edge so it is not delivered
            // straight back to ourselves.
            let pick = self.rng.index(self.table.established_addrs().len());
            if let Some(ep) = self.table.nth_established(pick).map(|c| c.endpoint) {
                pkt.hops += 1;
                self.push_out(ep, LinkMessage::Routed(pkt));
            }
        }
        // (b) Link towards gossip candidates that would improve the neighbour set.
        let picked = near_hello_targets(
            &self.table,
            &self.candidates,
            &self.cfg.address,
            self.cfg.near_per_side,
        );
        for (addr, ep) in picked {
            self.send_hello(now, ep, ConnectionKind::Near);
            // Consume the candidate: if the hello lands, the edge appears in
            // the table; if the peer is gone, gossip will not resurrect it
            // and we stop retrying a dead endpoint every tick.
            self.candidates.remove(&addr);
        }
    }

    /// Demote established `Near` edges that are not among the
    /// `near_per_side` nearest established peers on either side: they are far
    /// links in fact, and belong to the shortcut budget. Adjacency is decided
    /// purely from local state, so the classification is stable — unlike the
    /// old behaviour of trusting whatever kind the last handshake carried.
    fn reclassify_near_edges(&mut self) {
        let me = self.cfg.address;
        let near_view = || self.table.near_view(&me, self.cfg.near_per_side);
        let near_in_view = near_view()
            .filter(|c| c.kind == ConnectionKind::Near)
            .count();
        if near_in_view == self.table.count_kind(ConnectionKind::Near) {
            return; // every Near edge is a ring neighbour: the steady state
        }
        // Outside the near set, a Near label is a leftover from an
        // unconverged handshake: demote to Far. The reverse (a true ring
        // neighbour labelled Far) heals through the handshake path — the
        // candidate scan re-hellos it as Near and `merged_kind` promotes —
        // so ring repair keeps its "fewer Near edges than budget" trigger.
        let demote: Vec<Connection> = self
            .table
            .established()
            .filter(|c| c.kind == ConnectionKind::Near && !near_view().any(|n| n.peer == c.peer))
            .cloned()
            .collect();
        for mut conn in demote {
            conn.kind = ConnectionKind::Far;
            self.table.upsert(conn);
        }
    }

    /// Kind to record for an edge a handshake proposes as `proposed`: an
    /// existing edge keeps its classification unless the proposal outranks it
    /// (`Leaf < Far < Near`). Without this, a shortcut handshake landing on a
    /// current Near neighbour silently demoted it to Far — the near count
    /// dropped, ring repair re-requested the same neighbour, and both
    /// budgets were miscounted under load.
    fn merged_kind(&self, peer: &Address, proposed: ConnectionKind) -> ConnectionKind {
        fn rank(k: ConnectionKind) -> u8 {
            match k {
                ConnectionKind::Leaf => 0,
                ConnectionKind::Far => 1,
                ConnectionKind::Near => 2,
            }
        }
        match self.table.get(peer) {
            Some(existing) if rank(existing.kind) >= rank(proposed) => existing.kind,
            _ => proposed,
        }
    }

    /// Draw one Kleinberg shortcut offset: `d = 2^bits` with `bits` uniform in
    /// `[floor_bits, 160)` (log-uniform over ring distances) and an 8-bit
    /// mantissa so targets fall between the powers of two rather than on them.
    fn draw_shortcut_distance(&mut self, floor_bits: f64) -> Distance {
        let bits = floor_bits + self.rng.unit() * (160.0 - floor_bits);
        let exp = (bits as u32).min(159);
        // d = m << (exp - 8) with a 9-bit mantissa m ∈ [256, 512).
        let m = ((bits - exp as f64).exp2() * 256.0) as u64;
        let mut out = [0u8; 20];
        if exp < 8 {
            out[19] = 1u8 << exp;
        } else {
            let shift = exp - 8;
            let mut v = m << (shift % 8);
            let mut byte = 19 - (shift / 8) as usize;
            while v > 0 {
                out[byte] = (v & 0xFF) as u8;
                v >>= 8;
                if byte == 0 {
                    break;
                }
                byte -= 1;
            }
        }
        Distance(out)
    }

    fn request_shortcut(&mut self, now: SimTime) {
        // Kleinberg / Symphony harmonic distance: pick d = 2^(160·u) with u ∈ (0,1),
        // i.e. uniform in log-space, and connect to the node closest to self + d.
        //
        // Two degenerate draw classes only show up at scale and silently burn
        // the maintenance tick (pinning nodes below `max_shortcuts` for long
        // stretches):
        //  - d smaller than the gap to our nearest neighbour: the request
        //    terminates at a node we are already connected to;
        //  - d landing the target next to an existing Far peer: ditto.
        // So the log-space draw is floored just above the nearest-neighbour
        // gap, and draws whose locally-predicted responder is already a
        // connected peer adjacent to the target are redrawn (bounded).
        let me = self.cfg.address;
        let nearest = self.table.best_distance_to(&me);
        // Bit-length of the nearest-neighbour gap; draws below it are wasted.
        let floor_bits = (161 - nearest.leading_zero_bits()).min(156) as f64;
        let mut target = None;
        for _ in 0..8 {
            let d = self.draw_shortcut_distance(floor_bits);
            let t = me.add_distance(&d);
            let predicted = self
                .table
                .closest_to(&t)
                .map(|c| (c.peer, c.peer.ring_distance(&t)));
            match predicted {
                // The draw most likely terminates at an already-connected
                // peer (it sits within about one ring gap of the target):
                // retry in a different octave.
                Some((peer, pd)) if peer != me && pd <= nearest => {
                    self.stats.shortcut_redraws += 1;
                }
                _ => {
                    target = Some(t);
                    break;
                }
            }
        }
        let Some(target) = target else {
            // Every draw predicted an already-connected responder (the
            // prediction is local, but eight straight hits mean the table
            // already covers the draw range): skip the tick instead of
            // burning a routed request and a pending link on a duplicate.
            // Next tick redraws afresh.
            return;
        };
        let token = self.fresh_token();
        self.pending_links.insert(
            token,
            PendingLink {
                kind: ConnectionKind::Far,
                started: now,
            },
        );
        let payload = RoutedPayload::ConnectRequest {
            token,
            initiator: self.cfg.address,
            kind: ConnectionKind::Far,
            endpoints: self.advertised.clone(),
        };
        self.originate(now, target, DeliveryMode::Closest, payload);
    }

    fn run_keepalive(&mut self, now: SimTime) {
        let ping_interval = self.cfg.ping_interval;
        let timeout = self.cfg.connection_timeout;
        let me = self.cfg.address;
        let mut to_ping = Vec::new();
        let mut to_drop = Vec::new();
        for conn in self.table.iter() {
            if now.saturating_since(conn.last_heard) > timeout {
                to_drop.push(conn.peer);
            } else if now.saturating_since(conn.last_heard) > ping_interval
                && now.saturating_since(conn.last_ping_sent) > ping_interval
            {
                to_ping.push((conn.peer, conn.endpoint));
            }
            // Record every established peer (one about to be dropped
            // included) as a candidate we can gossip to others — seen by the
            // next tick's candidate scan, which has already run in this one.
            if conn.state == ConnectionState::Established {
                self.candidates.insert(conn.peer, conn.endpoint);
            }
        }
        for peer in to_drop {
            self.table.remove(&peer);
        }
        for (peer, ep) in to_ping {
            let nonce = self.rng.next_u64();
            self.push_out(ep, LinkMessage::Ping { from: me, nonce });
            self.table.note_ping_sent(&peer, now);
        }
    }

    // ------------------------------------------------------------- link monitor

    /// Account inbound traffic that failed to decode as a link message (the
    /// transport already dropped it; this surfaces the count in the stats).
    pub fn note_malformed(&mut self, count: u64) {
        self.stats.malformed_dropped += count;
    }

    /// Apply one [`LinkMonitor::run`] pass: drop the edges it declared dead,
    /// probe the ones it found silent.
    fn run_link_monitor(&mut self, now: SimTime) {
        let rule = if self.cfg.phi_accrual {
            DeathRule::Phi(self.cfg.phi_threshold)
        } else {
            DeathRule::Misses(self.cfg.probe_failure_limit)
        };
        let edges = self.table.established();
        let verdicts = self.monitor.run(
            now,
            edges.map(|c| (c.peer, c.endpoint, c.last_heard)),
            self.cfg.probe_interval,
            self.cfg.maintenance_interval,
            rule,
        );
        let me = self.cfg.address;
        for (peer, endpoint) in verdicts.dead {
            self.table.remove(&peer);
            self.candidates.remove(&peer);
            // Receipt-driven pub/sub cleanup: a dead peer stops receiving
            // fan-out immediately instead of aging out of topic records.
            self.pubsub_prune_subscriber(now, peer);
            // Tell the peer too: if the verdict was a false positive (probe
            // acks lost on a live link), a silent removal would leave a
            // half-open edge — this node answers the peer's probes forever
            // while never routing to it, and the two sides disagree on
            // ownership and replica sets indefinitely. The Close is simply
            // lost when the peer really is dead.
            self.push_out(endpoint, LinkMessage::Close { from: me });
        }
        for (peer, endpoint) in verdicts.probe {
            let nonce = self.rng.next_u64();
            self.monitor.arm(now, peer, nonce);
            self.push_out(endpoint, LinkMessage::Probe { from: me, nonce });
        }
    }

    // ------------------------------------------------------------ dht subsystem

    /// Insert a record into the local store. The replica bookkeeping starts
    /// empty, so an owner-path overwrite (a TTL/2 refresh put) re-pushes every
    /// replica with the renewed expiry — replicas are soft state too and
    /// would otherwise age out while the owner's copy stays fresh.
    fn store_record(
        &mut self,
        now: SimTime,
        key: Address,
        value: Bytes,
        ttl_ms: u64,
        replica: bool,
        version: u64,
    ) {
        let expires_at = wire_expiry(now, ttl_ms);
        self.dht.insert(
            key,
            DhtRecord {
                value,
                expires_at,
                version,
                replica,
                replicated_to: Vec::new(),
            },
        );
    }

    /// Majority size of a copy set with `copies` members (owner included):
    /// the number of stored copies a quorum operation requires.
    fn quorum_of(copies: usize) -> usize {
        copies / 2 + 1
    }

    /// Version assigned to a newly stored record: the virtual time in whole
    /// milliseconds (floored at 1). Time-derived versions stay globally
    /// monotone across writes, so a write accepted by an owner that never saw
    /// the key (ring churn handed it a record-less range) still orders above
    /// stale copies lingering on replicas — a plain counter would restart at
    /// 1 there and lose every quorum read to them.
    fn version_for(now: SimTime) -> u64 {
        (now.as_nanos() / 1_000_000).max(1)
    }

    /// Serve a `DhtGet` as the key's coordinator. With quorum reads enabled
    /// and a replica set to poll, the answer waits for a majority of the copy
    /// set; otherwise (single copy, no peers, quorum disabled) the local store
    /// answers alone, as before.
    fn handle_dht_get(&mut self, now: SimTime, key: Address, token: u64, origin: Address) {
        let targets = if self.cfg.dht.quorum && self.cfg.dht.replication > 1 {
            self.replica_targets(&key, self.cfg.dht.replication - 1)
        } else {
            Vec::new()
        };
        if targets.is_empty() {
            let value = self
                .dht
                .get(&key)
                .filter(|rec| !rec.expired(now))
                .map(|rec| rec.value.clone());
            let payload = RoutedPayload::DhtReply { token, value };
            self.originate(now, origin, DeliveryMode::Exact, payload);
            return;
        }
        let op = self.fresh_token();
        let replies_needed = Self::quorum_of(targets.len() + 1) - 1;
        for peer in &targets {
            let payload = RoutedPayload::DhtGetReplica { key, token: op };
            self.originate(now, *peer, DeliveryMode::Exact, payload);
        }
        self.pending_quorum_reads.insert(
            op,
            QuorumRead {
                origin,
                origin_token: token,
                key,
                polled: targets.len(),
                replies_needed,
                responses: Vec::new(),
                issued: now,
            },
        );
        self.stats.dht_quorum_reads += 1;
    }

    /// Conclude a quorum read: answer the origin with the freshest copy seen
    /// (local store included) and repair every copy that turned out stale or
    /// missing — on this node by storing and re-replicating the freshest
    /// record, on polled replicas by pushing it to them directly.
    fn conclude_quorum_read(&mut self, now: SimTime, op: u64) {
        let Some(read) = self.pending_quorum_reads.remove(&op) else {
            return;
        };
        let own: Option<DhtRecord> = self
            .dht
            .get(&read.key)
            .filter(|rec| !rec.expired(now))
            .cloned();
        let mut best = own.clone();
        for (_, copy) in &read.responses {
            let fresher = match (&best, copy) {
                (_, None) => false,
                (None, Some(_)) => true,
                (Some(b), Some(c)) => c.freshness() > b.freshness(),
            };
            if fresher {
                best = copy.clone();
            }
        }
        let payload = RoutedPayload::DhtReply {
            token: read.origin_token,
            value: best.as_ref().map(|c| c.value.clone()),
        };
        self.originate(now, read.origin, DeliveryMode::Exact, payload);
        let Some(best) = best else {
            return; // nothing live anywhere: nothing to repair with
        };
        // Repair decisions tolerate small expiry skew: a replica's expiry is
        // reconstructed from its remaining TTL and so arrives inflated by the
        // reply's transit time (plus rounding). Without slack every read of a
        // perfectly healthy record would "repair" all its in-sync copies.
        let materially_staler = |copy: &DhtRecord| {
            best.version > copy.version
                || best.value != copy.value
                || best.expires_at > copy.expires_at + READ_REPAIR_SLACK
        };
        let own_stale =
            own.is_none_or(|o| best.freshness() > o.freshness() && materially_staler(&o));
        if own_stale {
            // Adopt the freshest copy locally and push it back out through the
            // normal replication path (replicas keep their own copy when it is
            // already as fresh).
            let ttl_ms = best.remaining_ttl_ms(now);
            self.store_record(
                now,
                read.key,
                best.value.clone(),
                ttl_ms,
                false,
                best.version,
            );
            self.stats.dht_read_repairs += 1;
            self.replicate_key(now, read.key);
            return;
        }
        // Our copy was the freshest: push it to every polled replica that
        // answered with a materially stale or missing copy.
        let stale_peers: Vec<Address> = read
            .responses
            .iter()
            .filter(|(_, copy)| copy.as_ref().is_none_or(&materially_staler))
            .map(|(peer, _)| *peer)
            .collect();
        let ttl_ms = best.remaining_ttl_ms(now);
        for peer in stale_peers {
            self.stats.dht_read_repairs += 1;
            let payload = RoutedPayload::DhtReplicate {
                key: read.key,
                value: best.value.clone(),
                ttl_ms,
                version: best.version,
                token: 0,
            };
            self.originate(now, peer, DeliveryMode::Exact, payload);
        }
    }

    /// Serve a `DhtCreate` as the key's coordinator.
    ///
    /// * A live record with the *same* value is the claimant's own lease being
    ///   renewed: extend the expiry, refresh the replicas, answer `created`.
    /// * A live record with a different value is a conflict: answer
    ///   `!created` with the winner's value.
    /// * Otherwise store the record — and, with quorum writes enabled,
    ///   acknowledge only once a majority of the copy set holds it.
    fn handle_dht_create(
        &mut self,
        now: SimTime,
        key: Address,
        value: Bytes,
        ttl_ms: u64,
        token: u64,
        origin: Address,
    ) {
        // A claim still awaiting its write quorum is not committed: answer a
        // concurrent claim for the same key as retryable (`existing: None`)
        // rather than as a conflict — the pending claim may yet be withdrawn,
        // and a conflict reply would make the other claimant permanently
        // blacklist an address that ends up free.
        if self
            .pending_quorum_creates
            .values()
            .any(|qc| qc.key == key && qc.value != value)
        {
            let payload = RoutedPayload::DhtCreateReply {
                token,
                created: false,
                existing: None,
            };
            self.originate(now, origin, DeliveryMode::Exact, payload);
            return;
        }
        if let Some(existing) = self.dht.get(&key).filter(|rec| !rec.expired(now)) {
            if existing.value != value {
                let payload = RoutedPayload::DhtCreateReply {
                    token,
                    created: false,
                    existing: Some(existing.value.clone()),
                };
                self.originate(now, origin, DeliveryMode::Exact, payload);
                return;
            }
            // The claimant's own lease being renewed: acknowledge — and
            // extend the local expiry — only through the same write quorum
            // as a fresh claim. An owner partitioned from its replicas
            // extending and confirming renewals alone would keep serving a
            // lease whose every replica copy has expired.
            // Re-borrow mutably: the `if let` above proves the record exists.
            // If that invariant ever drifts, failing the renewal (claimant
            // retries via its renewal timeout) beats panicking the node.
            let Some(rec) = self.dht.get_mut(&key) else {
                return;
            };
            rec.replica = false;
            let version = rec.version;
            let extends_to = wire_expiry(now, ttl_ms);
            self.commit_create(
                now,
                key,
                value,
                ttl_ms,
                version,
                token,
                origin,
                Some(extends_to),
            );
            return;
        }
        let version = Self::version_for(now);
        self.store_record(now, key, value.clone(), ttl_ms, false, version);
        self.commit_create(now, key, value, ttl_ms, version, token, origin, None);
    }

    /// Send (or suppress) the `DhtCreateReply` concluding a create. Internal
    /// quorum writes — pub/sub root rewrites pushed through the same conflict
    /// rules as lease claims — carry [`INTERNAL_QUORUM_TOKEN`] with this
    /// node's own address as origin; their outcome is visible in the store
    /// itself, so no reply is emitted (and none could be matched: real
    /// tokens start at 1).
    fn send_create_reply(
        &mut self,
        now: SimTime,
        origin: Address,
        token: u64,
        created: bool,
        existing: Option<Bytes>,
    ) {
        if token == INTERNAL_QUORUM_TOKEN && origin == self.cfg.address {
            return;
        }
        let payload = RoutedPayload::DhtCreateReply {
            token,
            created,
            existing,
        };
        self.originate(now, origin, DeliveryMode::Exact, payload);
    }

    /// Commit a stored claim or renewal: push the record to the key's replica
    /// set with an ack token and answer `created` once a majority of the copy
    /// set holds it (immediately when the copy set is just this node).
    #[allow(clippy::too_many_arguments)]
    fn commit_create(
        &mut self,
        now: SimTime,
        key: Address,
        value: Bytes,
        ttl_ms: u64,
        version: u64,
        token: u64,
        origin: Address,
        extends_to: Option<SimTime>,
    ) {
        let targets = if self.cfg.dht.quorum && self.cfg.dht.replication > 1 {
            self.replica_targets(&key, self.cfg.dht.replication - 1)
        } else {
            Vec::new()
        };
        if targets.is_empty()
            && self.cfg.dht.quorum
            && self.cfg.dht.replication > 1
            && self.ever_connected
        {
            // This node *had* peers but is cut off from all of them (the link
            // monitor drops dead edges in seconds, so an isolated node's
            // table empties fast). Its single copy cannot speak for a
            // majority of the intended copy set: fail the write as retryable
            // instead of self-acknowledging — otherwise a partitioned
            // minority of one could confirm claims (and renewals) against
            // itself. A fresh claim is withdrawn from the local store too.
            if extends_to.is_none()
                && self
                    .dht
                    .get(&key)
                    .is_some_and(|rec| rec.value == value && rec.version == version)
            {
                self.dht.remove(&key);
            }
            self.stats.dht_quorum_writes += 1;
            self.stats.dht_quorum_write_timeouts += 1;
            self.send_create_reply(now, origin, token, false, None);
            return;
        }
        if targets.is_empty() {
            // Single-copy set (or quorum disabled): acknowledge immediately
            // and replicate fire-and-forget as before.
            if let Some(rec) = self.dht.get_mut(&key) {
                rec.replicated_to.clear();
                if let Some(t) = extends_to {
                    rec.expires_at = rec.expires_at.max(t);
                }
            }
            self.replicate_key(now, key);
            self.send_create_reply(now, origin, token, true, None);
            return;
        }
        let op = self.fresh_token();
        if let Some(rec) = self.dht.get_mut(&key) {
            rec.replicated_to = targets.clone();
        }
        for peer in &targets {
            let payload = RoutedPayload::DhtReplicate {
                key,
                value: value.clone(),
                ttl_ms,
                version,
                token: op,
            };
            self.originate(now, *peer, DeliveryMode::Exact, payload);
        }
        self.pending_quorum_creates.insert(
            op,
            QuorumCreate {
                origin,
                origin_token: token,
                key,
                value,
                version,
                extends_to,
                acks_needed: Self::quorum_of(targets.len() + 1) - 1,
                acks: 0,
                targets,
                issued: now,
            },
        );
        self.stats.dht_quorum_writes += 1;
    }

    /// Fail a quorum create that never reached a majority and reject the
    /// claim. A *fresh* claim is withdrawn — from the local store (so the key
    /// is not half-claimed on this side of a partition) and from any replica
    /// that stored it but whose ack was lost. A failed *renewal* leaves the
    /// previously committed copies untouched; the record simply keeps its
    /// pre-renewal expiries. `existing: None` on the reply distinguishes a
    /// quorum failure (retry later) from a real conflict.
    fn fail_quorum_create(&mut self, now: SimTime, op: u64) {
        let Some(qc) = self.pending_quorum_creates.remove(&op) else {
            return;
        };
        if qc.extends_to.is_none() {
            let still_ours = self
                .dht
                .get(&qc.key)
                .is_some_and(|rec| rec.value == qc.value && rec.version == qc.version);
            if still_ours {
                self.dht.remove(&qc.key);
            }
            for peer in &qc.targets {
                let payload = RoutedPayload::DhtWithdraw {
                    key: qc.key,
                    value: qc.value.clone(),
                    version: qc.version,
                };
                self.originate(now, *peer, DeliveryMode::Exact, payload);
            }
        }
        self.send_create_reply(now, qc.origin, qc.origin_token, false, None);
    }

    /// Intercept a `DhtCreateReply` belonging to a lease renewal this node
    /// issued from [`OverlayNode::dht_tick`]. Returns true when the token was
    /// a renewal (the reply is internal and must not reach callers).
    fn on_renewal_reply(
        &mut self,
        now: SimTime,
        token: u64,
        created: bool,
        existing: Option<&Bytes>,
    ) -> bool {
        let Some(key) = self
            .published
            .iter()
            .find(|(_, p)| p.renew_inflight.is_some_and(|(t, _)| t == token))
            .map(|(k, _)| *k)
        else {
            return false;
        };
        if created {
            // The find above proves the publication exists; re-borrow mutably.
            if let Some(p) = self.published.get_mut(&key) {
                p.renew_inflight = None;
                p.last_refresh = now;
                self.stats.dht_refreshes += 1;
            }
        } else if existing.is_some() {
            // A conflicting record owns the key — this lease lost (typical
            // after a healed partition). Stop renewing and tell the agent.
            self.published.remove(&key);
            self.lost_leases.push_back(key);
            self.stats.dht_leases_lost += 1;
        }
        // created == false with no existing value is a quorum-write failure
        // (the coordinator could not reach a majority), not a conflict: keep
        // the publication and the in-flight marker — the renewal timeout
        // re-issues (and alarms) until the partition heals.
        true
    }

    /// The `count` established peers closest (ring distance) to `key`,
    /// nearest first — the nodes that should hold this key's replicas.
    fn replica_targets(&self, key: &Address, count: usize) -> Vec<Address> {
        let mut peers: Vec<(Distance, Address)> = self
            .table
            .established()
            .map(|c| (c.peer.ring_distance(key), c.peer))
            .collect();
        peers.sort();
        peers.into_iter().take(count).map(|(_, a)| a).collect()
    }

    /// Is this node the ring owner of `key` (closer than every established
    /// peer)? Mirrors the `Closest` delivery rule, so the node that greedy
    /// routing delivers a DHT operation to also believes it owns the key.
    fn owns_key(&self, key: &Address) -> bool {
        let my_dist = self.cfg.address.ring_distance(key);
        !self
            .table
            .established()
            .any(|c| c.peer.ring_distance(key) < my_dist)
    }

    /// Push replicas of `key` to the ring neighbours that should hold copies
    /// and do not yet (no-op unless this node owns the key).
    fn replicate_key(&mut self, now: SimTime, key: Address) {
        if self.cfg.dht.replication <= 1 || !self.owns_key(&key) {
            return;
        }
        let targets = self.replica_targets(&key, self.cfg.dht.replication - 1);
        let Some(rec) = self.dht.get_mut(&key) else {
            return;
        };
        if rec.expired(now) {
            return;
        }
        rec.replica = false; // we are the owner, whatever path stored it
        let missing: Vec<Address> = targets
            .iter()
            .filter(|t| !rec.replicated_to.contains(t))
            .copied()
            .collect();
        rec.replicated_to = targets;
        let value = rec.value.clone();
        let ttl_ms = rec.remaining_ttl_ms(now);
        let version = rec.version;
        for peer in missing {
            let payload = RoutedPayload::DhtReplicate {
                key,
                value: value.clone(),
                ttl_ms,
                version,
                token: 0,
            };
            self.originate(now, peer, DeliveryMode::Exact, payload);
        }
    }

    /// Per-tick DHT maintenance: soft-state expiry, publisher lease renewal at
    /// TTL/2, quorum-operation timeouts, and (re-)replication of owned records
    /// when the neighbour set changed since the last pass.
    fn dht_tick(&mut self, now: SimTime) {
        self.stats.dht_expired += self.dht.expire(now) as u64;
        // Forget creates whose reply never came; a stale reply must not
        // resurrect an abandoned claim as a publication.
        self.pending_creates
            .retain(|_, p| now.saturating_since(p.issued) < PENDING_CREATE_TIMEOUT);
        // Quorum writes that never reached a majority: reject the claim.
        let failed_writes: Vec<u64> = self
            .pending_quorum_creates
            .iter()
            .filter(|(_, qc)| now.saturating_since(qc.issued) >= self.cfg.dht.quorum_timeout)
            .map(|(op, _)| *op)
            .collect();
        for op in failed_writes {
            self.stats.dht_quorum_write_timeouts += 1;
            self.fail_quorum_create(now, op);
        }
        // Quorum reads missing answers: conclude from the copies that arrived.
        let stalled_reads: Vec<u64> = self
            .pending_quorum_reads
            .iter()
            .filter(|(_, qr)| now.saturating_since(qr.issued) >= self.cfg.dht.quorum_timeout)
            .map(|(op, _)| *op)
            .collect();
        for op in stalled_reads {
            self.stats.dht_quorum_read_timeouts += 1;
            self.conclude_quorum_read(now, op);
        }
        // Publisher refresh. Plain publications re-put (last-writer-wins);
        // claimed publications renew with a create so a conflicting record is
        // detected. A renewal whose reply never came is re-issued after the
        // renewal timeout and alarmed — never silently dropped, which would
        // let the lease expire while this node keeps using the address.
        enum Renew {
            Put(Bytes, Duration, u64),
            Create(Bytes, Duration, bool),
        }
        let due: Vec<(Address, Renew)> = self
            .published
            .iter()
            .filter_map(|(k, p)| {
                if p.renew_with_create {
                    match p.renew_inflight {
                        Some((_, issued))
                            if now.saturating_since(issued) >= self.cfg.dht.renewal_timeout =>
                        {
                            Some((*k, Renew::Create(p.value.clone(), p.ttl, true)))
                        }
                        Some(_) => None,
                        None if now.saturating_since(p.last_refresh) >= p.ttl / 2 => {
                            Some((*k, Renew::Create(p.value.clone(), p.ttl, false)))
                        }
                        None => None,
                    }
                } else if now.saturating_since(p.last_refresh) >= p.ttl / 2 {
                    Some((*k, Renew::Put(p.value.clone(), p.ttl, p.version)))
                } else {
                    None
                }
            })
            .collect();
        for (key, renew) in due {
            match renew {
                Renew::Put(value, ttl, version) => {
                    if let Some(p) = self.published.get_mut(&key) {
                        p.last_refresh = now;
                    }
                    self.stats.dht_refreshes += 1;
                    self.send_put(now, key, value, ttl, version);
                }
                Renew::Create(value, ttl, timed_out) => {
                    if timed_out {
                        self.stats.dht_renewal_timeouts += 1;
                    }
                    let token = self.fresh_token();
                    if let Some(p) = self.published.get_mut(&key) {
                        p.renew_inflight = Some((token, now));
                    }
                    let ttl_ms = ttl.as_nanos() / 1_000_000;
                    let payload = RoutedPayload::DhtCreate {
                        key,
                        value,
                        ttl_ms,
                        token,
                    };
                    self.originate(now, key, DeliveryMode::Closest, payload);
                }
            }
        }
        // Re-replication: walk owned records and fill replication gaps — but
        // only when the established-peer set actually changed. Ownership and
        // replica targets are pure functions of that set, and fresh stores /
        // refresh puts already replicate on the delivery path.
        if !self
            .table
            .established_addrs()
            .eq(self.last_replica_peers.iter())
        {
            self.last_replica_peers = self.table.peers();
            for key in self.dht.keys() {
                self.replicate_key(now, key);
            }
        }
        // Anti-entropy: periodically exchange record digests so replica sets
        // converge even when no read or renewal touches a key.
        if self.cfg.dht.sweep {
            self.anti_entropy_tick(now);
        }
    }

    // ------------------------------------------------------------- anti-entropy

    /// Run the anti-entropy sweep when due. The first sweep is offset by a
    /// random fraction of the interval so a fleet started together does not
    /// digest in lockstep.
    fn anti_entropy_tick(&mut self, now: SimTime) {
        match self.next_sweep {
            None => {
                let offset = self.cfg.dht.sweep_interval.mul_f64(self.rng.unit());
                self.next_sweep = Some(now + offset);
                return;
            }
            Some(t) if now < t => return,
            Some(_) => {}
        }
        self.next_sweep = Some(now + self.cfg.dht.sweep_interval);
        self.run_sweep(now);
    }

    /// One anti-entropy sweep: send each replica-set peer a digest of the
    /// owned records it should hold, and route a digest of every publication
    /// toward its key's owner. Receivers pull the records they are missing
    /// (or hold stale) and push back fresher copies — see
    /// [`OverlayNode::handle_sync_digest`].
    fn run_sweep(&mut self, now: SimTime) {
        // Owner → replica set: group digest entries per target peer.
        let replication = self.cfg.dht.replication;
        let mut per_peer: BTreeMap<Address, Vec<SyncDigestEntry>> = BTreeMap::new();
        if replication > 1 {
            for key in self.dht.keys() {
                if !self.owns_key(&key) {
                    continue;
                }
                let Some(rec) = self.dht.get(&key).filter(|rec| !rec.expired(now)) else {
                    continue;
                };
                let entry = sync_digest_entry(key, rec, now);
                for peer in self.replica_targets(&key, replication - 1) {
                    per_peer.entry(peer).or_default().push(entry);
                }
            }
        }
        for (peer, entries) in per_peer {
            for chunk in entries.chunks(SYNC_DIGEST_CHUNK) {
                self.stats.dht_sync_digests += 1;
                let payload = RoutedPayload::DhtSyncDigest {
                    entries: chunk.to_vec(),
                    from_owner: true,
                };
                self.originate(now, peer, DeliveryMode::Exact, payload);
            }
        }
        // Publisher → owner: one digest per publication, routed to whichever
        // node currently owns the key. This is what recovers a put that was
        // lost in a crashed hop: the new owner sees a record it does not
        // hold and pulls it, within one sweep instead of the TTL/2 refresh.
        let digests: Vec<(Address, SyncDigestEntry)> = self
            .published
            .iter()
            .map(|(key, p)| {
                let expires_at = p.last_refresh + p.ttl;
                let remaining_ms = expires_at.saturating_since(now).as_nanos() / 1_000_000;
                (
                    *key,
                    SyncDigestEntry {
                        key: *key,
                        version: p.version,
                        value_hash: sync_value_hash(&p.value),
                        ttl_bucket: remaining_ms / crate::dht::SYNC_TTL_BUCKET_MS,
                    },
                )
            })
            .collect();
        for (key, entry) in digests {
            self.stats.dht_sync_digests += 1;
            let payload = RoutedPayload::DhtSyncDigest {
                entries: vec![entry],
                from_owner: false,
            };
            self.originate(now, key, DeliveryMode::Closest, payload);
        }
    }

    /// Compare a received digest against the local store. Records the sender
    /// has fresher are pulled (a `DhtSyncPull` goes back); records *we* hold
    /// fresher are pushed back directly — but only for owner→replica sweeps:
    /// a publisher is not part of the key's copy set, and a conflicting
    /// owner record is the renewal path's business to surface.
    fn handle_sync_digest(
        &mut self,
        now: SimTime,
        entries: &[SyncDigestEntry],
        from_owner: bool,
        src: Address,
    ) {
        let mut pulls: Vec<Address> = Vec::new();
        let mut pushes: Vec<Address> = Vec::new();
        for entry in entries {
            match sync_compare(entry, self.dht.get(&entry.key), now) {
                SyncAction::InSync => {}
                SyncAction::Pull => pulls.push(entry.key),
                SyncAction::Push => {
                    if from_owner {
                        pushes.push(entry.key);
                    }
                }
                SyncAction::Exchange => {
                    // Equal versions, different values: exchange full records
                    // and let byte-level freshness pick one winner everywhere.
                    pulls.push(entry.key);
                    if from_owner {
                        pushes.push(entry.key);
                    }
                }
            }
        }
        for key in pushes {
            let Some(rec) = self.dht.get(&key).filter(|rec| !rec.expired(now)) else {
                continue;
            };
            let (value, ttl_ms, version) =
                (rec.value.clone(), rec.remaining_ttl_ms(now), rec.version);
            self.stats.dht_sync_pushes += 1;
            let payload = RoutedPayload::DhtReplicate {
                key,
                value,
                ttl_ms,
                version,
                token: 0,
            };
            self.originate(now, src, DeliveryMode::Exact, payload);
        }
        if !pulls.is_empty() {
            let payload = RoutedPayload::DhtSyncPull { keys: pulls };
            self.originate(now, src, DeliveryMode::Exact, payload);
        }
    }

    /// Answer a pull: re-send each requested record — publications through
    /// their refresh path (a put, or an early renewal create for claimed
    /// leases so conflict detection is never bypassed), stored records as
    /// plain replicates.
    fn handle_sync_pull(&mut self, now: SimTime, keys: &[Address], src: Address) {
        for &key in keys {
            if let Some(p) = self.published.get(&key) {
                self.stats.dht_sync_pulls += 1;
                if p.renew_with_create {
                    // Claimed lease: recover through an early renewal create
                    // (unless one is already in flight) so a conflicting
                    // winner is detected, not clobbered.
                    if p.renew_inflight.is_none() {
                        let (value, ttl) = (p.value.clone(), p.ttl);
                        let token = self.fresh_token();
                        if let Some(p) = self.published.get_mut(&key) {
                            p.renew_inflight = Some((token, now));
                        }
                        let ttl_ms = ttl.as_nanos() / 1_000_000;
                        let payload = RoutedPayload::DhtCreate {
                            key,
                            value,
                            ttl_ms,
                            token,
                        };
                        self.originate(now, key, DeliveryMode::Closest, payload);
                    }
                } else {
                    let (value, ttl, version) = (p.value.clone(), p.ttl, p.version);
                    if let Some(p) = self.published.get_mut(&key) {
                        p.last_refresh = now;
                    }
                    self.stats.dht_refreshes += 1;
                    self.send_put(now, key, value, ttl, version);
                }
                continue;
            }
            let Some(rec) = self.dht.get(&key).filter(|rec| !rec.expired(now)) else {
                continue;
            };
            let (value, ttl_ms, version) =
                (rec.value.clone(), rec.remaining_ttl_ms(now), rec.version);
            self.stats.dht_sync_pulls += 1;
            let payload = RoutedPayload::DhtReplicate {
                key,
                value,
                ttl_ms,
                version,
                token: 0,
            };
            self.originate(now, src, DeliveryMode::Exact, payload);
        }
    }

    /// Merge neighbour knowledge received out of band (the IPOP agent calls this
    /// with candidates learned from peers' connection tables; tests use it to model
    /// gossip without a full message exchange).
    pub fn add_candidate(&mut self, addr: Address, endpoint: Endpoint) {
        if addr != self.cfg.address {
            self.candidates.insert(addr, endpoint);
        }
    }

    // ------------------------------------------------------------------ helpers

    fn send_hello(&mut self, now: SimTime, ep: Endpoint, kind: ConnectionKind) {
        if ep == self.cfg.local_endpoint {
            return;
        }
        let token = self.fresh_token();
        self.pending_links
            .insert(token, PendingLink { kind, started: now });
        let msg = LinkMessage::Hello {
            from: self.cfg.address,
            kind,
            observed: ep,
            token,
        };
        self.push_out(ep, msg);
    }

    fn learn_observed(&mut self, observed: Endpoint) {
        // A peer told us it sees our traffic as coming from `observed`; if that is
        // not an endpoint we already advertise, it is our NAT-translated address.
        if !self.advertised.contains(&observed) {
            self.advertised.push(observed);
            // Keep the list small: local endpoint plus at most three observed ones.
            if self.advertised.len() > 4 {
                self.advertised.remove(1);
            }
        }
    }

    fn push_out(&mut self, ep: Endpoint, msg: LinkMessage) {
        self.stats.link_tx += 1;
        self.outbox.push((ep, msg));
    }

    fn fresh_token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }
}

/// The gossip candidates ring repair says hello to this tick: right-side
/// picks first, then left-side picks not already picked.
///
/// Peers already linked as Near are settled; an existing Far or Leaf edge
/// stays eligible — when a true ring neighbour first joined us via a shortcut
/// or bootstrap handshake, re-helloing it as Near promotes the edge on both
/// ends (freeing the shortcut budget slot it may have been occupying).
///
/// Of the eligible candidates only the nearest `per_side` on each side are
/// considered, and of those only the ones that improve that side of the near
/// set. While the near set is underfull every candidate "improves", and
/// helloing the whole gossip backlog at once permanently meshed small rings
/// (and at scale would flood a joining node); the nearest candidates are the
/// only ones that can end up in the converged near set anyway. `candidates`
/// is keyed by address, i.e. already in ring order, so "nearest" is a walk
/// from `me` in each direction — two range probes per side, no sort.
fn near_hello_targets(
    table: &ConnectionTable,
    candidates: &BTreeMap<Address, Endpoint>,
    me: &Address,
    per_side: usize,
) -> Vec<(Address, Endpoint)> {
    /// How many established neighbours a side has, and its farthest one.
    fn side<'a>(nearest: impl Iterator<Item = &'a Connection>) -> (usize, Option<Address>) {
        nearest.fold((0, None), |(n, _), c| (n + 1, Some(c.peer)))
    }
    let (right_len, right_last) = side(table.right_of(me).take(per_side));
    let (left_len, left_last) = side(table.left_of(me).take(per_side));
    let worst_right = right_last.map(|a| me.clockwise_distance(&a));
    let worst_left = left_last.map(|a| a.clockwise_distance(me));
    let eligible = |(a, _): &(&Address, &Endpoint)| {
        *a != me && table.get(a).is_none_or(|c| c.kind != ConnectionKind::Near)
    };
    let mut picked: Vec<(Address, Endpoint)> = Vec::new();
    let clockwise = candidates.range(*me..).chain(candidates.range(..*me));
    for (&addr, &ep) in clockwise.filter(eligible).take(per_side) {
        if right_len < per_side || worst_right.is_some_and(|w| me.clockwise_distance(&addr) < w) {
            picked.push((addr, ep));
        }
    }
    let counter_clockwise = candidates
        .range(..*me)
        .rev()
        .chain(candidates.range(*me..).rev());
    for (&addr, &ep) in counter_clockwise.filter(eligible).take(per_side) {
        let improves =
            left_len < per_side || worst_left.is_some_and(|w| addr.clockwise_distance(me) < w);
        if improves && !picked.contains(&(addr, ep)) {
            picked.push((addr, ep));
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap as Map;
    use std::net::Ipv4Addr;

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
                let cfg = tweak(OverlayConfig::new(addr, ep(i)).with_bootstrap(bootstrap));
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
        let stored: usize = h.nodes.iter().map(|n| n.dht_stored()).sum();
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
        let owned_before = h.nodes[owner].dht_stored();
        assert!(owned_before > 0, "the leaving node holds records");
        let now = h.now;
        h.nodes[owner].leave(now);
        h.pump();
        h.crashed[owner] = true; // departed: exclude from ownership queries
        h.by_endpoint.remove(&ep(owner));
        assert_eq!(h.nodes[owner].dht_stored(), 0, "handoff cleared the store");
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
    fn link_monitor_is_quiet_on_healthy_edges() {
        // Gossip refreshes last_heard every tick, so a healthy steady-state
        // overlay sends (almost) no probes and never declares an edge dead.
        let mut h = Harness::new(8);
        h.start_all();
        h.run(40);
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
        // and probes are armed (the initial deadline is one second, so no
        // miss has been charged yet).
        h.run(3);
        let probes: u64 = h.nodes.iter().map(|n| n.stats().link_probes_sent).sum();
        assert!(probes >= 1, "a probe went out to the silent peer");
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
        let timeouts: u64 = h.nodes.iter().map(|n| n.stats().link_probe_timeouts).sum();
        assert_eq!(timeouts, 0, "no miss was charged straight out of the stall");
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
    fn quorum_disabled_falls_back_to_single_node_ops() {
        // The ablation switch: with quorum off, the key's owner answers
        // creates and gets alone from its local store (the pre-quorum
        // behaviour), while fire-and-forget replication still runs.
        let mut h = Harness::with_cfg(10, |c| c.without_dht_quorum());
        h.start_all();
        h.run(25);
        let key = Address::from_key(b"ablation:172.16.9.50");
        let now = h.now;
        let t1 = h.nodes[2].dht_create(now, key, b"claim".to_vec(), Duration::from_secs(600));
        h.pump();
        assert_eq!(
            h.nodes[2].take_dht_create_replies(),
            vec![(t1, true, None)],
            "owner acknowledges alone with quorum disabled"
        );
        assert_eq!(copies(&h, &key), 3, "replication still fans out");
        let quorum_writes: u64 = h.nodes.iter().map(|n| n.stats().dht_quorum_writes).sum();
        assert_eq!(quorum_writes, 0, "no quorum machinery engaged");
        let now = h.now;
        let t2 = h.nodes[7].dht_get(now, key);
        h.pump();
        assert_eq!(
            h.nodes[7].take_dht_replies(),
            vec![(t2, Some(ipop_packet::Bytes::from(b"claim".as_slice())))]
        );
        let quorum_reads: u64 = h.nodes.iter().map(|n| n.stats().dht_quorum_reads).sum();
        assert_eq!(quorum_reads, 0, "gets answered from the local store alone");
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
        assert!(node.advertised_endpoints().contains(&translated));
        assert!(node.advertised_endpoints().contains(&ep(0)));
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
        let entries = h.nodes[root].pubsub_live_entries(now, &topic);
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
        h.nodes[0].route(now, pkt);
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
            .find(|&&i| i != publisher && !h.nodes[i].owns_key(&topic))
            .unwrap();
        let msg_id = 0xDEAD_BEEF;
        let payload = Bytes::from(b"risky".as_slice());
        h.nodes[publisher].pending_publishes.insert(
            msg_id,
            PendingPublish {
                topic,
                payload: payload.clone(),
                attempts: 0,
                retry_at: None,
            },
        );
        h.nodes[publisher].publish_order.push_back(msg_id);
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
        h.nodes[publisher].route(now, pkt);
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

    // ------------------------------------------------ near-hello selection

    /// Reference model for `near_hello_targets`: the same selection by brute
    /// force — copy every eligible candidate, sort the copy by clockwise
    /// distance for the right side and again by counter-clockwise distance
    /// for the left.
    fn near_hello_targets_by_sort(
        table: &ConnectionTable,
        candidates: &BTreeMap<Address, Endpoint>,
        me: &Address,
        per_side: usize,
    ) -> Vec<(Address, Endpoint)> {
        let peers = |side: Vec<&Connection>| side.iter().map(|c| c.peer).collect::<Vec<_>>();
        let current_right = peers(table.right_neighbors(me, per_side));
        let current_left = peers(table.left_neighbors(me, per_side));
        let worst_right = current_right.last().map(|a| me.clockwise_distance(a));
        let worst_left = current_left.last().map(|a| a.clockwise_distance(me));
        let mut candidates: Vec<(Address, Endpoint)> = candidates
            .iter()
            .filter(|(a, _)| {
                *a != me && table.get(a).is_none_or(|c| c.kind != ConnectionKind::Near)
            })
            .map(|(a, e)| (*a, *e))
            .collect();
        candidates.sort_by_key(|(a, _)| me.clockwise_distance(a));
        let mut picked: Vec<(Address, Endpoint)> = Vec::new();
        for &(addr, ep) in candidates.iter().take(per_side) {
            let improves = current_right.len() < per_side
                || worst_right.is_some_and(|w| me.clockwise_distance(&addr) < w);
            if improves {
                picked.push((addr, ep));
            }
        }
        candidates.sort_by_key(|(a, _)| a.clockwise_distance(me));
        for &(addr, ep) in candidates.iter().take(per_side) {
            let improves = current_left.len() < per_side
                || worst_left.is_some_and(|w| addr.clockwise_distance(me) < w);
            if improves && !picked.contains(&(addr, ep)) {
                picked.push((addr, ep));
            }
        }
        picked
    }

    /// One of 64 ring positions — 16 coarse steps from `0x00…` to `0xF0…`,
    /// four adjacent addresses at each — so generated candidates, edges and
    /// `me` collide with each other often.
    fn ring_pos(sel: u8) -> Address {
        let mut b = [0u8; 20];
        b[0] = sel & 0xF0;
        b[19] = sel & 0x03;
        Address(b)
    }

    /// Build a table (mixing kinds and states, with re-upserts and removals)
    /// and a candidate map of up to 80 draws from `addr_of`, then require the
    /// range-probe selection to return the reference's list — content and
    /// order — for every `near_per_side` in use.
    fn assert_selection_matches_reference(
        me: Address,
        edges: &[u16],
        candidates: &[u16],
        addr_of: impl Fn(u16) -> Address,
    ) {
        let mut table = ConnectionTable::new();
        for &w in edges {
            let peer = addr_of(w);
            table.upsert(Connection {
                peer,
                endpoint: ep(usize::from(w >> 8)),
                kind: [
                    ConnectionKind::Near,
                    ConnectionKind::Far,
                    ConnectionKind::Leaf,
                ][usize::from(w >> 8) % 3],
                state: if w & 0x0800 == 0 {
                    ConnectionState::Established
                } else {
                    ConnectionState::Connecting
                },
                last_heard: SimTime::ZERO,
                last_ping_sent: SimTime::ZERO,
            });
            if w & 0xF000 == 0 {
                table.remove(&peer);
            }
        }
        let candidates: BTreeMap<Address, Endpoint> = candidates
            .iter()
            .map(|&w| (addr_of(w), ep(usize::from(w >> 8))))
            .collect();
        for per_side in 1..=3 {
            assert_eq!(
                near_hello_targets(&table, &candidates, &me, per_side),
                near_hello_targets_by_sort(&table, &candidates, &me, per_side),
                "me {me:?} per_side {per_side}"
            );
        }
    }

    mod near_hello_selection {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        // Four properties of 64 cases each (the offline proptest's fixed case
        // count): `me` at the bottom of the ring, at the top, anywhere on the
        // colliding 64-position ring, and on a sparse ring of random
        // addresses.
        proptest! {
            #[test]
            fn me_at_the_bottom_of_the_ring_wraps_counter_clockwise(
                me_sel in 0u8..4,
                edges in vec(any::<u16>(), 0..24),
                candidates in vec(any::<u16>(), 0..81),
            ) {
                let me = ring_pos(me_sel);
                assert_selection_matches_reference(me, &edges, &candidates, |w| ring_pos(w as u8));
            }

            #[test]
            fn me_at_the_top_of_the_ring_wraps_clockwise(
                me_sel in 0u8..5,
                edges in vec(any::<u16>(), 0..24),
                candidates in vec(any::<u16>(), 0..81),
            ) {
                // The four highest positions, or the very last address.
                let me = if me_sel == 4 { Address([0xFF; 20]) } else { ring_pos(0xF0 | me_sel) };
                assert_selection_matches_reference(me, &edges, &candidates, |w| ring_pos(w as u8));
            }

            #[test]
            fn me_anywhere_among_colliding_positions(
                me_sel: u8,
                edges in vec(any::<u16>(), 0..24),
                candidates in vec(any::<u16>(), 0..81),
            ) {
                let me = ring_pos(me_sel);
                assert_selection_matches_reference(me, &edges, &candidates, |w| ring_pos(w as u8));
            }

            #[test]
            fn sparse_ring_of_hashed_addresses(
                me_key: u16,
                edges in vec(any::<u16>(), 0..24),
                candidates in vec(any::<u16>(), 0..81),
            ) {
                // Only the low byte picks the address, so the high byte still
                // varies kind / state / removal for one peer.
                let hashed = |w: u16| Address::from_key(&[w as u8]);
                assert_selection_matches_reference(hashed(me_key), &edges, &candidates, hashed);
            }
        }
    }
}
