//! The replicated soft-state DHT: storage, and the protocol that drives it.
//!
//! The paper's self-configuration services (Brunet-ARP, and the address
//! allocation / name services built on top of it) assume a DHT that survives
//! churn. Records are *soft state*: every record carries an absolute expiry
//! instant and is dropped when it passes, so stale data ages out without any
//! explicit invalidation protocol. Publishers keep their records alive by
//! re-putting them at half the TTL (DHCP-style lease renewal); a record whose
//! publisher crashed simply disappears one TTL later.
//!
//! Two halves live here. The *storage* half is [`DhtRecord`], the store
//! [`SoftStateStore`], and the pure rules every copy is judged by
//! ([`wire_expiry`], [`wire_version`], [`apply_record_copy`],
//! [`sync_compare`]). The store iterates keys in address order — key scans
//! feed directly into replication-message emission order, and the
//! simulator's byte-identical-replay contract extends to DHT maintenance
//! traffic. The *protocol* half is [`Dht`], one node's
//! DHT component: publisher (renewals, lost leases), coordinator of the keys
//! it owns (quorum writes and reads, replication, read repair, graceful
//! hand-off) and replica (acks, withdraws, anti-entropy). It owns all of that
//! state and every `Dht*` wire tag, and reaches the ring only through the
//! routing [`Core`] it is handed on each call.

use std::collections::{BTreeMap, VecDeque};

use ipop_packet::Bytes;
use ipop_simcore::{fnv1a, Duration, SimTime, FNV_OFFSET};

use crate::address::Address;
use crate::packets::{DeliveryMode, RoutedPayload};
use crate::router::{Arrival, Core};

/// Configuration of the DHT subsystem of one overlay node.
#[derive(Clone, Debug, PartialEq)]
pub struct DhtConfig {
    /// Total number of copies of each record (owner plus `replication - 1`
    /// ring neighbours). A `DhtCreate` is acknowledged only after a majority
    /// of that copy set stored the record, and a `DhtGet` polls it, answers
    /// with the freshest copy by `(version, expiry)` and repairs stale or
    /// missing replicas. `1` disables replication: the owner answers alone.
    pub replication: usize,
    /// Anti-entropy, `None` when off: every interval each node exchanges
    /// compact record digests with the replica set of every key it owns (and
    /// with the owner of every key it publishes), pulling/pushing only the
    /// differing records — so replica sets converge even when no read ever
    /// touches a key, and a put lost in a crashed hop is recovered within one
    /// sweep instead of waiting out the publisher's TTL/2 refresh. Each node
    /// offsets its first sweep by a random fraction of the interval so the
    /// fleet does not synchronize.
    pub sweep_interval: Option<Duration>,
}

impl Default for DhtConfig {
    fn default() -> Self {
        DhtConfig {
            replication: 3,
            sweep_interval: Some(Duration::from_secs(10)),
        }
    }
}

/// One stored record.
#[derive(Clone, Debug)]
pub struct DhtRecord {
    /// The stored value (shared buffer; cloning a record does not copy it).
    pub value: Bytes,
    /// Instant at which the record silently expires.
    pub expires_at: SimTime,
    /// Version counter ordering writes under one key: the owner bumps it above
    /// any conflicting record it overwrites, replicas refuse to let a
    /// lower-versioned copy clobber a higher one, and quorum reads pick the
    /// copy with the highest `(version, expiry)`.
    pub version: u64,
    /// True while this node holds the record on behalf of the ring owner
    /// (it arrived via replication, not via the put/create delivery path).
    pub replica: bool,
    /// Peers the local node has pushed replicas to (maintained by the owner;
    /// empty on replicas).
    pub replicated_to: Vec<Address>,
}

impl DhtRecord {
    /// A record as received at `now` with a peer-supplied `ttl_ms`. The
    /// replica bookkeeping starts empty, so an owner-path overwrite (a TTL/2
    /// refresh put) re-pushes every replica with the renewed expiry —
    /// replicas are soft state too and would otherwise age out while the
    /// owner's copy stays fresh.
    fn received(now: SimTime, value: Bytes, ttl_ms: u64, version: u64, replica: bool) -> Self {
        DhtRecord {
            value,
            expires_at: wire_expiry(now, ttl_ms),
            version,
            replica,
            replicated_to: Vec::new(),
        }
    }

    /// The TTL remaining at `now` (zero if expired — a record whose
    /// `expires_at` equals `now` is already expired, matching
    /// [`DhtRecord::expired`]).
    pub fn remaining_ttl(&self, now: SimTime) -> Duration {
        self.expires_at.saturating_since(now)
    }

    /// The remaining TTL in whole milliseconds, rounded *up*: a still-live
    /// record handed off or replicated with a truncated-to-zero TTL would
    /// arrive already expired at the receiver, silently losing the copy at
    /// the expiry boundary.
    pub fn remaining_ttl_ms(&self, now: SimTime) -> u64 {
        self.remaining_ttl(now).as_nanos().div_ceil(1_000_000)
    }

    /// Has the record expired at `now`? `expires_at == now` counts as expired
    /// — exactly when [`DhtRecord::remaining_ttl`] reaches zero — so a record
    /// at the boundary is dropped, never served.
    pub fn expired(&self, now: SimTime) -> bool {
        self.expires_at <= now
    }

    /// Freshness rank for quorum reads and replica conflict resolution:
    /// versions order writes, expiry (the most recent renewal) breaks ties,
    /// and the value bytes break exact ties deterministically.
    pub fn freshness(&self) -> (u64, SimTime, &[u8]) {
        (self.version, self.expires_at, &self.value)
    }
}

// ------------------------------------------------------------- anti-entropy

/// Width of the remaining-TTL buckets in sync digests. A digest entry's TTL
/// is built at the sender and compared at the receiver one transit later, so
/// raw remaining-TTL comparison would flag every record as diverged; bucketing
/// (plus the two-bucket threshold in [`sync_compare`]) tolerates that skew
/// while still detecting genuine renewals, which extend expiry by TTL/2.
pub const SYNC_TTL_BUCKET_MS: u64 = 4_000;

/// Buckets two same-version, same-value copies may differ by before the
/// older one counts as having missed a renewal.
const SYNC_TTL_SLACK_BUCKETS: u64 = 2;

/// One record's line in an anti-entropy digest: enough to detect a missing,
/// stale, or conflicting copy without shipping the value bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyncDigestEntry {
    /// The record's DHT key.
    pub key: Address,
    /// The record's version at the sender.
    pub version: u64,
    /// Hash of the value bytes (see [`sync_value_hash`]): catches conflicting
    /// values hiding behind an equal version.
    pub value_hash: u64,
    /// Remaining TTL quantized to [`SYNC_TTL_BUCKET_MS`] buckets.
    pub ttl_bucket: u64,
}

/// Digest hash of a record value (FNV-1a 64): deterministic, cheap, and only
/// used to *detect* divergence — the records themselves are exchanged and
/// resolved under the byte-level freshness rules.
pub fn sync_value_hash(value: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, value)
}

/// Build the digest entry for a live record at `now`.
pub fn sync_digest_entry(key: Address, rec: &DhtRecord, now: SimTime) -> SyncDigestEntry {
    SyncDigestEntry {
        key,
        version: rec.version,
        value_hash: sync_value_hash(&rec.value),
        ttl_bucket: rec.remaining_ttl_ms(now) / SYNC_TTL_BUCKET_MS,
    }
}

/// What a digest receiver should do about one entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncAction {
    /// The copies agree (within TTL-bucket slack): nothing to do.
    InSync,
    /// The sender's copy is fresher (or ours is missing): pull it.
    Pull,
    /// Our copy is fresher: push it back to the sender.
    Push,
    /// Equal versions but different values: pull *and* push, and let the
    /// store-level freshness rule (which sees the value bytes the digest
    /// hash abbreviates) pick the same winner on both sides.
    Exchange,
}

/// Compare a digest entry against the local copy (if any, expired treated as
/// absent) and decide the repair direction. Skew-tolerant: same-version,
/// same-value copies only diverge when their TTL buckets differ by at least
/// [`SYNC_TTL_SLACK_BUCKETS`].
pub fn sync_compare(
    entry: &SyncDigestEntry,
    local: Option<&DhtRecord>,
    now: SimTime,
) -> SyncAction {
    let Some(local) = local.filter(|rec| !rec.expired(now)) else {
        return SyncAction::Pull;
    };
    if entry.version > local.version {
        return SyncAction::Pull;
    }
    if local.version > entry.version {
        return SyncAction::Push;
    }
    let local_hash = sync_value_hash(&local.value);
    if local_hash != entry.value_hash {
        return SyncAction::Exchange;
    }
    let local_bucket = local.remaining_ttl_ms(now) / SYNC_TTL_BUCKET_MS;
    if entry.ttl_bucket >= local_bucket + SYNC_TTL_SLACK_BUCKETS {
        SyncAction::Pull
    } else if local_bucket >= entry.ttl_bucket + SYNC_TTL_SLACK_BUCKETS {
        SyncAction::Push
    } else {
        SyncAction::InSync
    }
}

/// Longest lifetime a peer can ask for, in milliseconds: one year. Above
/// every TTL this tree sends (leases, name records, hour-long subscriptions)
/// and far below the ~584 years a `u64` of nanoseconds holds, so an expiry
/// computed from it cannot overflow.
pub const MAX_WIRE_TTL_MS: u64 = 365 * 24 * 3600 * 1000;

/// The expiry instant of a record or subscription received at `now` with a
/// peer-supplied `ttl_ms`, saturated at [`MAX_WIRE_TTL_MS`]. `ttl_ms` is
/// decoded unbounded, so this is the one place it may become time: done
/// unchecked, `u64::MAX` overflows the millisecond-to-nanosecond multiply —
/// a remote panic under overflow checks, a record born expired without them.
pub fn wire_expiry(now: SimTime, ttl_ms: u64) -> SimTime {
    now + Duration::from_millis(ttl_ms.min(MAX_WIRE_TTL_MS))
}

/// Version assigned to a newly stored record: the virtual time in whole
/// milliseconds (floored at 1). Time-derived versions stay globally
/// monotone across writes, so a write accepted by an owner that never saw
/// the key (ring churn handed it a record-less range) still orders above
/// stale copies lingering on replicas — a plain counter would restart at
/// 1 there and lose every quorum read to them.
pub(crate) fn version_for(now: SimTime) -> u64 {
    (now.as_nanos() / 1_000_000).max(1)
}

/// How far above [`version_for`] a peer-supplied version may sit. Receivers'
/// clocks are never behind senders' here, so an honest version exceeds the
/// receiver's time-derived one only by the `+ 1` bumps of conflicting writes
/// landing within one millisecond — nowhere near 2³².
pub const MAX_VERSION_LEAD: u64 = 1 << 32;

/// A peer-supplied record `version` as this node will store it at `now`,
/// capped at [`version_for`] plus [`MAX_VERSION_LEAD`]. `version` is decoded
/// unbounded and every conflicting write stores `existing + 1`: done
/// unchecked, a forged `u64::MAX` makes the next honest write a remote panic
/// under overflow checks and wraps it to version 0 — below every replica —
/// without them. Capping on the way in (not saturating at the `+ 1`) leaves
/// no key stuck at a version nothing can supersede.
pub fn wire_version(now: SimTime, version: u64) -> u64 {
    version.min(version_for(now) + MAX_VERSION_LEAD)
}

/// Apply an incoming record copy (a replicate, repair, or anti-entropy push)
/// to `store` under the replica conflict rule: the existing record survives
/// when it outranks the incoming copy by `(version, expiry, value)`
/// freshness. Returns true when the incoming copy was stored.
pub fn apply_record_copy(
    store: &mut SoftStateStore,
    key: Address,
    value: &Bytes,
    ttl_ms: u64,
    version: u64,
    replica: bool,
    now: SimTime,
) -> bool {
    let copy = DhtRecord::received(now, value.clone(), ttl_ms, version, replica);
    let keep_existing = store
        .live(&key, now)
        .is_some_and(|rec| rec.freshness() > copy.freshness());
    if keep_existing {
        return false;
    }
    store.insert(key, copy);
    true
}

/// The in-memory soft-state store: a `BTreeMap`, so key iteration is
/// address-ordered and byte-identical across same-seed runs — replication
/// traffic is emitted while scanning it.
#[derive(Debug, Default)]
pub struct SoftStateStore {
    records: BTreeMap<Address, DhtRecord>,
    bytes: usize,
}

impl SoftStateStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or overwrite the record under `key`.
    pub fn insert(&mut self, key: Address, record: DhtRecord) {
        self.bytes += record.value.len();
        if let Some(old) = self.records.insert(key, record) {
            self.bytes -= old.value.len();
        }
    }

    /// Borrow the record under `key`, if present (expired records may still be
    /// returned until the next [`SoftStateStore::expire`] sweep — callers that
    /// care check [`DhtRecord::expired`]).
    pub fn get(&self, key: &Address) -> Option<&DhtRecord> {
        self.records.get(key)
    }

    /// The record under `key` if it is still live at `now` — what every
    /// protocol decision reads; an expired record is as good as absent.
    pub fn live(&self, key: &Address, now: SimTime) -> Option<&DhtRecord> {
        self.get(key).filter(|rec| !rec.expired(now))
    }

    /// Mutably borrow the record under `key`.
    pub fn get_mut(&mut self, key: &Address) -> Option<&mut DhtRecord> {
        self.records.get_mut(key)
    }

    /// Remove and return the record under `key`.
    pub fn remove(&mut self, key: &Address) -> Option<DhtRecord> {
        let removed = self.records.remove(key);
        if let Some(rec) = &removed {
            self.bytes -= rec.value.len();
        }
        removed
    }

    /// Drop every expired record; returns how many were dropped.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let before = self.records.len();
        let bytes = &mut self.bytes;
        self.records.retain(|_, rec| {
            if rec.expired(now) {
                *bytes -= rec.value.len();
                false
            } else {
                true
            }
        });
        before - self.records.len()
    }

    /// All stored keys, in address order.
    pub fn keys(&self) -> Vec<Address> {
        self.records.keys().copied().collect()
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total stored value bytes.
    pub fn stored_bytes(&self) -> usize {
        self.bytes
    }

    /// Number of records held as replicas (not owned).
    pub fn replicas_held(&self) -> usize {
        self.records.values().filter(|r| r.replica).count()
    }
}

// ---------------------------------------------------------------- component

/// Cap on digest entries per anti-entropy message; larger key sets are
/// chunked across several digests.
const SYNC_DIGEST_CHUNK: usize = 64;

/// How long an unanswered `DhtCreate` stays pending before it is forgotten.
/// A reply arriving later is treated as stale and must not turn into a
/// publication — the caller has long since given up on the claim (and, for
/// the DHCP allocator, moved on to a different address).
const PENDING_CREATE_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a quorum coordinator waits for replica acks/answers before
/// concluding: an unacked create fails (the claimant retries elsewhere), an
/// unanswered read is served from whatever copies did answer.
const QUORUM_TIMEOUT: Duration = Duration::from_secs(4);

/// How long an unanswered lease-renewal `DhtCreate` stays outstanding before
/// it is re-issued (and counted as a renewal timeout alarm).
const RENEWAL_TIMEOUT: Duration = Duration::from_secs(10);

/// Expiry skew tolerated before a quorum read repairs a same-version,
/// same-value copy. A replica's expiry is reconstructed from its remaining
/// TTL at the coordinator, so it arrives inflated by the reply's transit
/// time; genuine renewals differ by at least TTL/2, far above this.
const READ_REPAIR_SLACK: Duration = Duration::from_secs(2);

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
    /// does not arrive within [`RENEWAL_TIMEOUT`] is re-issued and
    /// counted in `dht_renewal_timeouts`.
    renew_inflight: Option<(u64, SimTime)>,
}

/// A quorum round this node coordinates on `key`: the record was pushed to
/// (a write) or polled from (a read) `targets`, and the round concludes once
/// a majority of the copy set — this node's own copy counts as one — has
/// answered, or at [`QUORUM_TIMEOUT`].
struct Quorum {
    key: Address,
    /// The replicas pushed to or polled: the only peers whose answer counts.
    targets: Vec<Address>,
    /// Counted answers, one per target: `(replica, its live copy)` — always
    /// `None` for a write's acks, reconstructed as a [`DhtRecord`] for a
    /// read's, so freshness and TTL rules stay the store's own.
    answers: Vec<(Address, Option<DhtRecord>)>,
    issued: SimTime,
    round: Round,
}

enum Round {
    Write(Write),
    /// A read answers `reply_to` with the freshest copy by `(version,
    /// expiry)` — once a majority answered with a live copy in sight, every
    /// poll answered, or the poll timed out — and repairs the stale and
    /// missing copies it found.
    Read {
        reply_to: (Address, u64),
    },
}

/// A write this node coordinates: the record is stored locally and pushed to
/// the key's replica set with an ack token; `reply_to` hears `created` only
/// once a majority of the copy set holds it.
pub(crate) struct Write {
    /// Who gets the `DhtCreateReply`, and the token it echoes. `None` for a
    /// write nobody waits on (a pub/sub root rewriting its topic record): the
    /// outcome is visible in the store itself.
    pub(crate) reply_to: Option<(Address, u64)>,
    pub(crate) value: Bytes,
    pub(crate) ttl_ms: u64,
    /// Version the record is stored and pushed with.
    pub(crate) version: u64,
    /// `None` for a first-time claim (the record is created by this write);
    /// `Some(expiry)` for a lease renewal, applied to the local record only
    /// once the quorum acks. Only fresh claims are withdrawn on quorum
    /// failure: a failed renewal keeps the coordinator's pre-renewal expiry,
    /// while replicas that stored the extended push before their ack was lost
    /// may keep the longer expiry — soft state that ages out, at worst
    /// occupying the key one extra TTL if the claimant then crashes.
    pub(crate) extends_to: Option<SimTime>,
}

/// An outstanding `DhtCreate`, remembered so a successful claim turns into a
/// publication (the creator becomes the record's refreshing owner).
struct PendingCreate {
    key: Address,
    value: Bytes,
    ttl: Duration,
    issued: SimTime,
}

/// How many of the replicas in `targets` must answer before a quorum
/// operation holds a majority of the copy set — those replicas plus this
/// node's own copy, which counts as one answer already.
fn peer_majority(targets: &[Address]) -> usize {
    let copies = targets.len() + 1;
    let majority = copies / 2 + 1;
    majority - 1
}

/// The unacknowledged `DhtReplicate` carrying `rec` as it stands at `now`.
fn replicate(key: Address, rec: &DhtRecord, now: SimTime) -> RoutedPayload {
    RoutedPayload::DhtReplicate {
        key,
        value: rec.value.clone(),
        ttl_ms: rec.remaining_ttl_ms(now),
        version: rec.version,
        token: 0,
    }
}

/// One node's DHT component (see the module docs).
#[derive(Default)]
pub(crate) struct Dht {
    store: SoftStateStore,
    /// Completed lookups, for the embedding agent to drain: `(token, value)`.
    pub(crate) replies: VecDeque<(u64, Option<Bytes>)>,
    /// Completed creates, likewise: `(token, created, existing value on
    /// conflict)`.
    pub(crate) create_replies: VecDeque<(u64, bool, Option<Bytes>)>,
    /// Records this node publishes, keyed by DHT key. `BTreeMap` so the
    /// refresh scan emits messages in a deterministic order.
    published: BTreeMap<Address, Publication>,
    /// Outstanding creates: token → claim. Never iterated, only keyed.
    pending_creates: BTreeMap<u64, PendingCreate>,
    /// Quorum rounds this node is coordinating, keyed by ack / poll token.
    /// `BTreeMap` because the timeout sweep iterates it while emitting
    /// replies and repairs.
    quorums: BTreeMap<u64, Quorum>,
    /// Claimed leases whose renewal found a conflicting record; the embedding
    /// agent drains this and re-allocates.
    pub(crate) lost_leases: VecDeque<Address>,
    /// Instant of the next anti-entropy sweep; `None` until the first tick
    /// draws a random initial offset (so a fleet started together does not
    /// sweep in lockstep).
    next_sweep: Option<SimTime>,
    /// The table's change counter at the last re-replication check, and the
    /// established peers at the last scan, which reruns only when they change
    /// (new records and refresh puts replicate on the store path instead).
    last_replica_peers: (u64, Vec<Address>),
}

impl Dht {
    /// The local store (read-only).
    pub(crate) fn store(&self) -> &SoftStateStore {
        &self.store
    }

    // ------------------------------------------------------------ publisher

    /// Publish `value` under `key` and keep it alive by re-putting at TTL/2.
    pub(crate) fn put(
        &mut self,
        core: &mut Core,
        now: SimTime,
        key: Address,
        value: Bytes,
        ttl: Duration,
    ) {
        // Re-publishing a different value under the same key (a Brunet-ARP
        // mapping migrating to this host) bumps the version so the new value
        // supersedes the old one's replicas everywhere.
        let version = match self.published.get(&key) {
            Some(p) if p.value == value => p.version,
            Some(p) => (p.version + 1).max(version_for(now)),
            None => version_for(now),
        };
        self.published.insert(
            key,
            Publication {
                value,
                ttl,
                version,
                last_refresh: now,
                renew_with_create: false,
                renew_inflight: None,
            },
        );
        self.announce(core, now, key);
    }

    /// Claim `key` create-if-absent; returns the token the outcome will carry
    /// in [`Dht::create_replies`].
    pub(crate) fn create(
        &mut self,
        core: &mut Core,
        now: SimTime,
        key: Address,
        value: Bytes,
        ttl: Duration,
    ) -> u64 {
        let token = core.fresh_token();
        self.pending_creates.insert(
            token,
            PendingCreate {
                key,
                value: value.clone(),
                ttl,
                issued: now,
            },
        );
        let payload = RoutedPayload::DhtCreate {
            key,
            value,
            ttl_ms: ttl.as_nanos() / 1_000_000,
            token,
        };
        self.send(core, now, key, DeliveryMode::Closest, payload);
        token
    }

    /// Look `key` up; returns the token the answer will carry in
    /// [`Dht::replies`].
    pub(crate) fn get(&mut self, core: &mut Core, now: SimTime, key: Address) -> u64 {
        let token = core.fresh_token();
        let payload = RoutedPayload::DhtGet { key, token };
        self.send(core, now, key, DeliveryMode::Closest, payload);
        token
    }

    /// Delete the record under `key` (lease release) and stop refreshing it.
    pub(crate) fn remove(&mut self, core: &mut Core, now: SimTime, key: Address) {
        self.published.remove(&key);
        let payload = RoutedPayload::DhtRemove { key };
        self.send(core, now, key, DeliveryMode::Closest, payload);
    }

    /// Stop refreshing the record under `key`; it ages out one TTL later.
    pub(crate) fn unpublish(&mut self, key: &Address) {
        self.published.remove(key);
    }

    /// Abandon an outstanding [`Dht::create`]: a late reply is still
    /// surfaced, but no longer becomes a publication renewed forever.
    pub(crate) fn cancel_create(&mut self, token: u64) {
        self.pending_creates.remove(&token);
    }

    /// Graceful leave: hand every live record off to the peers closest to
    /// its key — at least one even with replication disabled. The nearest of
    /// them becomes the key's owner once this node is gone, and idempotent
    /// overwrites of existing replicas are harmless.
    pub(crate) fn hand_off(&mut self, core: &mut Core, now: SimTime) {
        let copies = core.cfg.dht.replication.saturating_sub(1).max(1);
        for key in self.store.keys() {
            let Some(rec) = self.store.live(&key, now) else {
                continue;
            };
            let push = replicate(key, rec, now);
            for peer in core.replica_targets(&key, copies) {
                self.send(core, now, peer, DeliveryMode::Exact, push.clone());
            }
            self.store.remove(&key);
        }
    }

    /// Originate a `Dht*` payload. One that is due at this very node (a
    /// publisher that owns its own key, a coordinator answering its own
    /// create) is handled on the spot, depth first: the code after a send
    /// relies on it — a renewal put delivered to self has re-stored the
    /// record and re-pushed its replicas before the same tick's
    /// re-replication scan and sweep read the store.
    fn send(
        &mut self,
        core: &mut Core,
        now: SimTime,
        dst: Address,
        mode: DeliveryMode,
        payload: RoutedPayload,
    ) {
        if let Some(Arrival::Here(pkt)) = core.originate(dst, mode, payload) {
            self.on_payload(core, now, pkt.src, pkt.payload);
        }
    }

    /// Send the publication under `key` to the key's owner: a plain one as
    /// a put (last writer wins), a claimed one as a create, so a conflicting
    /// winner is detected, not clobbered.
    fn announce(&mut self, core: &mut Core, now: SimTime, key: Address) {
        let Some(p) = self.published.get_mut(&key) else {
            return;
        };
        let (value, ttl_ms) = (p.value.clone(), p.ttl.as_nanos() / 1_000_000);
        let payload = if p.renew_with_create {
            let token = core.fresh_token();
            p.renew_inflight = Some((token, now));
            RoutedPayload::DhtCreate {
                key,
                value,
                ttl_ms,
                token,
            }
        } else {
            p.last_refresh = now;
            RoutedPayload::DhtPut {
                key,
                value,
                ttl_ms,
                version: p.version,
            }
        };
        self.send(core, now, key, DeliveryMode::Closest, payload);
    }

    /// Renew the publication under `key`, counted: a refresh put, or a
    /// renewal create — an alarm when it replaces one whose reply never came.
    fn renew(&mut self, core: &mut Core, now: SimTime, key: Address) {
        match self.published.get(&key) {
            Some(p) if !p.renew_with_create => core.stats.dht_refreshes += 1,
            Some(p) if p.renew_inflight.is_some() => core.stats.dht_renewal_timeouts += 1,
            _ => {}
        }
        self.announce(core, now, key);
    }

    // --------------------------------------------------------------- intake

    /// Handle a `Dht*` payload from `src` that is due at this node.
    pub(crate) fn on_payload(
        &mut self,
        core: &mut Core,
        now: SimTime,
        src: Address,
        payload: RoutedPayload,
    ) {
        match payload {
            RoutedPayload::DhtPut {
                key,
                value,
                ttl_ms,
                version,
            } => {
                let version = wire_version(now, version);
                // Put is publisher-authoritative (last-writer-wins): the
                // stored version ends up at least the incoming one and
                // strictly above any conflicting record being replaced, so
                // the new value supersedes stale replicas everywhere.
                let stored_version = match self.store.live(&key, now) {
                    // No local copy does NOT mean no conflicting copy: ring
                    // churn can make a fresh node the key's owner while old
                    // replicas still hold higher-versioned records. Flooring
                    // at the time-derived version keeps this write above any
                    // copy written earlier.
                    None => version.max(version_for(now)),
                    Some(e) if e.value == value => e.version.max(version),
                    Some(e) if version > e.version => version,
                    Some(e) => e.version + 1,
                };
                let rec = DhtRecord::received(now, value, ttl_ms, stored_version, false);
                self.store.insert(key, rec);
                self.replicate_key(core, now, key);
            }
            RoutedPayload::DhtGet { key, token } => self.handle_get(core, now, key, (src, token)),
            RoutedPayload::DhtReply { token, value } => self.replies.push_back((token, value)),
            RoutedPayload::DhtCreate {
                key,
                value,
                ttl_ms,
                token,
            } => self.handle_create(core, now, key, value, ttl_ms, (src, token)),
            RoutedPayload::DhtCreateReply {
                token,
                created,
                existing,
            } => {
                if self.on_renewal_reply(core, now, token, created, existing.as_ref()) {
                    // Internal lease-renewal traffic; not surfaced to callers.
                    return;
                }
                if let Some(claim) = self.pending_creates.remove(&token) {
                    if created {
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
                self.create_replies.push_back((token, created, existing));
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
                let version = wire_version(now, version);
                apply_record_copy(&mut self.store, key, &value, ttl_ms, version, true, now);
                if token != 0 {
                    // `stored` only when this node now holds a live record
                    // with the pushed value; keeping a fresher *conflicting*
                    // record must not help a claim reach its write quorum.
                    let stored = self
                        .store
                        .live(&key, now)
                        .is_some_and(|rec| rec.value == value);
                    let payload = RoutedPayload::DhtReplicateAck { token, stored };
                    self.send(core, now, src, DeliveryMode::Exact, payload);
                }
            }
            RoutedPayload::DhtReplicateAck { token, stored } => {
                // `stored: false` is admitted but not counted: the replica
                // kept a conflicting record, so the claim can only conclude
                // via the quorum timeout (and fail).
                let admitted = self.admit(core, token, src, false);
                if admitted && stored {
                    self.count(core, now, token, src, None);
                }
            }
            RoutedPayload::DhtGetReplica { key, token } => {
                let copy = self
                    .store
                    .live(&key, now)
                    .map(|rec| (rec.value.clone(), rec.version, rec.remaining_ttl_ms(now)));
                let payload = RoutedPayload::DhtReplicaValue { token, copy };
                self.send(core, now, src, DeliveryMode::Exact, payload);
            }
            RoutedPayload::DhtReplicaValue { token, copy } => {
                let copy = copy.map(|(value, version, ttl_ms)| {
                    DhtRecord::received(now, value, ttl_ms, wire_version(now, version), true)
                });
                if self.admit(core, token, src, true) {
                    self.count(core, now, token, src, copy);
                }
            }
            RoutedPayload::DhtRemove { key } => self.remove_record(core, now, key),
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
                self.withdraw(&key, &value, version);
            }
            RoutedPayload::DhtSyncDigest {
                entries,
                from_owner,
            } => self.handle_sync_digest(core, now, &entries, from_owner, src),
            RoutedPayload::DhtSyncPull { keys } => self.handle_sync_pull(core, now, &keys, src),
            // Not a `Dht*` tag: nobody hands one here.
            _ => {}
        }
    }

    // ---------------------------------------------------------- coordinator

    /// Drop the record under `key` and propagate the removal to the replicas
    /// it was pushed to.
    pub(crate) fn remove_record(&mut self, core: &mut Core, now: SimTime, key: Address) {
        if let Some(rec) = self.store.remove(&key) {
            for peer in rec.replicated_to {
                let payload = RoutedPayload::DhtRemove { key };
                self.send(core, now, peer, DeliveryMode::Exact, payload);
            }
        }
    }

    /// Drop the local copy under `key` if it still is `value` at `version`.
    fn withdraw(&mut self, key: &Address, value: &Bytes, version: u64) {
        if self
            .store
            .get(key)
            .is_some_and(|rec| rec.value == *value && rec.version == version)
        {
            self.store.remove(key);
        }
    }

    /// The peers that should hold the replicas of `key`, nearest first.
    fn replica_set(&self, core: &Core, key: &Address) -> Vec<Address> {
        core.replica_targets(key, core.cfg.dht.replication.saturating_sub(1))
    }

    /// Serve a `DhtGet` as the key's coordinator. With a replica set to poll,
    /// the answer waits for a majority of the copy set; otherwise (single
    /// copy, no peers) the local store answers alone.
    fn handle_get(&mut self, core: &mut Core, now: SimTime, key: Address, asker: (Address, u64)) {
        let q = Quorum {
            key,
            targets: self.replica_set(core, &key),
            answers: Vec::new(),
            issued: now,
            round: Round::Read { reply_to: asker },
        };
        if q.targets.is_empty() {
            return self.finish(core, now, q, true);
        }
        let op = core.fresh_token();
        for peer in &q.targets {
            let payload = RoutedPayload::DhtGetReplica { key, token: op };
            self.send(core, now, *peer, DeliveryMode::Exact, payload);
        }
        self.quorums.insert(op, q);
        core.stats.dht_quorum_reads += 1;
    }

    /// Serve a `DhtCreate` as the key's coordinator.
    ///
    /// * A live record with the *same* value is the claimant's own lease being
    ///   renewed: extend the expiry, refresh the replicas, answer `created`.
    /// * A live record with a different value is a conflict: answer
    ///   `!created` with the winner's value.
    /// * Otherwise store the record — and acknowledge only once a majority of
    ///   the copy set holds it.
    fn handle_create(
        &mut self,
        core: &mut Core,
        now: SimTime,
        key: Address,
        value: Bytes,
        ttl_ms: u64,
        claimant: (Address, u64),
    ) {
        let reply_to = Some(claimant);
        // A claim still awaiting its write quorum is not committed: answer
        // any other claim for the same key as retryable (`existing: None`).
        // Not as a conflict — the pending claim may yet be withdrawn, and a
        // conflict reply would make the other claimant permanently blacklist
        // an address that ends up free. Nor as a renewal, even of the same
        // value: a second round on the pending record would be withdrawn with
        // it if the first failed, after confirming its claim. A duplicate of
        // the request being served is dropped; the pending round answers it.
        let pending = self.quorums.values().find_map(|q| match &q.round {
            Round::Write(w) if q.key == key => Some(w.reply_to),
            _ => None,
        });
        if let Some(pending) = pending {
            if pending != reply_to {
                self.send_create_reply(core, now, reply_to, false, None);
            }
            return;
        }
        let write = |version, extends_to| Write {
            reply_to,
            value: value.clone(),
            ttl_ms,
            version,
            extends_to,
        };
        match self.store.get_mut(&key).filter(|rec| !rec.expired(now)) {
            Some(rec) if rec.value != value => {
                let winner = Some(rec.value.clone());
                self.send_create_reply(core, now, reply_to, false, winner);
            }
            // The claimant's own lease being renewed: acknowledge — and
            // extend the local expiry — only through the same write quorum
            // as a fresh claim. An owner partitioned from its replicas
            // extending and confirming renewals alone would keep serving a
            // lease whose every replica copy has expired.
            Some(rec) => {
                rec.replica = false;
                let renewal = write(rec.version, Some(wire_expiry(now, ttl_ms)));
                self.commit(core, now, key, renewal);
            }
            None => self.commit(core, now, key, write(version_for(now), None)),
        }
    }

    /// Send the `DhtCreateReply` concluding a create — unless nobody waits
    /// for one (`reply_to` is `None`).
    fn send_create_reply(
        &mut self,
        core: &mut Core,
        now: SimTime,
        reply_to: Option<(Address, u64)>,
        created: bool,
        existing: Option<Bytes>,
    ) {
        let Some((origin, token)) = reply_to else {
            return;
        };
        let payload = RoutedPayload::DhtCreateReply {
            token,
            created,
            existing,
        };
        self.send(core, now, origin, DeliveryMode::Exact, payload);
    }

    /// Commit a write this node coordinates — a fresh record, stored here
    /// first, or (`extends_to`) the renewal of the one it holds: push it to
    /// the key's replica set with an ack token and answer `reply_to` with
    /// `created` once a majority of the copy set holds it (immediately when
    /// the copy set is just this node). Pub/sub roots push their topic-record
    /// rewrites through here too — the same conflict rules as lease claims —
    /// with no one to answer.
    pub(crate) fn commit(&mut self, core: &mut Core, now: SimTime, key: Address, w: Write) {
        if w.extends_to.is_none() {
            let rec = DhtRecord::received(now, w.value.clone(), w.ttl_ms, w.version, false);
            self.store.insert(key, rec);
        }
        let targets = self.replica_set(core, &key);
        // This node *had* peers but is cut off from all of them (the link
        // monitor drops dead edges in seconds, so an isolated node's table
        // empties fast). Its single copy cannot speak for a majority of the
        // intended copy set: fail the write as retryable instead of
        // self-acknowledging — otherwise a partitioned minority of one could
        // confirm claims (and renewals) against itself.
        let isolated = targets.is_empty() && core.cfg.dht.replication > 1 && core.ever_connected;
        if isolated {
            core.stats.dht_quorum_writes += 1;
            core.stats.dht_quorum_write_timeouts += 1;
        } else if let Some(rec) = self.store.get_mut(&key) {
            rec.replicated_to = targets.clone();
        }
        let (value, ttl_ms, version) = (w.value.clone(), w.ttl_ms, w.version);
        let q = Quorum {
            key,
            targets,
            answers: Vec::new(),
            issued: now,
            round: Round::Write(w),
        };
        if q.targets.is_empty() {
            // A single-copy set acknowledges at once.
            return self.finish(core, now, q, !isolated);
        }
        let op = core.fresh_token();
        for peer in &q.targets {
            // Not `replicate()`: a renewal pushes the TTL it asks for, while
            // the local record keeps its old expiry until the quorum acks.
            let payload = RoutedPayload::DhtReplicate {
                key,
                value: value.clone(),
                ttl_ms,
                version,
                token: op,
            };
            self.send(core, now, *peer, DeliveryMode::Exact, payload);
        }
        self.quorums.insert(op, q);
        core.stats.dht_quorum_writes += 1;
    }

    /// May `src`'s answer to the round `token` names count? Nothing pending
    /// is routine — the rest of the copy set answers after a majority
    /// already concluded — and so is a token of the other kind (`read` says
    /// which kind answered): both are ignored. Tokens are a guessable
    /// counter, so an answer counts only from a target of the round, and only
    /// once; anything else is dropped and counted in `dht_bad_acks`.
    fn admit(&self, core: &mut Core, token: u64, src: Address, read: bool) -> bool {
        let Some(q) = self.quorums.get(&token) else {
            return false;
        };
        if matches!(q.round, Round::Read { .. }) != read {
            return false;
        }
        let counts = q.targets.contains(&src) && !q.answers.iter().any(|(p, _)| *p == src);
        if !counts {
            core.stats.dht_bad_acks += 1;
        }
        counts
    }

    /// Count `src`'s admitted answer to the round `token` names, and finish
    /// the round once it holds enough: a write once a majority of the copy
    /// set stored the record; a read once a majority answered with a live
    /// copy in sight (ours or a reply's), or every target answered. A
    /// record-less replica answering fastest must not turn a live record
    /// into a miss — that would also skip the repair that fixes the gap.
    fn count(
        &mut self,
        core: &mut Core,
        now: SimTime,
        token: u64,
        src: Address,
        copy: Option<DhtRecord>,
    ) {
        let Some(q) = self.quorums.get_mut(&token) else {
            return;
        };
        q.answers.push((src, copy));
        let majority = q.answers.len() >= peer_majority(&q.targets);
        let done = match q.round {
            Round::Write(_) => majority,
            Round::Read { .. } => {
                let live_in_sight = q.answers.iter().any(|(_, c)| c.is_some())
                    || self.store.live(&q.key, now).is_some();
                q.answers.len() >= q.targets.len() || (majority && live_in_sight)
            }
        };
        if done {
            if let Some(q) = self.quorums.remove(&token) {
                self.finish(core, now, q, true);
            }
        }
    }

    /// Conclude a quorum round; `met` says whether a write reached its
    /// majority (a read is served from whatever answered either way).
    ///
    /// * A write that met its quorum answers `created`; a renewal extends the
    ///   local expiry only now that a majority holds the extended record.
    /// * A write that did not rejects the claim with `existing: None`, which
    ///   tells a quorum failure (retry later) from a real conflict. A *fresh*
    ///   claim is withdrawn — from the local store (so the key is not
    ///   half-claimed on this side of a partition) and from every target,
    ///   which may have stored it and lost its ack. A failed *renewal* leaves
    ///   the committed copies at their pre-renewal expiries.
    /// * A read answers its origin with the freshest copy seen (local store
    ///   included) and repairs every copy that turned out stale or missing —
    ///   on this node by storing and re-replicating the freshest record, on
    ///   polled replicas by pushing it to them directly.
    fn finish(&mut self, core: &mut Core, now: SimTime, q: Quorum, met: bool) {
        let key = q.key;
        let w = match q.round {
            Round::Write(w) => w,
            Round::Read {
                reply_to: (origin, token),
            } => {
                let own: Option<DhtRecord> = self.store.live(&key, now).cloned();
                let answers = q.answers.iter().filter_map(|(_, copy)| copy.as_ref());
                let best = own.iter().chain(answers).max_by_key(|c| c.freshness());
                let best = best.cloned();
                let value = best.as_ref().map(|c| c.value.clone());
                let payload = RoutedPayload::DhtReply { token, value };
                self.send(core, now, origin, DeliveryMode::Exact, payload);
                let Some(best) = best else {
                    return; // nothing live anywhere: nothing to repair with
                };
                // Repair decisions tolerate small expiry skew: a replica's
                // expiry is reconstructed from its remaining TTL and so
                // arrives inflated by the reply's transit time (plus
                // rounding). Without slack every read of a perfectly healthy
                // record would "repair" all its in-sync copies.
                let materially_staler = |copy: &DhtRecord| {
                    best.version > copy.version
                        || best.value != copy.value
                        || best.expires_at > copy.expires_at + READ_REPAIR_SLACK
                };
                let own_stale =
                    own.is_none_or(|o| best.freshness() > o.freshness() && materially_staler(&o));
                if own_stale {
                    // Adopt the freshest copy locally and push it back out
                    // through the normal replication path (replicas keep
                    // their own copy when it is already as fresh).
                    let ttl_ms = best.remaining_ttl_ms(now);
                    let rec =
                        DhtRecord::received(now, best.value.clone(), ttl_ms, best.version, false);
                    self.store.insert(key, rec);
                    core.stats.dht_read_repairs += 1;
                    self.replicate_key(core, now, key);
                    return;
                }
                // Our copy was the freshest: push it to every polled replica
                // that answered with a materially stale or missing copy.
                let push = replicate(key, &best, now);
                for (peer, copy) in &q.answers {
                    if copy.as_ref().is_none_or(&materially_staler) {
                        core.stats.dht_read_repairs += 1;
                        self.send(core, now, *peer, DeliveryMode::Exact, push.clone());
                    }
                }
                return;
            }
        };
        if met {
            if let Some(t) = w.extends_to {
                let rec = self.store.get_mut(&key).filter(|rec| rec.value == w.value);
                if let Some(rec) = rec {
                    rec.expires_at = rec.expires_at.max(t);
                }
            }
        } else if w.extends_to.is_none() {
            self.withdraw(&key, &w.value, w.version);
            for peer in &q.targets {
                let payload = RoutedPayload::DhtWithdraw {
                    key,
                    value: w.value.clone(),
                    version: w.version,
                };
                self.send(core, now, *peer, DeliveryMode::Exact, payload);
            }
        }
        self.send_create_reply(core, now, w.reply_to, met, None);
    }

    /// Intercept a `DhtCreateReply` belonging to a lease renewal this node
    /// issued from [`Dht::tick`]. Returns true when the token was a renewal
    /// (the reply is internal and must not reach callers).
    fn on_renewal_reply(
        &mut self,
        core: &mut Core,
        now: SimTime,
        token: u64,
        created: bool,
        existing: Option<&Bytes>,
    ) -> bool {
        let Some((&key, p)) = self
            .published
            .iter_mut()
            .find(|(_, p)| p.renew_inflight.is_some_and(|(t, _)| t == token))
        else {
            return false;
        };
        if created {
            p.renew_inflight = None;
            p.last_refresh = now;
            core.stats.dht_refreshes += 1;
        } else if existing.is_some() {
            // A conflicting record owns the key — this lease lost (typical
            // after a healed partition). Stop renewing and tell the agent.
            self.published.remove(&key);
            self.lost_leases.push_back(key);
            core.stats.dht_leases_lost += 1;
        }
        // created == false with no existing value is a quorum-write failure
        // (the coordinator could not reach a majority), not a conflict: keep
        // the publication and the in-flight marker — the renewal timeout
        // re-issues (and alarms) until the partition heals.
        true
    }

    /// Push replicas of `key` to the ring neighbours that should hold copies
    /// and do not yet (no-op unless this node owns the key).
    fn replicate_key(&mut self, core: &mut Core, now: SimTime, key: Address) {
        if core.cfg.dht.replication <= 1 || !core.owns_key(&key) {
            return;
        }
        let targets = self.replica_set(core, &key);
        let Some(rec) = self.store.get_mut(&key) else {
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
        let push = replicate(key, rec, now);
        for peer in missing {
            self.send(core, now, peer, DeliveryMode::Exact, push.clone());
        }
    }

    // ---------------------------------------------------------- maintenance

    /// Per-tick DHT maintenance: soft-state expiry, publisher lease renewal at
    /// TTL/2, quorum-operation timeouts, and (re-)replication of owned records
    /// when the neighbour set changed since the last pass.
    pub(crate) fn tick(&mut self, core: &mut Core, now: SimTime) {
        core.stats.dht_expired += self.store.expire(now) as u64;
        // Forget creates whose reply never came; a stale reply must not
        // resurrect an abandoned claim as a publication.
        self.pending_creates
            .retain(|_, p| now.saturating_since(p.issued) < PENDING_CREATE_TIMEOUT);
        // Quorum rounds out of time: a write that never reached a majority
        // rejects the claim, a read is served from the copies that arrived.
        let late: Vec<u64> = self
            .quorums
            .iter()
            .filter(|(_, q)| now.saturating_since(q.issued) >= QUORUM_TIMEOUT)
            .map(|(op, _)| *op)
            .collect();
        for op in late {
            let Some(q) = self.quorums.remove(&op) else {
                continue;
            };
            match q.round {
                Round::Write(_) => core.stats.dht_quorum_write_timeouts += 1,
                Round::Read { .. } => core.stats.dht_quorum_read_timeouts += 1,
            }
            self.finish(core, now, q, false);
        }
        // Publisher refresh. Plain publications re-put (last-writer-wins);
        // claimed publications renew with a create so a conflicting record is
        // detected. A renewal whose reply never came is re-issued after the
        // renewal timeout and alarmed — never silently dropped, which would
        // let the lease expire while this node keeps using the address.
        let due: Vec<Address> = self
            .published
            .iter()
            .filter(|(_, p)| match p.renew_inflight {
                Some((_, issued)) => now.saturating_since(issued) >= RENEWAL_TIMEOUT,
                None => now.saturating_since(p.last_refresh) >= p.ttl / 2,
            })
            .map(|(key, _)| *key)
            .collect();
        for key in due {
            self.renew(core, now, key);
        }
        // Re-replication: walk owned records and fill replication gaps — but
        // only when the established-peer set actually changed. Ownership and
        // replica targets are pure functions of that set, and fresh stores /
        // refresh puts already replicate on the delivery path.
        let (checked, peers) = &mut self.last_replica_peers;
        let version = core.table.version();
        if std::mem::replace(checked, version) != version
            && !core.table.established_addrs().eq(peers.iter())
        {
            *peers = core.table.peers();
            for key in self.store.keys() {
                self.replicate_key(core, now, key);
            }
        }
        // Anti-entropy: periodically exchange record digests so replica sets
        // converge even when no read or renewal touches a key.
        if let Some(interval) = core.cfg.dht.sweep_interval {
            self.anti_entropy_tick(core, now, interval);
        }
    }

    // --------------------------------------------------------- anti-entropy

    /// Run the anti-entropy sweep when due. The first sweep is offset by a
    /// random fraction of the interval so a fleet started together does not
    /// digest in lockstep.
    fn anti_entropy_tick(&mut self, core: &mut Core, now: SimTime, interval: Duration) {
        match self.next_sweep {
            None => {
                let offset = interval.mul_f64(core.rng.unit());
                self.next_sweep = Some(now + offset);
                return;
            }
            Some(t) if now < t => return,
            Some(_) => {}
        }
        self.next_sweep = Some(now + interval);
        self.run_sweep(core, now);
    }

    /// One anti-entropy sweep: send each replica-set peer a digest of the
    /// owned records it should hold, and route a digest of every publication
    /// toward its key's owner. Receivers pull the records they are missing
    /// (or hold stale) and push back fresher copies — see
    /// [`Dht::handle_sync_digest`].
    fn run_sweep(&mut self, core: &mut Core, now: SimTime) {
        // Owner → replica set: group digest entries per target peer.
        let mut per_peer: BTreeMap<Address, Vec<SyncDigestEntry>> = BTreeMap::new();
        if core.cfg.dht.replication > 1 {
            for key in self.store.keys() {
                if !core.owns_key(&key) {
                    continue;
                }
                let Some(rec) = self.store.live(&key, now) else {
                    continue;
                };
                let entry = sync_digest_entry(key, rec, now);
                for peer in self.replica_set(core, &key) {
                    per_peer.entry(peer).or_default().push(entry);
                }
            }
        }
        for (peer, entries) in per_peer {
            for chunk in entries.chunks(SYNC_DIGEST_CHUNK) {
                core.stats.dht_sync_digests += 1;
                let payload = RoutedPayload::DhtSyncDigest {
                    entries: chunk.to_vec(),
                    from_owner: true,
                };
                self.send(core, now, peer, DeliveryMode::Exact, payload);
            }
        }
        // Publisher → owner: one digest per publication, routed to whichever
        // node currently owns the key. This is what recovers a put that was
        // lost in a crashed hop: the new owner sees a record it does not
        // hold and pulls it, within one sweep instead of the TTL/2 refresh.
        let digests: Vec<SyncDigestEntry> = self
            .published
            .iter()
            .map(|(key, p)| {
                let expires_at = p.last_refresh + p.ttl;
                let remaining_ms = expires_at.saturating_since(now).as_nanos() / 1_000_000;
                SyncDigestEntry {
                    key: *key,
                    version: p.version,
                    value_hash: sync_value_hash(&p.value),
                    ttl_bucket: remaining_ms / SYNC_TTL_BUCKET_MS,
                }
            })
            .collect();
        for entry in digests {
            core.stats.dht_sync_digests += 1;
            let payload = RoutedPayload::DhtSyncDigest {
                entries: vec![entry],
                from_owner: false,
            };
            self.send(core, now, entry.key, DeliveryMode::Closest, payload);
        }
    }

    /// Compare a received digest against the local store. Records the sender
    /// has fresher are pulled (a `DhtSyncPull` goes back); records *we* hold
    /// fresher are pushed back directly — but only for owner→replica sweeps:
    /// a publisher is not part of the key's copy set, and a conflicting
    /// owner record is the renewal path's business to surface.
    fn handle_sync_digest(
        &mut self,
        core: &mut Core,
        now: SimTime,
        entries: &[SyncDigestEntry],
        from_owner: bool,
        src: Address,
    ) {
        let mut pulls: Vec<Address> = Vec::new();
        let mut pushes: Vec<Address> = Vec::new();
        for entry in entries {
            match sync_compare(entry, self.store.get(&entry.key), now) {
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
            let Some(rec) = self.store.live(&key, now) else {
                continue;
            };
            let push = replicate(key, rec, now);
            core.stats.dht_sync_pushes += 1;
            self.send(core, now, src, DeliveryMode::Exact, push);
        }
        if !pulls.is_empty() {
            let payload = RoutedPayload::DhtSyncPull { keys: pulls };
            self.send(core, now, src, DeliveryMode::Exact, payload);
        }
    }

    /// Answer a pull: re-send each requested record — publications through
    /// their refresh path (a put, or an early renewal create for claimed
    /// leases so conflict detection is never bypassed), stored records as
    /// plain replicates.
    fn handle_sync_pull(&mut self, core: &mut Core, now: SimTime, keys: &[Address], src: Address) {
        for &key in keys {
            if let Some(p) = self.published.get(&key) {
                core.stats.dht_sync_pulls += 1;
                // A claimed lease recovers through an early renewal create,
                // unless one is already in flight.
                if p.renew_inflight.is_none() {
                    self.renew(core, now, key);
                }
                continue;
            }
            let Some(rec) = self.store.live(&key, now) else {
                continue;
            };
            let push = replicate(key, rec, now);
            core.stats.dht_sync_pulls += 1;
            self.send(core, now, src, DeliveryMode::Exact, push);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8) -> Address {
        let mut b = [0u8; 20];
        b[0] = n;
        Address(b)
    }

    fn rec(len: usize, expires_at: SimTime, replica: bool) -> DhtRecord {
        DhtRecord {
            value: vec![7u8; len].into(),
            expires_at,
            version: 1,
            replica,
            replicated_to: Vec::new(),
        }
    }

    #[test]
    fn insert_tracks_bytes_and_overwrite() {
        let mut s = SoftStateStore::new();
        let t = SimTime::ZERO + Duration::from_secs(10);
        s.insert(key(1), rec(10, t, false));
        s.insert(key(2), rec(5, t, true));
        assert_eq!(s.len(), 2);
        assert_eq!(s.stored_bytes(), 15);
        assert_eq!(s.replicas_held(), 1);
        // Overwrite shrinks the byte count to the new value's size.
        s.insert(key(1), rec(3, t, false));
        assert_eq!(s.stored_bytes(), 8);
        s.remove(&key(2));
        assert_eq!(s.stored_bytes(), 3);
        assert_eq!(s.replicas_held(), 0);
    }

    #[test]
    fn expire_drops_only_stale_records() {
        let mut s = SoftStateStore::new();
        s.insert(
            key(1),
            rec(4, SimTime::ZERO + Duration::from_secs(5), false),
        );
        s.insert(
            key(2),
            rec(4, SimTime::ZERO + Duration::from_secs(50), false),
        );
        assert_eq!(s.expire(SimTime::ZERO + Duration::from_secs(10)), 1);
        assert_eq!(s.len(), 1);
        assert!(s.get(&key(2)).is_some());
        assert_eq!(s.stored_bytes(), 4);
    }

    #[test]
    fn keys_are_ordered() {
        let mut s = SoftStateStore::new();
        let t = SimTime::ZERO + Duration::from_secs(1);
        for n in [9u8, 3, 7, 1] {
            s.insert(key(n), rec(1, t, false));
        }
        assert_eq!(s.keys(), vec![key(1), key(3), key(7), key(9)]);
    }

    #[test]
    fn remaining_ttl_saturates() {
        let r = rec(1, SimTime::ZERO + Duration::from_secs(5), false);
        assert_eq!(r.remaining_ttl(SimTime::ZERO), Duration::from_secs(5));
        assert_eq!(
            r.remaining_ttl(SimTime::ZERO + Duration::from_secs(9)),
            Duration::ZERO
        );
        assert!(r.expired(SimTime::ZERO + Duration::from_secs(5)));
        assert!(!r.expired(SimTime::ZERO + Duration::from_secs(4)));
    }

    #[test]
    fn expiry_boundary_is_expired_and_swept() {
        // expires_at == now: expired, zero remaining TTL, and the sweep drops
        // it — the three views of the boundary must agree so a record at its
        // expiry instant is never served.
        let at = SimTime::ZERO + Duration::from_secs(5);
        let r = rec(1, at, false);
        assert!(r.expired(at));
        assert_eq!(r.remaining_ttl(at), Duration::ZERO);
        assert_eq!(r.remaining_ttl_ms(at), 0);
        let mut s = SoftStateStore::new();
        s.insert(key(1), rec(4, at, false));
        assert_eq!(s.expire(at), 1, "boundary record swept, not kept");
        assert!(s.is_empty());
    }

    #[test]
    fn remaining_ttl_ms_rounds_up_for_live_records() {
        // A record with less than a millisecond left is still live; handing
        // it off with a truncated TTL of 0 ms would kill it at the receiver.
        let r = rec(1, SimTime::ZERO + Duration::from_nanos(400_000), false);
        assert!(!r.expired(SimTime::ZERO));
        assert_eq!(r.remaining_ttl_ms(SimTime::ZERO), 1);
        let r2 = rec(1, SimTime::ZERO + Duration::from_millis(7), false);
        assert_eq!(r2.remaining_ttl_ms(SimTime::ZERO), 7);
    }

    #[test]
    fn sync_compare_detects_each_divergence_class() {
        let now = SimTime::ZERO + Duration::from_secs(100);
        let live = |version, ttl_s| DhtRecord {
            value: vec![7u8; 3].into(),
            expires_at: now + Duration::from_secs(ttl_s),
            version,
            replica: true,
            replicated_to: Vec::new(),
        };
        let entry_of = |rec: &DhtRecord| sync_digest_entry(key(1), rec, now);
        // Missing local copy: pull.
        assert_eq!(
            sync_compare(&entry_of(&live(3, 60)), None, now),
            SyncAction::Pull
        );
        // Expired local copy counts as missing.
        let mut expired = live(9, 60);
        expired.expires_at = now;
        assert_eq!(
            sync_compare(&entry_of(&live(3, 60)), Some(&expired), now),
            SyncAction::Pull
        );
        // Version ordering dominates both directions.
        assert_eq!(
            sync_compare(&entry_of(&live(5, 60)), Some(&live(3, 600)), now),
            SyncAction::Pull
        );
        assert_eq!(
            sync_compare(&entry_of(&live(3, 600)), Some(&live(5, 60)), now),
            SyncAction::Push
        );
        // Same version + value: small TTL skew is in sync, a renewal-sized
        // gap pulls/pushes.
        assert_eq!(
            sync_compare(&entry_of(&live(3, 60)), Some(&live(3, 58)), now),
            SyncAction::InSync
        );
        assert_eq!(
            sync_compare(&entry_of(&live(3, 90)), Some(&live(3, 60)), now),
            SyncAction::Pull
        );
        assert_eq!(
            sync_compare(&entry_of(&live(3, 60)), Some(&live(3, 90)), now),
            SyncAction::Push
        );
        // Same version, different value: exchange and let the byte-level
        // freshness rule decide.
        let mut other = live(3, 60);
        other.value = vec![9u8; 3].into();
        assert_eq!(
            sync_compare(&entry_of(&live(3, 60)), Some(&other), now),
            SyncAction::Exchange
        );
    }

    #[test]
    fn apply_record_copy_respects_freshness() {
        let now = SimTime::ZERO + Duration::from_secs(10);
        let mut s = SoftStateStore::new();
        let v1: Bytes = b"one".to_vec().into();
        let v2: Bytes = b"two".to_vec().into();
        assert!(apply_record_copy(&mut s, key(1), &v1, 60_000, 5, true, now));
        // A staler push is refused...
        assert!(!apply_record_copy(
            &mut s,
            key(1),
            &v2,
            600_000,
            4,
            true,
            now
        ));
        assert_eq!(s.get(&key(1)).unwrap().value, v1);
        // ...a fresher one replaces.
        assert!(apply_record_copy(&mut s, key(1), &v2, 60_000, 6, true, now));
        assert_eq!(s.get(&key(1)).unwrap().value, v2);
        assert_eq!(s.get(&key(1)).unwrap().version, 6);
    }

    #[test]
    fn freshness_orders_by_version_then_expiry() {
        let t1 = SimTime::ZERO + Duration::from_secs(10);
        let t2 = SimTime::ZERO + Duration::from_secs(20);
        let mut a = rec(3, t1, false);
        let mut b = rec(3, t2, false);
        assert!(
            b.freshness() > a.freshness(),
            "later expiry wins at equal version"
        );
        a.version = 2;
        assert!(
            a.freshness() > b.freshness(),
            "higher version beats later expiry"
        );
        b.version = 2;
        assert!(b.freshness() > a.freshness());
    }

    // ------------------------------------------------------ reference model

    /// [`Dht`] at a single-copy owner — a lone [`Core`], which owns every key
    /// and answers its own requests — against a plain map.
    mod model {
        use super::*;
        use crate::node::OverlayConfig;
        use ipop_simcore::StreamRng;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// The reference: `key → (version, value, expiry)` under the
        /// create-if-absent, last-writer-wins and `(version, expiry, value)`
        /// freshness rules. Expired entries linger until `sweep`, as in the
        /// store, and are invisible to every rule but `withdraw` / `remove`.
        #[derive(Default)]
        struct Model(BTreeMap<Address, (u64, Bytes, SimTime)>);

        fn expiry(now: SimTime, ttl_ms: u64) -> SimTime {
            now + Duration::from_millis(ttl_ms.min(MAX_WIRE_TTL_MS))
        }

        fn capped(now: SimTime, version: u64) -> u64 {
            version.min(version_for(now) + MAX_VERSION_LEAD)
        }

        impl Model {
            fn live(&self, key: &Address, now: SimTime) -> Option<&(u64, Bytes, SimTime)> {
                self.0
                    .get(key)
                    .filter(|(_, _, expires_at)| *expires_at > now)
            }

            fn put(&mut self, now: SimTime, key: Address, value: Bytes, ttl_ms: u64, version: u64) {
                let version = capped(now, version);
                let stored = match self.live(&key, now) {
                    None => version.max(version_for(now)),
                    Some((held, same, _)) if *same == value => version.max(*held),
                    Some((held, _, _)) if version > *held => version,
                    Some((held, _, _)) => held + 1,
                };
                self.0.insert(key, (stored, value, expiry(now, ttl_ms)));
            }

            /// Returns `(created, the winner's value on conflict)`.
            fn create(
                &mut self,
                now: SimTime,
                key: Address,
                value: Bytes,
                ttl_ms: u64,
            ) -> (bool, Option<Bytes>) {
                match self.live(&key, now).cloned() {
                    Some((_, winner, _)) if winner != value => (false, Some(winner)),
                    Some((version, _, expires_at)) => {
                        let renewed = expires_at.max(expiry(now, ttl_ms));
                        self.0.insert(key, (version, value, renewed));
                        (true, None)
                    }
                    None => {
                        let fresh = (version_for(now), value, expiry(now, ttl_ms));
                        self.0.insert(key, fresh);
                        (true, None)
                    }
                }
            }

            fn replicate(
                &mut self,
                now: SimTime,
                key: Address,
                value: Bytes,
                ttl_ms: u64,
                version: u64,
            ) {
                let copy = (capped(now, version), value, expiry(now, ttl_ms));
                let rank = |(version, value, expires_at): &(u64, Bytes, SimTime)| {
                    (*version, *expires_at, value.to_vec())
                };
                if self
                    .live(&key, now)
                    .is_none_or(|held| rank(held) <= rank(&copy))
                {
                    self.0.insert(key, copy);
                }
            }

            fn withdraw(&mut self, key: Address, value: &Bytes, version: u64) {
                if self
                    .0
                    .get(&key)
                    .is_some_and(|(held, same, _)| held == &version && same == value)
                {
                    self.0.remove(&key);
                }
            }

            fn sweep(&mut self, now: SimTime) {
                self.0.retain(|_, (_, _, expires_at)| *expires_at > now);
            }
        }

        const KEYS: u64 = 3;

        proptest! {
            /// Whatever the sequence of puts, creates, same-value renewals,
            /// removes, replicates, withdraws and elapsed time — forged
            /// versions and TTLs included — the component never panics (the
            /// suite runs with overflow checks), holds exactly the reference's
            /// live records, answers `created` exactly when the reference
            /// does (never while a different live value holds the key), and
            /// serves no expired record.
            #[test]
            fn dht_matches_the_reference_model(steps in vec(any::<[u64; 3]>(), 1..60)) {
                let me = key(9);
                let cfg = OverlayConfig::new(me, ([10, 0, 0, 1].into(), 4001));
                let mut core = Core::new(cfg, StreamRng::new(7, "dht-model"));
                let mut dht = Dht::default();
                let mut model = Model::default();
                let mut now = SimTime::ZERO + Duration::from_secs(50);
                for (token, [what, version, ttl]) in steps.into_iter().enumerate() {
                    let token = token as u64;
                    now += Duration::from_millis((what >> 24) % 1500);
                    let k = key(((what >> 8) % KEYS) as u8);
                    let value = Bytes::from(vec![b'a' + ((what >> 16) % 3) as u8]);
                    // A third of the versions and a quarter of the TTLs are
                    // raw words (mostly absurd); the rest are plausible.
                    let version = match version % 3 {
                        0 => version,
                        _ => (version_for(now) + version % 5).saturating_sub(2),
                    };
                    let ttl_ms = if ttl % 4 == 0 { ttl } else { ttl % 5000 };
                    let held = model.live(&k, now).cloned();
                    let payload = match what % 8 {
                        0 => {
                            model.put(now, k, value.clone(), ttl_ms, version);
                            RoutedPayload::DhtPut { key: k, value, ttl_ms, version }
                        }
                        op @ (1 | 2) => {
                            // 2 renews whatever holds the key, if anything.
                            let value = match (op, &held) {
                                (2, Some((_, held, _))) => held.clone(),
                                _ => value,
                            };
                            let expected = model.create(now, k, value.clone(), ttl_ms);
                            if let (Some((_, holder, _)), (true, _)) = (&held, &expected) {
                                prop_assert_eq!(holder, &value, "created over a live record");
                            }
                            let create = RoutedPayload::DhtCreate { key: k, value, ttl_ms, token };
                            dht.on_payload(&mut core, now, me, create);
                            let (created, existing) = expected;
                            prop_assert_eq!(
                                dht.create_replies.pop_front(),
                                Some((token, created, existing))
                            );
                            RoutedPayload::DhtGet { key: k, token }
                        }
                        3 => {
                            model.0.remove(&k);
                            RoutedPayload::DhtRemove { key: k }
                        }
                        4 => {
                            model.replicate(now, k, value.clone(), ttl_ms, version);
                            RoutedPayload::DhtReplicate { key: k, value, ttl_ms, version, token: 0 }
                        }
                        5 => {
                            // Withdraw what is held, or — one time in two —
                            // something that is not.
                            let (version, value) = match held {
                                Some((held, same, _)) if ttl % 2 == 0 => (held, same),
                                _ => (version, value),
                            };
                            model.withdraw(k, &value, version);
                            RoutedPayload::DhtWithdraw { key: k, value, version }
                        }
                        6 => RoutedPayload::DhtGet { key: k, token },
                        _ => {
                            model.sweep(now);
                            dht.tick(&mut core, now);
                            RoutedPayload::DhtGet { key: k, token }
                        }
                    };
                    let is_get = matches!(payload, RoutedPayload::DhtGet { .. });
                    dht.on_payload(&mut core, now, me, payload);
                    if is_get {
                        let served = model.live(&k, now).map(|(_, value, _)| value.clone());
                        prop_assert_eq!(dht.replies.pop_front(), Some((token, served)));
                    }
                    for n in 0..KEYS {
                        let k = key(n as u8);
                        let held = dht.store().live(&k, now);
                        let held = held.map(|r| (r.version, r.value.clone(), r.expires_at));
                        prop_assert_eq!(held.as_ref(), model.live(&k, now), "key {} at {:?}", n, now);
                    }
                    prop_assert!(dht.replies.is_empty() && dht.create_replies.is_empty());
                }
                prop_assert!(core.take_outbox().is_empty(), "a lone node sends nothing");
            }
        }
    }
}
