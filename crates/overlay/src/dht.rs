//! Replicated soft-state DHT storage.
//!
//! The paper's self-configuration services (Brunet-ARP, and the address
//! allocation / name services built on top of it) assume a DHT that survives
//! churn. This module provides the storage half of that DHT; the protocol half
//! (routing `DhtPut`/`DhtGet`/`DhtCreate` operations, replicating records to
//! ring neighbours, handing records off on graceful leave) lives in
//! [`crate::node::OverlayNode`].
//!
//! Records are *soft state*: every record carries an absolute expiry instant
//! and is dropped when it passes, so stale data ages out without any explicit
//! invalidation protocol. Publishers keep their records alive by re-putting
//! them at half the TTL (DHCP-style lease renewal); a record whose publisher
//! crashed simply disappears one TTL later.
//!
//! The store sits behind the narrow [`DhtStore`] trait so the node never
//! depends on a concrete container. Implementations must iterate keys in a
//! deterministic order — key scans feed directly into replication-message
//! emission order, and the simulator's byte-identical-replay contract extends
//! to DHT maintenance traffic.

use std::collections::BTreeMap;

use ipop_packet::Bytes;
use ipop_simcore::{Duration, SimTime};

use crate::address::Address;

/// Configuration of the DHT subsystem of one overlay node.
#[derive(Clone, Debug)]
pub struct DhtConfig {
    /// Total number of copies of each record (owner plus `replication - 1`
    /// ring neighbours). `1` disables replication.
    pub replication: usize,
    /// TTL applied to records stored without an explicit TTL.
    pub default_ttl: Duration,
    /// Quorum operation: when true, a `DhtCreate` is acknowledged only after a
    /// majority of the key's copy set stored the record, and a `DhtGet` polls
    /// the replica set, answers with the freshest copy by `(version, expiry)`
    /// and repairs stale or missing replicas. When false the key's owner
    /// answers alone from its local store (the pre-quorum behaviour).
    pub quorum: bool,
    /// How long a quorum coordinator waits for replica acks/answers before
    /// concluding: an unacked create fails (the claimant retries elsewhere),
    /// an unanswered read is served from whatever copies did answer.
    pub quorum_timeout: Duration,
    /// How long an unanswered lease-renewal `DhtCreate` stays outstanding
    /// before it is re-issued (and counted as a renewal timeout alarm).
    pub renewal_timeout: Duration,
    /// Anti-entropy: when true, every [`DhtConfig::sweep_interval`] each node
    /// exchanges compact record digests with the replica set of every key it
    /// owns (and with the owner of every key it publishes), pulling/pushing
    /// only the differing records — so replica sets converge even when no
    /// read ever touches a key, and a put lost in a crashed hop is recovered
    /// within one sweep instead of waiting out the publisher's TTL/2 refresh.
    pub sweep: bool,
    /// Interval between anti-entropy sweeps. Each node offsets its first
    /// sweep by a random fraction of this so the fleet does not synchronize.
    pub sweep_interval: Duration,
}

impl Default for DhtConfig {
    fn default() -> Self {
        DhtConfig {
            replication: 3,
            default_ttl: Duration::from_secs(120),
            quorum: true,
            quorum_timeout: Duration::from_secs(4),
            renewal_timeout: Duration::from_secs(10),
            sweep: true,
            sweep_interval: Duration::from_secs(10),
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
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in value {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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

/// Apply an incoming record copy (a replicate, repair, or anti-entropy push)
/// to `store` under the replica conflict rule: the existing record survives
/// when it outranks the incoming copy by `(version, expiry, value)`
/// freshness. Returns true when the incoming copy was stored.
pub fn apply_record_copy(
    store: &mut dyn DhtStore,
    key: Address,
    value: &Bytes,
    ttl_ms: u64,
    version: u64,
    replica: bool,
    now: SimTime,
) -> bool {
    let expires_at = wire_expiry(now, ttl_ms);
    let keep_existing = store
        .get(&key)
        .filter(|rec| !rec.expired(now))
        .is_some_and(|rec| rec.freshness() > (version, expires_at, value.as_ref()));
    if keep_existing {
        return false;
    }
    store.insert(
        key,
        DhtRecord {
            value: value.clone(),
            expires_at,
            version,
            replica,
            replicated_to: Vec::new(),
        },
    );
    true
}

/// The narrow storage interface the overlay node drives.
///
/// `keys()` must return keys in a deterministic (implementation-stable) order:
/// replication traffic is emitted while scanning it.
pub trait DhtStore {
    /// Insert or overwrite the record under `key`.
    fn insert(&mut self, key: Address, record: DhtRecord);
    /// Borrow the record under `key`, if present (expired records may still be
    /// returned until the next [`DhtStore::expire`] sweep — callers that care
    /// check [`DhtRecord::expired`]).
    fn get(&self, key: &Address) -> Option<&DhtRecord>;
    /// Mutably borrow the record under `key`.
    fn get_mut(&mut self, key: &Address) -> Option<&mut DhtRecord>;
    /// Remove and return the record under `key`.
    fn remove(&mut self, key: &Address) -> Option<DhtRecord>;
    /// Drop every expired record; returns how many were dropped.
    fn expire(&mut self, now: SimTime) -> usize;
    /// All stored keys, in deterministic order.
    fn keys(&self) -> Vec<Address>;
    /// Number of stored records.
    fn len(&self) -> usize;
    /// True when nothing is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Total stored value bytes.
    fn stored_bytes(&self) -> usize;
    /// Number of records held as replicas (not owned).
    fn replicas_held(&self) -> usize;
}

/// The default in-memory soft-state store: a `BTreeMap`, so key iteration is
/// address-ordered and byte-identical across same-seed runs.
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
}

impl DhtStore for SoftStateStore {
    fn insert(&mut self, key: Address, record: DhtRecord) {
        self.bytes += record.value.len();
        if let Some(old) = self.records.insert(key, record) {
            self.bytes -= old.value.len();
        }
    }

    fn get(&self, key: &Address) -> Option<&DhtRecord> {
        self.records.get(key)
    }

    fn get_mut(&mut self, key: &Address) -> Option<&mut DhtRecord> {
        self.records.get_mut(key)
    }

    fn remove(&mut self, key: &Address) -> Option<DhtRecord> {
        let removed = self.records.remove(key);
        if let Some(rec) = &removed {
            self.bytes -= rec.value.len();
        }
        removed
    }

    fn expire(&mut self, now: SimTime) -> usize {
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

    fn keys(&self) -> Vec<Address> {
        self.records.keys().copied().collect()
    }

    fn len(&self) -> usize {
        self.records.len()
    }

    fn stored_bytes(&self) -> usize {
        self.bytes
    }

    fn replicas_held(&self) -> usize {
        self.records.values().filter(|r| r.replica).count()
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
}
