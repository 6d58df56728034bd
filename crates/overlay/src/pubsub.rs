//! Topic-based publish/subscribe over the ring.
//!
//! A topic lives at `SHA-1("topic:" + name)`: the ring owner of that key — the
//! *topic root* — keeps the subscriber set as an ordinary replicated DHT
//! record, so root crashes re-home the topic exactly like any other key (the
//! new owner already holds a replica, and soft-state subscription renewals
//! repopulate whatever the crash lost). Publishes are routed `Closest` to the
//! topic key; the root fans each one out along a bounded-degree relay tree:
//! the subscriber set is split into at most `fanout` contiguous chunks, the
//! first member of each chunk receives a [`crate::packets::RoutedPayload::PubSubDeliver`]
//! carrying the rest of its chunk as `relay_to`, and re-applies the same split
//! one level down. Every copy shares one wire image of the message body.
//!
//! The protocol's pure pieces come first — key derivation, the
//! subscriber-set record codec, and the fan-out planner — then [`PubSub`],
//! one node's stateful half: subscriber, publisher and topic root.

// This is a wire-decode module: decoders must return typed errors, never
// panic (PR 7 contract, machine-checked by ipop-lint rule D3).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ipop_packet::{Bytes, ParseError};
use ipop_simcore::{Duration, SimTime};

use crate::address::Address;
use crate::dht::{version_for, wire_expiry, Dht, DhtStore};
use crate::packets::{DeliveryMode, RoutedPayload};
use crate::router::{Arrival, Core};

/// Bytes of one encoded subscriber-set entry: address 20 + expiry ms 8.
const SUB_ENTRY_BYTES: usize = 28;

/// The DHT key a topic name maps to: `SHA-1("topic:" + name)`. The prefix
/// keeps topic keys from colliding with Brunet-ARP keys derived from raw
/// virtual-IP bytes.
pub fn topic_key(name: &str) -> Address {
    let mut keyed = Vec::with_capacity(6 + name.len());
    keyed.extend_from_slice(b"topic:");
    keyed.extend_from_slice(name.as_bytes());
    Address::from_key(&keyed)
}

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

/// Split `recipients` into at most `fanout` contiguous chunks and return one
/// `(head, rest-of-chunk)` pair per chunk: the head is sent the message
/// directly and delegated the rest as `relay_to`. Applied recursively at each
/// head, this covers every recipient exactly once with out-degree ≤ `fanout`
/// at every tree node and depth O(log_fanout N).
pub fn plan_fanout(recipients: &[Address], fanout: usize) -> Vec<(Address, Vec<Address>)> {
    let fanout = fanout.max(1);
    let n = recipients.len();
    if n == 0 {
        return Vec::new();
    }
    let chunks = fanout.min(n);
    let base = n / chunks;
    let extra = n % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut at = 0;
    for i in 0..chunks {
        let len = base + usize::from(i < extra);
        let chunk = &recipients[at..at + len];
        out.push((chunk[0], chunk[1..].to_vec()));
        at += len;
    }
    debug_assert_eq!(at, n);
    out
}

// ---------------------------------------------------------------- component

/// A topic this node subscribes to: the soft-state TTL it asked for and when
/// the subscription was last (re-)announced. Renewed at TTL/2 like any other
/// soft-state publication.
struct Subscription {
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
/// `pubsub_publish_failures`).
const MAX_PUBLISH_RETRIES: u32 = 8;

/// Base backoff between publish retries, doubled per attempt (capped).
const PUBLISH_RETRY_BACKOFF: Duration = Duration::from_millis(250);

/// One node's pub/sub component: its own subscriptions and in-flight
/// publishes, and — for the topics whose key it owns — the root side that
/// keeps the subscriber set as a DHT record and fans publishes out. It owns
/// every `PubSub*` wire tag; topic records are read and written through the
/// [`Dht`] it is handed beside the routing [`Core`].
#[derive(Default)]
pub(crate) struct PubSub {
    /// Topics this node subscribes to, keyed by topic key. `BTreeMap` so the
    /// renewal scan emits subscribes in a deterministic order.
    subs: BTreeMap<Address, Subscription>,
    /// Topic keys this node has served as root for (merged a subscribe or
    /// rewrote the record). Scanned on dead-edge verdicts to prune the dead
    /// peer out of owned subscriber sets; entries fall away once the record
    /// is gone or owned elsewhere.
    topics_seen: BTreeSet<Address>,
    /// Messages delivered to this node, for the embedding agent to drain:
    /// `(topic key, msg id, body)`.
    pub(crate) inbox: VecDeque<(Address, u64, Bytes)>,
    /// Publishes awaiting root confirmation of fan-out, keyed by msg id; a
    /// retryable nack from a re-homing root schedules a re-route here.
    /// Bounded: the oldest entries are evicted past
    /// [`MAX_PENDING_PUBLISHES`].
    pending_publishes: BTreeMap<u64, PendingPublish>,
    /// Insertion order of `pending_publishes` for bounded eviction.
    publish_order: VecDeque<u64>,
}

/// Root-side view of a topic record: the live (unexpired) subscriber
/// entries, in ring order. Missing, expired or undecodable records read
/// as empty.
fn live_entries(dht: &Dht, now: SimTime, topic: &Address) -> Vec<(Address, u64)> {
    let now_ms = now.as_nanos() / 1_000_000;
    let Some(rec) = dht.store().live(topic, now) else {
        return Vec::new();
    };
    let Ok(mut entries) = decode_subscriber_set(&rec.value) else {
        return Vec::new();
    };
    entries.retain(|(_, expires_ms)| *expires_ms > now_ms);
    entries
}

/// A delegated chunk, believed only as far as an honest root could have sent
/// it. A root plans from a set in ring order, so a chunk is strictly
/// ascending: one that is not is forged, and is re-planned from the set of
/// addresses it names — a repeated address would otherwise be sent one copy
/// per repetition. `receiver`, where given, has its copy already and is
/// dropped too. Every entry dropped is counted.
fn checked_chunk(
    core: &mut Core,
    mut relay_to: Vec<Address>,
    receiver: Option<Address>,
) -> Vec<Address> {
    let claimed = relay_to.len();
    if !relay_to.is_sorted_by(|a, b| a < b) {
        relay_to.sort();
        relay_to.dedup();
    }
    relay_to.retain(|addr| Some(*addr) != receiver);
    core.stats.pubsub_bad_chunk_entries += (claimed - relay_to.len()) as u64;
    relay_to
}

impl PubSub {
    /// Subscribe to `topic` with soft-state lifetime `ttl`: announced now,
    /// renewed at TTL/2 until [`PubSub::unsubscribe`].
    pub(crate) fn subscribe(
        &mut self,
        core: &mut Core,
        dht: &mut Dht,
        now: SimTime,
        topic: Address,
        ttl: Duration,
    ) {
        self.subs.insert(
            topic,
            Subscription {
                ttl,
                last_renew: now,
            },
        );
        self.announce(core, dht, now, topic);
    }

    /// Leave `topic`: stop renewing and ask the root to drop this node from
    /// the subscriber set immediately.
    pub(crate) fn unsubscribe(
        &mut self,
        core: &mut Core,
        dht: &mut Dht,
        now: SimTime,
        topic: Address,
    ) {
        self.subs.remove(&topic);
        let payload = RoutedPayload::PubSubUnsubscribe {
            topic,
            subscriber: core.cfg.address,
        };
        self.send(core, dht, now, topic, DeliveryMode::Closest, payload);
    }

    /// Withdraw every subscription (graceful leave), so topic roots stop
    /// fanning out to a node that is gone.
    pub(crate) fn unsubscribe_all(&mut self, core: &mut Core, dht: &mut Dht, now: SimTime) {
        let topics: Vec<Address> = self.subs.keys().copied().collect();
        for topic in topics {
            self.unsubscribe(core, dht, now, topic);
        }
    }

    /// Publish `payload` to `topic`; returns the message id echoed in every
    /// delivery.
    pub(crate) fn publish(
        &mut self,
        core: &mut Core,
        dht: &mut Dht,
        now: SimTime,
        topic: Address,
        payload: Bytes,
    ) -> u64 {
        let msg_id = core.rng.next_u64();
        // Retain the message until the root either fans it out (no nack ever
        // comes back; the entry ages out of the bounded table) or nacks it
        // (re-home window: the retry re-routes to the key's current owner).
        self.pending_publishes.insert(
            msg_id,
            PendingPublish {
                topic,
                payload,
                attempts: 0,
                retry_at: None,
            },
        );
        self.publish_order.push_back(msg_id);
        while self.pending_publishes.len() > MAX_PENDING_PUBLISHES {
            let Some(oldest) = self.publish_order.pop_front() else {
                break;
            };
            self.pending_publishes.remove(&oldest);
        }
        self.send_publish(core, dht, now, msg_id);
        msg_id
    }

    /// Originate a `PubSub*` payload. As in [`Dht`], one that is due at this
    /// very node (a root subscribed to its own topic) is handled on the spot,
    /// and so is a delegation whose head turns out to be gone.
    fn send(
        &mut self,
        core: &mut Core,
        dht: &mut Dht,
        now: SimTime,
        dst: Address,
        mode: DeliveryMode,
        payload: RoutedPayload,
    ) {
        match core.originate(dst, mode, payload) {
            Some(Arrival::Here(pkt)) => self.on_payload(core, dht, now, pkt.src, pkt.payload),
            Some(Arrival::Stray(pkt)) => self.on_stray(core, dht, now, pkt.payload),
            None => {}
        }
    }

    /// Route the pending publish `msg_id` towards its topic key's current
    /// owner.
    fn send_publish(&mut self, core: &mut Core, dht: &mut Dht, now: SimTime, msg_id: u64) {
        let Some(p) = self.pending_publishes.get(&msg_id) else {
            return;
        };
        let publish = RoutedPayload::PubSubPublish {
            topic: p.topic,
            msg_id,
            payload: p.payload.clone(),
        };
        self.send(core, dht, now, p.topic, DeliveryMode::Closest, publish);
    }

    /// (Re-)announce this node's subscription to `topic` to the topic root.
    fn announce(&mut self, core: &mut Core, dht: &mut Dht, now: SimTime, topic: Address) {
        let Some(s) = self.subs.get_mut(&topic) else {
            return;
        };
        s.last_renew = now;
        let payload = RoutedPayload::PubSubSubscribe {
            topic,
            subscriber: core.cfg.address,
            ttl_ms: s.ttl.as_nanos() / 1_000_000,
        };
        self.send(core, dht, now, topic, DeliveryMode::Closest, payload);
    }

    /// Handle a `PubSub*` payload from `src` that is due at this node.
    pub(crate) fn on_payload(
        &mut self,
        core: &mut Core,
        dht: &mut Dht,
        now: SimTime,
        src: Address,
        payload: RoutedPayload,
    ) {
        match payload {
            RoutedPayload::PubSubSubscribe {
                topic,
                subscriber,
                ttl_ms,
            } => {
                // We own the topic key (Closest delivery): merge the
                // subscriber into the record, pruning entries whose soft
                // state already lapsed.
                core.stats.pubsub_subscriptions += 1;
                let expires_ms = wire_expiry(now, ttl_ms).as_nanos() / 1_000_000;
                let mut entries = live_entries(dht, now, &topic);
                entries.retain(|(addr, _)| *addr != subscriber);
                entries.push((subscriber, expires_ms));
                entries.sort_by_key(|(addr, _)| *addr);
                self.store_entries(core, dht, now, topic, &entries);
            }
            RoutedPayload::PubSubUnsubscribe { topic, subscriber } => {
                let mut entries = live_entries(dht, now, &topic);
                let before = entries.len();
                entries.retain(|(addr, _)| *addr != subscriber);
                if entries.len() != before || entries.is_empty() {
                    self.store_entries(core, dht, now, topic, &entries);
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
                if dht.store().live(&topic, now).is_none() {
                    // No subscriber-set record here. Either the topic truly
                    // has no subscribers, or this root is mid-re-home and the
                    // record has not migrated yet. Dropping silently loses
                    // the message in the second case — answer a retryable
                    // nack so the publisher re-routes (the retry lands after
                    // the ring repairs and reaches whoever owns the key by
                    // then).
                    core.stats.pubsub_nacks_sent += 1;
                    let nack = RoutedPayload::PubSubNack { topic, msg_id };
                    self.send(core, dht, now, src, DeliveryMode::Exact, nack);
                    return;
                }
                core.stats.pubsub_publishes += 1;
                let mut recipients: Vec<Address> = live_entries(dht, now, &topic)
                    .into_iter()
                    .map(|(addr, _)| addr)
                    .collect();
                if let Some(at) = recipients.iter().position(|a| *a == core.cfg.address) {
                    recipients.remove(at);
                    core.stats.pubsub_delivered += 1;
                    self.inbox.push_back((topic, msg_id, payload.clone()));
                }
                self.fan_out(core, dht, now, topic, msg_id, &payload, &recipients);
            }
            RoutedPayload::PubSubDeliver {
                topic,
                msg_id,
                relay_to,
                payload,
            } => {
                core.stats.pubsub_delivered += 1;
                self.inbox.push_back((topic, msg_id, payload.clone()));
                // This node has its copy: a chunk that names it again is not
                // one an honest root planned.
                let relay_to = checked_chunk(core, relay_to, Some(core.cfg.address));
                if !relay_to.is_empty() {
                    // Delegated chunk: re-apply the bounded split one tree
                    // level down, sharing the same body bytes.
                    core.stats.pubsub_relayed += 1;
                    self.fan_out(core, dht, now, topic, msg_id, &payload, &relay_to);
                }
            }
            RoutedPayload::PubSubNack { msg_id, .. } => self.on_nack(core, now, msg_id),
            // Not a `PubSub*` tag: nobody hands one here.
            _ => {}
        }
    }

    /// A packet `Exact`-addressed to a node that is not in the overlay ended
    /// at this one, the closest remaining (and was counted as dropped). If it
    /// is a delegated fan-out chunk, its head left the ring between planning
    /// and delivery: salvage the delegation so the rest of the chunk still
    /// gets the message — only the departed head's own copy is lost.
    pub(crate) fn on_stray(
        &mut self,
        core: &mut Core,
        dht: &mut Dht,
        now: SimTime,
        payload: RoutedPayload,
    ) {
        if let RoutedPayload::PubSubDeliver {
            topic,
            msg_id,
            relay_to,
            payload,
        } = payload
        {
            // The salvaging node can honestly be a member of the chunk (a
            // chunk is contiguous in ring order, so the node closest to a
            // departed head is often its next member): it stays, once.
            let relay_to = checked_chunk(core, relay_to, None);
            if !relay_to.is_empty() {
                core.stats.pubsub_salvaged += 1;
                self.fan_out(core, dht, now, topic, msg_id, &payload, &relay_to);
            }
        }
    }

    /// A topic root nacked one of our publishes (it had no subscriber-set
    /// record — typically mid-re-home). Schedule a backed-off retry; after
    /// [`MAX_PUBLISH_RETRIES`] the publish is abandoned and counted.
    fn on_nack(&mut self, core: &mut Core, now: SimTime, msg_id: u64) {
        let Some(p) = self.pending_publishes.get_mut(&msg_id) else {
            return; // evicted, already failed, or not ours
        };
        core.stats.pubsub_nacks_received += 1;
        if p.attempts >= MAX_PUBLISH_RETRIES {
            self.pending_publishes.remove(&msg_id);
            self.publish_order.retain(|id| *id != msg_id);
            core.stats.pubsub_publish_failures += 1;
            return;
        }
        let backoff = Duration::from_nanos(PUBLISH_RETRY_BACKOFF.as_nanos() << p.attempts.min(4));
        p.retry_at = Some(now + backoff);
    }

    /// Root-side rewrite of a topic record after a membership change. An
    /// empty set deletes the record (propagating the removal to replicas,
    /// like a `DhtRemove`); otherwise the record is re-stored strictly above
    /// the previous version — so replicas accept the rewrite — with a TTL
    /// covering the longest-lived entry, and re-replicated.
    fn store_entries(
        &mut self,
        core: &mut Core,
        dht: &mut Dht,
        now: SimTime,
        topic: Address,
        entries: &[(Address, u64)],
    ) {
        if entries.is_empty() {
            self.topics_seen.remove(&topic);
            dht.remove_record(core, now, topic);
            return;
        }
        let now_ms = now.as_nanos() / 1_000_000;
        let ttl_ms = entries
            .iter()
            .map(|(_, expires_ms)| expires_ms.saturating_sub(now_ms))
            .max()
            .unwrap_or(1)
            .max(1);
        let version = match dht.store().live(&topic, now) {
            Some(rec) => (rec.version + 1).max(version_for(now)),
            None => version_for(now),
        };
        self.topics_seen.insert(topic);
        let value = encode_subscriber_set(entries);
        // Push the rewrite through the quorum create path — the same conflict
        // rules as DHCP lease claims — instead of fire-and-forget
        // replication. During a root re-home the *old* root's replicas may
        // hold the new root's fresher record; their `stored: false` acks
        // starve the quorum and the stale rewrite is withdrawn (from this
        // store and any replica that took it) rather than resurrected as a
        // ghost subscriber set. Nobody waits for a `DhtCreateReply`.
        dht.commit(core, now, topic, value, ttl_ms, version, None, None);
    }

    /// Send one relay-tree level: split `recipients` into at most
    /// `pubsub_fanout` chunks and deliver to each chunk head, delegating the
    /// rest of its chunk. The body `Bytes` is shared across every copy — the
    /// fan-out never re-encodes or re-copies the message itself.
    #[allow(clippy::too_many_arguments)]
    fn fan_out(
        &mut self,
        core: &mut Core,
        dht: &mut Dht,
        now: SimTime,
        topic: Address,
        msg_id: u64,
        payload: &Bytes,
        recipients: &[Address],
    ) {
        for (head, relay_to) in plan_fanout(recipients, core.cfg.pubsub_fanout) {
            core.stats.pubsub_fanout_sent += 1;
            let deliver = RoutedPayload::PubSubDeliver {
                topic,
                msg_id,
                relay_to,
                payload: payload.clone(),
            };
            self.send(core, dht, now, head, DeliveryMode::Exact, deliver);
        }
    }

    /// Renew soft-state subscriptions at TTL/2 (run from the maintenance
    /// tick). The re-sent subscribe also re-homes the subscription after a
    /// root crash: it routes to whichever node owns the topic key *now*.
    pub(crate) fn tick(&mut self, core: &mut Core, dht: &mut Dht, now: SimTime) {
        let due: Vec<Address> = self
            .subs
            .iter()
            .filter(|(_, s)| now.saturating_since(s.last_renew) >= s.ttl / 2)
            .map(|(topic, _)| *topic)
            .collect();
        for topic in due {
            self.announce(core, dht, now, topic);
        }
        // Nacked publishes whose backoff elapsed re-route to whoever owns
        // the topic key now.
        let retries: Vec<u64> = self
            .pending_publishes
            .iter()
            .filter(|(_, p)| p.retry_at.is_some_and(|t| t <= now))
            .map(|(id, _)| *id)
            .collect();
        for msg_id in retries {
            if let Some(p) = self.pending_publishes.get_mut(&msg_id) {
                p.attempts += 1;
                p.retry_at = None;
            }
            core.stats.pubsub_publish_retries += 1;
            self.send_publish(core, dht, now, msg_id);
        }
    }

    /// Receipt-driven cleanup: when the link monitor declares `peer` dead,
    /// drop it from every owned topic record so subsequent publishes stop
    /// fanning out to it — TTL expiry would take half a subscription lifetime
    /// to do the same.
    pub(crate) fn on_dead_peer(
        &mut self,
        core: &mut Core,
        dht: &mut Dht,
        now: SimTime,
        peer: Address,
    ) {
        let topics: Vec<Address> = self.topics_seen.iter().copied().collect();
        for topic in topics {
            if dht.store().live(&topic, now).is_none() {
                // Record gone (last subscriber left, or aged out): stop
                // scanning this topic on future verdicts.
                self.topics_seen.remove(&topic);
                continue;
            }
            if !core.owns_key(&topic) {
                continue;
            }
            let mut entries = live_entries(dht, now, &topic);
            let before = entries.len();
            entries.retain(|(addr, _)| *addr != peer);
            if entries.len() != before {
                core.stats.pubsub_pruned += 1;
                self.store_entries(core, dht, now, topic, &entries);
            }
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

    #[test]
    fn topic_key_is_prefixed_sha1() {
        assert_eq!(topic_key("chat"), Address::from_key(b"topic:chat"));
        assert_ne!(topic_key("chat"), Address::from_key(b"chat"));
        assert_ne!(topic_key("chat"), topic_key("chat2"));
    }

    #[test]
    fn subscriber_set_round_trips() {
        let entries = vec![(a(1), 1000), (a(2), 2000), (a(9), u64::MAX)];
        let encoded = encode_subscriber_set(&entries);
        assert_eq!(decode_subscriber_set(&encoded).unwrap(), entries);
        assert_eq!(
            decode_subscriber_set(&encode_subscriber_set(&[])).unwrap(),
            vec![]
        );
    }

    #[test]
    fn subscriber_set_rejects_bad_lengths() {
        let encoded = encode_subscriber_set(&[(a(1), 7)]);
        for cut in 0..encoded.len() {
            assert!(
                decode_subscriber_set(&encoded.slice(..cut)).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // Inflated count with no entry bytes behind it.
        let mut bad = encoded.to_vec();
        bad[..4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            decode_subscriber_set(&Bytes::from(bad)),
            Err(ParseError::BadLength("subscriber set count"))
        );
        // Trailing garbage after the last entry.
        let mut long = encoded.to_vec();
        long.push(0);
        assert!(decode_subscriber_set(&Bytes::from(long)).is_err());
    }

    #[test]
    fn fanout_plan_covers_every_recipient_once() {
        for n in 0..40usize {
            for fanout in 1..8usize {
                let recipients: Vec<Address> = (0..n).map(|i| a(i as u8)).collect();
                let plan = plan_fanout(&recipients, fanout);
                assert!(plan.len() <= fanout);
                let mut covered: Vec<Address> = Vec::new();
                for (head, rest) in &plan {
                    covered.push(*head);
                    covered.extend_from_slice(rest);
                }
                assert_eq!(covered, recipients, "n={n} fanout={fanout}");
            }
        }
    }

    #[test]
    fn fanout_tree_depth_is_logarithmic() {
        // Recursively expand the plan and measure the deepest chain.
        fn depth(recipients: &[Address], fanout: usize) -> usize {
            plan_fanout(recipients, fanout)
                .iter()
                .map(|(_, rest)| 1 + depth(rest, fanout))
                .max()
                .unwrap_or(0)
        }
        let recipients: Vec<Address> = (0..=255u8).map(a).collect();
        // 256 nodes at fanout 4: depth must be near log₄ 256 = 4, far from
        // the 256 a linear chain would give.
        assert!(depth(&recipients, 4) <= 6);
        assert_eq!(depth(&recipients[..1], 4), 1);
    }

    // ------------------------------------------------------------ component

    use crate::node::OverlayConfig;
    use crate::packets::{ConnectionKind, LinkMessage};
    use crate::table::{Connection, ConnectionState};
    use ipop_simcore::StreamRng;

    /// A topic root without a node around it: a routing core whose table
    /// holds `peers`, an empty DHT and the component. The root's address is
    /// the topic key itself, so it owns it.
    fn root(topic: Address, peers: &[Address]) -> (Core, Dht, PubSub) {
        let cfg = OverlayConfig::new(topic, ([10, 0, 0, 1].into(), 4001));
        let mut core = Core::new(cfg, StreamRng::new(7, "pubsub-root"));
        for (i, peer) in peers.iter().enumerate() {
            core.table.upsert(Connection {
                peer: *peer,
                endpoint: ([10, 0, 1, i as u8].into(), 4001),
                kind: ConnectionKind::Near,
                state: ConnectionState::Established,
                last_heard: SimTime::ZERO,
                last_ping_sent: SimTime::ZERO,
            });
        }
        (core, Dht::default(), PubSub::default())
    }

    /// The subscribers in the topic record the root holds at `now`.
    fn members(dht: &Dht, topic: &Address, now: SimTime) -> BTreeSet<Address> {
        live_entries(dht, now, topic)
            .into_iter()
            .map(|(subscriber, _)| subscriber)
            .collect()
    }

    #[test]
    fn root_subscriber_set_follows_a_plain_set() {
        let topic = topic_key("component");
        let peers = [a(1), a(2)];
        let (mut core, mut dht, mut pubsub) = root(topic, &peers);
        let now = SimTime::ZERO + Duration::from_secs(10);
        let mut expected = BTreeSet::new();
        let subscribe = |subscriber| RoutedPayload::PubSubSubscribe {
            topic,
            subscriber,
            ttl_ms: 60_000,
        };
        let unsubscribe = |subscriber| RoutedPayload::PubSubUnsubscribe { topic, subscriber };

        // Subscribes — a renewal and an unknown leaver among them — merge.
        for who in [a(1), a(7), a(2), a(7)] {
            pubsub.on_payload(&mut core, &mut dht, now, who, subscribe(who));
            expected.insert(who);
            assert_eq!(members(&dht, &topic, now), expected);
        }
        pubsub.on_payload(&mut core, &mut dht, now, a(8), unsubscribe(a(8)));
        assert_eq!(members(&dht, &topic, now), expected);
        assert_eq!(core.stats.pubsub_subscriptions, 4);

        // A dead-edge verdict prunes a subscriber, and only a subscriber.
        pubsub.on_dead_peer(&mut core, &mut dht, now, a(2));
        expected.remove(&a(2));
        assert_eq!(members(&dht, &topic, now), expected);
        pubsub.on_dead_peer(&mut core, &mut dht, now, a(9));
        assert_eq!(members(&dht, &topic, now), expected);
        assert_eq!(core.stats.pubsub_pruned, 1);

        // Every rewrite went out to both replicas; the record names them.
        let record = dht.store().live(&topic, now).expect("record held");
        assert_eq!(record.replicated_to.len(), peers.len());
        let _ = core.take_outbox();

        // The last unsubscribe removes the record and tells its replicas.
        pubsub.on_payload(&mut core, &mut dht, now, a(1), unsubscribe(a(1)));
        assert!(core.take_outbox().iter().all(|(_, msg)| !matches!(
            msg,
            LinkMessage::Routed(pkt) if matches!(pkt.payload, RoutedPayload::DhtRemove { .. })
        )));
        pubsub.on_payload(&mut core, &mut dht, now, a(7), unsubscribe(a(7)));
        assert!(dht.store().is_empty(), "no empty subscriber set is kept");
        let removes: BTreeSet<Address> = core
            .take_outbox()
            .into_iter()
            .filter_map(|(_, msg)| match msg {
                LinkMessage::Routed(pkt)
                    if pkt.payload == RoutedPayload::DhtRemove { key: topic } =>
                {
                    Some(pkt.dst)
                }
                _ => None,
            })
            .collect();
        assert_eq!(removes, peers.into_iter().collect());
        assert!(pubsub.topics_seen.is_empty(), "and the topic is forgotten");
    }
}
