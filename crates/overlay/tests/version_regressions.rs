//! A peer-supplied record `version` is decoded unbounded, and every
//! conflicting write stores `existing + 1`. Unchecked, a forged `u64::MAX`
//! made the *next honest write* a remote panic under overflow checks, and
//! wrapped it to version 0 — below every replica — without them. Each case
//! forges one routed message at a lone node (which owns every key), follows
//! it with an honest write, and checks that write won.

use ipop_overlay::dht::{wire_version, DhtRecord, MAX_VERSION_LEAD};
use ipop_overlay::node::{OverlayConfig, OverlayNode};
use ipop_overlay::packets::{DeliveryMode, LinkMessage, RoutedPacket, RoutedPayload};
use ipop_overlay::pubsub::decode_subscriber_set;
use ipop_overlay::Address;
use ipop_packet::Bytes;
use ipop_simcore::{Duration, SimTime, StreamRng};

fn addr(n: u8) -> Address {
    Address::from_key(&[n])
}

fn now() -> SimTime {
    SimTime::ZERO + Duration::from_secs(100)
}

/// What [`now`] is worth as a time-derived version.
const NOW_VERSION: u64 = 100_000;

/// The lone node's own address.
fn me() -> Address {
    addr(1)
}

fn lone_node() -> OverlayNode {
    let cfg = OverlayConfig::new(me(), ([10, 0, 0, 1].into(), 4001));
    let mut node = OverlayNode::new(cfg, StreamRng::new(7, "version"));
    node.start(SimTime::ZERO);
    node
}

/// Deliver `payload`, routed to `dst` from a forged peer, at [`now`].
fn deliver(node: &mut OverlayNode, mode: DeliveryMode, dst: Address, payload: RoutedPayload) {
    let forged = LinkMessage::Routed(RoutedPacket::new(addr(9), dst, mode, payload));
    node.on_message(now(), ([10, 0, 0, 9].into(), 4001), forged);
}

fn put(key: Address, value: &[u8], version: u64) -> RoutedPayload {
    RoutedPayload::DhtPut {
        key,
        value: Bytes::from(value.to_vec()),
        ttl_ms: 60_000,
        version,
    }
}

fn stored(node: &OverlayNode, key: Address) -> &DhtRecord {
    node.dht_store().get(&key).expect("record stored")
}

#[test]
fn wire_version_caps_only_what_no_honest_writer_sends() {
    assert_eq!(wire_version(now(), 0), 0);
    assert_eq!(wire_version(now(), NOW_VERSION + 7), NOW_VERSION + 7);
    let cap = NOW_VERSION + MAX_VERSION_LEAD;
    assert_eq!(wire_version(now(), cap), cap);
    assert_eq!(wire_version(now(), cap + 1), cap);
    assert_eq!(wire_version(now(), u64::MAX), cap);
}

#[test]
fn honest_put_supersedes_a_forged_put_version() {
    let key = addr(2);
    let mut node = lone_node();
    deliver(
        &mut node,
        DeliveryMode::Closest,
        key,
        put(key, b"forged", u64::MAX),
    );
    let forged = stored(&node, key).version;
    assert_eq!(
        forged,
        NOW_VERSION + MAX_VERSION_LEAD,
        "capped on the way in"
    );
    // The next put of a different value used to compute `u64::MAX + 1`.
    deliver(
        &mut node,
        DeliveryMode::Closest,
        key,
        put(key, b"honest", NOW_VERSION),
    );
    let rec = stored(&node, key);
    assert_eq!(rec.value.as_slice(), b"honest", "last writer wins");
    assert_eq!(rec.version, forged + 1, "and outranks the copy it replaced");
}

#[test]
fn honest_put_supersedes_a_forged_replicate_version() {
    let key = addr(3);
    let mut node = lone_node();
    let replicate = RoutedPayload::DhtReplicate {
        key,
        value: Bytes::from(b"forged".to_vec()),
        ttl_ms: 60_000,
        version: u64::MAX,
        token: 0,
    };
    deliver(&mut node, DeliveryMode::Exact, me(), replicate);
    let forged = stored(&node, key).version;
    assert_eq!(forged, NOW_VERSION + MAX_VERSION_LEAD);
    deliver(
        &mut node,
        DeliveryMode::Closest,
        key,
        put(key, b"honest", NOW_VERSION),
    );
    let rec = stored(&node, key);
    assert_eq!(rec.value.as_slice(), b"honest");
    assert_eq!(rec.version, forged + 1);
}

#[test]
fn subscribe_rewrites_a_topic_record_forged_at_the_top_version() {
    // The topic record is rewritten at `existing + 1` on every membership
    // change: a forged replicate under the topic key used to make the next
    // subscribe panic the root.
    let topic = addr(4);
    let mut node = lone_node();
    let replicate = RoutedPayload::DhtReplicate {
        key: topic,
        value: Bytes::from(b"not a subscriber set".to_vec()),
        ttl_ms: 60_000,
        version: u64::MAX,
        token: 0,
    };
    deliver(&mut node, DeliveryMode::Exact, me(), replicate);
    let forged = stored(&node, topic).version;
    let subscribe = RoutedPayload::PubSubSubscribe {
        topic,
        subscriber: addr(9),
        ttl_ms: 60_000,
    };
    deliver(&mut node, DeliveryMode::Closest, topic, subscribe);
    let rec = stored(&node, topic);
    assert_eq!(rec.version, forged + 1, "the rewrite outranks the forgery");
    let entries = decode_subscriber_set(&rec.value).expect("well-formed set");
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].0, addr(9));
}
