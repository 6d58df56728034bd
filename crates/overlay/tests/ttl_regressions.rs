//! A peer-supplied `ttl_ms` is decoded unbounded and becomes an expiry
//! instant at the receiver. Unchecked, `u64::MAX` overflowed the
//! millisecond-to-nanosecond multiply (DHT records) or the `now + ttl`
//! add (subscriptions): a remote panic under overflow checks, and without
//! them a record stored already expired. Each case forges one routed message
//! at a lone node — which owns every key — and checks what it stored.

use ipop_overlay::dht::{DhtRecord, MAX_WIRE_TTL_MS};
use ipop_overlay::node::{OverlayConfig, OverlayNode};
use ipop_overlay::packets::{DeliveryMode, LinkMessage, RoutedPacket, RoutedPayload};
use ipop_overlay::pubsub::decode_subscriber_set;
use ipop_overlay::Address;
use ipop_packet::Bytes;
use ipop_simcore::{Duration, SimTime, StreamRng};

/// Both overflow the unchecked conversions: the first in `now + ttl`, the
/// second — the smallest such value — in the multiply by 1 000 000.
const FORGED_TTLS: [u64; 2] = [u64::MAX, u64::MAX / 1_000_000 + 1];

fn addr(n: u8) -> Address {
    Address::from_key(&[n])
}

fn now() -> SimTime {
    SimTime::ZERO + Duration::from_secs(100)
}

/// The lone node's own address.
fn me() -> Address {
    addr(1)
}

/// Deliver `payload`, routed to `dst` from a forged peer, to a fresh lone
/// node at [`now`].
fn node_after(mode: DeliveryMode, dst: Address, payload: RoutedPayload) -> OverlayNode {
    let cfg = OverlayConfig::new(me(), ([10, 0, 0, 1].into(), 4001));
    let mut node = OverlayNode::new(cfg, StreamRng::new(7, "ttl"));
    node.start(SimTime::ZERO);
    let forged = LinkMessage::Routed(RoutedPacket::new(addr(9), dst, mode, payload));
    node.on_message(now(), ([10, 0, 0, 9].into(), 4001), forged);
    node
}

/// The record under `key`, which must outlive [`now`] by at most the cap.
fn stored_live(node: &OverlayNode, key: Address) -> &DhtRecord {
    let rec = node.dht_store().get(&key).expect("record stored");
    assert!(rec.expires_at > now(), "stored already expired");
    assert!(
        rec.remaining_ttl_ms(now()) <= MAX_WIRE_TTL_MS,
        "lifetime saturates at the cap"
    );
    rec
}

#[test]
fn forged_put_ttl_saturates() {
    for ttl_ms in FORGED_TTLS {
        let key = addr(2);
        let put = RoutedPayload::DhtPut {
            key,
            value: Bytes::from(vec![1u8]),
            ttl_ms,
            version: 0,
        };
        stored_live(&node_after(DeliveryMode::Closest, key, put), key);
    }
}

#[test]
fn forged_create_ttl_saturates() {
    for ttl_ms in FORGED_TTLS {
        let key = addr(3);
        let create = RoutedPayload::DhtCreate {
            key,
            value: Bytes::from(vec![1u8]),
            ttl_ms,
            token: 5,
        };
        stored_live(&node_after(DeliveryMode::Closest, key, create), key);
    }
}

#[test]
fn forged_replicate_ttl_saturates() {
    for ttl_ms in FORGED_TTLS {
        let key = addr(4);
        let replicate = RoutedPayload::DhtReplicate {
            key,
            value: Bytes::from(vec![1u8]),
            ttl_ms,
            version: 1,
            token: 0,
        };
        stored_live(&node_after(DeliveryMode::Exact, me(), replicate), key);
    }
}

#[test]
fn forged_subscribe_ttl_saturates() {
    for ttl_ms in FORGED_TTLS {
        let topic = addr(5);
        let subscribe = RoutedPayload::PubSubSubscribe {
            topic,
            subscriber: addr(9),
            ttl_ms,
        };
        let node = node_after(DeliveryMode::Closest, topic, subscribe);
        let rec = stored_live(&node, topic);
        let entries = decode_subscriber_set(&rec.value).expect("well-formed set");
        let now_ms = now().as_nanos() / 1_000_000;
        assert_eq!(entries, vec![(addr(9), now_ms + MAX_WIRE_TTL_MS)]);
    }
}
