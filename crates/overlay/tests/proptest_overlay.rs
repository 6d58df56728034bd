//! Property-based tests for the overlay's core invariants: 160-bit ring
//! arithmetic and the wire format of routed messages.

use proptest::prelude::*;

use ipop_overlay::address::{Address, Distance};
use ipop_overlay::packets::{DeliveryMode, LinkMessage, RoutedPacket, RoutedPayload};

fn arb_addr() -> impl Strategy<Value = Address> {
    any::<[u8; 20]>().prop_map(Address)
}

/// A routed message with the given header counters, checked to decode back to
/// itself from a plain slice and from a shared buffer alike.
fn assert_round_trips(pkt: RoutedPacket, hops: u8, ttl: u8) {
    let msg = LinkMessage::Routed(RoutedPacket { hops, ttl, ..pkt });
    assert_eq!(LinkMessage::from_bytes(&msg.to_bytes()).unwrap(), msg);
    assert_eq!(LinkMessage::from_wire(&msg.to_wire()).unwrap(), msg);
}

/// What a forwarding node does with a routed message it received: decode it
/// (from the shared buffer or a plain slice — both must agree), bump hops,
/// spend one ttl and send it on. The sent bytes must be a fresh encode of the
/// forwarded message and decode back to it, although its body still points
/// into the received buffer.
fn assert_forwarding_reencodes(pkt: RoutedPacket, hops: u8, ttl: u8, extra_hops: u8) {
    let origin_wire = LinkMessage::Routed(RoutedPacket { hops, ttl, ..pkt }).to_wire();
    let via_shared = LinkMessage::from_wire(&origin_wire).unwrap();
    let via_slice = LinkMessage::from_bytes(&origin_wire).unwrap();
    assert_eq!(via_shared, via_slice);
    for mut msg in [via_shared, via_slice] {
        let LinkMessage::Routed(fwd) = &mut msg else {
            panic!("routed")
        };
        fwd.hops = fwd.hops.saturating_add(extra_hops);
        fwd.ttl = fwd.ttl.saturating_sub(1);
        let sent = msg.to_wire();
        assert_eq!(sent.as_slice(), msg.to_bytes().as_slice());
        assert_eq!(LinkMessage::from_wire(&sent).unwrap(), msg);
    }
}

proptest! {
    #[test]
    fn clockwise_distance_is_inverse_of_add(a in arb_addr(), b in arb_addr()) {
        let d = a.clockwise_distance(&b);
        prop_assert_eq!(a.add_distance(&d), b);
    }

    #[test]
    fn ring_distance_is_symmetric_and_bounded(a in arb_addr(), b in arb_addr()) {
        let ab = a.ring_distance(&b);
        let ba = b.ring_distance(&a);
        prop_assert_eq!(ab, ba);
        // The ring distance can never exceed half the ring.
        let mut half = [0u8; 20];
        half[0] = 0x80;
        prop_assert!(ab <= Distance(half));
        prop_assert_eq!(a.ring_distance(&a), Distance::ZERO);
    }

    #[test]
    fn triangle_inequality_on_the_ring(a in arb_addr(), b in arb_addr(), c in arb_addr()) {
        // Ring distance satisfies the triangle inequality (in f64 approximation,
        // with slack for rounding of 160-bit values).
        let ab = a.ring_distance(&b).as_f64();
        let bc = b.ring_distance(&c).as_f64();
        let ac = a.ring_distance(&c).as_f64();
        prop_assert!(ac <= (ab + bc) * 1.0000001);
    }

    #[test]
    fn ip_tunnel_messages_round_trip(src in arb_addr(), dst in arb_addr(),
                                     hops in 0u8..64, ttl in 0u8..64,
                                     payload in proptest::collection::vec(any::<u8>(), 0..2000)) {
        let pkt = RoutedPacket::new(src, dst, DeliveryMode::Exact, RoutedPayload::IpTunnel(payload.into()));
        assert_round_trips(pkt, hops, ttl);
    }

    #[test]
    fn dht_messages_round_trip(src in arb_addr(), dst in arb_addr(), key in arb_addr(),
                               hops: u8, ttl: u8,
                               token: u64, ttl_ms in 0u64..86_400_000, created: bool,
                               version: u64,
                               value in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..512))) {
        let bytes_value = value.clone().map(ipop_packet::Bytes::from);
        for payload in [
            RoutedPayload::DhtPut {
                key,
                value: bytes_value.clone().unwrap_or_default(),
                ttl_ms,
                version,
            },
            RoutedPayload::DhtGet { key, token },
            RoutedPayload::DhtReply { token, value: bytes_value.clone() },
            RoutedPayload::DhtCreate {
                key,
                value: bytes_value.clone().unwrap_or_default(),
                ttl_ms,
                token,
            },
            RoutedPayload::DhtCreateReply {
                token,
                created,
                existing: bytes_value.clone(),
            },
            RoutedPayload::DhtReplicate {
                key,
                value: bytes_value.clone().unwrap_or_default(),
                ttl_ms,
                version,
                token,
            },
            RoutedPayload::DhtReplicateAck {
                token,
                stored: created,
            },
            RoutedPayload::DhtGetReplica { key, token },
            RoutedPayload::DhtWithdraw {
                key,
                value: bytes_value.clone().unwrap_or_default(),
                version,
            },
            RoutedPayload::DhtReplicaValue {
                token,
                copy: bytes_value.clone().map(|v| (v, version, ttl_ms)),
            },
            RoutedPayload::DhtRemove { key },
        ] {
            assert_round_trips(RoutedPacket::new(src, dst, DeliveryMode::Closest, payload), hops, ttl);
        }
    }

    #[test]
    fn pubsub_messages_round_trip(src in arb_addr(), dst in arb_addr(), topic in arb_addr(),
                                  subscriber in arb_addr(), msg_id: u64, hops: u8, ttl: u8,
                                  ttl_ms in 0u64..86_400_000,
                                  relay_to in proptest::collection::vec(arb_addr(), 0..24),
                                  body in proptest::collection::vec(any::<u8>(), 0..1024)) {
        for payload in [
            RoutedPayload::PubSubSubscribe { topic, subscriber, ttl_ms },
            RoutedPayload::PubSubUnsubscribe { topic, subscriber },
            RoutedPayload::PubSubPublish { topic, msg_id, payload: body.clone().into() },
            RoutedPayload::PubSubDeliver {
                topic,
                msg_id,
                relay_to: relay_to.clone(),
                payload: body.clone().into(),
            },
        ] {
            assert_round_trips(RoutedPacket::new(src, dst, DeliveryMode::Closest, payload), hops, ttl);
        }
    }

    #[test]
    fn stream_messages_round_trip(src in arb_addr(), dst in arb_addr(), topic in arb_addr(),
                                  stream_id: u64, seq: u64, ack: u64, msg_id: u64,
                                  window: u32, hops: u8, ttl: u8,
                                  body in proptest::collection::vec(any::<u8>(), 0..1400)) {
        for payload in [
            RoutedPayload::PubSubNack { topic, msg_id },
            RoutedPayload::StreamSyn { stream_id, window },
            RoutedPayload::StreamSynAck { stream_id, window },
            RoutedPayload::StreamData { stream_id, seq, window, payload: body.clone().into() },
            RoutedPayload::StreamAck { stream_id, ack, window },
            RoutedPayload::StreamFin { stream_id, seq },
        ] {
            assert_round_trips(RoutedPacket::new(src, dst, DeliveryMode::Exact, payload), hops, ttl);
        }
    }

    #[test]
    fn forwarding_patch_path_matches_full_reencode(
        src in arb_addr(), dst in arb_addr(),
        hops in 0u8..64, ttl in 1u8..64, extra_hops in 1u8..8,
        payload in proptest::collection::vec(any::<u8>(), 0..2000),
    ) {
        let pkt = RoutedPacket::new(src, dst, DeliveryMode::Exact,
            RoutedPayload::IpTunnel(payload.into()));
        assert_forwarding_reencodes(pkt, hops, ttl, extra_hops);
    }

    #[test]
    fn pubsub_deliver_patch_path_matches_full_reencode(
        src in arb_addr(), dst in arb_addr(), topic in arb_addr(),
        msg_id: u64, hops in 0u8..64, ttl in 1u8..64, extra_hops in 1u8..8,
        relay_to in proptest::collection::vec(arb_addr(), 0..24),
        body in proptest::collection::vec(any::<u8>(), 0..2000),
    ) {
        let pkt = RoutedPacket::new(src, dst, DeliveryMode::Exact,
            RoutedPayload::PubSubDeliver { topic, msg_id, relay_to, payload: body.into() });
        assert_forwarding_reencodes(pkt, hops, ttl, extra_hops);
    }

    #[test]
    fn stream_data_patch_path_matches_full_reencode(
        src in arb_addr(), dst in arb_addr(),
        stream_id: u64, seq: u64, window: u32,
        hops in 0u8..64, ttl in 1u8..64, extra_hops in 1u8..8,
        body in proptest::collection::vec(any::<u8>(), 0..1400),
    ) {
        let pkt = RoutedPacket::new(src, dst, DeliveryMode::Exact,
            RoutedPayload::StreamData { stream_id, seq, window, payload: body.into() });
        assert_forwarding_reencodes(pkt, hops, ttl, extra_hops);
    }

    #[test]
    fn pubsub_fanout_shares_one_wire_image(
        src in arb_addr(), topic in arb_addr(), msg_id: u64,
        recipients in proptest::collection::vec(arb_addr(), 1..32),
        fanout in 1usize..8,
        body in proptest::collection::vec(any::<u8>(), 1..2000),
    ) {
        // Decoding one Deliver off the wire and re-addressing its body to N
        // subscribers (what a relay does) must keep every copy's body inside
        // the original receive buffer — same Arc region, no copies.
        let wire = LinkMessage::Routed(RoutedPacket::new(
            src, recipients[0], DeliveryMode::Exact,
            RoutedPayload::PubSubDeliver {
                topic,
                msg_id,
                relay_to: recipients.clone(),
                payload: body.clone().into(),
            },
        )).to_wire();
        let LinkMessage::Routed(decoded) = LinkMessage::from_wire(&wire).unwrap() else {
            panic!("routed")
        };
        let RoutedPayload::PubSubDeliver { payload, .. } = &decoded.payload else {
            panic!("deliver")
        };
        let body_at = wire.len() - payload.len();
        prop_assert!(payload.same_region(&wire.slice(body_at..)));
        // Plan the next tree level and re-address the shared body to each head.
        for (head, rest) in ipop_overlay::pubsub::plan_fanout(&recipients, fanout) {
            let copy = RoutedPacket::new(src, head, DeliveryMode::Exact,
                RoutedPayload::PubSubDeliver {
                    topic,
                    msg_id,
                    relay_to: rest,
                    payload: payload.clone(),
                });
            let RoutedPayload::PubSubDeliver { payload: shared, .. } = &copy.payload else {
                panic!("deliver")
            };
            prop_assert!(shared.same_region(&wire.slice(body_at..)),
                "fan-out copy re-copied the message body");
        }
    }

    #[test]
    fn subscriber_set_codec_round_trips(
        addrs in proptest::collection::vec(arb_addr(), 0..64),
        expiries in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let entries: Vec<(Address, u64)> =
            addrs.into_iter().zip(expiries).collect();
        let encoded = ipop_overlay::pubsub::encode_subscriber_set(&entries);
        let decoded = ipop_overlay::pubsub::decode_subscriber_set(&encoded).unwrap();
        prop_assert_eq!(decoded, entries);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_parser(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Parsing untrusted bytes must either succeed or return an error — never panic.
        let _ = LinkMessage::from_bytes(&data);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_subscriber_set_decoder(
        data in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = ipop_overlay::pubsub::decode_subscriber_set(&ipop_packet::Bytes::from(data));
    }
}

// ------------------------------------------------- ordered connection table

use ipop_overlay::packets::ConnectionKind;
use ipop_overlay::table::{Connection, ConnectionState, ConnectionTable};

const KINDS: [ConnectionKind; 3] = [
    ConnectionKind::Near,
    ConnectionKind::Far,
    ConnectionKind::Leaf,
];

/// The cached per-kind counts against a full recount of the established edges.
fn assert_kind_counts_match_recount(table: &ConnectionTable) {
    for kind in KINDS {
        assert_eq!(
            table.count_kind(kind),
            table.established().filter(|c| c.kind == kind).count(),
            "{kind:?}"
        );
    }
}

/// Build a table from generated words: each word yields a peer address (low
/// byte stretched over the top bytes so distance ties across the ring are
/// common), a state and a kind — a repeated address is an in-place kind or
/// state change. The per-kind counts are checked after every step. Returns
/// the table plus the established connections for the linear reference scan.
fn build_table(words: &[u64]) -> (ConnectionTable, Vec<(Address, ConnectionKind)>) {
    let mut table = ConnectionTable::new();
    let mut reference = Vec::new();
    for &w in words {
        let mut b = [0u8; 20];
        // Tiny address space (16 distinct values) to force collisions, exact
        // hits, and equidistant pairs around any target.
        b[0] = ((w & 0xF) as u8) << 4;
        let peer = Address(b);
        let state = if w & 0x10 != 0 {
            ConnectionState::Established
        } else {
            ConnectionState::Connecting
        };
        let kind = KINDS[(((w >> 5) & 0x3) as usize).min(2)];
        table.upsert(Connection {
            peer,
            endpoint: (std::net::Ipv4Addr::new(10, 0, 0, 1), 4001),
            kind,
            state,
            last_heard: SimTime::ZERO,
            last_ping_sent: SimTime::ZERO,
        });
        assert_kind_counts_match_recount(&table);
        reference.retain(|(p, _)| *p != peer);
        if state == ConnectionState::Established {
            reference.push((peer, kind));
        }
        if w & 0x100 != 0 {
            // Occasionally delete, so the index sees removals too.
            table.remove(&peer);
            assert_kind_counts_match_recount(&table);
            reference.retain(|(p, _)| *p != peer);
        }
    }
    reference.sort_by_key(|(p, _)| *p);
    (table, reference)
}

/// The peers a table walk yields, in order.
fn peers_of<'a>(walk: impl IntoIterator<Item = &'a Connection>) -> Vec<Address> {
    walk.into_iter().map(|c| c.peer).collect()
}

fn target_addr(sel: u8) -> Address {
    let mut b = [0u8; 20];
    b[0] = sel;
    Address(b)
}

proptest! {
    #[test]
    fn ordered_table_matches_linear_reference(
        words in proptest::collection::vec(any::<u64>(), 0..24),
        target_sel in any::<u8>(),
        exclude_sel in any::<u8>(),
    ) {
        let (table, reference) = build_table(&words);
        let target = target_addr(target_sel);
        let exclude = target_addr((exclude_sel & 0xF) << 4);

        // closest_to / closest_to_excluding == min_by_key over an
        // ascending-address linear scan (first minimum wins ties).
        for excl in [None, Some(&exclude)] {
            let expect = reference
                .iter()
                .filter(|(p, _)| excl != Some(p))
                .min_by_key(|(p, _)| p.ring_distance(&target))
                .map(|(p, _)| *p);
            let got = table.closest_to_excluding(&target, excl).map(|c| c.peer);
            prop_assert_eq!(got, expect, "target {:?} exclude {:?}", target, excl);
        }

        // right/left neighbors == stable sort by clockwise distance.
        for count in [1usize, 3, reference.len() + 1] {
            let mut right: Vec<Address> = reference.iter().map(|(p, _)| *p).collect();
            right.sort_by_key(|p| target.clockwise_distance(p));
            let got_right = peers_of(table.right_neighbors(&target, count));
            prop_assert_eq!(&got_right[..], &right[..count.min(right.len())]);

            let mut left: Vec<Address> = reference.iter().map(|(p, _)| *p).collect();
            left.sort_by_key(|p| p.clockwise_distance(&target));
            let got_left = peers_of(table.left_neighbors(&target, count));
            prop_assert_eq!(&got_left[..], &left[..count.min(left.len())]);

            // The non-allocating walks yield what the Vec forms collect, and
            // the near view is right-then-left with the overlap dropped.
            prop_assert_eq!(&peers_of(table.right_of(&target).take(count)), &got_right);
            prop_assert_eq!(&peers_of(table.left_of(&target).take(count)), &got_left);
            let mut view = got_right;
            for p in got_left {
                if !view.contains(&p) {
                    view.push(p);
                }
            }
            prop_assert_eq!(peers_of(table.near_view(&target, count)), view);
        }

        // Established iteration, peers() and kind counts agree with the
        // reference set.
        let got_peers: Vec<Address> = table.peers();
        let expect_peers: Vec<Address> = reference.iter().map(|(p, _)| *p).collect();
        prop_assert_eq!(&got_peers, &expect_peers);
        prop_assert_eq!(table.established_addrs().len(), expect_peers.len());
        prop_assert!(table.established_addrs().eq(expect_peers.iter()));
        for n in 0..=expect_peers.len() {
            prop_assert_eq!(
                table.nth_established(n).map(|c| c.peer),
                expect_peers.get(n).copied()
            );
        }
        for kind in KINDS {
            prop_assert_eq!(
                table.count_kind(kind),
                reference.iter().filter(|(_, k)| *k == kind).count()
            );
        }
    }
}

// ----------------------------------------------------------- anti-entropy

use std::collections::BTreeMap;

use ipop_overlay::dht::{
    apply_record_copy, sync_compare, sync_digest_entry, DhtRecord, SoftStateStore, SyncAction,
    SyncDigestEntry, SYNC_TTL_BUCKET_MS,
};
use ipop_simcore::{Duration, SimTime};

/// `now` for the anti-entropy proptests: far enough from zero that expired
/// records (negative TTL offsets) never underflow.
fn sync_now() -> SimTime {
    SimTime::ZERO + Duration::from_secs(60)
}

/// One generated record: `(key index, value index, version, expiry offset in
/// ms relative to now — non-positive means already expired)`.
type GenRecord = (u8, u8, u64, i64);

/// The vendored proptest subset has no tuple strategies: generate packed
/// `u64`s and unpack the record fields deterministically.
fn arb_records() -> impl Strategy<Value = Vec<GenRecord>> {
    proptest::collection::vec(any::<u64>(), 0..12).prop_map(|raw| {
        raw.into_iter()
            .map(|r| {
                let key_idx = (r & 0xFF) as u8 % 6;
                let value_idx = ((r >> 8) & 0xFF) as u8 % 4;
                let version = 1 + ((r >> 16) & 0xFF) % 5;
                let expiry_off_ms = ((r >> 24) % 630_000) as i64 - 30_000;
                (key_idx, value_idx, version, expiry_off_ms)
            })
            .collect()
    })
}

fn gen_key(idx: u8) -> Address {
    let mut b = [0u8; 20];
    b[0] = 0xA0 + idx;
    Address(b)
}

fn gen_value(idx: u8) -> Vec<u8> {
    vec![idx + 1; 3 + idx as usize]
}

fn build_store(records: &[GenRecord]) -> SoftStateStore {
    let now = sync_now();
    let mut store = SoftStateStore::new();
    for &(k, v, version, off_ms) in records {
        let expires_at = if off_ms <= 0 {
            SimTime::ZERO + Duration::from_millis((60_000 + off_ms) as u64)
        } else {
            now + Duration::from_millis(off_ms as u64)
        };
        store.insert(
            gen_key(k),
            DhtRecord {
                value: gen_value(v).into(),
                expires_at,
                version,
                replica: true,
                replicated_to: Vec::new(),
            },
        );
    }
    store
}

/// Live contents of a store as a comparable map: key → (value bytes, version).
fn live_contents(store: &SoftStateStore, now: SimTime) -> BTreeMap<Address, (Vec<u8>, u64)> {
    store
        .keys()
        .into_iter()
        .filter_map(|k| {
            store
                .get(&k)
                .filter(|r| !r.expired(now))
                .map(|r| (k, (r.value.to_vec(), r.version)))
        })
        .collect()
}

/// One digest exchange from `src` to `dst`, exactly as the overlay node runs
/// it: `dst` pulls records the digest has fresher and pushes back records it
/// holds fresher, both applied under the store-level freshness rule.
fn sweep_round(src: &mut SoftStateStore, dst: &mut SoftStateStore, now: SimTime) {
    let entries: Vec<SyncDigestEntry> = src
        .keys()
        .into_iter()
        .filter_map(|k| {
            src.get(&k)
                .filter(|r| !r.expired(now))
                .map(|r| sync_digest_entry(k, r, now))
        })
        .collect();
    let mut pulls = Vec::new();
    let mut pushes = Vec::new();
    for e in &entries {
        match sync_compare(e, dst.get(&e.key), now) {
            SyncAction::InSync => {}
            SyncAction::Pull => pulls.push(e.key),
            SyncAction::Push => pushes.push(e.key),
            SyncAction::Exchange => {
                pulls.push(e.key);
                pushes.push(e.key);
            }
        }
    }
    for k in pulls {
        if let Some(r) = src.get(&k).filter(|r| !r.expired(now)) {
            let (value, ttl_ms, version) = (r.value.clone(), r.remaining_ttl_ms(now), r.version);
            apply_record_copy(dst, k, &value, ttl_ms, version, true, now);
        }
    }
    for k in pushes {
        if let Some(r) = dst.get(&k).filter(|r| !r.expired(now)) {
            let (value, ttl_ms, version) = (r.value.clone(), r.remaining_ttl_ms(now), r.version);
            apply_record_copy(src, k, &value, ttl_ms, version, true, now);
        }
    }
}

proptest! {
    #[test]
    fn anti_entropy_converges_arbitrary_divergent_stores(
        a_records in arb_records(),
        b_records in arb_records(),
    ) {
        let now = sync_now();
        let mut a = build_store(&a_records);
        let mut b = build_store(&b_records);
        // Everything that was live *somewhere* before the sync: the only
        // records allowed to exist afterwards (nothing expired or absent may
        // be resurrected).
        let mut input_live: BTreeMap<Address, Vec<(Vec<u8>, u64)>> = BTreeMap::new();
        for (k, vv) in live_contents(&a, now).into_iter().chain(live_contents(&b, now)) {
            input_live.entry(k).or_default().push(vv);
        }

        // One full bidirectional exchange converges a two-store system.
        sweep_round(&mut a, &mut b, now);
        sweep_round(&mut b, &mut a, now);

        let live_a = live_contents(&a, now);
        let live_b = live_contents(&b, now);
        prop_assert_eq!(&live_a, &live_b, "stores converged to identical live contents");
        for (k, vv) in &live_a {
            let candidates = input_live.get(k);
            prop_assert!(
                candidates.is_some_and(|c| c.contains(vv)),
                "record under {:?} was resurrected from nothing: {:?}",
                k, vv
            );
            // Expiries agree within the skew tolerance the bucket scheme allows.
            let ea = a.get(k).unwrap().expires_at;
            let eb = b.get(k).unwrap().expires_at;
            let diff = ea.saturating_since(eb).max(eb.saturating_since(ea));
            prop_assert!(
                diff < Duration::from_millis(2 * SYNC_TTL_BUCKET_MS),
                "expiry skew exceeds the bucket tolerance: {:?}", diff
            );
        }

        // And the exchange is a fixpoint: a second full round moves nothing.
        sweep_round(&mut a, &mut b, now);
        sweep_round(&mut b, &mut a, now);
        prop_assert_eq!(live_contents(&a, now), live_a);
        prop_assert_eq!(live_contents(&b, now), live_b);
    }
}

// --------------------------------------------------------------------------
// Greedy routing over a converged ring with shortcuts: every Exact-mode
// packet reaches its target, with no loops, over *real* OverlayNodes (the
// same `route` path production runs), including asymmetric Far edges.

use std::net::Ipv4Addr;

use ipop_overlay::node::{OverlayConfig, OverlayNode};
use ipop_simcore::StreamRng;

fn ep_of(i: usize) -> (Ipv4Addr, u16) {
    (
        Ipv4Addr::new(10, 9, (i / 200) as u8, (i % 200 + 1) as u8),
        4001,
    )
}

fn idx_of(ep: &(Ipv4Addr, u16)) -> usize {
    let o = ep.0.octets();
    o[2] as usize * 200 + o[3] as usize - 1
}

/// A ring of `n` real nodes at the given addresses with `NEAR_PER_SIDE` (2)
/// near edges seeded both ways.
fn converged_ring(addrs: &[Address]) -> Vec<OverlayNode> {
    let n = addrs.len();
    let now = SimTime::ZERO;
    let mut nodes: Vec<OverlayNode> = (0..n)
        .map(|i| {
            let cfg = OverlayConfig::new(addrs[i], ep_of(i))
                .without_link_monitor()
                .without_anti_entropy();
            OverlayNode::new(cfg, StreamRng::new(7, &format!("route-{i}")))
        })
        .collect();
    for (i, node) in nodes.iter_mut().enumerate() {
        for d in 1..=2usize.min(n / 2) {
            for j in [(i + d) % n, (i + n - d) % n] {
                if j != i {
                    node.seed_connection(now, addrs[j], ep_of(j), ConnectionKind::Near);
                }
            }
        }
    }
    nodes
}

/// Deliver every queued link message (zero latency) until the network goes
/// quiet; panics if it fails to quiesce (a routing loop would spin forever).
fn pump_until_quiet(nodes: &mut [OverlayNode]) {
    let now = SimTime::ZERO;
    for _ in 0..10_000 {
        let mut moved = false;
        for i in 0..nodes.len() {
            for (ep, msg) in nodes[i].take_outbox() {
                nodes[idx_of(&ep)].on_message(now, ep_of(i), msg);
                moved = true;
            }
        }
        if !moved {
            return;
        }
    }
    panic!("network failed to quiesce: routing loop");
}

proptest! {
    /// Over a converged ring plus arbitrary (possibly one-directional) Far
    /// shortcuts, every Exact-mode probe is delivered to its target in at
    /// most N hops with nothing dropped — greedy routing's
    /// strictly-decreasing-distance rule can neither loop nor blackhole.
    #[test]
    fn greedy_routing_reaches_every_target(
        words in proptest::collection::vec(any::<u64>(), 12..24),
        shortcuts in proptest::collection::vec(any::<u64>(), 0..32),
        pairs in proptest::collection::vec(any::<u64>(), 1..24),
    ) {
        // Distinct ring addresses from the generated words.
        let mut addrs: Vec<Address> = words
            .iter()
            .map(|&w| {
                let mut b = [0u8; 20];
                b[..8].copy_from_slice(&w.to_be_bytes());
                Address(b)
            })
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        if addrs.len() < 8 {
            return; // too many collisions in the drawn words; skip the case
        }
        let n = addrs.len();
        let mut nodes = converged_ring(&addrs);

        // Asymmetric shortcuts: seeded in ONE direction only.
        for &w in &shortcuts {
            let i = (w % n as u64) as usize;
            let j = ((w >> 16) % n as u64) as usize;
            if i != j {
                nodes[i].seed_connection(
                    SimTime::ZERO, addrs[j], ep_of(j), ConnectionKind::Far,
                );
            }
        }

        for &w in &pairs {
            let src = (w % n as u64) as usize;
            let mut dst = ((w >> 16) % n as u64) as usize;
            if dst == src {
                dst = (src + 1) % n;
            }
            nodes[src].send_ip(SimTime::ZERO, addrs[dst], vec![0xAB; 4]);
            pump_until_quiet(&mut nodes);
            let got = nodes[dst].take_delivered();
            prop_assert_eq!(got.len(), 1, "probe {}->{} not delivered", src, dst);
            prop_assert!(
                (got[0].hops as usize) < n,
                "{} hops on an {}-node ring: a loop slipped through",
                got[0].hops, n
            );
        }
        for node in &nodes {
            let s = node.stats();
            prop_assert_eq!(s.dropped_no_target, 0, "blackholed packet");
            prop_assert_eq!(s.dropped_ttl, 0, "TTL exhaustion on a converged ring");
        }
    }
}

/// Two nodes exactly equidistant from a key, each holding a Far edge to the
/// other (the shape left behind by asymmetric shortcut formation): the
/// strictly-decreasing-distance rule forbids the equal-distance forward, so
/// the packet is dropped at the first of the pair instead of ping-ponging
/// between them until TTL death.
#[test]
fn exact_mode_never_ping_pongs_between_equidistant_nodes() {
    let mk = |hi: u8| {
        let mut b = [0u8; 20];
        b[0] = hi;
        Address(b)
    };
    let (a, b, key) = (mk(0x10), mk(0x30), mk(0x20));
    assert_eq!(a.ring_distance(&key), b.ring_distance(&key), "test shape");

    let now = SimTime::ZERO;
    let mut node_a = OverlayNode::new(
        OverlayConfig::new(a, ep_of(0)).without_link_monitor(),
        StreamRng::new(1, "pp-a"),
    );
    let mut node_b = OverlayNode::new(
        OverlayConfig::new(b, ep_of(1)).without_link_monitor(),
        StreamRng::new(1, "pp-b"),
    );
    node_a.seed_connection(now, b, ep_of(1), ConnectionKind::Far);
    node_b.seed_connection(now, a, ep_of(0), ConnectionKind::Far);

    // A originates an Exact packet for the key. B is no closer than A, so A
    // must not forward: the packet dies at A as closest-but-not-target.
    node_a.send_ip(now, key, vec![1, 2, 3]);
    assert!(
        node_a.take_outbox().is_empty(),
        "equal-distance forward would start the ping-pong"
    );
    assert_eq!(node_a.stats().dropped_no_target, 1);
    assert_eq!(node_a.stats().forwarded, 0);

    // The mirror image behaves identically.
    node_b.send_ip(now, key, vec![4, 5, 6]);
    assert!(node_b.take_outbox().is_empty());
    assert_eq!(node_b.stats().dropped_no_target, 1);

    // Sanity: a strictly closer neighbour IS used.
    let c = mk(0x1E);
    node_a.seed_connection(now, c, ep_of(2), ConnectionKind::Far);
    node_a.send_ip(now, key, vec![7]);
    let out = node_a.take_outbox();
    assert_eq!(out.len(), 1, "closer hop must be taken");
    assert_eq!(out[0].0, ep_of(2));
}
