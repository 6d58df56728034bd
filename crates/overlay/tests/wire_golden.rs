//! The overlay's wire image, pinned. Every message shape the overlay speaks
//! (9 link messages, 26 routed payloads, and both sides of every presence
//! byte) is encoded from fixed field values and held to its length and its
//! FNV-1a 64 hash. A round trip cannot catch a field moved in the encoder and
//! the decoder at once; this can, because it compares with bytes the codec
//! produced before any such move.

use std::net::Ipv4Addr;

use ipop_overlay::address::Address;
use ipop_overlay::dht::SyncDigestEntry;
use ipop_overlay::packets::RoutedPayload as P;
use ipop_overlay::packets::{ConnectionKind as K, DeliveryMode, LinkMessage as L, RoutedPacket};
use ipop_packet::Bytes;

fn fnv64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An address whose twenty bytes all differ, so a shifted field shows.
fn addr(seed: u8) -> Address {
    Address(std::array::from_fn(|i| seed.wrapping_add(i as u8)))
}

fn body(len: u8) -> Bytes {
    (0..len).map(|i| i ^ 0x5a).collect()
}

/// `(encoded length, FNV-1a 64 of the image, message)` for every shape, with
/// distinct values in the fields of one type; the lengths and hashes are what
/// the codec wrote when this test was introduced.
#[rustfmt::skip]
fn pinned() -> Vec<(usize, u64, L)> {
    let (a, b, c) = (addr(0x10), addr(0x40), addr(0x70));
    let (ep, ep2) = ((Ipv4Addr::new(10, 1, 2, 3), 0x0fa1), (Ipv4Addr::new(192, 168, 7, 9), 0x1388));
    let t = 0x0102_0304_0506_0708;
    let routed = |mode, payload| L::Routed(RoutedPacket { hops: 3, ttl: 29, ..RoutedPacket::new(a, b, mode, payload) });
    let cl = |p| routed(DeliveryMode::Closest, p);
    let ex = |p| routed(DeliveryMode::Exact, p);
    let entry = |key, n: u64| SyncDigestEntry { key, version: n, value_hash: n << 8 | 0xee, ttl_bucket: n << 16 | 0x77 };
    vec![
        (36, 0xf87b_54b1_7f31_122b, L::Hello { from: a, kind: K::Near, observed: ep, token: t }),
        (36, 0x17a9_2588_3290_85c6, L::HelloAck { from: b, kind: K::Leaf, observed: ep2, token: t + 1 }),
        (29, 0x0b8d_9677_4749_24b0, L::Ping { from: a, nonce: 11 }),
        (29, 0x232c_a328_0620_8bae, L::Pong { from: b, nonce: 12 }),
        (21, 0x8eec_7439_115b_44b7, L::Close { from: c }),
        (74, 0x5dec_7333_1884_ead0, L::Neighbors { from: a, neighbors: vec![(b, ep), (c, ep2)] }),
        (29, 0x5139_13a7_964c_08ed, L::Probe { from: a, nonce: 13 }),
        (29, 0x7ff0_2356_f166_5555, L::ProbeAck { from: b, nonce: 14 }),
        (58, 0x25d8_c036_5e66_1ae7, ex(P::IpTunnel(body(9)))),
        (87, 0x9add_2590_50c0_f3a4, cl(P::ConnectRequest { token: t, initiator: c, kind: K::Far, endpoints: vec![ep, ep2] })),
        (80, 0x2f88_7a1e_1edc_8c8a, ex(P::ConnectResponse { token: t, responder: c, endpoints: vec![ep2] })),
        (90, 0x3ae1_37a2_dda7_f345, cl(P::DhtPut { key: c, value: body(5), ttl_ms: 60_000, version: 4 })),
        (73, 0x5286_aae0_4015_936d, cl(P::DhtGet { key: c, token: t })),
        (61, 0x3ee3_3f35_c090_4e50, ex(P::DhtReply { token: t, value: Some(body(3)) })),
        (54, 0x5ab2_4aad_01ee_5a51, ex(P::DhtReply { token: t, value: None })),
        (91, 0x98c4_697a_0a40_8c9b, cl(P::DhtCreate { key: c, value: body(6), ttl_ms: 30_000, token: t })),
        (63, 0x64e6_efe5_931a_9346, ex(P::DhtCreateReply { token: t, created: false, existing: Some(body(4)) })),
        (55, 0x013e_df71_146f_41d8, ex(P::DhtCreateReply { token: t, created: true, existing: None })),
        (100, 0x9dd5_ebde_2a1b_22c2, ex(P::DhtReplicate { key: c, value: body(7), ttl_ms: 45_000, version: 9, token: t })),
        (65, 0x4a6e_2127_9587_4b2a, cl(P::DhtRemove { key: c })),
        (54, 0x4b25_bf8f_8845_a829, ex(P::DhtReplicateAck { token: t, stored: true })),
        (73, 0xac62_b9e6_ee41_a589, ex(P::DhtGetReplica { key: c, token: t })),
        (76, 0x4fc1_1434_82b1_57a0, ex(P::DhtReplicaValue { token: t, copy: Some((body(2), 17, 25_000)) })),
        (54, 0x686a_d3a3_049d_dc38, ex(P::DhtReplicaValue { token: t, copy: None })),
        (81, 0x9905_357f_0543_a8a8, ex(P::DhtWithdraw { key: c, value: body(4), version: 21 })),
        (136, 0x57b1_88d9_8116_e74c, ex(P::DhtSyncDigest { entries: vec![entry(b, 5), entry(c, 6)], from_owner: true })),
        (87, 0x825c_0842_12d2_5fa3, ex(P::DhtSyncPull { keys: vec![c, b] })),
        (93, 0xb3be_0e6e_25a2_cb35, cl(P::PubSubSubscribe { topic: c, subscriber: a, ttl_ms: 90_000 })),
        (85, 0xe865_5e7e_e1df_7d52, cl(P::PubSubUnsubscribe { topic: c, subscriber: a })),
        (85, 0x7aa0_a1f1_5480_39da, cl(P::PubSubPublish { topic: c, msg_id: 31, payload: body(8) })),
        (124, 0xa0fe_8c06_51f7_242a, ex(P::PubSubDeliver { topic: c, msg_id: 32, relay_to: vec![a, c], payload: body(5) })),
        (73, 0x9d69_cd9c_116b_fc5b, ex(P::PubSubNack { topic: c, msg_id: 33 })),
        (57, 0x215b_4979_e640_5726, ex(P::StreamSyn { stream_id: 41, window: 65_535 })),
        (57, 0xcfed_ac69_08dd_2950, ex(P::StreamSynAck { stream_id: 42, window: 32_768 })),
        (79, 0xcdc3_3ac2_56e0_d2d6, ex(P::StreamData { stream_id: 43, seq: 1_000, window: 16_384, payload: body(10) })),
        (65, 0x988b_51cb_ec2e_5927, ex(P::StreamAck { stream_id: 44, ack: 2_000, window: 8_192 })),
        (61, 0xfe19_1135_2920_b813, ex(P::StreamFin { stream_id: 45, seq: 3_000 })),
    ]
}

#[test]
fn every_wire_shape_keeps_its_bytes() {
    for (len, hash, msg) in pinned() {
        let wire = msg.to_bytes();
        assert_eq!(
            (wire.len(), fnv64(&wire)),
            (len, hash),
            "{msg:?} moved on the wire"
        );
        assert_eq!(L::from_wire(&Bytes::from(wire)), Ok(msg));
    }
}
