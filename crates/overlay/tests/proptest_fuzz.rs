//! Deterministic in-tree fuzzing of the overlay wire decoders. Two corpora
//! per message family: pure byte soup, and valid wire images put through the
//! mutations a hostile or lossy network actually performs (byte flips,
//! truncation, trailing garbage). Every input must decode to a value or a
//! typed [`ipop_packet::ParseError`] — never panic, never mis-parse into an
//! allocation bomb — and whatever decodes must re-encode without panicking.

use proptest::prelude::*;

use ipop_overlay::address::Address;
use ipop_overlay::dht::SyncDigestEntry;
use ipop_overlay::packets::{
    ConnectionKind, DeliveryMode, LinkMessage, RoutedPacket, RoutedPayload,
};
use ipop_packet::{Bytes, ParseError};

fn arb_addr() -> impl Strategy<Value = Address> {
    any::<[u8; 20]>().prop_map(Address)
}

/// One valid wire image from every message family the overlay speaks, with
/// arbitrary field values: the seed corpus the mutations start from.
fn corpus(a: Address, b: Address, token: u64, payload: Vec<u8>, entries: u8) -> Vec<Vec<u8>> {
    let ep = (std::net::Ipv4Addr::new(10, 9, 8, 7), 4001);
    let digest = (0..entries)
        .map(|i| SyncDigestEntry {
            key: Address([i; 20]),
            version: u64::from(i),
            value_hash: token ^ u64::from(i),
            ttl_bucket: u64::from(i) * 3,
        })
        .collect();
    let neighbors = (0..entries).map(|i| (Address([i; 20]), ep)).collect();
    let routed = |p: RoutedPayload| {
        LinkMessage::Routed(RoutedPacket::new(a, b, DeliveryMode::Closest, p)).to_bytes()
    };
    vec![
        LinkMessage::Hello {
            from: a,
            kind: ConnectionKind::Near,
            observed: ep,
            token,
        }
        .to_bytes(),
        LinkMessage::Ping {
            from: a,
            nonce: token,
        }
        .to_bytes(),
        LinkMessage::Probe {
            from: a,
            nonce: token,
        }
        .to_bytes(),
        LinkMessage::ProbeAck {
            from: b,
            nonce: token,
        }
        .to_bytes(),
        LinkMessage::Neighbors { from: a, neighbors }.to_bytes(),
        LinkMessage::HelloAck {
            from: b,
            kind: ConnectionKind::Leaf,
            observed: ep,
            token,
        }
        .to_bytes(),
        LinkMessage::Pong {
            from: b,
            nonce: token,
        }
        .to_bytes(),
        LinkMessage::Close { from: a }.to_bytes(),
        routed(RoutedPayload::IpTunnel(payload.clone().into())),
        routed(RoutedPayload::ConnectRequest {
            token,
            initiator: a,
            kind: ConnectionKind::Far,
            endpoints: vec![ep, ep],
        }),
        routed(RoutedPayload::ConnectResponse {
            token,
            responder: b,
            endpoints: vec![ep],
        }),
        routed(RoutedPayload::DhtPut {
            key: b,
            value: Bytes::from(payload.clone()),
            ttl_ms: token,
            version: token,
        }),
        routed(RoutedPayload::DhtGet { key: a, token }),
        routed(RoutedPayload::DhtReply {
            token,
            value: Some(Bytes::from(payload.clone())),
        }),
        routed(RoutedPayload::DhtReply { token, value: None }),
        routed(RoutedPayload::DhtCreate {
            key: a,
            value: Bytes::from(payload.clone()),
            ttl_ms: token,
            token,
        }),
        routed(RoutedPayload::DhtCreateReply {
            token,
            created: false,
            existing: Some(Bytes::from(payload.clone())),
        }),
        routed(RoutedPayload::DhtCreateReply {
            token,
            created: true,
            existing: None,
        }),
        routed(RoutedPayload::DhtReplicate {
            key: b,
            value: Bytes::from(payload.clone()),
            ttl_ms: token,
            version: token,
            token,
        }),
        routed(RoutedPayload::DhtReplicateAck {
            token,
            stored: entries % 2 == 0,
        }),
        routed(RoutedPayload::DhtGetReplica { key: b, token }),
        routed(RoutedPayload::DhtReplicaValue {
            token,
            copy: Some((Bytes::from(payload.clone()), token, token)),
        }),
        routed(RoutedPayload::DhtReplicaValue { token, copy: None }),
        routed(RoutedPayload::DhtRemove { key: a }),
        routed(RoutedPayload::DhtWithdraw {
            key: a,
            value: Bytes::from(payload.clone()),
            version: token,
        }),
        routed(RoutedPayload::DhtSyncDigest {
            entries: digest,
            from_owner: true,
        }),
        routed(RoutedPayload::DhtSyncPull { keys: vec![a, b] }),
        routed(RoutedPayload::PubSubSubscribe {
            topic: a,
            subscriber: b,
            ttl_ms: token,
        }),
        routed(RoutedPayload::PubSubUnsubscribe {
            topic: a,
            subscriber: b,
        }),
        routed(RoutedPayload::PubSubPublish {
            topic: a,
            msg_id: token,
            payload: Bytes::from(payload.clone()),
        }),
        routed(RoutedPayload::PubSubDeliver {
            topic: a,
            msg_id: token,
            relay_to: (0..entries).map(|i| Address([i; 20])).collect(),
            payload: Bytes::from(payload.clone()),
        }),
        routed(RoutedPayload::PubSubNack {
            topic: a,
            msg_id: token,
        }),
        routed(RoutedPayload::StreamSyn {
            stream_id: token,
            window: token as u32,
        }),
        routed(RoutedPayload::StreamSynAck {
            stream_id: token,
            window: token as u32,
        }),
        routed(RoutedPayload::StreamData {
            stream_id: token,
            seq: token,
            window: token as u32,
            payload: Bytes::from(payload),
        }),
        routed(RoutedPayload::StreamAck {
            stream_id: token,
            ack: token,
            window: token as u32,
        }),
        routed(RoutedPayload::StreamFin {
            stream_id: token,
            seq: token,
        }),
    ]
}

/// The tag byte of a link message and, for a routed one, of its payload (at
/// offset 44, after tag 5, src, dst, mode, hops and ttl). No wildcard: a new
/// variant does not compile until it gets its tag here.
fn tags(msg: &LinkMessage) -> (u8, Option<u8>) {
    use RoutedPayload as P;
    let payload = match msg {
        LinkMessage::Hello { .. } => return (0, None),
        LinkMessage::HelloAck { .. } => return (1, None),
        LinkMessage::Ping { .. } => return (2, None),
        LinkMessage::Pong { .. } => return (3, None),
        LinkMessage::Close { .. } => return (4, None),
        LinkMessage::Neighbors { .. } => return (6, None),
        LinkMessage::Probe { .. } => return (7, None),
        LinkMessage::ProbeAck { .. } => return (8, None),
        LinkMessage::Routed(pkt) => &pkt.payload,
    };
    let tag = match payload {
        P::IpTunnel(_) => 0,
        P::ConnectRequest { .. } => 1,
        P::ConnectResponse { .. } => 2,
        P::DhtPut { .. } => 3,
        P::DhtGet { .. } => 4,
        P::DhtReply { .. } => 5,
        P::DhtCreate { .. } => 6,
        P::DhtCreateReply { .. } => 7,
        P::DhtReplicate { .. } => 8,
        P::DhtRemove { .. } => 9,
        P::DhtReplicateAck { .. } => 10,
        P::DhtGetReplica { .. } => 11,
        P::DhtReplicaValue { .. } => 12,
        P::DhtWithdraw { .. } => 13,
        P::DhtSyncDigest { .. } => 14,
        P::DhtSyncPull { .. } => 15,
        P::PubSubSubscribe { .. } => 16,
        P::PubSubUnsubscribe { .. } => 17,
        P::PubSubPublish { .. } => 18,
        P::PubSubDeliver { .. } => 19,
        P::PubSubNack { .. } => 20,
        P::StreamSyn { .. } => 21,
        P::StreamSynAck { .. } => 22,
        P::StreamData { .. } => 23,
        P::StreamAck { .. } => 24,
        P::StreamFin { .. } => 25,
    };
    (5, Some(tag))
}

/// CONTRACTS.md C3: every corpus image decodes and round-trips, carries the
/// tag [`tags`] gives its variant, and together they cover both tag spaces
/// contiguously from zero — so every variant is in the corpus — while the
/// next tag up is one the decoder does not know.
#[test]
fn the_corpus_covers_every_wire_tag() {
    let (mut link, mut routed) = (Vec::new(), Vec::new());
    let images = corpus(Address([1; 20]), Address([2; 20]), 7, vec![3; 5], 2);
    for image in &images {
        let msg = LinkMessage::from_bytes(image).expect("corpus image decodes");
        assert_eq!(&msg.to_bytes(), image, "{msg:?} round-trips");
        let (tag, payload_tag) = tags(&msg);
        assert_eq!(image.first(), Some(&tag), "{msg:?}");
        link.push(tag);
        if let Some(payload_tag) = payload_tag {
            assert_eq!(image.get(44), Some(&payload_tag), "{msg:?}");
            routed.push(payload_tag);
        }
    }
    for tags in [&mut link, &mut routed] {
        tags.sort_unstable();
        tags.dedup();
    }
    assert_eq!(link, (0..=8).collect::<Vec<u8>>(), "LinkMessage tags");
    assert_eq!(routed, (0..=25).collect::<Vec<u8>>(), "RoutedPayload tags");

    let unsupported = |image: &[u8]| LinkMessage::from_bytes(image).err();
    assert_eq!(
        unsupported(&[9]),
        Some(ParseError::Unsupported("link message"))
    );
    let routed_image = images.iter().find(|image| image.first() == Some(&5));
    let mut next = routed_image.expect("a routed image").clone();
    next[44] = 26;
    assert_eq!(
        unsupported(&next),
        Some(ParseError::Unsupported("routed payload"))
    );
}

proptest! {
    #[test]
    fn mutated_wire_images_never_panic_the_decoders(
        a in arb_addr(), b in arb_addr(), token: u64,
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        entries in 0u8..12,
        flip_at: [usize; 3],
        flip_mask in proptest::collection::vec(1u8..=255, 3..4),
        cut: usize,
        garbage in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        for image in corpus(a, b, token, payload.clone(), entries) {
            // Byte flips anywhere in the image (what a corrupting link does).
            let mut flipped = image.clone();
            for (idx, x) in flip_at.iter().zip(&flip_mask) {
                let i = idx % flipped.len().max(1);
                if let Some(byte) = flipped.get_mut(i) {
                    *byte ^= *x;
                }
            }
            if let Ok(msg) = LinkMessage::from_bytes(&flipped) {
                let _ = msg.to_bytes();
            }
            let shared = Bytes::from(flipped);
            if let Ok(msg) = LinkMessage::from_wire(&shared) {
                let _ = msg.to_wire();
            }

            // Truncation at an arbitrary point (what loss mid-fragment does).
            let cut_at = cut % (image.len() + 1);
            prop_assert!(
                cut_at == image.len() || LinkMessage::from_bytes(&image[..cut_at]).is_err(),
                "a strict prefix decoded as a whole message"
            );

            // Trailing garbage must be rejected, not silently swallowed.
            if !garbage.is_empty() {
                let mut padded = image.clone();
                padded.extend_from_slice(&garbage);
                prop_assert!(
                    LinkMessage::from_bytes(&padded).is_err(),
                    "trailing bytes were silently accepted"
                );
            }

            // And the untouched image still round-trips, both decode paths.
            let msg = LinkMessage::from_bytes(&image).unwrap();
            prop_assert_eq!(msg.to_bytes(), image.clone());
            let shared = Bytes::from(image.clone());
            let via_wire = LinkMessage::from_wire(&shared).unwrap();
            prop_assert_eq!(via_wire.to_wire().as_slice(), image.as_slice());
        }
    }

    #[test]
    fn byte_soup_never_panics_the_shared_buffer_decoder(
        data in proptest::collection::vec(any::<u8>(), 0..1024),
    ) {
        // `from_bytes` soup coverage lives in proptest_overlay.rs; this is
        // the `from_wire` (shared-buffer, wire-image-caching) path.
        let shared = Bytes::from(data);
        if let Ok(msg) = LinkMessage::from_wire(&shared) {
            let _ = msg.to_wire();
        }
    }
}
