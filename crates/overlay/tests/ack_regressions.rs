//! Quorum tokens come from a counter that starts at 1, so a peer can guess
//! them. Unchecked, a `DhtReplicateAck` from an address the coordinator never
//! pushed to concluded a quorum write (`created: true` with no replica
//! holding the record), and a forged `DhtReplicaValue` with a high version
//! became the answer of a quorum read *and* was written back by read repair.
//! An ack / answer now counts only from a replica that was pushed / polled,
//! and only once; the rest is dropped and counted in `dht_bad_acks`.
//!
//! The coordinator runs at `replication = 5` with five peers: the four
//! nearest its key are the replica set (two acks make a majority of the five
//! copies), the fifth is the client.

use ipop_overlay::node::{OverlayConfig, OverlayNode};
use ipop_overlay::packets::{
    ConnectionKind, DeliveryMode, Endpoint, LinkMessage, RoutedPacket, RoutedPayload,
};
use ipop_overlay::Address;
use ipop_packet::Bytes;
use ipop_simcore::{Duration, SimTime, StreamRng};

fn addr(n: u8) -> Address {
    Address::from_key(&[n])
}

fn ep(n: u8) -> Endpoint {
    ([10, 0, 0, n].into(), 4001)
}

fn now() -> SimTime {
    SimTime::ZERO + Duration::from_secs(100)
}

/// The coordinator; also the key every case writes, so it owns it.
fn me() -> Address {
    addr(1)
}

/// The coordinator with its five peers, and those peers nearest-first: the
/// first four are the key's replica set, the last is the client.
fn coordinator() -> (OverlayNode, Vec<Address>) {
    let mut cfg = OverlayConfig::new(me(), ep(1));
    cfg.dht.replication = 5;
    let mut node = OverlayNode::new(cfg, StreamRng::new(7, "acks"));
    let mut peers: Vec<Address> = (10..15).map(addr).collect();
    peers.sort_by_key(|p| p.ring_distance(&me()));
    for (i, peer) in peers.iter().enumerate() {
        node.seed_connection(SimTime::ZERO, *peer, ep(10 + i as u8), ConnectionKind::Near);
    }
    (node, peers)
}

/// Deliver `payload` from `src`, routed to the coordinator.
fn deliver(node: &mut OverlayNode, src: Address, mode: DeliveryMode, payload: RoutedPayload) {
    let msg = LinkMessage::Routed(RoutedPacket::new(src, me(), mode, payload));
    node.on_message(now(), ep(99), msg);
}

/// The routed payloads the coordinator queued since the last call, with
/// their destinations.
fn sent(node: &mut OverlayNode) -> Vec<(Address, RoutedPayload)> {
    node.take_outbox()
        .into_iter()
        .filter_map(|(_, msg)| match msg {
            LinkMessage::Routed(pkt) => Some((pkt.dst, pkt.payload)),
            _ => None,
        })
        .collect()
}

fn create_replies(sent: &[(Address, RoutedPayload)]) -> Vec<(Address, bool)> {
    sent.iter()
        .filter_map(|(dst, p)| match p {
            RoutedPayload::DhtCreateReply { created, .. } => Some((*dst, *created)),
            _ => None,
        })
        .collect()
}

/// The client's claim on the coordinator's key.
fn claim() -> RoutedPayload {
    RoutedPayload::DhtCreate {
        key: me(),
        value: Bytes::from(b"claim".to_vec()),
        ttl_ms: 60_000,
        token: 77,
    }
}

/// Have the client claim the coordinator's key; returns the ack token the
/// record was pushed with.
fn start_quorum_write(node: &mut OverlayNode, peers: &[Address]) -> u64 {
    deliver(node, peers[4], DeliveryMode::Closest, claim());
    let pushes: Vec<(Address, u64)> = sent(node)
        .into_iter()
        .filter_map(|(dst, p)| match p {
            RoutedPayload::DhtReplicate { token, .. } => Some((dst, token)),
            _ => None,
        })
        .collect();
    let pushed_to: Vec<Address> = pushes.iter().map(|(dst, _)| *dst).collect();
    assert_eq!(
        pushed_to,
        peers[..4],
        "the four nearest peers hold replicas"
    );
    pushes[0].1
}

fn ack(token: u64) -> RoutedPayload {
    RoutedPayload::DhtReplicateAck {
        token,
        stored: true,
    }
}

#[test]
fn acks_from_peers_that_were_never_pushed_to_do_not_make_a_quorum() {
    let (mut node, peers) = coordinator();
    let op = start_quorum_write(&mut node, &peers);
    // Two acks would be a majority — from two strangers they are nothing.
    deliver(&mut node, addr(50), DeliveryMode::Exact, ack(op));
    deliver(&mut node, addr(51), DeliveryMode::Exact, ack(op));
    // Neither is the client's own say-so.
    deliver(&mut node, peers[4], DeliveryMode::Exact, ack(op));
    assert_eq!(create_replies(&sent(&mut node)), vec![]);
    assert_eq!(node.stats().dht_bad_acks, 3);
    // The write is still pending: two real replicas conclude it.
    deliver(&mut node, peers[0], DeliveryMode::Exact, ack(op));
    deliver(&mut node, peers[1], DeliveryMode::Exact, ack(op));
    assert_eq!(create_replies(&sent(&mut node)), vec![(peers[4], true)]);
}

#[test]
fn a_replica_acking_twice_counts_once() {
    let (mut node, peers) = coordinator();
    let op = start_quorum_write(&mut node, &peers);
    deliver(&mut node, peers[2], DeliveryMode::Exact, ack(op));
    deliver(&mut node, peers[2], DeliveryMode::Exact, ack(op));
    assert_eq!(create_replies(&sent(&mut node)), vec![]);
    assert_eq!(node.stats().dht_bad_acks, 1);
    deliver(&mut node, peers[3], DeliveryMode::Exact, ack(op));
    assert_eq!(create_replies(&sent(&mut node)), vec![(peers[4], true)]);
}

#[test]
fn a_guessed_token_with_nothing_pending_is_ignored() {
    let (mut node, peers) = coordinator();
    for token in 0..8 {
        deliver(&mut node, peers[0], DeliveryMode::Exact, ack(token));
        let answer = RoutedPayload::DhtReplicaValue {
            token,
            copy: Some((Bytes::from(b"evil".to_vec()), u64::MAX, 60_000)),
        };
        deliver(&mut node, peers[0], DeliveryMode::Exact, answer);
    }
    assert_eq!(sent(&mut node), vec![]);
    assert!(node.dht_store().is_empty());
    // Indistinguishable from the routine late answer of a replica whose
    // operation a majority already concluded: dropped, not counted.
    assert_eq!(node.stats().dht_bad_acks, 0);
}

#[test]
fn answers_from_peers_that_were_never_polled_do_not_reach_the_reader() {
    let (mut node, peers) = coordinator();
    // An honest record the coordinator holds itself.
    let put = RoutedPayload::DhtPut {
        key: me(),
        value: Bytes::from(b"good".to_vec()),
        ttl_ms: 60_000,
        version: 1,
    };
    deliver(&mut node, peers[4], DeliveryMode::Closest, put);
    let version = node.dht_store().get(&me()).expect("stored").version;
    let _ = sent(&mut node);
    let get = RoutedPayload::DhtGet {
        key: me(),
        token: 5,
    };
    deliver(&mut node, peers[4], DeliveryMode::Closest, get);
    let polls: Vec<(Address, u64)> = sent(&mut node)
        .into_iter()
        .filter_map(|(dst, p)| match p {
            RoutedPayload::DhtGetReplica { token, .. } => Some((dst, token)),
            _ => None,
        })
        .collect();
    assert_eq!(polls.len(), 4);
    let op = polls[0].1;
    let answer = |value: &[u8], version: u64| RoutedPayload::DhtReplicaValue {
        token: op,
        copy: Some((Bytes::from(value.to_vec()), version, 60_000)),
    };
    // Two strangers outvote everyone with a version nothing can beat...
    deliver(
        &mut node,
        addr(50),
        DeliveryMode::Exact,
        answer(b"evil", u64::MAX),
    );
    deliver(
        &mut node,
        addr(51),
        DeliveryMode::Exact,
        answer(b"evil", u64::MAX),
    );
    // ...and one polled replica answers, then changes its mind.
    deliver(
        &mut node,
        peers[0],
        DeliveryMode::Exact,
        answer(b"good", version),
    );
    deliver(
        &mut node,
        peers[0],
        DeliveryMode::Exact,
        answer(b"evil", u64::MAX),
    );
    assert_eq!(sent(&mut node), vec![], "no majority of real answers yet");
    assert_eq!(node.stats().dht_bad_acks, 3);
    deliver(
        &mut node,
        peers[1],
        DeliveryMode::Exact,
        answer(b"good", version),
    );
    let replies: Vec<(Address, RoutedPayload)> = sent(&mut node);
    let expected = RoutedPayload::DhtReply {
        token: 5,
        value: Some(Bytes::from(b"good".to_vec())),
    };
    assert!(replies.contains(&(peers[4], expected)), "{replies:?}");
    let rec = node.dht_store().get(&me()).expect("still stored");
    assert_eq!(
        rec.value.as_slice(),
        b"good",
        "nothing forged was repaired in"
    );
}

/// A duplicated `DhtCreate` reached the coordinator while the first copy's
/// write was pending. The copy opened a second round on the same record, as
/// a renewal; its acks confirmed the claim, and then the first round timed
/// out and withdrew that record from every copy, the coordinator's own
/// included. Found by `dht_replica_model` (`PROPTEST_SEED=0`, 2,048 cases).
#[test]
fn a_duplicated_create_cannot_withdraw_the_claim_it_confirmed() {
    let (mut node, peers) = coordinator();
    let op = start_quorum_write(&mut node, &peers);
    deliver(&mut node, peers[4], DeliveryMode::Closest, claim());
    assert_eq!(sent(&mut node), vec![], "the pending round answers it");
    deliver(&mut node, peers[0], DeliveryMode::Exact, ack(op));
    deliver(&mut node, peers[1], DeliveryMode::Exact, ack(op));
    assert_eq!(create_replies(&sent(&mut node)), vec![(peers[4], true)]);
    node.on_tick(now() + Duration::from_secs(5));
    let later = sent(&mut node);
    assert!(
        !later
            .iter()
            .any(|(_, p)| matches!(p, RoutedPayload::DhtWithdraw { .. })),
        "{later:?}"
    );
    assert!(node.dht_store().get(&me()).is_some(), "the claim is held");
}

/// A second claimant of the same value, while the first claim's write is
/// pending, is told to retry, as one of a different value is: no second
/// round on the pending record.
#[test]
fn a_second_claimant_of_the_pending_value_is_told_to_retry() {
    let (mut node, peers) = coordinator();
    let op = start_quorum_write(&mut node, &peers);
    let other = peers[3];
    let RoutedPayload::DhtCreate {
        key, value, ttl_ms, ..
    } = claim()
    else {
        unreachable!()
    };
    let again = RoutedPayload::DhtCreate {
        key,
        value,
        ttl_ms,
        token: 5,
    };
    deliver(&mut node, other, DeliveryMode::Closest, again);
    let answered = sent(&mut node);
    assert_eq!(create_replies(&answered), vec![(other, false)]);
    assert_eq!(answered.len(), 1, "no second push: {answered:?}");
    deliver(&mut node, peers[0], DeliveryMode::Exact, ack(op));
    deliver(&mut node, peers[1], DeliveryMode::Exact, ack(op));
    assert_eq!(create_replies(&sent(&mut node)), vec![(peers[4], true)]);
}

/// Writes and reads share one token space and one table of pending rounds,
/// so a token names a round of either kind. An ack carrying a pending read's
/// token, or a replica value carrying a pending write's, is neither counted
/// nor a bad ack — even from a genuine target — and both rounds then
/// conclude on genuine answers, the same target's included.
#[test]
fn an_answer_of_the_other_kind_counts_for_neither_round() {
    let (mut node, peers) = coordinator();
    let write = start_quorum_write(&mut node, &peers);
    let version = node.dht_store().get(&me()).expect("stored").version;
    let get = RoutedPayload::DhtGet {
        key: me(),
        token: 5,
    };
    deliver(&mut node, peers[4], DeliveryMode::Closest, get);
    let read = sent(&mut node)
        .into_iter()
        .find_map(|(_, p)| match p {
            RoutedPayload::DhtGetReplica { token, .. } => Some(token),
            _ => None,
        })
        .expect("the replicas are polled");
    let value = |token: u64| RoutedPayload::DhtReplicaValue {
        token,
        copy: Some((Bytes::from(b"claim".to_vec()), version, 60_000)),
    };
    deliver(&mut node, peers[0], DeliveryMode::Exact, ack(read));
    deliver(&mut node, peers[0], DeliveryMode::Exact, value(write));
    deliver(&mut node, peers[1], DeliveryMode::Exact, ack(read));
    deliver(&mut node, peers[1], DeliveryMode::Exact, value(write));
    assert_eq!(sent(&mut node), vec![], "nothing concluded");
    assert_eq!(node.stats().dht_bad_acks, 0);
    deliver(&mut node, peers[0], DeliveryMode::Exact, ack(write));
    deliver(&mut node, peers[1], DeliveryMode::Exact, ack(write));
    assert_eq!(create_replies(&sent(&mut node)), vec![(peers[4], true)]);
    deliver(&mut node, peers[0], DeliveryMode::Exact, value(read));
    deliver(&mut node, peers[1], DeliveryMode::Exact, value(read));
    let reply = RoutedPayload::DhtReply {
        token: 5,
        value: Some(Bytes::from(b"claim".to_vec())),
    };
    assert_eq!(sent(&mut node), vec![(peers[4], reply)]);
    assert_eq!(node.stats().dht_bad_acks, 0);
}
