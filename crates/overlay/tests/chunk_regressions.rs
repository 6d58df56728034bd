//! A delegated fan-out chunk (`PubSubDeliver::relay_to`) is the sender's
//! say-so. Believed as sent, one forged datagram naming the receiver 40 times
//! left 41 copies of the message in the receiver's inbox (each head that is
//! this very node comes straight back from routing and re-delivers), and one
//! naming a victim 40 times turned into 40 copies of the body aimed at it.
//! An honest root plans from a set in ring order, so a chunk never repeats an
//! address and never names the node it was delivered to: such entries are
//! dropped before the chunk is re-planned and counted in
//! `pubsub_bad_chunk_entries`.

use std::collections::BTreeMap;

use ipop_overlay::node::{OverlayConfig, OverlayNode};
use ipop_overlay::packets::{
    ConnectionKind, DeliveryMode, Endpoint, LinkMessage, RoutedPacket, RoutedPayload,
};
use ipop_overlay::pubsub::topic_key;
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

/// The node under attack. It never subscribes to anything.
fn me() -> Address {
    addr(1)
}

/// An address next to `me()` that no node holds: a packet `Exact`-addressed
/// to it strays to `me()`, the closest node left.
fn departed_head() -> Address {
    let mut bytes = me().0;
    bytes[19] ^= 1;
    Address(bytes)
}

/// The node with five peers, and those peers in ring (= address) order.
fn node_with_peers() -> (OverlayNode, Vec<Address>) {
    let mut node = OverlayNode::new(OverlayConfig::new(me(), ep(1)), StreamRng::new(7, "chunks"));
    let mut peers: Vec<Address> = (10..15).map(addr).collect();
    peers.sort();
    for (i, peer) in peers.iter().enumerate() {
        node.seed_connection(SimTime::ZERO, *peer, ep(10 + i as u8), ConnectionKind::Near);
    }
    (node, peers)
}

fn body() -> Bytes {
    Bytes::from(vec![0x5A; 1000])
}

/// Message 42 with the delegated chunk `relay_to`, from a stranger.
fn forged(relay_to: Vec<Address>) -> RoutedPayload {
    RoutedPayload::PubSubDeliver {
        topic: topic_key("forged"),
        msg_id: 42,
        relay_to,
        payload: body(),
    }
}

/// Deliver `payload`, `Exact`-addressed to `dst`, to the node over a link.
fn deliver(node: &mut OverlayNode, dst: Address, payload: RoutedPayload) {
    let pkt = RoutedPacket::new(addr(50), dst, DeliveryMode::Exact, payload);
    node.on_message(now(), ep(99), LinkMessage::Routed(pkt));
}

/// The deliveries the node queued since the last call: `(head, its chunk)`.
fn relayed(node: &mut OverlayNode) -> Vec<(Address, Vec<Address>)> {
    node.take_outbox()
        .into_iter()
        .filter_map(|(_, msg)| match msg {
            LinkMessage::Routed(pkt) => match pkt.payload {
                RoutedPayload::PubSubDeliver { relay_to, .. } => Some((pkt.dst, relay_to)),
                _ => None,
            },
            _ => None,
        })
        .collect()
}

#[test]
fn a_chunk_naming_its_receiver_delivers_one_copy() {
    let (mut node, _) = node_with_peers();
    deliver(&mut node, me(), forged(vec![me(); 40]));
    let inbox = node.take_pubsub_delivered();
    assert_eq!(inbox.len(), 1, "one datagram is one copy");
    assert_eq!(inbox[0].1, 42);
    assert_eq!(relayed(&mut node), vec![]);
    let stats = node.stats();
    assert_eq!(stats.pubsub_delivered, 1);
    assert_eq!(stats.pubsub_fanout_sent, 0);
    assert_eq!(stats.pubsub_bad_chunk_entries, 40);
}

#[test]
fn a_chunk_repeating_a_peer_sends_it_one_copy() {
    let (mut node, peers) = node_with_peers();
    deliver(&mut node, me(), forged(vec![peers[2]; 40]));
    assert_eq!(relayed(&mut node), vec![(peers[2], vec![])]);
    assert_eq!(node.take_pubsub_delivered().len(), 1);
    let stats = node.stats();
    assert_eq!(stats.pubsub_fanout_sent, 1);
    assert_eq!(stats.pubsub_bad_chunk_entries, 39);
}

#[test]
fn a_salvaged_chunk_repeating_a_peer_sends_it_one_copy() {
    let (mut node, peers) = node_with_peers();
    deliver(&mut node, departed_head(), forged(vec![peers[2]; 40]));
    assert_eq!(relayed(&mut node), vec![(peers[2], vec![])]);
    assert_eq!(
        node.take_pubsub_delivered(),
        vec![],
        "the chunk does not name the salvaging node"
    );
    let stats = node.stats();
    assert_eq!(stats.pubsub_salvaged, 1);
    assert_eq!(stats.pubsub_bad_chunk_entries, 39);
}

#[test]
fn a_salvaging_node_that_is_a_chunk_member_gets_exactly_one_copy() {
    let (mut node, peers) = node_with_peers();
    // What an honest root sends: the rest of the departed head's chunk, in
    // ring order, this node among it.
    let mut chunk = vec![me(), peers[0], peers[3]];
    chunk.sort();
    deliver(&mut node, departed_head(), forged(chunk.clone()));
    assert_eq!(node.take_pubsub_delivered().len(), 1);
    let mut reached: Vec<Address> = relayed(&mut node)
        .into_iter()
        .flat_map(|(head, rest)| std::iter::once(head).chain(rest))
        .collect();
    reached.sort();
    assert_eq!(reached, [peers[0], peers[3]]);
    assert_eq!(node.stats().pubsub_bad_chunk_entries, 0);

    // Forged: the same chunk naming the salvaging node three times.
    chunk.extend([me(), me()]);
    deliver(&mut node, departed_head(), forged(chunk));
    assert_eq!(node.take_pubsub_delivered().len(), 1);
    assert_eq!(node.stats().pubsub_bad_chunk_entries, 2);
}

#[test]
fn an_honest_forty_subscriber_fan_out_delivers_exactly_once_each() {
    // 41 fully meshed nodes, every message handed over on the spot.
    let addrs: Vec<Address> = (0..41).map(addr).collect();
    let index: BTreeMap<Endpoint, usize> = (0..41).map(|i| (ep(i as u8), i)).collect();
    let mut nodes: Vec<OverlayNode> = (0..41)
        .map(|i| {
            let cfg = OverlayConfig::new(addrs[i], ep(i as u8));
            let mut node = OverlayNode::new(cfg, StreamRng::new(7, &format!("honest-{i}")));
            for (j, peer) in addrs.iter().enumerate().filter(|(j, _)| *j != i) {
                node.seed_connection(SimTime::ZERO, *peer, ep(j as u8), ConnectionKind::Near);
            }
            node
        })
        .collect();
    let pump = |nodes: &mut Vec<OverlayNode>| loop {
        let mut quiet = true;
        for i in 0..nodes.len() {
            for (dst, msg) in nodes[i].take_outbox() {
                quiet = false;
                nodes[index[&dst]].on_message(now(), ep(i as u8), msg);
            }
        }
        if quiet {
            break;
        }
    };

    let topic = topic_key("honest");
    for node in &mut nodes[1..] {
        node.pubsub_subscribe(now(), topic, Duration::from_secs(60));
    }
    pump(&mut nodes);
    let msg_id = nodes[1].pubsub_publish(now(), topic, body());
    pump(&mut nodes);

    assert_eq!(nodes[0].take_pubsub_delivered(), vec![], "not a subscriber");
    for (i, node) in nodes.iter_mut().enumerate().skip(1) {
        assert_eq!(
            node.take_pubsub_delivered(),
            vec![(topic, msg_id, body())],
            "subscriber {i}"
        );
    }
    let stats: Vec<_> = nodes.iter().map(|n| n.stats()).collect();
    assert!(
        stats.iter().map(|s| s.pubsub_relayed).sum::<u64>() > 0,
        "the fan-out did delegate chunks"
    );
    assert_eq!(
        stats
            .iter()
            .map(|s| s.pubsub_bad_chunk_entries)
            .sum::<u64>(),
        0,
        "and no honest chunk lost an entry"
    );
}
