//! `Neighbors` gossip is the sender's say-so, and a node only ever gossips
//! to its established peers. Believed from anybody, one datagram from an
//! endpoint with no edge to the receiver, carrying four forged addresses
//! hugging the receiver's own, made the next maintenance tick aim all four
//! of its `Near` hellos at the endpoint the stranger chose — the honest
//! candidates got none, so one small datagram per tick starved ring repair
//! and turned the victim into a hello reflector. Gossip whose sender holds
//! no established edge is dropped unread and counted in
//! `gossip_from_strangers`. (Not covered: a forged `from` naming a real
//! peer, and a real peer that lies — see CONTRACTS.md C6.)

use ipop_overlay::node::{OverlayConfig, OverlayNode};
use ipop_overlay::packets::{ConnectionKind, Endpoint, LinkMessage};
use ipop_overlay::Address;
use ipop_simcore::{Duration, SimTime, StreamRng};

/// The address `n / 256` of the way round the ring, `low` above it.
fn a(n: u8, low: u8) -> Address {
    let mut b = [0u8; 20];
    b[0] = n;
    b[19] = low;
    Address(b)
}

fn ep(n: u8) -> Endpoint {
    ([10, 0, 0, n].into(), 4001)
}

fn at(ms: u64) -> SimTime {
    SimTime::ZERO + Duration::from_millis(ms)
}

/// Member 5 with one established edge, to member 40 at `ep(40)`.
fn member_five() -> OverlayNode {
    let cfg = OverlayConfig::new(a(5, 0), ep(5));
    let mut node = OverlayNode::new(cfg, StreamRng::new(7, "gossip"));
    node.seed_connection(at(0), a(40, 0), ep(40), ConnectionKind::Near);
    node
}

/// What member 5's ring repair should find: its true neighbours 3 and 8.
fn honest_gossip() -> LinkMessage {
    LinkMessage::Neighbors {
        from: a(40, 0),
        neighbors: vec![(a(3, 0), ep(3)), (a(8, 0), ep(8))],
    }
}

/// Four addresses nobody holds, two on each side of member 5 and nearer
/// than any honest node can be, all at the attacker's `ep(77)` — sent under
/// the name `from`.
fn forged_gossip(from: Address) -> LinkMessage {
    let hugging = [a(4, 0xFE), a(4, 0xFF), a(5, 1), a(5, 2)];
    LinkMessage::Neighbors {
        from,
        neighbors: hugging.into_iter().map(|addr| (addr, ep(77))).collect(),
    }
}

/// Where the `Near` hellos of one maintenance tick went, sorted.
fn near_hellos(node: &mut OverlayNode, now: SimTime) -> Vec<Endpoint> {
    node.on_tick(now);
    let mut to: Vec<Endpoint> = node
        .take_outbox()
        .into_iter()
        .filter_map(|(to, msg)| match msg {
            LinkMessage::Hello {
                kind: ConnectionKind::Near,
                ..
            } => Some(to),
            _ => None,
        })
        .collect();
    to.sort();
    to
}

#[test]
fn a_strangers_gossip_plants_nothing_and_honest_candidates_get_their_hellos() {
    let mut node = member_five();
    node.on_message(at(100), ep(40), honest_gossip());
    // The stranger: no edge to `a(99)`, whatever endpoint it writes from.
    node.on_message(at(200), ep(99), forged_gossip(a(99, 0)));
    assert_eq!(near_hellos(&mut node, at(500)), [ep(3), ep(8)]);
    assert_eq!(node.stats().gossip_from_strangers, 1);
    // Nothing was kept for later either.
    assert_eq!(near_hellos(&mut node, at(1000)), []);
}

#[test]
fn a_strangers_gossip_every_tick_reflects_no_hello() {
    let mut node = member_five();
    for tick in 1..=20 {
        node.on_message(at(500 * tick - 100), ep(99), forged_gossip(a(99, 0)));
        let hellos = near_hellos(&mut node, at(500 * tick));
        assert!(!hellos.contains(&ep(77)), "tick {tick}: {hellos:?}");
    }
    assert_eq!(node.stats().gossip_from_strangers, 20);
}

#[test]
fn a_peers_gossip_still_teaches() {
    let mut node = member_five();
    node.on_message(at(100), ep(40), honest_gossip());
    assert_eq!(near_hellos(&mut node, at(500)), [ep(3), ep(8)]);
    assert_eq!(node.stats().gossip_from_strangers, 0);
    // And a peer is believed whatever it says — what this check does not
    // cover: the four addresses come from an established edge.
    node.on_message(at(600), ep(40), forged_gossip(a(40, 0)));
    assert_eq!(near_hellos(&mut node, at(1000)), [ep(77); 4]);
}
