//! The connection table: the node's view of its edges on the ring.
//!
//! Brunet distinguishes *structured near* connections (the immediate ring
//! neighbours, which guarantee routability) from *structured far* connections
//! (Kleinberg-style shortcuts that give logarithmic routing) and *leaf*
//! connections (bootstrap edges kept while joining). Greedy routing consults this
//! table: a packet is forwarded to the connection whose address is closest to the
//! destination.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use ipop_simcore::SimTime;

use crate::address::{Address, Distance};
use crate::packets::{ConnectionKind, Endpoint};

/// State of an edge.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ConnectionState {
    /// Handshake in progress (Hello sent, no ack yet).
    Connecting,
    /// Edge is usable for routing.
    Established,
}

/// A directed edge to a peer.
#[derive(Clone, Debug)]
pub struct Connection {
    /// Peer overlay address.
    pub peer: Address,
    /// Physical endpoint we reach the peer at.
    pub endpoint: Endpoint,
    /// Near / far / leaf.
    pub kind: ConnectionKind,
    /// Handshake state.
    pub state: ConnectionState,
    /// When we last heard from the peer (any message).
    pub last_heard: SimTime,
    /// When we last sent a keep-alive ping.
    pub last_ping_sent: SimTime,
}

/// The set of edges of one node.
///
/// Keyed by a `BTreeMap` so every iteration order is deterministic: edge scans
/// feed directly into message emission order, and the simulator guarantees
/// that identical seeds replay identically.
///
/// A secondary ordered index over the *established* peer addresses makes the
/// per-hop lookups (`closest_to`, `right_neighbors`, …) O(log E) range queries
/// instead of full-table scans: the closest peer to a target on a ring is
/// always the target's predecessor or successor in circular address order.
#[derive(Debug, Default)]
pub struct ConnectionTable {
    connections: BTreeMap<Address, Connection>,
    /// Addresses of connections in `Established` state, in ring order.
    /// Maintained by `upsert`/`remove`; state never changes in place.
    established: BTreeSet<Address>,
    /// Established edges per [`ConnectionKind`] (indexed by `kind as usize`),
    /// maintained by `upsert`/`remove`; kind never changes in place either.
    kind_counts: [usize; 3],
}

impl ConnectionTable {
    /// An empty table.
    pub fn new() -> Self {
        ConnectionTable::default()
    }

    /// Number of edges (any state).
    pub fn len(&self) -> usize {
        self.connections.len()
    }

    /// True when no edges exist.
    pub fn is_empty(&self) -> bool {
        self.connections.is_empty()
    }

    /// Insert or update an edge.
    pub fn upsert(&mut self, conn: Connection) {
        let peer = conn.peer;
        let established = conn.state == ConnectionState::Established;
        if established {
            self.established.insert(peer);
            self.kind_counts[conn.kind as usize] += 1;
        } else {
            self.established.remove(&peer);
        }
        if let Some(old) = self.connections.insert(peer, conn) {
            self.uncount(&old);
        }
    }

    /// Remove an edge.
    pub fn remove(&mut self, peer: &Address) -> Option<Connection> {
        self.established.remove(peer);
        let old = self.connections.remove(peer)?;
        self.uncount(&old);
        Some(old)
    }

    /// Take an edge that left the table (or was replaced) out of the per-kind
    /// established counts.
    fn uncount(&mut self, old: &Connection) {
        if old.state == ConnectionState::Established {
            self.kind_counts[old.kind as usize] -= 1;
        }
    }

    /// Borrow an edge.
    pub fn get(&self, peer: &Address) -> Option<&Connection> {
        self.connections.get(peer)
    }

    /// Liveness bookkeeping: `peer` was heard from `endpoint` at `now`. No-op
    /// without an edge to `peer`. (There is no `get_mut`: `peer`, `state` and
    /// `kind` feed the established index and the per-kind counts, so they
    /// only change through [`ConnectionTable::upsert`].)
    pub fn note_heard(&mut self, peer: &Address, now: SimTime, endpoint: Endpoint) {
        if let Some(conn) = self.connections.get_mut(peer) {
            conn.last_heard = now;
            conn.endpoint = endpoint;
        }
    }

    /// Liveness bookkeeping: a keep-alive ping went out to `peer` at `now`.
    pub fn note_ping_sent(&mut self, peer: &Address, now: SimTime) {
        if let Some(conn) = self.connections.get_mut(peer) {
            conn.last_ping_sent = now;
        }
    }

    /// Does an edge to `peer` exist (in any state)?
    pub fn contains(&self, peer: &Address) -> bool {
        self.connections.contains_key(peer)
    }

    /// Is there an established edge to `peer`?
    pub fn is_established(&self, peer: &Address) -> bool {
        self.established.contains(peer)
    }

    /// Iterate over all edges.
    pub fn iter(&self) -> impl Iterator<Item = &Connection> {
        self.connections.values()
    }

    /// Established edges only, in ascending address order.
    pub fn established(&self) -> impl Iterator<Item = &Connection> {
        self.established.iter().map(|a| &self.connections[a])
    }

    /// Addresses of the established edges, ascending; `.len()` is O(1).
    pub fn established_addrs(&self) -> impl ExactSizeIterator<Item = &Address> {
        self.established.iter()
    }

    /// The `n`-th established edge in ascending address order.
    pub fn nth_established(&self, n: usize) -> Option<&Connection> {
        self.established.iter().nth(n).map(|a| &self.connections[a])
    }

    /// Number of established edges of a given kind. O(1).
    pub fn count_kind(&self, kind: ConnectionKind) -> usize {
        self.kind_counts[kind as usize]
    }

    /// The established connection whose address is closest (ring distance) to
    /// `target`, if any.
    pub fn closest_to(&self, target: &Address) -> Option<&Connection> {
        self.closest_to_excluding(target, None)
    }

    /// Like [`ConnectionTable::closest_to`], but never returns the connection to
    /// `exclude`. Used when routing a connect request toward the initiator's own
    /// address: the packet must terminate at the initiator's nearest *other*
    /// node, not bounce straight back to the initiator.
    ///
    /// Ring distance is unimodal in circular address order from `target`
    /// (it grows with the clockwise offset up to the antipode, then shrinks),
    /// so the minimum over any peer subset is attained at the subset's first
    /// or last element in that order. With at most one excluded peer it is
    /// enough to inspect the first non-excluded peer on each side of `target`
    /// — two O(log E) range probes instead of a full scan. Distance ties
    /// resolve to the smaller address, matching what a `min_by_key` over
    /// ascending-address iteration returned.
    pub fn closest_to_excluding(
        &self,
        target: &Address,
        exclude: Option<&Address>,
    ) -> Option<&Connection> {
        let not_excluded = |a: &&Address| exclude != Some(*a);
        // Successor side: `target` and up, wrapping to the bottom of the ring.
        let cw = self
            .established
            .range(*target..)
            .chain(self.established.range(..*target))
            .find(not_excluded);
        // Predecessor side: just below `target`, wrapping to the top.
        let ccw = self
            .established
            .range(..*target)
            .rev()
            .chain(self.established.range(*target..).rev())
            .find(not_excluded);
        let mut best: Option<(Distance, &Address)> = None;
        for cand in [cw, ccw].into_iter().flatten() {
            let key = (cand.ring_distance(target), cand);
            if best.is_none_or(|(d, a)| key < (d, a)) {
                best = Some(key);
            }
        }
        best.map(|(_, a)| &self.connections[a])
    }

    /// The ring distance from the closest established connection to `target`
    /// (`Distance::MAX` when the table is empty).
    pub fn best_distance_to(&self, target: &Address) -> Distance {
        self.closest_to(target)
            .map_or(Distance::MAX, |c| c.peer.ring_distance(target))
    }

    /// Every established peer in the clockwise (right) direction from `me`,
    /// closest first: ascending addresses from `me`, wrapping. Two range
    /// probes, no allocation; callers `take` what they need.
    pub fn right_of<'a>(&'a self, me: &Address) -> impl Iterator<Item = &'a Connection> + 'a {
        self.established
            .range(*me..)
            .chain(self.established.range(..*me))
            .map(|a| &self.connections[a])
    }

    /// Every established peer in the counter-clockwise (left) direction from
    /// `me`, closest first: descending addresses from `me`, wrapping.
    pub fn left_of<'a>(&'a self, me: &Address) -> impl Iterator<Item = &'a Connection> + 'a {
        self.established
            .get(me)
            .into_iter()
            .chain(self.established.range(..*me).rev())
            .chain(
                self.established
                    .range((Bound::Excluded(*me), Bound::Unbounded))
                    .rev(),
            )
            .map(|a| &self.connections[a])
    }

    /// The near view of `me`: its `count` nearest established peers on the
    /// right, then those of its `count` nearest on the left that the right
    /// side did not already yield (the sides overlap on a small table).
    pub fn near_view<'a>(
        &'a self,
        me: &'a Address,
        count: usize,
    ) -> impl Iterator<Item = &'a Connection> + 'a {
        let right = move || self.right_of(me).take(count);
        let left = self.left_of(me).take(count);
        right().chain(left.filter(move |c| right().all(|r| r.peer != c.peer)))
    }

    /// The first `count` of [`ConnectionTable::right_of`], collected.
    pub fn right_neighbors(&self, me: &Address, count: usize) -> Vec<&Connection> {
        self.right_of(me).take(count).collect()
    }

    /// The first `count` of [`ConnectionTable::left_of`], collected.
    pub fn left_neighbors(&self, me: &Address, count: usize) -> Vec<&Connection> {
        self.left_of(me).take(count).collect()
    }

    /// All established peer addresses.
    pub fn peers(&self) -> Vec<Address> {
        self.established.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn addr(n: u8) -> Address {
        let mut b = [0u8; 20];
        b[0] = n;
        Address(b)
    }

    fn conn(n: u8, kind: ConnectionKind, state: ConnectionState) -> Connection {
        Connection {
            peer: addr(n),
            endpoint: (Ipv4Addr::new(10, 0, 0, n), 4001),
            kind,
            state,
            last_heard: SimTime::ZERO,
            last_ping_sent: SimTime::ZERO,
        }
    }

    #[test]
    fn upsert_get_remove() {
        let mut t = ConnectionTable::new();
        assert!(t.is_empty());
        t.upsert(conn(1, ConnectionKind::Near, ConnectionState::Established));
        t.upsert(conn(1, ConnectionKind::Near, ConnectionState::Established));
        assert_eq!(t.len(), 1, "upsert replaces");
        assert!(t.contains(&addr(1)));
        assert!(t.get(&addr(1)).is_some());
        assert!(t.remove(&addr(1)).is_some());
        assert!(t.is_empty());
    }

    #[test]
    fn closest_ignores_connecting_edges() {
        let mut t = ConnectionTable::new();
        t.upsert(conn(
            0x10,
            ConnectionKind::Near,
            ConnectionState::Connecting,
        ));
        t.upsert(conn(
            0x80,
            ConnectionKind::Near,
            ConnectionState::Established,
        ));
        let target = addr(0x11);
        assert_eq!(t.closest_to(&target).unwrap().peer, addr(0x80));
        assert_eq!(t.count_kind(ConnectionKind::Near), 1);
    }

    #[test]
    fn closest_picks_minimum_ring_distance() {
        let mut t = ConnectionTable::new();
        for n in [0x10, 0x40, 0xA0, 0xF0] {
            t.upsert(conn(n, ConnectionKind::Far, ConnectionState::Established));
        }
        assert_eq!(t.closest_to(&addr(0x45)).unwrap().peer, addr(0x40));
        // Wrap-around: 0x02 is closer to 0xF0 than to 0x10? cw(0xF0->0x02)=0x12..,
        // ring distance to 0x10 is 0x0E — so 0x10 wins.
        assert_eq!(t.closest_to(&addr(0x02)).unwrap().peer, addr(0x10));
        assert_eq!(t.best_distance_to(&addr(0x40)), Distance::ZERO);
    }

    #[test]
    fn empty_table_has_max_distance() {
        let t = ConnectionTable::new();
        assert_eq!(t.best_distance_to(&addr(5)), Distance::MAX);
        assert!(t.closest_to(&addr(5)).is_none());
    }

    #[test]
    fn left_and_right_neighbors() {
        let mut t = ConnectionTable::new();
        for n in [0x10, 0x30, 0x70, 0xC0] {
            t.upsert(conn(n, ConnectionKind::Near, ConnectionState::Established));
        }
        let me = addr(0x50);
        let right: Vec<_> = t.right_neighbors(&me, 2).iter().map(|c| c.peer).collect();
        assert_eq!(right, vec![addr(0x70), addr(0xC0)]);
        let left: Vec<_> = t.left_neighbors(&me, 2).iter().map(|c| c.peer).collect();
        assert_eq!(left, vec![addr(0x30), addr(0x10)]);
        // Wrap-around: from 0x05 the nearest left neighbour is 0xC0.
        let left_wrap: Vec<_> = t
            .left_neighbors(&addr(0x05), 1)
            .iter()
            .map(|c| c.peer)
            .collect();
        assert_eq!(left_wrap, vec![addr(0xC0)]);
    }

    #[test]
    fn peers_lists_established_only() {
        let mut t = ConnectionTable::new();
        t.upsert(conn(1, ConnectionKind::Near, ConnectionState::Established));
        t.upsert(conn(2, ConnectionKind::Far, ConnectionState::Connecting));
        assert_eq!(t.peers(), vec![addr(1)]);
    }
}
