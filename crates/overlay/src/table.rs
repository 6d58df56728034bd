//! The connection table: the node's view of its edges on the ring.
//!
//! Brunet distinguishes *structured near* connections (the immediate ring
//! neighbours, which guarantee routability) from *structured far* connections
//! (Kleinberg-style shortcuts that give logarithmic routing) and *leaf*
//! connections (bootstrap edges kept while joining). Greedy routing consults this
//! table: a packet is forwarded to the connection whose address is closest to the
//! destination.
//!
//! Both sets of per-node ring state live here as address-sorted vectors: the
//! established edges ([`ConnectionTable`]) and the neighbour candidates ring
//! repair learns from gossip ([`Candidates`]). With thousands of nodes every
//! event lands on a node whose state is cold in cache, and a lookup in one
//! contiguous slice costs a few cache lines where a B-tree walk costs one per
//! level. Ascending address order is also ring order, so each ring walk is a
//! `partition_point` and two slices, and every iteration order is
//! deterministic: edge scans feed directly into message emission order, and
//! the simulator guarantees that identical seeds replay identically.

use ipop_simcore::SimTime;

use crate::address::{Address, Distance};
use crate::packets::{ConnectionKind, Endpoint};

/// State of an edge.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ConnectionState {
    /// Handshake in progress (Hello sent, no ack yet). The table holds no
    /// such edge: upserting one removes the peer.
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

/// The established edges of one node, ascending by peer address.
///
/// The closest peer to a target on a ring is always the target's predecessor
/// or successor in circular address order, so the per-hop lookups
/// (`closest_to`, `right_of`, …) are one binary search plus a walk over the
/// two slices on either side of it.
#[derive(Debug, Default)]
pub struct ConnectionTable {
    edges: Vec<Connection>,
    /// Edges per [`ConnectionKind`] (indexed by `kind as usize`), maintained
    /// by `upsert`/`remove`; kind never changes in place.
    kind_counts: [usize; 3],
    /// See [`ConnectionTable::version`].
    version: u64,
}

impl ConnectionTable {
    /// An empty table.
    pub fn new() -> Self {
        ConnectionTable::default()
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when no edges exist.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// A change counter: bumped by every upsert, by a removal that removes
    /// something and by an endpoint change, so that a maintenance stage that
    /// reads only peers, kinds and endpoints may skip its work while the
    /// counter stands where it last found nothing to do. Liveness times do
    /// not move it.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// Where `peer` is, or would be inserted.
    fn find(&self, peer: &Address) -> Result<usize, usize> {
        self.edges.binary_search_by(|c| c.peer.cmp(peer))
    }

    /// Insert or update an edge. A `Connecting` edge is no edge: upserting
    /// one removes the peer.
    pub fn upsert(&mut self, conn: Connection) {
        if conn.state != ConnectionState::Established {
            self.remove(&conn.peer);
            return;
        }
        self.version += 1;
        self.kind_counts[conn.kind as usize] += 1;
        match self.find(&conn.peer) {
            Ok(i) => {
                let old = std::mem::replace(&mut self.edges[i], conn);
                self.kind_counts[old.kind as usize] -= 1;
            }
            Err(i) => self.edges.insert(i, conn),
        }
    }

    /// Remove an edge.
    pub fn remove(&mut self, peer: &Address) -> Option<Connection> {
        let old = self.edges.remove(self.find(peer).ok()?);
        self.kind_counts[old.kind as usize] -= 1;
        self.version += 1;
        Some(old)
    }

    /// Borrow an edge.
    pub fn get(&self, peer: &Address) -> Option<&Connection> {
        self.find(peer).ok().map(|i| &self.edges[i])
    }

    /// The edge to `peer`, for the liveness fields only: `peer` and `kind`
    /// place it in the order and the per-kind counts, so they only change
    /// through [`ConnectionTable::upsert`].
    fn get_mut(&mut self, peer: &Address) -> Option<&mut Connection> {
        self.find(peer).ok().map(|i| &mut self.edges[i])
    }

    /// Liveness bookkeeping: `peer` was heard from `endpoint` at `now`. No-op
    /// without an edge to `peer`.
    pub fn note_heard(&mut self, peer: &Address, now: SimTime, endpoint: Endpoint) {
        if let Ok(i) = self.find(peer) {
            let conn = &mut self.edges[i];
            conn.last_heard = now;
            if conn.endpoint != endpoint {
                conn.endpoint = endpoint;
                self.version += 1;
            }
        }
    }

    /// Liveness bookkeeping: a keep-alive ping went out to `peer` at `now`.
    pub fn note_ping_sent(&mut self, peer: &Address, now: SimTime) {
        if let Some(conn) = self.get_mut(peer) {
            conn.last_ping_sent = now;
        }
    }

    /// Is there an edge to `peer`?
    pub fn contains(&self, peer: &Address) -> bool {
        self.find(peer).is_ok()
    }

    /// Every edge, in ascending address order.
    pub fn established(&self) -> std::slice::Iter<'_, Connection> {
        self.edges.iter()
    }

    /// Addresses of the edges, ascending; `.len()` is O(1).
    pub fn established_addrs(&self) -> impl ExactSizeIterator<Item = &Address> {
        self.edges.iter().map(|c| &c.peer)
    }

    /// The `n`-th edge in ascending address order.
    pub fn nth_established(&self, n: usize) -> Option<&Connection> {
        self.edges.get(n)
    }

    /// Number of edges of a given kind. O(1).
    pub fn count_kind(&self, kind: ConnectionKind) -> usize {
        self.kind_counts[kind as usize]
    }

    /// The connection whose address is closest (ring distance) to `target`,
    /// if any.
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
    /// — one binary search instead of a full scan. Distance ties resolve to
    /// the smaller address, matching what a `min_by_key` over ascending-address
    /// iteration returned.
    pub fn closest_to_excluding(
        &self,
        target: &Address,
        exclude: Option<&Address>,
    ) -> Option<&Connection> {
        let (below, above) = self.split_at(target);
        let not_excluded = |c: &&Connection| exclude != Some(&c.peer);
        // Successor side: `target` and up, wrapping to the bottom of the ring.
        let cw = above.iter().chain(below).find(not_excluded);
        // Predecessor side: just below `target`, wrapping to the top.
        let ccw = below
            .iter()
            .rev()
            .chain(above.iter().rev())
            .find(not_excluded);
        let mut best: Option<(Distance, &Connection)> = None;
        for cand in [cw, ccw].into_iter().flatten() {
            let d = cand.peer.ring_distance(target);
            if best.is_none_or(|(bd, b)| (d, &cand.peer) < (bd, &b.peer)) {
                best = Some((d, cand));
            }
        }
        best.map(|(_, c)| c)
    }

    /// The edges below `at` and those at or above it.
    fn split_at(&self, at: &Address) -> (&[Connection], &[Connection]) {
        self.edges
            .split_at(self.edges.partition_point(|c| c.peer < *at))
    }

    /// The ring distance from the closest connection to `target`
    /// (`Distance::MAX` when the table is empty).
    pub fn best_distance_to(&self, target: &Address) -> Distance {
        self.closest_to(target)
            .map_or(Distance::MAX, |c| c.peer.ring_distance(target))
    }

    /// Every peer in the clockwise (right) direction from `me`, closest
    /// first: ascending addresses from `me`, wrapping. One binary search, no
    /// allocation; callers `take` what they need.
    pub fn right_of<'a>(
        &'a self,
        me: &Address,
    ) -> impl Iterator<Item = &'a Connection> + Clone + 'a {
        self.sides(me).0
    }

    /// Every peer in the counter-clockwise (left) direction from `me`,
    /// closest first: `me` itself if it is a peer, then descending addresses
    /// from `me`, wrapping.
    pub fn left_of<'a>(&'a self, me: &Address) -> impl Iterator<Item = &'a Connection> + 'a {
        self.sides(me).1
    }

    /// [`ConnectionTable::right_of`] and [`ConnectionTable::left_of`] `me`,
    /// from one binary search.
    fn sides<'a>(
        &'a self,
        me: &Address,
    ) -> (
        impl Iterator<Item = &'a Connection> + Clone + 'a,
        impl Iterator<Item = &'a Connection> + Clone + 'a,
    ) {
        let (below, above) = self.split_at(me);
        let at_me = above.first().is_some_and(|c| c.peer == *me);
        let (at, rest) = above.split_at(usize::from(at_me));
        let left = at.iter().chain(below.iter().rev()).chain(rest.iter().rev());
        (above.iter().chain(below), left)
    }

    /// The near view of `me`: its `count` nearest peers on the right, then
    /// those of its `count` nearest on the left that the right side did not
    /// already yield (the sides overlap on a small table).
    pub fn near_view<'a>(
        &'a self,
        me: &'a Address,
        count: usize,
    ) -> impl Iterator<Item = &'a Connection> + 'a {
        let (right, left) = self.sides(me);
        let (right, left) = (right.take(count), left.take(count));
        right
            .clone()
            .chain(left.filter(move |c| right.clone().all(|r| r.peer != c.peer)))
    }

    /// The first `count` of [`ConnectionTable::right_of`], collected.
    pub fn right_neighbors(&self, me: &Address, count: usize) -> Vec<&Connection> {
        self.right_of(me).take(count).collect()
    }

    /// The first `count` of [`ConnectionTable::left_of`], collected.
    pub fn left_neighbors(&self, me: &Address, count: usize) -> Vec<&Connection> {
        self.left_of(me).take(count).collect()
    }

    /// All peer addresses, ascending.
    pub fn peers(&self) -> Vec<Address> {
        self.established_addrs().copied().collect()
    }
}

/// Neighbour candidates ring repair learned from gossip and connect traffic:
/// address → endpoint, ascending by address, so candidate scans (which emit
/// hellos) are deterministic across runs.
#[derive(Default)]
pub(crate) struct Candidates {
    entries: Vec<Candidate>,
    /// Bumped by every change.
    version: u64,
    /// Bumped by removals, clears and endpoint overwrites: the changes after
    /// which an entry the set held may be gone or different. Between two
    /// bumps the set only grows.
    removals: u64,
}

/// A neighbour candidate: its address and the endpoint it was heard at.
type Candidate = (Address, Endpoint);

impl Candidates {
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.bump_removals();
    }

    /// See [`ConnectionTable::version`]: here any change moves it.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// The counter only removals, clears and endpoint overwrites move.
    pub(crate) fn removals(&self) -> u64 {
        self.removals
    }

    fn bump_removals(&mut self) {
        self.version += 1;
        self.removals += 1;
    }

    /// Where `addr` is, or would be inserted.
    fn find(&self, addr: &Address) -> Result<usize, usize> {
        self.entries.binary_search_by(|(a, _)| a.cmp(addr))
    }

    /// Remember `addr` at `endpoint` unless it is `me`; a known address
    /// takes the new endpoint.
    pub(crate) fn learn(&mut self, me: &Address, addr: Address, endpoint: Endpoint) {
        match self.find(&addr) {
            Ok(i) if self.entries[i].1 != endpoint => {
                self.entries[i].1 = endpoint;
                self.bump_removals();
            }
            Ok(_) => {}
            Err(_) if addr == *me => {}
            Err(i) => {
                self.entries.insert(i, (addr, endpoint));
                self.version += 1;
            }
        }
    }

    pub(crate) fn remove(&mut self, addr: &Address) {
        if let Ok(i) = self.find(addr) {
            self.entries.remove(i);
            self.bump_removals();
        }
    }

    /// [`Candidates::learn`] every entry of a `Neighbors` list from the wire,
    /// in order: sorted in place (stably) and cut to the last endpoint of
    /// each address, it goes through the one merge, whatever order it came in.
    pub(crate) fn learn_gossip(&mut self, me: &Address, mut list: Vec<Candidate>) {
        list.sort_by_key(|(a, _)| *a);
        list.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        self.learn_all(me, list.iter().copied());
    }

    /// [`Candidates::learn`] every entry of `batch`, which ascends strictly
    /// (the table's edges, a list [`Candidates::learn_gossip`] sorted): one
    /// pass over both, plus a backward pass that makes room when it brings
    /// new addresses.
    pub(crate) fn learn_all<I>(&mut self, me: &Address, batch: I)
    where
        I: DoubleEndedIterator<Item = Candidate> + Clone,
    {
        debug_assert!(batch
            .clone()
            .zip(batch.clone().skip(1))
            .all(|(x, y)| x.0 < y.0));
        // Forward: known addresses take their new endpoints, new ones are
        // counted.
        let (mut at, mut fresh, mut overwrote) = (0, 0, false);
        for (addr, endpoint) in batch.clone() {
            while self.entries.get(at).is_some_and(|(a, _)| *a < addr) {
                at += 1;
            }
            match self.entries.get_mut(at) {
                Some((a, e)) if *a == addr => {
                    overwrote |= *e != endpoint;
                    *e = endpoint;
                }
                _ => fresh += usize::from(addr != *me),
            }
        }
        if overwrote {
            self.bump_removals();
        }
        if fresh == 0 {
            return;
        }
        self.version += 1;
        // Backward: slide the old entries up to make room, dropping each new
        // one into its gap.
        let mut read = self.entries.len();
        let mut write = read + fresh;
        self.entries
            .resize(write, (Address::ZERO, ([0; 4].into(), 0)));
        for (addr, endpoint) in batch.rev() {
            while read > 0 && self.entries[read - 1].0 > addr {
                read -= 1;
                write -= 1;
                self.entries[write] = self.entries[read];
            }
            if addr != *me && (read == 0 || self.entries[read - 1].0 != addr) {
                write -= 1;
                self.entries[write] = (addr, endpoint);
            }
        }
    }

    /// The candidates below `at` and those at or above it.
    fn split_at(&self, at: &Address) -> (&[Candidate], &[Candidate]) {
        self.entries
            .split_at(self.entries.partition_point(|(a, _)| a < at))
    }

    /// Every candidate clockwise from `at` (ascending from `at`, wrapping)
    /// and every one counter-clockwise from it (descending from just below
    /// `at`, wrapping), from one binary search.
    pub(crate) fn sides(
        &self,
        at: &Address,
    ) -> (
        impl Iterator<Item = &Candidate>,
        impl Iterator<Item = &Candidate>,
    ) {
        let (below, above) = self.split_at(at);
        let counter_clockwise = below.iter().rev().chain(above.iter().rev());
        (above.iter().chain(below), counter_clockwise)
    }
}

/// The gossip candidates ring repair says hello to this tick: right-side
/// picks first, then left-side picks not already picked.
///
/// Peers already linked as Near are settled; an existing Far or Leaf edge
/// stays eligible — when a true ring neighbour first joined us via a shortcut
/// or bootstrap handshake, re-helloing it as Near promotes the edge on both
/// ends (freeing the shortcut budget slot it may have been occupying).
///
/// Of the eligible candidates only the nearest `per_side` on each side are
/// considered, and of those only the ones that improve that side of the near
/// set. While the near set is underfull every candidate "improves", and
/// helloing the whole gossip backlog at once permanently meshed small rings
/// (and at scale would flood a joining node); the nearest candidates are the
/// only ones that can end up in the converged near set anyway. `candidates`
/// is sorted by address, i.e. already in ring order, so "nearest" is a walk
/// from `me` in each direction — one binary search per structure, no sort.
/// Distance grows along each walk (`me` is never a candidate), so the walk
/// stops at the first candidate that cannot improve a full side: the
/// eligible ones inside that arc, first `per_side`, are the same as the
/// improvers among the first `per_side` eligible.
pub(crate) fn near_hello_targets(
    table: &ConnectionTable,
    candidates: &Candidates,
    me: &Address,
    per_side: usize,
) -> Vec<(Address, Endpoint)> {
    // A full side is improved only inside the arc to its `per_side`-th
    // neighbour; a side with fewer neighbours by any candidate.
    let (mut right, mut left) = table.sides(me);
    let nth = per_side.saturating_sub(1);
    let right_arc = right.nth(nth).map(|c| me.clockwise_distance(&c.peer));
    let left_arc = left.nth(nth).map(|c| c.peer.clockwise_distance(me));
    let inside = |arc: Option<Distance>, d: Distance| arc.is_none_or(|w| d < w);
    let eligible =
        |(a, _): &&Candidate| table.get(a).is_none_or(|c| c.kind != ConnectionKind::Near);
    let (clockwise, counter_clockwise) = candidates.sides(me);
    let mut picked: Vec<Candidate> = clockwise
        .take_while(|(a, _)| inside(right_arc, me.clockwise_distance(a)))
        .filter(eligible)
        .take(per_side)
        .copied()
        .collect();
    let left_picks = counter_clockwise
        .take_while(|(a, _)| inside(left_arc, a.clockwise_distance(me)))
        .filter(eligible)
        .take(per_side);
    for pick in left_picks {
        if !picked.contains(pick) {
            picked.push(*pick);
        }
    }
    picked
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

    #[test]
    fn the_table_counter_moves_with_what_a_skipped_stage_reads() {
        let moved = |t: &mut ConnectionTable, change: &dyn Fn(&mut ConnectionTable)| {
            let before = t.version();
            change(t);
            t.version() != before
        };
        let near = || conn(1, ConnectionKind::Near, ConnectionState::Established);
        let (now, moved_to) = (SimTime::from_nanos(5), (Ipv4Addr::new(10, 9, 9, 9), 9));
        let heard = |peer: u8, from: Endpoint| {
            move |t: &mut ConnectionTable| t.note_heard(&addr(peer), now, from)
        };
        let remove = |peer: u8| {
            move |t: &mut ConnectionTable| {
                t.remove(&addr(peer));
            }
        };
        let mut t = ConnectionTable::new();
        assert!(moved(&mut t, &|t| t.upsert(near())));
        assert!(moved(&mut t, &|t| t.upsert(near())), "any upsert");
        assert!(!moved(&mut t, &heard(1, near().endpoint)));
        assert_eq!(t.get(&addr(1)).map(|c| c.last_heard), Some(now));
        assert!(moved(&mut t, &heard(1, moved_to)));
        assert!(!moved(&mut t, &heard(2, moved_to)), "no edge");
        assert!(!moved(&mut t, &|t| t.note_ping_sent(&addr(1), now)));
        assert!(!moved(&mut t, &remove(2)));
        assert!(moved(&mut t, &remove(1)));
        let connecting = || conn(1, ConnectionKind::Near, ConnectionState::Connecting);
        assert!(!moved(&mut t, &|t| t.upsert(connecting())), "no edge");
    }

    #[test]
    fn candidate_inserts_move_one_counter_and_everything_else_both() {
        let me = addr(0);
        let ep = |n: u8| (Ipv4Addr::new(10, 0, 0, n), 4001);
        let learn = |a: u8, e: u8| move |c: &mut Candidates| c.learn(&me, addr(a), ep(e));
        let gossip =
            |a: u8, e: u8| move |c: &mut Candidates| c.learn_gossip(&me, vec![(addr(a), ep(e))]);
        let batch = [(addr(1), ep(1)), (addr(2), ep(2))];
        let learn_all = |c: &mut Candidates| c.learn_all(&me, batch.iter().copied());
        // Which counters `change` moves: (any change, removals).
        let moved = |c: &mut Candidates, change: &dyn Fn(&mut Candidates)| {
            let before = (c.version(), c.removals());
            change(c);
            (c.version() != before.0, c.removals() != before.1)
        };
        let (insert, neither, both) = ((true, false), (false, false), (true, true));
        let mut c = Candidates::default();
        assert_eq!(moved(&mut c, &learn(1, 1)), insert);
        assert_eq!(moved(&mut c, &learn_all), insert);
        assert_eq!(moved(&mut c, &gossip(3, 3)), insert);
        assert_eq!(moved(&mut c, &learn(1, 1)), neither);
        assert_eq!(moved(&mut c, &|c| c.learn(&me, me, ep(0))), neither);
        assert_eq!(moved(&mut c, &learn_all), neither);
        assert_eq!(moved(&mut c, &|c| c.remove(&addr(9))), neither);
        assert_eq!(moved(&mut c, &learn(1, 7)), both, "an endpoint overwrite");
        assert_eq!(moved(&mut c, &learn_all), both, "and back");
        assert_eq!(moved(&mut c, &gossip(3, 8)), both);
        assert_eq!(moved(&mut c, &|c| c.remove(&addr(2))), both);
        assert_eq!(moved(&mut c, &|c| c.clear()), both);
    }

    /// A ratchet: every hop binary-searches a cold node's edge vector, so
    /// each byte more spreads the search over more cache lines.
    #[test]
    fn connections_stay_small() {
        assert!(std::mem::size_of::<Connection>() <= 48);
    }

    // ------------------------------------------ the B-trees they replaced

    mod reference_models {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        const KINDS: [ConnectionKind; 3] = [
            ConnectionKind::Near,
            ConnectionKind::Far,
            ConnectionKind::Leaf,
        ];

        /// One of `2 * spread` addresses: `spread` steps apart in the first
        /// byte, and pairs that agree on their first eight bytes and differ
        /// at byte 12 — so generated peers collide, tie on ring distance and
        /// take the order's tie path.
        fn colliding(sel: u64, spread: u64) -> Address {
            let mut b = [0u8; 20];
            b[0] = ((sel % spread) * (256 / spread)) as u8;
            b[12] = ((sel / spread) % 2) as u8;
            Address(b)
        }

        fn endpoint(w: u64) -> Endpoint {
            (Ipv4Addr::from(w as u32), (w >> 32) as u16)
        }

        /// Everything a `Connection` holds, comparable.
        type Row = (
            Address,
            Endpoint,
            ConnectionKind,
            ConnectionState,
            SimTime,
            SimTime,
        );

        fn row(c: &Connection) -> Row {
            (
                c.peer,
                c.endpoint,
                c.kind,
                c.state,
                c.last_heard,
                c.last_ping_sent,
            )
        }

        fn rows<'a>(walk: impl IntoIterator<Item = &'a Connection>) -> Vec<Row> {
            walk.into_iter().map(row).collect()
        }

        /// Every query of `table` against the same question put to `model`
        /// by brute force, around `target`, never returning `exclude`.
        fn check_table(
            table: &ConnectionTable,
            model: &BTreeMap<Address, Connection>,
            target: &Address,
            exclude: &Address,
        ) {
            let all = rows(model.values());
            assert_eq!(rows(table.established()), all);
            assert_eq!((table.len(), table.is_empty()), (all.len(), all.is_empty()));
            let addrs: Vec<Address> = model.keys().copied().collect();
            assert_eq!(table.peers(), addrs);
            assert!(table.established_addrs().eq(addrs.iter()));
            assert_eq!(table.established_addrs().len(), addrs.len());
            for n in 0..=all.len() {
                assert_eq!(table.nth_established(n).map(row), all.get(n).copied());
            }
            for kind in KINDS {
                let count = model.values().filter(|c| c.kind == kind).count();
                assert_eq!(table.count_kind(kind), count, "{kind:?}");
            }
            for sel in 0..32 {
                let p = colliding(sel, 16);
                assert_eq!(table.get(&p).map(row), model.get(&p).map(row));
                assert_eq!(table.contains(&p), model.contains_key(&p));
            }
            for excl in [None, Some(exclude)] {
                let expect = model
                    .values()
                    .filter(|c| excl != Some(&c.peer))
                    .min_by_key(|c| (c.peer.ring_distance(target), c.peer));
                let got = table.closest_to_excluding(target, excl);
                assert_eq!(
                    got.map(row),
                    expect.map(row),
                    "{target:?} excluding {excl:?}"
                );
            }
            let best = model.keys().map(|p| p.ring_distance(target)).min();
            assert_eq!(
                table.best_distance_to(target),
                best.unwrap_or(Distance::MAX)
            );
            let mut right: Vec<&Connection> = model.values().collect();
            right.sort_by_key(|c| target.clockwise_distance(&c.peer));
            assert_eq!(rows(table.right_of(target)), rows(right.iter().copied()));
            let mut left: Vec<&Connection> = model.values().collect();
            left.sort_by_key(|c| c.peer.clockwise_distance(target));
            assert_eq!(rows(table.left_of(target)), rows(left.iter().copied()));
            for count in 1..=3 {
                let (r, l) = (
                    &right[..count.min(right.len())],
                    &left[..count.min(left.len())],
                );
                assert_eq!(
                    rows(table.right_neighbors(target, count)),
                    rows(r.iter().copied())
                );
                assert_eq!(
                    rows(table.left_neighbors(target, count)),
                    rows(l.iter().copied())
                );
                let mut view = rows(r.iter().copied());
                for c in l {
                    if !view.iter().any(|v| v.0 == c.peer) {
                        view.push(row(c));
                    }
                }
                assert_eq!(rows(table.near_view(target, count)), view);
            }
        }

        /// A batch of up to 23 candidates drawn from `w`, shaped by `shape`:
        /// strictly ascending, as drawn, ascending with repeated addresses,
        /// or strictly ascending with `me` in its place.
        fn batch(w: u64, shape: u64, me: Address) -> Vec<(Address, Endpoint)> {
            let mut x = w;
            let mut out: Vec<(Address, Endpoint)> = (0..w % 24)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (colliding(x >> 40, 64), endpoint(x >> 8))
                })
                .collect();
            if shape != 1 {
                out.sort_by_key(|(a, _)| *a);
            }
            if shape == 0 || shape == 3 {
                out.dedup_by_key(|(a, _)| *a);
            }
            if shape == 3 && out.iter().all(|(a, _)| *a != me) {
                let at = out.partition_point(|(a, _)| *a < me);
                out.insert(at, (me, endpoint(w)));
            }
            out
        }

        /// The candidate set against its model: the entries, and the walks
        /// both ways from `from`.
        fn check_candidates(
            candidates: &Candidates,
            model: &BTreeMap<Address, Endpoint>,
            from: &Address,
        ) {
            let entries: Vec<(Address, Endpoint)> = model.iter().map(|(a, e)| (*a, *e)).collect();
            assert_eq!(candidates.entries, entries);
            assert_eq!(candidates.len(), entries.len());
            let (clockwise, counter_clockwise) = candidates.sides(from);
            let cw = model.range(*from..).chain(model.range(..*from));
            assert!(clockwise.map(|(a, e)| (a, e)).eq(cw));
            let below = model.range(..*from).rev();
            let ccw = below.chain(model.range(*from..).rev());
            assert!(counter_clockwise.map(|(a, e)| (a, e)).eq(ccw));
        }

        /// The largest list the wire carries, 255 entries in no order —
        /// known and new addresses, repeats, `me` — into 4096 candidates.
        #[test]
        fn long_unsorted_gossip_matches_the_reference_model() {
            let key = |i: u64| Address::from_key(&i.to_le_bytes());
            let me = key(7);
            let mut model: BTreeMap<Address, Endpoint> =
                (0..4096).map(|i| (key(i), endpoint(i))).collect();
            model.remove(&me);
            let mut candidates = Candidates::default();
            candidates.learn_all(&me, model.iter().map(|(a, e)| (*a, *e)));
            let mut x = 1u64;
            let list: Vec<(Address, Endpoint)> = (0..252u64)
                .map(|n| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    // Half known, half new.
                    (key((x >> 40) % 8192), endpoint(x ^ n))
                })
                .chain([
                    (key(5000), endpoint(1)),
                    (me, endpoint(0)),
                    (key(5000), endpoint(2)),
                ])
                .collect();
            candidates.learn_gossip(&me, list.clone());
            for (a, e) in list {
                if a != me {
                    model.insert(a, e);
                }
            }
            check_candidates(&candidates, &model, &me);
        }

        proptest! {
            /// Upserts that change kind, state or endpoint (a `Connecting`
            /// one removes the peer), removals and both liveness notes,
            /// each followed by every query, against a map of the
            /// established edges.
            #[test]
            fn flat_table_matches_the_btree_reference_model(
                steps in vec(any::<[u64; 2]>(), 1..60),
            ) {
                let mut table = ConnectionTable::new();
                let mut model: BTreeMap<Address, Connection> = BTreeMap::new();
                for [what, w] in steps {
                    let peer = colliding(what >> 8, 16);
                    let now = SimTime::from_nanos(w >> 16);
                    match what % 8 {
                        0..=3 => {
                            let state = if (what >> 16) % 4 == 0 {
                                ConnectionState::Connecting
                            } else {
                                ConnectionState::Established
                            };
                            let conn = Connection {
                                peer,
                                endpoint: endpoint(w),
                                kind: KINDS[((what >> 20) % 3) as usize],
                                state,
                                last_heard: now,
                                last_ping_sent: SimTime::from_nanos(w >> 20),
                            };
                            if state == ConnectionState::Established {
                                model.insert(peer, conn.clone());
                            } else {
                                model.remove(&peer);
                            }
                            table.upsert(conn);
                        }
                        4 => {
                            let got = table.remove(&peer).map(|c| row(&c));
                            prop_assert_eq!(got, model.remove(&peer).map(|c| row(&c)));
                        }
                        5 | 6 => {
                            table.note_heard(&peer, now, endpoint(w));
                            if let Some(c) = model.get_mut(&peer) {
                                c.last_heard = now;
                                c.endpoint = endpoint(w);
                            }
                        }
                        _ => {
                            table.note_ping_sent(&peer, now);
                            if let Some(c) = model.get_mut(&peer) {
                                c.last_ping_sent = now;
                            }
                        }
                    }
                    let exclude = colliding(w >> 56, 16);
                    check_table(&table, &model, &colliding(w >> 48, 16), &exclude);
                    check_table(&table, &model, &Address::from_key(&w.to_le_bytes()), &peer);
                }
            }

            /// Single learns and removals, the cap's clear above 64, and
            /// batches that ascend strictly or hold `me` (merged as they
            /// are) or come unsorted or repeat addresses (through
            /// `learn_gossip`), against a map learned from entry by entry.
            #[test]
            fn candidates_match_the_btree_reference_model(
                me_sel: u64,
                steps in vec(any::<[u64; 2]>(), 1..60),
            ) {
                let me = colliding(me_sel, 64);
                let mut candidates = Candidates::default();
                let mut model: BTreeMap<Address, Endpoint> = BTreeMap::new();
                for [what, w] in steps {
                    let addr = colliding(what >> 8, 64);
                    match what % 8 {
                        0 | 1 => {
                            candidates.learn(&me, addr, endpoint(w));
                            if addr != me {
                                model.insert(addr, endpoint(w));
                            }
                        }
                        2 => {
                            candidates.remove(&addr);
                            model.remove(&addr);
                        }
                        3 => {
                            if candidates.len() > 64 {
                                candidates.clear();
                            }
                            if model.len() > 64 {
                                model.clear();
                            }
                        }
                        _ => {
                            let shape = (what >> 16) % 4;
                            let batch = batch(w, shape, me);
                            if shape == 0 || shape == 3 {
                                candidates.learn_all(&me, batch.iter().copied());
                            } else {
                                candidates.learn_gossip(&me, batch.clone());
                            }
                            for (a, e) in batch {
                                if a != me {
                                    model.insert(a, e);
                                }
                            }
                        }
                    }
                    check_candidates(&candidates, &model, &me);
                    check_candidates(&candidates, &model, &addr);
                }
            }
        }
    }
}
