//! Brunet-ARP: DHT-based mapping from virtual IP addresses to overlay addresses.
//!
//! The base IPOP design maps an IP packet's destination straight to the overlay
//! address `SHA-1(dst_ip)`, which requires one overlay node per virtual IP. The
//! paper's Section III-E proposes Brunet-ARP to lift that restriction: a node that
//! "routes for" a virtual IP registers the mapping `SHA-1(ip) → its own overlay
//! address` at the node owning that key (the *Brunet-ARP-Mapper*); a sender
//! resolves the destination IP by querying the mapper, caches the answer, and
//! re-resolves when the cache entry expires (which is also how VM migration is
//! picked up).
//!
//! This module holds the sender-side resolver state (cache, pending packets and
//! outstanding queries); the DHT itself is the overlay's.

use std::collections::{BTreeMap, VecDeque};
use std::net::Ipv4Addr;

use crate::dhcp::{decode_owner, lease_key};
use crate::lookup::Lookups;
use ipop_overlay::Address;
use ipop_packet::ipv4::Ipv4Packet;
use ipop_packet::Bytes;
use ipop_simcore::{Duration, SimTime};

/// Bound on packets parked per unresolved destination. Traffic to an
/// unresolvable IP must not grow memory without limit; beyond this the oldest
/// parked packet is dropped.
const PARK_LIMIT: usize = 32;

/// Outcome of a resolution attempt.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Resolution {
    /// The destination's overlay address is known (cache hit or direct mapping).
    Resolved(Address),
    /// A DHT query is required; the caller should issue `dht_get(key)` and park the
    /// packet until the reply arrives.
    NeedsQuery(Address),
    /// A query for this destination is already outstanding; just park the packet.
    Pending,
}

/// Sender-side Brunet-ARP resolver.
pub(crate) struct BrunetArp {
    /// Cached mappings, and outstanding DHT queries: one older than
    /// [`QUERY_TIMEOUT`] no longer blocks a fresh query for its destination
    /// (a lost reply must not pin it in `Pending` forever).
    lookups: Lookups<Ipv4Addr, Address>,
    /// Packets waiting for a resolution, per destination IP. Bounded to
    /// [`PARK_LIMIT`] per destination, drop-oldest.
    parked: BTreeMap<Ipv4Addr, VecDeque<Ipv4Packet>>,
}

impl BrunetArp {
    /// A resolver whose cache entries live for `cache_ttl`.
    pub(crate) fn new(cache_ttl: Duration) -> Self {
        BrunetArp {
            lookups: Lookups::new(cache_ttl),
            parked: BTreeMap::new(),
        }
    }

    /// Look up the overlay address for `dst`, indicating whether a DHT query is
    /// needed. The caller parks `pkt` with [`BrunetArp::park`] when a query is
    /// required or pending.
    pub(crate) fn resolve(&mut self, now: SimTime, dst: Ipv4Addr) -> Resolution {
        if let Some(addr) = self.lookups.cached(now, &dst) {
            return Resolution::Resolved(addr);
        }
        if self.lookups.is_pending(now, &dst) {
            return Resolution::Pending;
        }
        Resolution::NeedsQuery(lease_key(dst))
    }

    /// Record that DHT query `token` is resolving `dst` (and prune every
    /// timed-out query; see [`Lookups::issued`]).
    pub(crate) fn query_issued(&mut self, now: SimTime, token: u64, dst: Ipv4Addr) {
        self.lookups.issued(now, token, dst);
    }

    /// Park a packet until `dst` resolves. When the destination's queue is
    /// full the oldest parked packet is dropped, so traffic to an
    /// unresolvable IP occupies bounded memory.
    pub(crate) fn park(&mut self, dst: Ipv4Addr, pkt: Ipv4Packet) {
        let queue = self.parked.entry(dst).or_default();
        if queue.len() >= PARK_LIMIT {
            queue.pop_front();
        }
        queue.push_back(pkt);
    }

    /// Process a DHT reply. A found mapping is cached and returned with the
    /// packets that were waiting for it; a missing one drops them and returns
    /// `None`, as does a token that is not ours.
    pub(crate) fn on_reply(
        &mut self,
        now: SimTime,
        token: u64,
        value: Option<Bytes>,
    ) -> Option<(Address, Vec<Ipv4Packet>)> {
        let dst = self.lookups.answered(token)?;
        let waiting: Vec<Ipv4Packet> = self.parked.remove(&dst).map(Vec::from).unwrap_or_default();
        let addr = value.as_deref().and_then(decode_owner)?;
        self.lookups.store(now, dst, addr);
        Some((addr, waiting))
    }

    /// Drop every parked packet and outstanding query. Called when the node's
    /// own virtual address changes (re-bind) or is relinquished: the parked
    /// packets were sourced from the old address, and a late reply releasing
    /// them would emit traffic from an address this node no longer holds.
    /// The resolution cache survives — it maps *other* hosts' addresses.
    pub(crate) fn reset_pending(&mut self) {
        self.parked.clear();
        self.lookups.clear_outstanding();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dhcp::encode_owner;
    use crate::lookup::QUERY_TIMEOUT;
    use ipop_packet::ipv4::Ipv4Payload;

    fn pkt(dst: Ipv4Addr) -> Ipv4Packet {
        Ipv4Packet::new(
            Ipv4Addr::new(172, 16, 0, 2),
            dst,
            Ipv4Payload::Raw(99, vec![1].into()),
        )
    }

    const DST: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 18);

    #[test]
    fn mapping_encoding_round_trips() {
        let addr = Address::from_key(b"some node");
        let encoded = encode_owner(&addr);
        assert_eq!(decode_owner(&encoded), Some(addr));
        assert_eq!(decode_owner(&[1, 2, 3]), None);
    }

    #[test]
    fn miss_query_reply_hit_cycle() {
        let mut arp = BrunetArp::new(Duration::from_secs(60));
        let now = SimTime::ZERO;
        // First packet: miss, needs a query.
        let r = arp.resolve(now, DST);
        let Resolution::NeedsQuery(key) = r else {
            panic!("expected NeedsQuery, got {r:?}")
        };
        assert_eq!(key, Address::from_ip(DST));
        arp.query_issued(SimTime::ZERO, 7, DST);
        arp.park(DST, pkt(DST));
        // Second packet while the query is outstanding: pending.
        assert_eq!(arp.resolve(now, DST), Resolution::Pending);
        arp.park(DST, pkt(DST));
        assert_eq!(arp.parked[&DST].len(), 2);
        // Reply arrives: both packets released, mapping cached.
        let target = Address::from_key(b"host routing for DST");
        let (addr, released) = arp.on_reply(now, 7, Some(encode_owner(&target))).unwrap();
        assert_eq!(addr, target);
        assert_eq!(released.len(), 2);
        assert!(arp.parked.is_empty());
        // Third packet: cache hit.
        assert_eq!(arp.resolve(now, DST), Resolution::Resolved(target));
    }

    #[test]
    fn cache_entries_expire() {
        let mut arp = BrunetArp::new(Duration::from_secs(10));
        let target = Address::from_key(b"n");
        arp.query_issued(SimTime::ZERO, 1, DST);
        arp.on_reply(SimTime::ZERO, 1, Some(encode_owner(&target)));
        assert!(matches!(
            arp.resolve(SimTime::ZERO + Duration::from_secs(5), DST),
            Resolution::Resolved(_)
        ));
        // After the TTL the entry must be re-resolved (this is what picks up VM migration).
        assert!(matches!(
            arp.resolve(SimTime::ZERO + Duration::from_secs(11), DST),
            Resolution::NeedsQuery(_)
        ));
    }

    #[test]
    fn failed_lookup_counts_and_drops_packets() {
        let mut arp = BrunetArp::new(Duration::from_secs(10));
        arp.query_issued(SimTime::ZERO, 3, DST);
        arp.park(DST, pkt(DST));
        arp.park(DST, pkt(DST));
        assert_eq!(arp.on_reply(SimTime::ZERO, 3, None), None);
        assert!(arp.parked.is_empty());
        assert!(
            matches!(arp.resolve(SimTime::ZERO, DST), Resolution::NeedsQuery(_)),
            "nothing cached"
        );
        // A failed resolution drops what was parked: a later answer for the
        // same destination releases nothing.
        arp.query_issued(SimTime::ZERO, 4, DST);
        let target = Address::from_key(b"n");
        let (_, released) = arp
            .on_reply(SimTime::ZERO, 4, Some(encode_owner(&target)))
            .unwrap();
        assert!(released.is_empty());
    }

    #[test]
    fn unknown_token_is_ignored() {
        let mut arp = BrunetArp::new(Duration::from_secs(10));
        assert!(arp
            .on_reply(SimTime::ZERO, 99, Some(Bytes::from(vec![0u8; 20])))
            .is_none());
    }

    #[test]
    fn parked_queue_is_bounded_per_destination_drop_oldest() {
        let mut arp = BrunetArp::new(Duration::from_secs(10));
        arp.query_issued(SimTime::ZERO, 1, DST);
        let other = Ipv4Addr::new(172, 16, 0, 99);
        arp.query_issued(SimTime::ZERO, 2, other);
        // Two packets more than the limit to one destination: only the
        // newest `PARK_LIMIT` survive.
        let limit = PARK_LIMIT as u8;
        for i in 0..limit + 2 {
            arp.park(
                DST,
                Ipv4Packet::new(
                    Ipv4Addr::new(172, 16, 0, 2),
                    DST,
                    Ipv4Payload::Raw(99, vec![i].into()),
                ),
            );
        }
        // The bound is per destination: another IP's queue is unaffected.
        arp.park(other, pkt(other));
        assert_eq!(arp.parked[&DST].len(), PARK_LIMIT);
        assert_eq!(arp.parked[&other].len(), 1);
        let target = Address::from_key(b"n");
        let (_, released) = arp
            .on_reply(SimTime::ZERO, 1, Some(encode_owner(&target)))
            .unwrap();
        assert_eq!(released.len(), PARK_LIMIT);
        // Drop-oldest: the survivors are the newest packets, in order.
        let tails: Vec<u8> = released
            .iter()
            .map(|p| match &p.payload {
                Ipv4Payload::Raw(_, data) => data[0],
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tails, (2..limit + 2).collect::<Vec<u8>>());
    }

    #[test]
    fn lost_query_reply_unblocks_after_timeout() {
        // A query whose reply never arrives (routed into a crashed node) must
        // not pin the destination in Pending forever.
        let mut arp = BrunetArp::new(Duration::from_secs(60));
        arp.query_issued(SimTime::ZERO, 1, DST);
        assert_eq!(
            arp.resolve(SimTime::ZERO + Duration::from_secs(2), DST),
            Resolution::Pending,
            "fresh query still blocks"
        );
        let late = SimTime::ZERO + QUERY_TIMEOUT;
        assert!(
            matches!(arp.resolve(late, DST), Resolution::NeedsQuery(_)),
            "timed-out query no longer blocks a fresh one"
        );
        // Issuing the fresh query prunes the timed-out one — lost replies
        // must not leak an outstanding entry forever.
        arp.query_issued(late, 2, DST);
        let target = Address::from_key(b"n");
        assert!(
            arp.on_reply(late, 1, Some(encode_owner(&target))).is_none(),
            "the pruned token's late reply is dropped"
        );
        // The fresh token answers and releases parked packets.
        arp.park(DST, pkt(DST));
        let (addr, released) = arp.on_reply(late, 2, Some(encode_owner(&target))).unwrap();
        assert_eq!(addr, target);
        assert_eq!(released.len(), 1);
    }

    #[test]
    fn reset_pending_drops_parked_and_outstanding_but_keeps_cache() {
        let mut arp = BrunetArp::new(Duration::from_secs(60));
        let target = Address::from_key(b"n");
        arp.query_issued(SimTime::ZERO, 1, DST);
        arp.on_reply(SimTime::ZERO, 1, Some(encode_owner(&target)));
        let other = Ipv4Addr::new(172, 16, 0, 99);
        arp.query_issued(SimTime::ZERO, 2, other);
        arp.park(other, pkt(other));
        arp.reset_pending();
        assert!(arp.parked.is_empty());
        // A late reply for the cleared query releases nothing.
        assert!(arp
            .on_reply(SimTime::ZERO, 2, Some(encode_owner(&target)))
            .is_none());
        // The destination cache survives: it maps other hosts' addresses.
        assert_eq!(
            arp.resolve(SimTime::ZERO, DST),
            Resolution::Resolved(target)
        );
    }
}
