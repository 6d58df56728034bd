//! DHCP-over-DHT: decentralized virtual-address allocation.
//!
//! A node joins the virtual network knowing only the subnet. It draws a
//! candidate address from its own deterministic random stream, claims the
//! address with the DHT's atomic create-if-absent primitive, and retries with
//! a fresh candidate on collision. The claimed record maps `SHA-1(ip)` to the
//! claimant's overlay address — exactly the Brunet-ARP mapping of paper
//! Section III-E — so winning the claim simultaneously makes the address
//! resolvable by every sender.
//!
//! Claims are soft-state leases: the overlay renews the record at TTL/2 for as
//! long as the node lives, and a crashed owner's address returns to the pool
//! one TTL later. A confirmation read a short settle delay after the claim
//! guards against split-brain claims while the ring is still converging: if
//! the confirm does not read back our own overlay address, the claim is
//! abandoned (and unpublished) and a new candidate is drawn.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use ipop_overlay::Address;
use ipop_packet::Bytes;
use ipop_simcore::{Duration, SimTime, StreamRng};

use crate::DhtClient;

/// An IPv4 subnet (network address + prefix length).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Subnet {
    /// Network address (host bits zeroed).
    pub net: Ipv4Addr,
    /// Prefix length in bits (max 30: at least two usable host addresses).
    pub prefix: u8,
}

impl Subnet {
    /// A subnet from any address inside it plus a prefix length.
    pub fn new(addr: Ipv4Addr, prefix: u8) -> Self {
        assert!(prefix <= 30, "prefix too long for host allocation");
        let mask = Self::mask_of(prefix);
        Subnet {
            net: Ipv4Addr::from(u32::from(addr) & mask),
            prefix,
        }
    }

    fn mask_of(prefix: u8) -> u32 {
        if prefix == 0 {
            0
        } else {
            u32::MAX << (32 - prefix)
        }
    }

    /// The subnet mask.
    pub fn mask(&self) -> u32 {
        Self::mask_of(self.prefix)
    }

    /// Is `ip` inside the subnet?
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        (u32::from(ip) & self.mask()) == u32::from(self.net)
    }

    /// The broadcast address (all host bits set).
    pub fn broadcast(&self) -> Ipv4Addr {
        Ipv4Addr::from(u32::from(self.net) | !self.mask())
    }

    /// Number of assignable host addresses (network and broadcast excluded).
    pub fn usable_hosts(&self) -> u64 {
        (1u64 << (32 - self.prefix)) - 2
    }

    /// Draw a usable host address that is neither in `reserved` nor in
    /// `avoid`, or `None` when the two sets cover the whole usable range
    /// (address-space exhaustion — a /30 has just two usable addresses).
    ///
    /// Bounded work: a short burst of rejection sampling for the common
    /// sparse case, then one deterministic scan from a random start — never
    /// the unbounded retry loop that would hang a joiner on a full subnet.
    pub fn draw_avoiding(
        &self,
        rng: &mut StreamRng,
        reserved: &[Ipv4Addr],
        avoid: &BTreeSet<Ipv4Addr>,
    ) -> Option<Ipv4Addr> {
        let usable = self.usable_hosts();
        let blocked_set: BTreeSet<Ipv4Addr> = reserved
            .iter()
            .chain(avoid.iter())
            .copied()
            .filter(|ip| self.contains(*ip) && *ip != self.net && *ip != self.broadcast())
            .collect();
        if blocked_set.len() as u64 >= usable {
            return None;
        }
        let blocked = |ip: Ipv4Addr| blocked_set.contains(&ip);
        let span = (1u64 << (32 - self.prefix)) - 1; // offsets 1..span are usable
        for _ in 0..64 {
            let offset = rng.range_u64(1, span) as u32;
            let ip = Ipv4Addr::from(u32::from(self.net) | offset);
            if !blocked(ip) {
                return Some(ip);
            }
        }
        // Dense subnet: scan every usable offset once, starting at a random
        // point so allocations stay spread out.
        let start = rng.range_u64(1, span);
        for k in 0..usable {
            let offset = (1 + (start - 1 + k) % usable) as u32;
            let ip = Ipv4Addr::from(u32::from(self.net) | offset);
            if !blocked(ip) {
                return Some(ip);
            }
        }
        None
    }
}

/// The DHT key under which the lease (= Brunet-ARP mapping) for `ip` lives:
/// `SHA-1(ip)`, the same point on the ring the base IPOP design routes to.
pub fn lease_key(ip: Ipv4Addr) -> Address {
    Address::from_ip(ip)
}

/// Encode the claimant's overlay address as the lease value.
pub fn encode_owner(addr: &Address) -> Bytes {
    Bytes::copy_from_slice(&addr.0)
}

/// Decode a lease value back into the owner's overlay address.
pub fn decode_owner(value: &[u8]) -> Option<Address> {
    if value.len() != 20 {
        return None;
    }
    let mut b = [0u8; 20];
    b.copy_from_slice(value);
    Some(Address(b))
}

/// Settle delay between a successful claim and the confirmation read.
const CONFIRM_DELAY: Duration = Duration::from_secs(2);
/// Re-issue a claim or confirm whose reply never arrived after this long.
const CLAIM_TIMEOUT: Duration = Duration::from_secs(10);
/// Wait between a write-quorum failure and re-claiming the same address (the
/// coordinator rejects for up to its quorum timeout; an immediate retry would
/// ping-pong one claim per round trip).
const RETRY_DELAY: Duration = Duration::from_secs(3);
/// Give up after this many claim attempts.
const MAX_ATTEMPTS: u32 = 128;

/// Allocation progress.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DhcpState {
    /// Waiting for the overlay to be ready.
    Idle,
    /// A claim (`DhtCreate`) is outstanding for the candidate address.
    Claiming {
        /// Token of the outstanding create.
        token: u64,
        /// The candidate address being claimed.
        ip: Ipv4Addr,
        /// When the claim was issued.
        since: SimTime,
    },
    /// The claim succeeded; waiting to read it back after the settle delay.
    Confirming {
        /// The claimed address.
        ip: Ipv4Addr,
        /// When the confirmation read may be issued.
        confirm_at: SimTime,
        /// Token of the outstanding confirmation get, once issued.
        token: Option<u64>,
        /// When the confirmation get was issued.
        since: SimTime,
    },
    /// A claim failed its write quorum (partition minority); the same —
    /// still unclaimed — address is re-claimed after a short wait.
    RetryWait {
        /// The candidate address to re-claim.
        ip: Ipv4Addr,
        /// When the re-claim goes out.
        retry_at: SimTime,
    },
    /// The address is allocated and confirmed; the lease renews itself.
    Bound {
        /// The allocated address.
        ip: Ipv4Addr,
    },
    /// The lease was released (graceful leave).
    Released,
    /// Allocation gave up after `MAX_ATTEMPTS` claims.
    Failed,
    /// Terminal: every usable address in the subnet is reserved or was seen
    /// taken — there is nothing left to draw (e.g. the third joiner on a /30
    /// with two usable addresses). Surfaced instead of retrying forever.
    AddressSpaceExhausted,
}

/// The DHCP-style allocator state machine for one node.
pub struct DhcpAllocator {
    subnet: Subnet,
    /// Lease lifetime; the overlay renews the claim at half this.
    lease_ttl: Duration,
    /// This node's overlay address — the value stored in its claims.
    owner: Address,
    /// Addresses never drawn (gateway and friends).
    reserved: Vec<Ipv4Addr>,
    state: DhcpState,
    started_at: Option<SimTime>,
    bound_at: Option<SimTime>,
    /// Addresses this allocator saw taken (claim collisions, failed confirms,
    /// lost leases) during the current allocation cycle. Not drawn again
    /// until the next successful bind clears the set; when `reserved` and
    /// `tried` together cover the whole usable range the subnet is exhausted.
    tried: BTreeSet<Ipv4Addr>,
    /// The stream candidate addresses are drawn from.
    rng: StreamRng,
    /// Claims lost to an existing live lease.
    pub collisions: u64,
    /// Claims issued.
    pub attempts: u32,
    /// Bound leases lost to a conflicting winner (healed partitions).
    pub leases_lost: u64,
}

impl DhcpAllocator {
    /// An allocator drawing from `subnet` with `rng`, claiming leases of
    /// `lease_ttl` on behalf of `owner`.
    pub fn new(subnet: Subnet, owner: Address, lease_ttl: Duration, rng: StreamRng) -> Self {
        DhcpAllocator {
            subnet,
            lease_ttl,
            owner,
            reserved: Vec::new(),
            state: DhcpState::Idle,
            started_at: None,
            bound_at: None,
            tried: BTreeSet::new(),
            rng,
            collisions: 0,
            attempts: 0,
            leases_lost: 0,
        }
    }

    /// Builder: addresses that must never be drawn (e.g. the fabricated
    /// gateway of the static-ARP trick).
    pub fn with_reserved(mut self, reserved: Vec<Ipv4Addr>) -> Self {
        self.reserved = reserved;
        self
    }

    /// Current state.
    pub fn state(&self) -> DhcpState {
        self.state
    }

    /// The allocated address, once bound.
    pub fn ip(&self) -> Option<Ipv4Addr> {
        match self.state {
            DhcpState::Bound { ip } => Some(ip),
            _ => None,
        }
    }

    /// Time from the first poll to the confirmed allocation.
    pub fn allocation_latency(&self) -> Option<Duration> {
        Some(self.bound_at?.saturating_since(self.started_at?))
    }

    /// Release the lease (graceful leave): delete the mapping from the DHT.
    pub fn release(&mut self, now: SimTime, dht: &mut dyn DhtClient) {
        match self.state {
            DhcpState::Bound { ip } => {
                dht.remove(now, lease_key(ip));
            }
            DhcpState::Claiming { token, .. } => {
                // Nothing published yet; make sure a late success reply
                // cannot publish either.
                dht.cancel_create(token);
            }
            DhcpState::Confirming { ip, .. } => {
                dht.unpublish(&lease_key(ip));
            }
            _ => {}
        }
        self.state = DhcpState::Released;
    }

    /// Drive the state machine. `ready` signals that the overlay is converged
    /// enough to claim (the caller typically requires established ring
    /// neighbours on both sides). Safe to call every tick.
    pub fn poll(&mut self, now: SimTime, ready: bool, dht: &mut dyn DhtClient) {
        if self.started_at.is_none() {
            self.started_at = Some(now);
        }
        match self.state {
            DhcpState::Idle => {
                if ready {
                    self.claim(now, dht);
                }
            }
            DhcpState::Claiming { token, since, .. } => {
                if now.saturating_since(since) >= CLAIM_TIMEOUT {
                    // The create or its reply was lost; abandon the claim so
                    // a late success cannot become a phantom publication, and
                    // draw a fresh candidate.
                    dht.cancel_create(token);
                    self.claim(now, dht);
                }
            }
            DhcpState::Confirming {
                ip,
                confirm_at,
                token,
                since,
            } => match token {
                None if now >= confirm_at => {
                    let token = dht.get(now, lease_key(ip));
                    self.state = DhcpState::Confirming {
                        ip,
                        confirm_at,
                        token: Some(token),
                        since: now,
                    };
                }
                Some(_) if now.saturating_since(since) >= CLAIM_TIMEOUT => {
                    // Confirmation reply lost; read again.
                    let token = dht.get(now, lease_key(ip));
                    self.state = DhcpState::Confirming {
                        ip,
                        confirm_at,
                        token: Some(token),
                        since: now,
                    };
                }
                _ => {}
            },
            DhcpState::RetryWait { ip, retry_at } => {
                if now >= retry_at {
                    self.reissue_claim(now, ip, dht);
                }
            }
            DhcpState::Bound { .. }
            | DhcpState::Released
            | DhcpState::Failed
            | DhcpState::AddressSpaceExhausted => {}
        }
    }

    /// Feed a DHT create reply. Returns true when the token belonged to this
    /// allocator (the caller routes replies between services by token).
    ///
    /// `conflict` distinguishes the two rejection cases: true when a live
    /// record owns the key (a real collision — the address is blacklisted and
    /// a fresh candidate drawn), false when the claim merely failed its write
    /// quorum (partition minority — the same address is retried; it is not
    /// taken, and blacklisting free addresses would walk the allocator into a
    /// false `AddressSpaceExhausted` on a mostly-empty subnet).
    pub fn on_create_reply(
        &mut self,
        now: SimTime,
        token: u64,
        created: bool,
        conflict: bool,
        dht: &mut dyn DhtClient,
    ) -> bool {
        let DhcpState::Claiming {
            token: want, ip, ..
        } = self.state
        else {
            return false;
        };
        if token != want {
            return false;
        }
        if created {
            self.state = DhcpState::Confirming {
                ip,
                confirm_at: now + CONFIRM_DELAY,
                token: None,
                since: now,
            };
        } else if conflict {
            // A live lease already exists under this address: collision.
            self.collisions += 1;
            self.tried.insert(ip);
            self.claim(now, dht);
        } else {
            // Quorum failure: re-claim the same address after a short wait,
            // without consuming the attempts budget — a partition can reject
            // claims for as long as it lasts (burning the budget would leave
            // the node terminally `Failed` after the heal), and an immediate
            // retry would ping-pong against the coordinator's rejection once
            // per round trip.
            self.state = DhcpState::RetryWait {
                ip,
                retry_at: now + RETRY_DELAY,
            };
        }
        true
    }

    /// Feed a DHT get reply (the confirmation read). Returns true when the
    /// token belonged to this allocator.
    pub fn on_get_reply(
        &mut self,
        now: SimTime,
        token: u64,
        value: Option<&[u8]>,
        dht: &mut dyn DhtClient,
    ) -> bool {
        let DhcpState::Confirming {
            ip,
            token: Some(want),
            ..
        } = self.state
        else {
            return false;
        };
        if token != want {
            return false;
        }
        if value.and_then(decode_owner) == Some(self.owner) {
            self.state = DhcpState::Bound { ip };
            self.bound_at = Some(now);
            // The attempts budget and the tried blacklist guard one
            // allocation cycle, not the node's whole life: a successful bind
            // resets both, so a later lost lease re-allocates with a full
            // budget and without treating long-freed addresses as taken.
            self.attempts = 0;
            self.tried.clear();
        } else {
            // Someone else's claim won (split-brain during convergence) or
            // the record vanished: stop refreshing it and start over.
            self.collisions += 1;
            self.tried.insert(ip);
            dht.unpublish(&lease_key(ip));
            self.claim(now, dht);
        }
        true
    }

    /// The overlay reported this node's address lease lost: a TTL/2 renewal
    /// found a conflicting record owning the key (the other side of a healed
    /// partition won). The publication is already gone — re-allocate a fresh
    /// address; the caller re-binds when the new lease confirms.
    pub fn on_lease_lost(&mut self, now: SimTime, dht: &mut dyn DhtClient) {
        let DhcpState::Bound { ip } = self.state else {
            return;
        };
        self.leases_lost += 1;
        self.tried.insert(ip);
        self.claim(now, dht);
    }

    fn claim(&mut self, now: SimTime, dht: &mut dyn DhtClient) {
        let Some(ip) = self
            .subnet
            .draw_avoiding(&mut self.rng, &self.reserved, &self.tried)
        else {
            // Every usable address is reserved or known taken: terminal,
            // instead of redrawing (and re-colliding) forever.
            self.state = DhcpState::AddressSpaceExhausted;
            return;
        };
        self.issue_claim(now, ip, dht);
    }

    /// Issue a claim for a fresh candidate `ip` (consumes one attempt).
    fn issue_claim(&mut self, now: SimTime, ip: Ipv4Addr, dht: &mut dyn DhtClient) {
        if self.attempts >= MAX_ATTEMPTS {
            self.state = DhcpState::Failed;
            return;
        }
        self.attempts += 1;
        self.reissue_claim(now, ip, dht);
    }

    /// Send the claim create for `ip` without touching the attempts budget.
    fn reissue_claim(&mut self, now: SimTime, ip: Ipv4Addr, dht: &mut dyn DhtClient) {
        let token = dht.create(
            now,
            lease_key(ip),
            encode_owner(&self.owner),
            self.lease_ttl,
        );
        self.state = DhcpState::Claiming {
            token,
            ip,
            since: now,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{FakeDht, Op};

    fn subnet() -> Subnet {
        Subnet::new(Ipv4Addr::new(172, 16, 9, 0), 24)
    }

    fn owner() -> Address {
        Address::from_key(b"claimant")
    }

    const TTL: Duration = Duration::from_secs(120);

    fn alloc(seed: u64) -> DhcpAllocator {
        DhcpAllocator::new(subnet(), owner(), TTL, rng(seed))
            .with_reserved(vec![Ipv4Addr::new(172, 16, 9, 254)])
    }

    fn rng(seed: u64) -> StreamRng {
        StreamRng::new(seed, "dhcp")
    }

    #[test]
    fn subnet_arithmetic() {
        let s = Subnet::new(Ipv4Addr::new(172, 16, 9, 77), 24);
        assert_eq!(s.net, Ipv4Addr::new(172, 16, 9, 0));
        assert_eq!(s.broadcast(), Ipv4Addr::new(172, 16, 9, 255));
        assert_eq!(s.usable_hosts(), 254);
        assert!(s.contains(Ipv4Addr::new(172, 16, 9, 1)));
        assert!(!s.contains(Ipv4Addr::new(172, 16, 10, 1)));
    }

    #[test]
    fn draw_respects_bounds_and_reservations() {
        let s = subnet();
        let mut rng = StreamRng::new(7, "draw");
        let reserved = [Ipv4Addr::new(172, 16, 9, 254)];
        for _ in 0..500 {
            let ip = s
                .draw_avoiding(&mut rng, &reserved, &BTreeSet::new())
                .unwrap();
            assert!(s.contains(ip));
            assert_ne!(ip, s.net, "network address never drawn");
            assert_ne!(ip, s.broadcast(), "broadcast never drawn");
            assert_ne!(ip, reserved[0], "reserved address never drawn");
        }
    }

    #[test]
    fn owner_encoding_round_trips() {
        let a = owner();
        assert_eq!(decode_owner(&encode_owner(&a)), Some(a));
        assert_eq!(decode_owner(&[1, 2, 3]), None);
    }

    #[test]
    fn happy_path_claim_confirm_bind() {
        let mut a = alloc(1);
        let mut dht = FakeDht::default();
        let t0 = SimTime::ZERO;
        // Not ready: nothing happens.
        a.poll(t0, false, &mut dht);
        assert!(dht.ops.is_empty());
        // Ready: a claim goes out.
        a.poll(t0, true, &mut dht);
        let Some(Op::Create(key, value, ttl)) = dht.ops.first().cloned() else {
            panic!("expected a create, got {:?}", dht.ops)
        };
        assert_eq!(value, encode_owner(&owner()));
        assert_eq!(ttl, Duration::from_secs(120));
        let DhcpState::Claiming { token, ip, .. } = a.state() else {
            panic!()
        };
        assert_eq!(key, lease_key(ip));
        // Claim succeeds → confirming after the settle delay.
        assert!(a.on_create_reply(t0, token, true, false, &mut dht));
        assert_eq!(a.ip(), None);
        let t1 = t0 + Duration::from_secs(1);
        a.poll(t1, true, &mut dht);
        assert_eq!(dht.ops.len(), 1, "confirm read waits for the settle delay");
        let t2 = t0 + Duration::from_secs(3);
        a.poll(t2, true, &mut dht);
        assert!(matches!(dht.ops.last(), Some(Op::Get(k)) if *k == lease_key(ip)));
        let get_token = dht.last_token();
        // Confirmation reads back our own claim → bound.
        let v = encode_owner(&owner());
        assert!(a.on_get_reply(t2, get_token, Some(v.as_slice()), &mut dht));
        assert_eq!(a.ip(), Some(ip));
        assert_eq!(a.allocation_latency(), Some(Duration::from_secs(3)));
        assert_eq!(a.collisions, 0);
    }

    #[test]
    fn collision_draws_a_fresh_candidate() {
        let mut a = alloc(2);
        let mut dht = FakeDht::default();
        let t0 = SimTime::ZERO;
        a.poll(t0, true, &mut dht);
        let DhcpState::Claiming { token, ip, .. } = a.state() else {
            panic!()
        };
        // Claim lost: a different candidate is claimed next.
        assert!(a.on_create_reply(t0, token, false, true, &mut dht));
        assert_eq!(a.collisions, 1);
        let DhcpState::Claiming { ip: ip2, .. } = a.state() else {
            panic!("retry expected, got {:?}", a.state())
        };
        assert_ne!(ip, ip2, "fresh candidate after collision (seeded draw)");
        assert_eq!(a.attempts, 2);
    }

    #[test]
    fn failed_confirmation_unpublishes_and_retries() {
        let mut a = alloc(3);
        let mut dht = FakeDht::default();
        let t0 = SimTime::ZERO;
        a.poll(t0, true, &mut dht);
        let DhcpState::Claiming { token, ip, .. } = a.state() else {
            panic!()
        };
        a.on_create_reply(t0, token, true, false, &mut dht);
        let t1 = t0 + Duration::from_secs(3);
        a.poll(t1, true, &mut dht);
        let get_token = dht.last_token();
        // The read returns a different owner: split-brain loser backs off.
        let other = encode_owner(&Address::from_key(b"someone else"));
        assert!(a.on_get_reply(t1, get_token, Some(other.as_slice()), &mut dht));
        assert_eq!(a.ip(), None);
        assert!(
            dht.ops.contains(&Op::Unpublish(lease_key(ip))),
            "the losing claim must stop refreshing"
        );
        assert!(matches!(a.state(), DhcpState::Claiming { .. }));
    }

    #[test]
    fn claim_timeout_reissues() {
        let mut a = alloc(4);
        let mut dht = FakeDht::default();
        a.poll(SimTime::ZERO, true, &mut dht);
        assert_eq!(a.attempts, 1);
        let DhcpState::Claiming { token, .. } = a.state() else {
            panic!()
        };
        a.poll(SimTime::ZERO + Duration::from_secs(11), true, &mut dht);
        assert_eq!(a.attempts, 2, "lost claim re-issued after the timeout");
        assert!(
            dht.ops.contains(&Op::CancelCreate(token)),
            "the timed-out claim is cancelled so a late reply cannot publish"
        );
    }

    #[test]
    fn release_removes_the_lease() {
        let mut a = alloc(5);
        let mut dht = FakeDht::default();
        a.poll(SimTime::ZERO, true, &mut dht);
        let DhcpState::Claiming { token, ip, .. } = a.state() else {
            panic!()
        };
        a.on_create_reply(SimTime::ZERO, token, true, false, &mut dht);
        a.poll(SimTime::ZERO + Duration::from_secs(3), true, &mut dht);
        let v = encode_owner(&owner());
        a.on_get_reply(
            SimTime::ZERO + Duration::from_secs(3),
            dht.last_token(),
            Some(v.as_slice()),
            &mut dht,
        );
        assert!(a.ip().is_some());
        a.release(SimTime::ZERO + Duration::from_secs(10), &mut dht);
        assert_eq!(a.state(), DhcpState::Released);
        assert!(matches!(dht.ops.last(), Some(Op::Remove(k)) if *k == lease_key(ip)));
    }

    #[test]
    fn exhausted_subnet_is_terminal_not_a_hang() {
        // A /30 has exactly two usable addresses. A third joiner that sees
        // both taken must land in AddressSpaceExhausted after scanning the
        // range once — not redraw (and re-collide) forever.
        let s = Subnet::new(Ipv4Addr::new(172, 16, 9, 0), 30);
        assert_eq!(s.usable_hosts(), 2);
        let mut a = DhcpAllocator::new(s, owner(), TTL, rng(9));
        let mut dht = FakeDht::default();
        let mut now = SimTime::ZERO;
        a.poll(now, true, &mut dht);
        for _ in 0..2 {
            let DhcpState::Claiming { token, .. } = a.state() else {
                panic!("expected a claim, got {:?}", a.state())
            };
            a.on_create_reply(now, token, false, true, &mut dht);
            now += Duration::from_secs(1);
        }
        assert_eq!(a.state(), DhcpState::AddressSpaceExhausted);
        assert_eq!(a.attempts, 2, "each usable address was tried exactly once");
        // Terminal: further polls issue nothing.
        let ops = dht.ops.len();
        a.poll(now, true, &mut dht);
        assert_eq!(dht.ops.len(), ops);
    }

    #[test]
    fn fully_reserved_subnet_is_exhausted_without_any_claim() {
        let s = Subnet::new(Ipv4Addr::new(172, 16, 9, 0), 30);
        let mut a = DhcpAllocator::new(s, owner(), TTL, rng(10)).with_reserved(vec![
            Ipv4Addr::new(172, 16, 9, 1),
            Ipv4Addr::new(172, 16, 9, 2),
        ]);
        let mut dht = FakeDht::default();
        a.poll(SimTime::ZERO, true, &mut dht);
        assert_eq!(a.state(), DhcpState::AddressSpaceExhausted);
        assert!(
            dht.ops.is_empty(),
            "no claim for a subnet with nothing free"
        );
    }

    #[test]
    fn draw_avoiding_covers_a_dense_subnet_deterministically() {
        let s = Subnet::new(Ipv4Addr::new(172, 16, 9, 0), 29); // 6 usable
        let mut rng = StreamRng::new(11, "draw");
        let mut seen = BTreeSet::new();
        // Drawing while avoiding everything seen so far enumerates the whole
        // usable range, then reports exhaustion.
        for _ in 0..6 {
            let ip = s.draw_avoiding(&mut rng, &[], &seen).expect("free address");
            assert!(s.contains(ip));
            assert!(seen.insert(ip), "no duplicates");
        }
        assert_eq!(s.draw_avoiding(&mut rng, &[], &seen), None);
    }

    #[test]
    fn quorum_failure_retries_the_same_address() {
        // created == false without a conflicting value is a write-quorum
        // failure (partition minority): the address is NOT taken, so the
        // allocator re-claims it instead of blacklisting a free address
        // (which would walk it into a false AddressSpaceExhausted).
        let mut a = alloc(13);
        let mut dht = FakeDht::default();
        let t0 = SimTime::ZERO;
        a.poll(t0, true, &mut dht);
        let DhcpState::Claiming { token, ip, .. } = a.state() else {
            panic!()
        };
        assert!(a.on_create_reply(t0, token, false, false, &mut dht));
        let DhcpState::RetryWait { ip: ip2, retry_at } = a.state() else {
            panic!("retry wait expected, got {:?}", a.state())
        };
        assert_eq!(ip2, ip, "same candidate retried after a quorum failure");
        assert_eq!(retry_at, t0 + Duration::from_secs(3));
        // No immediate re-claim (that would ping-pong against the rejecting
        // coordinator once per round trip)...
        let ops = dht.ops.len();
        a.poll(t0 + Duration::from_secs(1), true, &mut dht);
        assert_eq!(dht.ops.len(), ops, "no claim before the retry delay");
        // ...but after the delay the same address is claimed again.
        a.poll(t0 + Duration::from_secs(3), true, &mut dht);
        let DhcpState::Claiming { ip: ip3, .. } = a.state() else {
            panic!("re-claim expected, got {:?}", a.state())
        };
        assert_eq!(ip3, ip);
        assert_eq!(a.collisions, 0, "a quorum failure is not a collision");
        assert_eq!(
            a.attempts, 1,
            "quorum-failure retries do not consume the attempts budget"
        );
    }

    #[test]
    fn lost_lease_reallocates_a_fresh_address() {
        let mut a = alloc(12);
        let mut dht = FakeDht::default();
        let t0 = SimTime::ZERO;
        a.poll(t0, true, &mut dht);
        let DhcpState::Claiming { token, ip, .. } = a.state() else {
            panic!()
        };
        a.on_create_reply(t0, token, true, false, &mut dht);
        a.poll(t0 + Duration::from_secs(3), true, &mut dht);
        let v = encode_owner(&owner());
        a.on_get_reply(
            t0 + Duration::from_secs(3),
            dht.last_token(),
            Some(v.as_slice()),
            &mut dht,
        );
        assert!(a.ip().is_some());
        // The overlay reports the lease lost (healed-partition conflict).
        a.on_lease_lost(t0 + Duration::from_secs(60), &mut dht);
        assert_eq!(a.leases_lost, 1);
        let DhcpState::Claiming { ip: ip2, .. } = a.state() else {
            panic!("re-claim expected, got {:?}", a.state())
        };
        assert_ne!(ip2, ip, "the conflicted address is never drawn again");
        assert_eq!(a.ip(), None);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let mut a = alloc(6);
        let mut dht = FakeDht::default();
        let mut now = SimTime::ZERO;
        a.poll(now, true, &mut dht);
        let mut collide = |a: &mut DhcpAllocator| {
            let DhcpState::Claiming { token, .. } = a.state() else {
                panic!("expected a claim, got {:?}", a.state())
            };
            a.on_create_reply(now, token, false, true, &mut dht);
            now += Duration::from_secs(1);
        };
        for _ in 1..MAX_ATTEMPTS {
            collide(&mut a);
        }
        assert!(
            matches!(a.state(), DhcpState::Claiming { .. }),
            "one collision short of MAX_ATTEMPTS still claims"
        );
        assert_eq!(a.attempts, MAX_ATTEMPTS);
        collide(&mut a);
        assert_eq!(a.state(), DhcpState::Failed);
    }
}
