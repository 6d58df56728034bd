//! Self-configuration (paper Section III): a dynamic node's DHCP-over-DHT
//! lease and when it may claim, lost-lease matching, the hostname, name
//! lookups and resolution probes. [`SelfConfig`] is sans-IO: each call is
//! lent the overlay node and the instant, and binding or giving up an
//! address reconfigures the [`DataPlane`] lent alongside.

use std::net::Ipv4Addr;

use ipop_overlay::{Address, ConnectionKind, OverlayNode};
use ipop_packet::Bytes;
use ipop_services::dhcp::{lease_key, DhcpAllocator, DhcpState};
use ipop_services::lookup::Lookups;
use ipop_services::name::NameService;
use ipop_services::Subnet;
use ipop_simcore::{Duration, SimTime, StreamRng};

use crate::brunet_arp::BrunetArp;
use crate::config::IpopConfig;
use crate::dataplane::DataPlane;

/// How long a connected node waits for ring neighbours on both sides before
/// it claims anyway: deployments too small to ever reach two `Near` edges
/// (bootstrap + one member) must not hang unallocated forever.
const CLAIM_FALLBACK: Duration = Duration::from_secs(10);

/// A node's self-configuration state.
pub(crate) struct SelfConfig {
    /// DHCP-over-DHT allocation state (dynamic-address nodes only).
    allocator: Option<DhcpAllocator>,
    hostname: Option<String>,
    lease_ttl: Duration,
    /// When the overlay started (the claim fallback counts from here).
    started_at: SimTime,
    /// Hostname → virtual IP resolver state, and reverse.
    pub(crate) names: NameService,
    pub(crate) name_results: Vec<(String, Option<Ipv4Addr>)>,
    pub(crate) reverse_results: Vec<(Ipv4Addr, Option<String>)>,
    /// Outstanding Brunet-ARP resolution probes (diagnostics and churn
    /// experiments); nothing is cached, every probe asks the DHT.
    probes: Lookups<Ipv4Addr, Address>,
    pub(crate) probe_results: Vec<(u64, Option<Address>)>,
}

impl SelfConfig {
    /// Self-configuration for a node whose overlay address is `owner`; a
    /// dynamic node's allocator draws candidates from the `ipop.dhcp`
    /// stream of `seed`.
    pub(crate) fn new(cfg: &IpopConfig, owner: Address, seed: u64) -> Self {
        let allocator = cfg.dynamic_subnet.map(|(net, len)| {
            let mut reserved = vec![cfg.gateway_ip()];
            reserved.extend(cfg.reserved_ips.iter().copied());
            let rng = StreamRng::new(seed, "ipop.dhcp");
            DhcpAllocator::new(Subnet::new(net, len), owner, cfg.lease_ttl, rng)
                .with_reserved(reserved)
        });
        SelfConfig {
            allocator,
            hostname: cfg.hostname.clone(),
            lease_ttl: cfg.lease_ttl,
            started_at: SimTime::ZERO,
            names: NameService::new(cfg.brunet_arp_cache_ttl),
            name_results: Vec::new(),
            reverse_results: Vec::new(),
            probes: Lookups::new(Duration::ZERO),
            probe_results: Vec::new(),
        }
    }

    pub(crate) fn allocator(&self) -> Option<&DhcpAllocator> {
        self.allocator.as_ref()
    }

    /// The overlay has started. A static node goes live at once — its
    /// Brunet-ARP mapping and hostname published, its virtual side up; a
    /// dynamic node's waits in [`SelfConfig::poll`] for a confirmed lease,
    /// whose claim doubles as the mapping.
    pub(crate) fn start(&mut self, overlay: &mut OverlayNode, now: SimTime, plane: &mut DataPlane) {
        self.started_at = now;
        if self.allocator.is_none() {
            let ip = plane.ip();
            plane.publish_mapping(overlay, now, ip);
            self.register_name(overlay, now, ip);
            plane.bind(now, ip);
        }
    }

    /// One pass: drive the allocator, match lost leases, and route the
    /// DHT's create and get replies to the lookups that issued them. Returns
    /// whether the allocator changed state or the address came or went —
    /// what only the next pass acts on — and the get replies nothing here
    /// claimed, Brunet-ARP's.
    pub(crate) fn poll(
        &mut self,
        overlay: &mut OverlayNode,
        now: SimTime,
        plane: &mut DataPlane,
    ) -> (bool, Vec<(u64, Option<Bytes>)>) {
        let before = self.state(plane);
        // Drive the DHCP-over-DHT state machine until the lease is
        // confirmed, then bring the virtual side up. Claiming waits for ring
        // neighbours on both sides so a half-converged ring cannot
        // split-brain the atomic create. The machine keeps running after the
        // first bind: a lease lost to a healed partition re-claims, and the
        // node re-binds to the replacement address when it confirms.
        if let Some(alloc) = self.allocator.as_mut() {
            let ready = overlay.connections().count_kind(ConnectionKind::Near) >= 2
                || (overlay.is_connected()
                    && now.saturating_since(self.started_at) >= CLAIM_FALLBACK);
            alloc.poll(now, ready, overlay);
            match alloc.state() {
                DhcpState::Bound { ip } if ip != plane.ip() => {
                    plane.bind(now, ip);
                    self.register_name(overlay, now, ip);
                }
                // Re-allocation after a lost lease can end terminally (budget
                // spent, subnet exhausted). The old address belongs to the
                // partition winner now — relinquish it rather than keep
                // running as a zombie duplicate.
                DhcpState::Failed | DhcpState::AddressSpaceExhausted if plane.is_live() => {
                    self.relinquish(overlay, now, plane);
                }
                _ => {}
            }
        }
        // Lost leases: a TTL/2 renewal found a conflicting record owning our
        // address key (healed partition). The winner owns the address *now*
        // — tear the virtual side down at once and re-allocate.
        for key in overlay.take_lost_leases() {
            let Some(alloc) = self.allocator.as_mut() else {
                continue;
            };
            if alloc.ip().map(lease_key) == Some(key) {
                alloc.on_lease_lost(now, overlay);
                if plane.is_live() {
                    self.relinquish(overlay, now, plane);
                }
            }
        }
        // Allocation claims. `existing` tells a real collision (draw a fresh
        // candidate) from a quorum-write failure (retry the same address).
        for (token, created, existing) in overlay.take_dht_create_replies() {
            if let Some(alloc) = self.allocator.as_mut() {
                alloc.on_create_reply(now, token, created, existing.is_some(), overlay);
            }
        }
        let unclaimed = overlay
            .take_dht_replies()
            .into_iter()
            .filter(|(token, value)| !self.on_get_reply(overlay, now, *token, value.as_deref()))
            .collect();
        (self.state(plane) != before, unclaimed)
    }

    /// What a pass acts on next: the allocator's state and the address.
    fn state(&self, plane: &DataPlane) -> (Option<DhcpState>, Ipv4Addr) {
        (
            self.allocator.as_ref().map(DhcpAllocator::state),
            plane.ip(),
        )
    }

    /// Hand a DHT get reply to the lookup that issued it — the allocator's
    /// confirm, a name or reverse lookup, or a probe. False when none did.
    fn on_get_reply(
        &mut self,
        overlay: &mut OverlayNode,
        now: SimTime,
        token: u64,
        value: Option<&[u8]>,
    ) -> bool {
        if let Some(alloc) = self.allocator.as_mut() {
            if alloc.on_get_reply(now, token, value, overlay) {
                return true;
            }
        }
        if let Some(res) = self.names.on_reply(now, token, value) {
            self.name_results.push(res);
        } else if let Some(res) = self.names.on_reverse_reply(now, token, value) {
            self.reverse_results.push(res);
        } else if self.probes.answered(token).is_some() {
            let mapped = value.and_then(BrunetArp::decode_mapping);
            self.probe_results.push((token, mapped));
        } else {
            return false;
        }
        true
    }

    /// Give up the virtual address: the lease is gone and no replacement
    /// could be allocated. The node degrades to its pre-bind state.
    fn relinquish(&mut self, overlay: &mut OverlayNode, now: SimTime, plane: &mut DataPlane) {
        self.unregister_name(overlay, now, plane.ip());
        plane.relinquish();
    }

    fn register_name(&self, overlay: &mut OverlayNode, now: SimTime, ip: Ipv4Addr) {
        if let Some(name) = &self.hostname {
            NameService::register(overlay, now, name, ip, self.lease_ttl);
        }
    }

    fn unregister_name(&self, overlay: &mut OverlayNode, now: SimTime, ip: Ipv4Addr) {
        if let Some(name) = &self.hostname {
            NameService::unregister(overlay, now, name, ip);
        }
    }

    /// Issue a Brunet-ARP resolution probe for `ip`; the answer lands in
    /// `probe_results` under the returned token.
    pub(crate) fn probe(&mut self, overlay: &mut OverlayNode, now: SimTime, ip: Ipv4Addr) -> u64 {
        let token = overlay.dht_get(now, BrunetArp::key_for(ip));
        self.probes.issued(now, token, ip);
        token
    }

    /// Graceful leave: release the lease (if any) and the hostname of the
    /// address `ip` the node holds (unspecified: none).
    pub(crate) fn leave(&mut self, overlay: &mut OverlayNode, now: SimTime, ip: Ipv4Addr) {
        if let Some(alloc) = self.allocator.as_mut() {
            alloc.release(now, overlay);
        }
        if !ip.is_unspecified() {
            self.unregister_name(overlay, now, ip);
        }
    }
}
