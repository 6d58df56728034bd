//! The physical network: sites, hosts, and the packet delivery path.
//!
//! [`Network`] is the "world" type driven by the discrete-event simulator. It owns
//! every site (LAN + access links + firewall + NAT) and every host (CPU model +
//! agent), and implements the transmit path: source-host CPU queueing, outbound
//! firewall and NAT processing, link-by-link latency/bandwidth, inbound NAT and
//! firewall processing at the destination site, destination-host CPU queueing and
//! finally agent dispatch.
//!
//! [`NetworkSim`] owns a `Network`, the one [`EventQueue`] of [`NetEvent`]s and
//! the virtual clock, and runs the event loop used by the examples, tests and
//! the experiment harness.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use ipop_packet::ipv4::{Ipv4Packet, Ipv4Payload};
use ipop_simcore::{Duration, EventId, EventQueue, SimTime, StreamRng, TimerToken};

use crate::calibration::Calibration;
use crate::firewall::Direction;
use crate::host::{Host, HostAgent, HostCtx, HostId};
use crate::impair::{corrupt_packet, ImpairmentCounters, LinkImpairment};
use crate::link::LinkOutcome;
use crate::site::{Site, SiteSpec};

/// Identifier of a site in the network.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SiteId(pub usize);

/// The typed event payload of the network simulation.
///
/// Every event on the packet hot path is one of these variants, dispatched by
/// `match` — scheduling costs no heap allocation, unlike a boxed closure.
#[derive(Debug)]
pub enum NetEvent {
    /// Call a host agent's `on_start` (scheduled once per host by
    /// [`NetworkSim::start`]).
    Start(HostId),
    /// Fire a timer armed via [`HostCtx::set_timer`]. It reaches the agent only
    /// while `epoch` is still the host's agent epoch, i.e. the agent that armed
    /// it has not been replaced since.
    Timer {
        /// The host whose agent armed the timer.
        host: HostId,
        /// The label handed back to [`HostAgent::on_timer`].
        token: TimerToken,
        /// The host's agent epoch when the timer was armed.
        epoch: u32,
    },
    /// A packet finishes its final link and arrives at the destination NIC;
    /// receive-side kernel processing then queues on the host CPU.
    ///
    /// The packet is boxed so heap entries stay small (the queue moves entries
    /// during sift operations); the same box travels on into [`NetEvent::Deliver`],
    /// so the whole delivery costs a single allocation.
    Arrival {
        /// Destination host.
        dst: HostId,
        /// The arriving packet.
        pkt: Box<Ipv4Packet>,
    },
    /// Receive-side kernel processing is done; hand the packet to the agent.
    Deliver {
        /// Destination host.
        dst: HostId,
        /// The delivered packet.
        pkt: Box<Ipv4Packet>,
    },
}

/// The scheduling handle a running event lends to the data path and, through
/// [`HostCtx`], to agents: the current instant and the network's event queue.
pub(crate) struct Control<'q> {
    now: SimTime,
    queue: &'q mut EventQueue<NetEvent>,
}

impl Control<'_> {
    /// Current virtual time.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at `at`, clamped to now: nothing lands in the past.
    pub(crate) fn schedule_at(&mut self, at: SimTime, event: NetEvent) -> EventId {
        self.queue.push(at.max(self.now), event)
    }

    /// Cancel a pending event; false if it already fired or was cancelled.
    pub(crate) fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }
}

impl NetEvent {
    fn fire(self, net: &mut Network, ctl: &mut Control<'_>) {
        match self {
            NetEvent::Start(host) => {
                Network::dispatch(net, ctl, host, |agent, ctx| agent.on_start(ctx));
            }
            NetEvent::Timer { host, token, epoch } => {
                if net.hosts[host.0].agent_epoch == epoch {
                    Network::dispatch(net, ctl, host, |agent, ctx| agent.on_timer(ctx, token));
                }
            }
            NetEvent::Arrival { dst, pkt } => {
                // Receive-side kernel processing queues on the destination CPU.
                let kernel_cost = net.calibration.kernel_stack_cost;
                let deliver_at = net.hosts[dst.0].occupy_cpu(ctl.now(), kernel_cost);
                ctl.schedule_at(deliver_at, NetEvent::Deliver { dst, pkt });
            }
            NetEvent::Deliver { dst, pkt } => Network::dispatch(net, ctl, dst, |agent, ctx| {
                ctx.net.counters.delivered += 1;
                let counters = &mut ctx.net.hosts[dst.0].counters;
                counters.rx_packets += 1;
                counters.rx_bytes += pkt.wire_len() as u64;
                agent.on_packet(ctx, *pkt);
            }),
        }
    }
}

/// Network-wide drop/delivery counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetCounters {
    /// Packets delivered to an agent.
    pub delivered: u64,
    /// Packets with no matching destination host or NAT mapping target.
    pub unroutable: u64,
    /// Packets dropped by an outbound firewall policy.
    pub firewall_out_dropped: u64,
    /// Packets dropped by an inbound firewall policy.
    pub firewall_in_dropped: u64,
    /// Packets filtered by a NAT (no mapping or disallowed sender).
    pub nat_filtered: u64,
    /// Packets dropped by a link (queue overflow).
    pub link_dropped: u64,
    /// Packets dropped because source and destination host are currently in
    /// different partition groups (see [`Network::set_partition_group`]).
    pub partition_dropped: u64,
    /// Packets dropped by a link impairment (see
    /// [`Network::set_link_impairment`]).
    pub impair_dropped: u64,
    /// Extra packet copies delivered by a duplicating impairment.
    pub impair_duplicated: u64,
    /// Packets whose payload bytes a corrupting impairment flipped.
    pub impair_corrupted: u64,
    /// Packets a reordering impairment held back past later traffic.
    pub impair_reordered: u64,
}

/// The core latency/jitter applied between any two distinct sites.
#[derive(Clone, Copy, Debug)]
pub struct CoreParams {
    /// One-way latency across the wide-area core.
    pub latency: Duration,
    /// Jitter standard deviation.
    pub jitter: Duration,
}

impl Default for CoreParams {
    fn default() -> Self {
        CoreParams {
            latency: Duration::from_millis(12),
            jitter: Duration::from_micros(300),
        }
    }
}

/// The simulated physical network.
pub struct Network {
    /// Host-processing calibration constants.
    pub calibration: Calibration,
    /// Wide-area core parameters.
    pub core: CoreParams,
    sites: Vec<Site>,
    hosts: Vec<Host>,
    addr_to_host: BTreeMap<Ipv4Addr, HostId>,
    nat_public_to_site: BTreeMap<Ipv4Addr, SiteId>,
    counters: NetCounters,
    link_rng: StreamRng,
    host_rng_seed: u64,
    /// Partition group per host (indexed by `HostId`); packets between hosts
    /// in different groups are dropped in the core. Empty = no partition.
    partition: Vec<u8>,
    /// Per-pair link impairments (normalized `(min, max)` host keys — an
    /// impairment is symmetric) with their per-link counters. `BTreeMap` for
    /// deterministic iteration in diagnostics.
    impairments: BTreeMap<(usize, usize), (LinkImpairment, ImpairmentCounters)>,
    /// Impairment applied to every pair without a specific entry.
    default_impairment: Option<(LinkImpairment, ImpairmentCounters)>,
    /// Dedicated stream for impairment draws: seeded separately from the link
    /// stream so enabling an impairment never perturbs the link-level jitter
    /// draws of unimpaired runs.
    impair_rng: StreamRng,
}

impl Network {
    /// An empty network seeded for reproducibility.
    pub fn new(seed: u64) -> Self {
        Network {
            calibration: Calibration::default(),
            core: CoreParams::default(),
            sites: Vec::new(),
            hosts: Vec::new(),
            addr_to_host: BTreeMap::new(),
            nat_public_to_site: BTreeMap::new(),
            counters: NetCounters::default(),
            link_rng: StreamRng::new(seed, "netsim.links"),
            host_rng_seed: seed,
            partition: Vec::new(),
            impairments: BTreeMap::new(),
            default_impairment: None,
            impair_rng: StreamRng::new(seed, "netsim.impair"),
        }
    }

    // ------------------------------------------------------------------ building

    /// Add a site.
    pub fn add_site(&mut self, spec: SiteSpec) -> SiteId {
        let id = SiteId(self.sites.len());
        let site = Site::from_spec(spec);
        if let Some(nat) = &site.nat {
            self.nat_public_to_site.insert(nat.public_ip(), id);
        }
        self.sites.push(site);
        id
    }

    /// Add a host with CPU load 1.0.
    pub fn add_host(&mut self, name: &str, site: SiteId, addr: Ipv4Addr) -> HostId {
        self.add_host_with_load(name, site, addr, 1.0)
    }

    /// Add a host with an explicit CPU load factor.
    pub fn add_host_with_load(
        &mut self,
        name: &str,
        site: SiteId,
        addr: Ipv4Addr,
        load: f64,
    ) -> HostId {
        assert!(site.0 < self.sites.len(), "unknown site");
        assert!(
            !self.addr_to_host.contains_key(&addr),
            "duplicate physical address {addr}"
        );
        let id = HostId(self.hosts.len());
        let rng = StreamRng::new(self.host_rng_seed, &format!("netsim.host.{name}.{}", id.0));
        self.hosts
            .push(Host::new(id, name.to_string(), site, addr, load, rng));
        self.addr_to_host.insert(addr, id);
        id
    }

    /// Install the agent for a host, replacing any existing one. Timers the
    /// replaced agent left pending are dropped when they come due.
    pub fn set_agent(&mut self, host: HostId, agent: Box<dyn HostAgent>) {
        let host = &mut self.hosts[host.0];
        host.agent = Some(agent);
        host.agent_epoch += 1;
    }

    // ----------------------------------------------------------------- accessors

    /// Borrow a host.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.0]
    }

    /// Can `host` receive unsolicited traffic from anywhere on the network?
    /// True when its address is not hidden behind a site NAT and the site
    /// firewall (if any) admits unsolicited inbound traffic by default. Overlay
    /// deployments use this to choose a bootstrap node everyone can reach.
    pub fn publicly_reachable(&self, host: HostId) -> bool {
        let host = &self.hosts[host.0];
        let site = &self.sites[host.site.0];
        if site.is_private_addr(host.addr) {
            return false;
        }
        site.firewall
            .as_ref()
            .is_none_or(|fw| fw.accepts_unsolicited_inbound())
    }

    /// Borrow a host mutably.
    pub fn host_mut(&mut self, id: HostId) -> &mut Host {
        &mut self.hosts[id.0]
    }

    /// All hosts.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Borrow a site.
    pub fn site(&self, id: SiteId) -> &Site {
        &self.sites[id.0]
    }

    /// Find a host by its physical address.
    pub fn host_by_addr(&self, addr: Ipv4Addr) -> Option<HostId> {
        self.addr_to_host.get(&addr).copied()
    }

    /// Find a host by name.
    pub fn host_by_name(&self, name: &str) -> Option<HostId> {
        self.hosts.iter().find(|h| h.name == name).map(|h| h.id)
    }

    /// Network-wide counters.
    pub fn counters(&self) -> NetCounters {
        self.counters
    }

    /// Put `host` in partition group `group`. Hosts in different groups
    /// cannot exchange packets (dropped in the core, counted in
    /// [`NetCounters::partition_dropped`]) until [`Network::heal_partition`].
    /// Models a network split — hosts stay up, unlike a crash.
    pub fn set_partition_group(&mut self, host: HostId, group: u8) {
        if self.partition.len() < self.hosts.len() {
            self.partition.resize(self.hosts.len(), 0);
        }
        self.partition[host.0] = group;
    }

    /// Remove any partition: every pair of hosts can talk again.
    pub fn heal_partition(&mut self) {
        self.partition.clear();
    }

    /// Are two hosts currently separated by a partition?
    pub fn partitioned(&self, a: HostId, b: HostId) -> bool {
        if self.partition.is_empty() {
            return false;
        }
        let group = |h: HostId| self.partition.get(h.0).copied().unwrap_or(0);
        group(a) != group(b)
    }

    /// Normalized (symmetric) impairment key for a host pair.
    fn impair_key(a: HostId, b: HostId) -> (usize, usize) {
        (a.0.min(b.0), a.0.max(b.0))
    }

    /// Impair the path between `a` and `b` (both directions): every packet
    /// between them is subjected to the impairment's loss / duplication /
    /// corruption / reordering draws on the delivery path. Replaces any
    /// previous impairment on the pair; composes with partitions (a partition
    /// drops the packet before the impairment is consulted).
    pub fn set_link_impairment(&mut self, a: HostId, b: HostId, imp: LinkImpairment) {
        self.impairments
            .insert(Self::impair_key(a, b), (imp, ImpairmentCounters::default()));
    }

    /// Remove the impairment between `a` and `b` (pair-specific entries only;
    /// the default impairment, if any, applies again).
    pub fn clear_link_impairment(&mut self, a: HostId, b: HostId) {
        self.impairments.remove(&Self::impair_key(a, b));
    }

    /// Impair every host pair without a pair-specific entry (e.g. 1% global
    /// loss). Pair-specific impairments take precedence.
    pub fn set_default_impairment(&mut self, imp: LinkImpairment) {
        self.default_impairment = Some((imp, ImpairmentCounters::default()));
    }

    /// Remove every impairment — pair-specific and default.
    pub fn heal_impairments(&mut self) {
        self.impairments.clear();
        self.default_impairment = None;
    }

    /// Counters of the impairment on pair `(a, b)`, if one is set.
    pub fn impairment_counters(&self, a: HostId, b: HostId) -> Option<ImpairmentCounters> {
        self.impairments
            .get(&Self::impair_key(a, b))
            .map(|(_, c)| *c)
    }

    /// Counters of the default (all-pairs) impairment, if one is set.
    pub fn default_impairment_counters(&self) -> Option<ImpairmentCounters> {
        self.default_impairment.as_ref().map(|(_, c)| *c)
    }

    /// Downcast a host's agent to a concrete type.
    pub fn agent_as<T: 'static>(&self, host: HostId) -> Option<&T> {
        self.hosts[host.0]
            .agent
            .as_deref()
            .and_then(|a| a.as_any().downcast_ref::<T>())
    }

    /// Downcast a host's agent to a concrete type, mutably.
    pub fn agent_as_mut<T: 'static>(&mut self, host: HostId) -> Option<&mut T> {
        self.hosts[host.0]
            .agent
            .as_deref_mut()
            .and_then(|a| a.as_any_mut().downcast_mut::<T>())
    }

    // ----------------------------------------------------------------- data path

    /// Ports relevant for NAT/firewall processing: transport ports, or the ICMP
    /// identifier for echo traffic.
    fn flow_ports(pkt: &Ipv4Packet) -> (u16, u16) {
        match (&pkt.payload, pkt.ports()) {
            (_, Some(p)) => p,
            (Ipv4Payload::Icmp(icmp), None) => (icmp.identifier, icmp.identifier),
            _ => (0, 0),
        }
    }

    fn rewrite_src(pkt: &mut Ipv4Packet, addr: Ipv4Addr, port: u16) {
        pkt.header.src = addr;
        match &mut pkt.payload {
            Ipv4Payload::Udp(u) => u.src_port = port,
            Ipv4Payload::Tcp(t) => t.src_port = port,
            Ipv4Payload::Icmp(i) => i.identifier = port,
            Ipv4Payload::Raw(..) => {}
        }
    }

    fn rewrite_dst(pkt: &mut Ipv4Packet, addr: Ipv4Addr, port: u16) {
        pkt.header.dst = addr;
        match &mut pkt.payload {
            Ipv4Payload::Udp(u) => u.dst_port = port,
            Ipv4Payload::Tcp(t) => t.dst_port = port,
            Ipv4Payload::Icmp(i) => i.identifier = port,
            Ipv4Payload::Raw(..) => {}
        }
    }

    /// Transmit a packet from `src_host`. Called by [`HostCtx::send_with_processing`].
    pub(crate) fn transmit(
        &mut self,
        ctl: &mut Control<'_>,
        src_host: HostId,
        mut pkt: Ipv4Packet,
        extra_processing: Duration,
    ) {
        let now = ctl.now();
        let bytes = pkt.wire_len();
        let kernel_cost = self.calibration.kernel_stack_cost;

        // 1. Source host: accounting and CPU queueing.
        let (depart, src_site_id) = {
            let host = &mut self.hosts[src_host.0];
            host.counters.tx_packets += 1;
            host.counters.tx_bytes += bytes as u64;
            (
                host.occupy_cpu(now, kernel_cost + extra_processing),
                host.site,
            )
        };

        let dst_ip = pkt.dst();

        // 2. Same-site delivery: only the LAN segment is involved.
        if let Some(&dst_host) = self.addr_to_host.get(&dst_ip) {
            if self.hosts[dst_host.0].site == src_site_id {
                let outcome =
                    self.sites[src_site_id.0]
                        .lan
                        .transmit(now, depart, bytes, &mut self.link_rng);
                match outcome {
                    LinkOutcome::Delivered(arrival) => {
                        self.schedule_delivery(ctl, src_host, dst_host, pkt, arrival)
                    }
                    LinkOutcome::Dropped => self.counters.link_dropped += 1,
                }
                return;
            }
        }

        // 3. Leaving the source site: outbound firewall, then NAT.
        if let Some(fw) = &mut self.sites[src_site_id.0].firewall {
            if !fw.permit(Direction::Outbound, &pkt) {
                self.counters.firewall_out_dropped += 1;
                return;
            }
        }
        // NAT/firewall flow ports, computed once for the whole trip; refreshed
        // only when a NAT rewrite actually changes the packet.
        let mut ports = Self::flow_ports(&pkt);
        let src_is_private = self.sites[src_site_id.0].is_private_addr(pkt.src());
        if src_is_private {
            if let Some(nat) = &mut self.sites[src_site_id.0].nat {
                let (pub_ip, pub_port) = nat.outbound((pkt.src(), ports.0), (dst_ip, ports.1));
                Self::rewrite_src(&mut pkt, pub_ip, pub_port);
                ports = Self::flow_ports(&pkt);
            }
        }

        // 4. Source LAN and access link.
        let mut t = depart;
        {
            let Network {
                sites,
                link_rng,
                counters,
                ..
            } = self;
            let site = &mut sites[src_site_id.0];
            for link in [&mut site.lan, &mut site.access_up] {
                match link.transmit(now, t, bytes, link_rng) {
                    LinkOutcome::Delivered(arrival) => t = arrival,
                    LinkOutcome::Dropped => {
                        counters.link_dropped += 1;
                        return;
                    }
                }
            }
        }

        // 5. Wide-area core.
        t += self.core.latency;
        if !self.core.jitter.is_zero() {
            t += self.link_rng.normal(Duration::ZERO, self.core.jitter);
        }

        // 6. Resolve the destination: a NAT's public address or a host address.
        let (dst_site_id, dst_host) = if let Some(&site_id) = self.nat_public_to_site.get(&dst_ip) {
            let internal = {
                let nat = self.sites[site_id.0].nat.as_mut().expect("nat site");
                nat.inbound(ports.1, (pkt.src(), ports.0))
            };
            match internal {
                Some((internal_ip, internal_port)) => {
                    Self::rewrite_dst(&mut pkt, internal_ip, internal_port);
                    match self.addr_to_host.get(&internal_ip) {
                        Some(&h) => (site_id, h),
                        None => {
                            self.counters.unroutable += 1;
                            return;
                        }
                    }
                }
                None => {
                    self.counters.nat_filtered += 1;
                    return;
                }
            }
        } else if let Some(&h) = self.addr_to_host.get(&dst_ip) {
            let site_id = self.hosts[h.0].site;
            // A private address is not reachable from outside its site.
            if self.sites[site_id.0].is_private_addr(dst_ip) {
                self.counters.unroutable += 1;
                return;
            }
            (site_id, h)
        } else {
            self.counters.unroutable += 1;
            return;
        };

        // 7. Destination-site inbound firewall.
        if let Some(fw) = &mut self.sites[dst_site_id.0].firewall {
            if !fw.permit(Direction::Inbound, &pkt) {
                self.counters.firewall_in_dropped += 1;
                return;
            }
        }

        // 8. Destination access link and LAN.
        {
            let Network {
                sites,
                link_rng,
                counters,
                ..
            } = self;
            let site = &mut sites[dst_site_id.0];
            for link in [&mut site.access_down, &mut site.lan] {
                match link.transmit(now, t, bytes, link_rng) {
                    LinkOutcome::Delivered(arrival) => t = arrival,
                    LinkOutcome::Dropped => {
                        counters.link_dropped += 1;
                        return;
                    }
                }
            }
        }

        self.schedule_delivery(ctl, src_host, dst_host, pkt, t);
    }

    fn schedule_delivery(
        &mut self,
        ctl: &mut Control<'_>,
        src: HostId,
        dst: HostId,
        pkt: Ipv4Packet,
        arrival: SimTime,
    ) {
        // An active partition severs connectivity between groups; the packet
        // vanishes in the network, exactly like a mid-path outage.
        if self.partitioned(src, dst) {
            self.counters.partition_dropped += 1;
            return;
        }
        // Impairment layer: the pair-specific entry wins over the default.
        let slot = match self.impairments.get_mut(&Self::impair_key(src, dst)) {
            Some(slot) => Some(slot),
            None => self.default_impairment.as_mut(),
        };
        let Some((imp, counters)) = slot else {
            ctl.schedule_at(
                arrival,
                NetEvent::Arrival {
                    dst,
                    pkt: Box::new(pkt),
                },
            );
            return;
        };
        let rng = &mut self.impair_rng;
        if imp.loss > 0.0 && rng.chance(imp.loss) {
            counters.dropped += 1;
            self.counters.impair_dropped += 1;
            return;
        }
        let mut pkt = pkt;
        if imp.corrupt > 0.0 && rng.chance(imp.corrupt) && corrupt_packet(&mut pkt, rng) {
            counters.corrupted += 1;
            self.counters.impair_corrupted += 1;
        }
        let window_ns = imp.reorder_window.max(Duration::from_micros(1)).as_nanos();
        if imp.duplicate > 0.0 && rng.chance(imp.duplicate) {
            counters.duplicated += 1;
            self.counters.impair_duplicated += 1;
            let copy_at = arrival + Duration::from_nanos(rng.range_u64(1, window_ns + 1));
            ctl.schedule_at(
                copy_at,
                NetEvent::Arrival {
                    dst,
                    pkt: Box::new(pkt.clone()),
                },
            );
        }
        let mut arrival = arrival;
        if imp.reorder > 0.0 && rng.chance(imp.reorder) {
            counters.reordered += 1;
            self.counters.impair_reordered += 1;
            // Hold the packet back so later traffic can overtake it.
            arrival += Duration::from_nanos(rng.range_u64(1, window_ns + 1));
        }
        ctl.schedule_at(
            arrival,
            NetEvent::Arrival {
                dst,
                pkt: Box::new(pkt),
            },
        );
    }

    /// Take `host`'s agent out, hand it a [`HostCtx`] through `call`, and put
    /// it back unless the call installed a replacement. A host without an
    /// agent ignores the event.
    fn dispatch(
        net: &mut Network,
        ctl: &mut Control<'_>,
        host: HostId,
        call: impl FnOnce(&mut dyn HostAgent, &mut HostCtx<'_, '_>),
    ) {
        let Some(mut agent) = net.hosts[host.0].agent.take() else {
            return;
        };
        call(agent.as_mut(), &mut HostCtx { net, ctl, host });
        if net.hosts[host.0].agent.is_none() {
            net.hosts[host.0].agent = Some(agent);
        }
    }
}

/// A network with its event queue and virtual clock: the packet simulation.
pub struct NetworkSim {
    net: Network,
    queue: EventQueue<NetEvent>,
    now: SimTime,
    executed: u64,
    started: bool,
}

impl NetworkSim {
    /// Wrap a network, with the clock at zero and nothing scheduled.
    pub fn new(net: Network) -> Self {
        NetworkSim {
            net,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            executed: 0,
            started: false,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Borrow the network.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Borrow the network mutably.
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Schedule every host's `on_start` at the current time (idempotent).
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.net.host_count() {
            self.queue.push(self.now, NetEvent::Start(HostId(i)));
        }
    }

    /// Schedule `on_start` for one host at the current virtual time. Used for
    /// agents installed (via [`Network::set_agent`]) *after* the simulation
    /// started — mid-run joiners in churn workloads; [`NetworkSim::start`]
    /// only reaches agents present at time zero.
    pub fn start_host(&mut self, host: HostId) {
        self.queue.push(self.now, NetEvent::Start(host));
    }

    /// Run until the event queue drains (all agents idle).
    pub fn run(&mut self) {
        self.run_until(SimTime::MAX);
    }

    /// Run for a span of virtual time.
    pub fn run_for(&mut self, span: Duration) {
        self.run_until(self.now + span);
    }

    /// Run every event due at or before `t`, in `(time, scheduling order)`.
    /// The clock then stands at `t` if events remain past it, or at the last
    /// event run if the queue drained. A `t` before [`NetworkSim::now`] runs
    /// nothing: the clock never runs backwards.
    pub fn run_until(&mut self, t: SimTime) {
        self.start();
        while let Some(at) = self.queue.next_time() {
            if at > t {
                self.now = self.now.max(t);
                return;
            }
            let ev = self.queue.pop().expect("next_time saw a pending event");
            self.now = ev.at;
            self.executed += 1;
            let mut ctl = Control {
                now: self.now,
                queue: &mut self.queue,
            };
            ev.payload.fire(&mut self.net, &mut ctl);
        }
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending in the queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Downcast a host's agent.
    pub fn agent_as<T: 'static>(&self, host: HostId) -> Option<&T> {
        self.net.agent_as::<T>(host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firewall::Firewall;
    use crate::host::TimerId;
    use crate::link::LinkParams;
    use crate::nat::{NatBox, NatType};
    use crate::site::{Prefix, SiteSpec};
    use ipop_packet::udp::UdpDatagram;
    use std::any::Any;

    /// A test agent: sends one UDP datagram at start (if told to), echoes
    /// everything it receives back to the sender, and records what it saw.
    struct EchoAgent {
        send_to: Option<(Ipv4Addr, u16)>,
        received: Vec<(Ipv4Addr, Vec<u8>)>,
        received_at: Vec<SimTime>,
        timers: Vec<TimerToken>,
    }

    impl EchoAgent {
        fn new(send_to: Option<(Ipv4Addr, u16)>) -> Self {
            EchoAgent {
                send_to,
                received: Vec::new(),
                received_at: Vec::new(),
                timers: Vec::new(),
            }
        }
    }

    impl HostAgent for EchoAgent {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
            if let Some((dst, port)) = self.send_to {
                let pkt = Ipv4Packet::new(
                    ctx.addr(),
                    dst,
                    Ipv4Payload::Udp(UdpDatagram::new(4000, port, b"ping".to_vec())),
                );
                ctx.send(pkt);
            }
            ctx.set_timer(Duration::from_secs(5), TimerToken(42));
        }

        fn on_packet(&mut self, ctx: &mut HostCtx<'_, '_>, pkt: Ipv4Packet) {
            self.received_at.push(ctx.now());
            if let Ipv4Payload::Udp(udp) = &pkt.payload {
                self.received.push((pkt.src(), udp.payload.to_vec()));
                if udp.payload == b"ping" {
                    let reply = Ipv4Packet::new(
                        ctx.addr(),
                        pkt.src(),
                        Ipv4Payload::Udp(UdpDatagram::new(
                            udp.dst_port,
                            udp.src_port,
                            b"pong".to_vec(),
                        )),
                    );
                    ctx.send(reply);
                }
            }
        }

        fn on_timer(&mut self, _ctx: &mut HostCtx<'_, '_>, token: TimerToken) {
            self.timers.push(token);
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    #[test]
    fn same_site_round_trip_is_sub_millisecond() {
        let mut net = Network::new(1);
        let acis = net.add_site(SiteSpec::open("ACIS"));
        let a = net.add_host("F2", acis, ip(10, 1, 0, 2));
        let b = net.add_host("F4", acis, ip(10, 1, 0, 4));
        net.set_agent(a, Box::new(EchoAgent::new(Some((ip(10, 1, 0, 4), 9000)))));
        net.set_agent(b, Box::new(EchoAgent::new(None)));
        let mut sim = NetworkSim::new(net);
        sim.run_for(Duration::from_secs(1));
        let replies = &sim.agent_as::<EchoAgent>(a).unwrap().received;
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].1, b"pong");
        let rtt = sim.agent_as::<EchoAgent>(a).unwrap().received_at[0];
        assert!(
            rtt.saturating_since(SimTime::ZERO) < Duration::from_millis(2),
            "LAN rtt {rtt}"
        );
        assert_eq!(sim.net().counters().delivered, 2); // ping delivered at B, pong delivered at A
    }

    #[test]
    fn cross_site_latency_includes_core_and_access() {
        let mut net = Network::new(2);
        net.core.latency = Duration::from_millis(14);
        net.core.jitter = Duration::ZERO;
        let s1 = net.add_site(
            SiteSpec::open("ACIS").with_access(LinkParams::wan(Duration::from_millis(2), 50.0)),
        );
        let s2 = net.add_site(
            SiteSpec::open("VIMS").with_access(LinkParams::wan(Duration::from_millis(2), 50.0)),
        );
        let a = net.add_host("F4", s1, ip(128, 227, 56, 83));
        let b = net.add_host("V1", s2, ip(139, 70, 24, 100));
        net.set_agent(
            a,
            Box::new(EchoAgent::new(Some((ip(139, 70, 24, 100), 9000)))),
        );
        net.set_agent(b, Box::new(EchoAgent::new(None)));
        let mut sim = NetworkSim::new(net);
        sim.run_for(Duration::from_secs(2));
        let agent = sim.agent_as::<EchoAgent>(a).unwrap();
        assert_eq!(agent.received.len(), 1);
        let rtt = agent.received_at[0].saturating_since(SimTime::ZERO);
        // One-way ≈ 2 + 14 + 2 = 18 ms plus LAN/processing; RTT ≈ 36-40 ms.
        assert!(
            rtt >= Duration::from_millis(34) && rtt <= Duration::from_millis(44),
            "WAN rtt {rtt}"
        );
    }

    #[test]
    fn timers_fire() {
        let mut net = Network::new(3);
        let s = net.add_site(SiteSpec::open("X"));
        let a = net.add_host("A", s, ip(10, 0, 0, 1));
        net.set_agent(a, Box::new(EchoAgent::new(None)));
        let mut sim = NetworkSim::new(net);
        sim.run_for(Duration::from_secs(10));
        assert_eq!(
            sim.agent_as::<EchoAgent>(a).unwrap().timers,
            vec![TimerToken(42)]
        );
    }

    /// Arms timers 1 (at 1 s), 2 (at 2 s) and 3 (at 3 s) at start; cancels 3
    /// at once and, when 1 fires, both 1 (too late) and 2 — each twice,
    /// recording what every call returned.
    #[derive(Default)]
    struct CancelAgent {
        armed: Vec<TimerId>,
        fired: Vec<TimerToken>,
        cancels: Vec<bool>,
    }

    impl HostAgent for CancelAgent {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
            for n in 1..=3 {
                let id = ctx.set_timer(Duration::from_secs(n), TimerToken(n));
                self.armed.push(id);
            }
            // A timer can be cancelled in the very call that armed it.
            let doomed = self.armed.pop().unwrap();
            self.cancels.push(ctx.cancel_timer(doomed));
            self.cancels.push(ctx.cancel_timer(doomed));
        }
        fn on_packet(&mut self, _ctx: &mut HostCtx<'_, '_>, _pkt: Ipv4Packet) {}
        fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, token: TimerToken) {
            self.fired.push(token);
            for id in std::mem::take(&mut self.armed) {
                self.cancels.push(ctx.cancel_timer(id));
                self.cancels.push(ctx.cancel_timer(id));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn lone_host(seed: u64, agent: Box<dyn HostAgent>) -> (NetworkSim, HostId) {
        let mut net = Network::new(seed);
        let s = net.add_site(SiteSpec::open("X"));
        let a = net.add_host("A", s, ip(10, 0, 0, 1));
        net.set_agent(a, agent);
        (NetworkSim::new(net), a)
    }

    #[test]
    fn cancelled_timers_never_fire_and_only_a_pending_timer_can_be_cancelled() {
        let (mut sim, a) = lone_host(30, Box::new(CancelAgent::default()));
        sim.run_for(Duration::from_secs(10));
        let agent = sim.agent_as::<CancelAgent>(a).unwrap();
        assert_eq!(agent.fired, vec![TimerToken(1)], "2 and 3 were cancelled");
        assert_eq!(
            agent.cancels,
            vec![
                true, false, // 3: pending, then already cancelled
                false, false, // 1: already fired
                true, false, // 2: pending, then already cancelled
            ]
        );
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn timer_of_a_replaced_agent_is_dropped_silently() {
        // EchoAgent arms a 5 s timer at start. The host "crashes" at 1 s: its
        // agent is replaced, and the successor must never see that timer.
        let (mut sim, a) = lone_host(32, Box::new(EchoAgent::new(None)));
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.pending(), 1, "the 5 s timer is pending");
        sim.net_mut().set_agent(a, Box::new(EchoAgent::new(None)));
        sim.run_for(Duration::from_secs(10));
        assert_eq!(sim.pending(), 0, "the orphaned timer came due");
        // The successor was never started, so any timer it saw was not its own.
        assert!(sim.agent_as::<EchoAgent>(a).unwrap().timers.is_empty());
    }

    /// Arms timers 1..=4 at 1..=4 s on start and records when each fires.
    #[derive(Default)]
    struct Ticker {
        fired: Vec<(SimTime, TimerToken)>,
    }

    impl HostAgent for Ticker {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
            for n in 1..=4 {
                ctx.set_timer(Duration::from_secs(n), TimerToken(n));
            }
        }
        fn on_packet(&mut self, _ctx: &mut HostCtx<'_, '_>, _pkt: Ipv4Packet) {}
        fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, token: TimerToken) {
            self.fired.push((ctx.now(), token));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(s)
    }

    fn tokens(sim: &NetworkSim, host: HostId) -> Vec<u64> {
        let agent = sim.agent_as::<Ticker>(host).unwrap();
        agent.fired.iter().map(|&(_, t)| t.0).collect()
    }

    #[test]
    fn run_until_runs_events_due_at_the_limit_and_resumes_from_it() {
        let (mut sim, a) = lone_host(33, Box::new(Ticker::default()));
        sim.run_until(secs(2));
        assert_eq!(tokens(&sim, a), [1, 2], "the timer due exactly at 2 s ran");
        assert_eq!(sim.now(), secs(2));
        assert_eq!(sim.pending(), 2);
        // 2.5 s: nothing due, so the clock stops at the limit itself.
        sim.run_until(secs(2) + Duration::from_millis(500));
        assert_eq!(sim.now(), secs(2) + Duration::from_millis(500));
        assert_eq!(sim.pending(), 2);
        sim.run_for(Duration::from_secs(1));
        assert_eq!(tokens(&sim, a), [1, 2, 3]);
        assert_eq!(sim.now(), secs(3) + Duration::from_millis(500));
        // Drained: the clock stays at the last event, not at the limit.
        sim.run_for(Duration::from_secs(10));
        assert_eq!(tokens(&sim, a), [1, 2, 3, 4]);
        assert_eq!(sim.now(), secs(4));
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.events_executed(), 5, "one start, four timers");
    }

    #[test]
    fn run_until_an_earlier_time_never_rewinds_the_clock() {
        let (mut sim, a) = lone_host(34, Box::new(Ticker::default()));
        sim.run_for(Duration::from_secs(2));
        sim.run_until(secs(1));
        assert_eq!(sim.now(), secs(2), "the clock never runs backwards");
        assert_eq!(sim.pending(), 2);
        assert_eq!(tokens(&sim, a), [1, 2]);
        // A host started now arms its timers from now, after what already ran.
        sim.net_mut().set_agent(a, Box::new(Ticker::default()));
        sim.start_host(a);
        sim.run_for(Duration::from_secs(1));
        let fired = &sim.agent_as::<Ticker>(a).unwrap().fired;
        assert_eq!(fired, &[(secs(3), TimerToken(1))]);
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut queue = EventQueue::new();
        let mut ctl = Control {
            now: secs(2),
            queue: &mut queue,
        };
        ctl.schedule_at(secs(1), NetEvent::Start(HostId(0)));
        ctl.schedule_at(secs(3), NetEvent::Start(HostId(1)));
        assert_eq!(
            queue.next_time(),
            Some(secs(2)),
            "no event lands in the past"
        );
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn firewall_blocks_unsolicited_but_allows_outbound_initiated() {
        let mut net = Network::new(4);
        let open = net.add_site(SiteSpec::open("UFL"));
        let guarded =
            net.add_site(SiteSpec::open("VIMS").with_firewall(Firewall::default_deny_inbound()));
        let outside = net.add_host("F4", open, ip(128, 227, 56, 83));
        let inside = net.add_host("V1", guarded, ip(139, 70, 24, 100));
        // The outside host pings first: should be dropped by the inbound firewall.
        net.set_agent(
            outside,
            Box::new(EchoAgent::new(Some((ip(139, 70, 24, 100), 9000)))),
        );
        // The inside host also sends to the outside host: allowed, and the reply
        // comes back through the established flow.
        net.set_agent(
            inside,
            Box::new(EchoAgent::new(Some((ip(128, 227, 56, 83), 9000)))),
        );
        let mut sim = NetworkSim::new(net);
        sim.run_for(Duration::from_secs(2));
        assert!(sim.net().counters().firewall_in_dropped >= 1);
        let inside_agent = sim.agent_as::<EchoAgent>(inside).unwrap();
        // The inside host got the pong for its own ping but never saw the outside ping.
        assert_eq!(inside_agent.received.len(), 1);
        assert_eq!(inside_agent.received[0].1, b"pong");
        let outside_agent = sim.agent_as::<EchoAgent>(outside).unwrap();
        // The outside host saw the inside host's ping (and replied to it).
        assert!(outside_agent.received.iter().any(|(_, d)| d == b"ping"));
        // But never received a pong for its own blocked ping.
        assert!(!outside_agent.received.iter().any(|(_, d)| d == b"pong"));
    }

    #[test]
    fn nat_translates_and_replies_flow_back() {
        let mut net = Network::new(5);
        let nat_site = net.add_site(SiteSpec::open("ACIS").with_nat(
            NatBox::new(NatType::PortRestrictedCone, ip(128, 227, 56, 1)),
            Prefix::new(ip(192, 168, 0, 0), 16),
        ));
        let public_site = net.add_site(SiteSpec::open("VIMS"));
        let inside = net.add_host("F2", nat_site, ip(192, 168, 0, 2));
        let outside = net.add_host("V1", public_site, ip(139, 70, 24, 100));
        net.set_agent(
            inside,
            Box::new(EchoAgent::new(Some((ip(139, 70, 24, 100), 9000)))),
        );
        net.set_agent(outside, Box::new(EchoAgent::new(None)));
        let mut sim = NetworkSim::new(net);
        sim.run_for(Duration::from_secs(2));
        let outside_agent = sim.agent_as::<EchoAgent>(outside).unwrap();
        assert_eq!(outside_agent.received.len(), 1);
        // The outside host saw the NAT's public address, not the private one.
        assert_eq!(outside_agent.received[0].0, ip(128, 227, 56, 1));
        // And the reply made it back inside.
        let inside_agent = sim.agent_as::<EchoAgent>(inside).unwrap();
        assert_eq!(inside_agent.received.len(), 1);
        assert_eq!(inside_agent.received[0].1, b"pong");
    }

    #[test]
    fn unsolicited_packet_to_nat_public_ip_is_filtered() {
        let mut net = Network::new(6);
        let nat_site = net.add_site(SiteSpec::open("ACIS").with_nat(
            NatBox::new(NatType::PortRestrictedCone, ip(128, 227, 56, 1)),
            Prefix::new(ip(192, 168, 0, 0), 16),
        ));
        let public_site = net.add_site(SiteSpec::open("VIMS"));
        let _inside = net.add_host("F2", nat_site, ip(192, 168, 0, 2));
        let outside = net.add_host("V1", public_site, ip(139, 70, 24, 100));
        // Outside host sends to the NAT public address without any prior outbound flow.
        net.set_agent(
            outside,
            Box::new(EchoAgent::new(Some((ip(128, 227, 56, 1), 9000)))),
        );
        let mut sim = NetworkSim::new(net);
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.net().counters().nat_filtered, 1);
        assert_eq!(sim.net().counters().delivered, 0);
    }

    #[test]
    fn private_addresses_are_not_routable_from_outside() {
        let mut net = Network::new(7);
        let nat_site = net.add_site(SiteSpec::open("ACIS").with_nat(
            NatBox::new(NatType::FullCone, ip(128, 227, 56, 1)),
            Prefix::new(ip(192, 168, 0, 0), 16),
        ));
        let public_site = net.add_site(SiteSpec::open("VIMS"));
        let _inside = net.add_host("F2", nat_site, ip(192, 168, 0, 2));
        let outside = net.add_host("V1", public_site, ip(139, 70, 24, 100));
        net.set_agent(
            outside,
            Box::new(EchoAgent::new(Some((ip(192, 168, 0, 2), 9000)))),
        );
        let mut sim = NetworkSim::new(net);
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.net().counters().unroutable, 1);
    }

    #[test]
    fn packets_to_unknown_addresses_count_as_unroutable() {
        let mut net = Network::new(8);
        let s = net.add_site(SiteSpec::open("X"));
        let a = net.add_host("A", s, ip(10, 0, 0, 1));
        net.set_agent(a, Box::new(EchoAgent::new(Some((ip(99, 99, 99, 99), 1)))));
        let mut sim = NetworkSim::new(net);
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.net().counters().unroutable, 1);
    }

    #[test]
    fn partition_drops_cross_group_packets_until_healed() {
        let mut net = Network::new(12);
        let s1 = net.add_site(SiteSpec::open("A"));
        let s2 = net.add_site(SiteSpec::open("B"));
        let a = net.add_host("A1", s1, ip(10, 1, 0, 1));
        let b = net.add_host("B1", s2, ip(10, 2, 0, 1));
        net.set_agent(a, Box::new(EchoAgent::new(Some((ip(10, 2, 0, 1), 9000)))));
        net.set_agent(b, Box::new(EchoAgent::new(None)));
        net.set_partition_group(b, 1);
        let mut sim = NetworkSim::new(net);
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.net().counters().partition_dropped, 1);
        assert_eq!(sim.net().counters().delivered, 0);
        assert!(sim.agent_as::<EchoAgent>(b).unwrap().received.is_empty());
        // Heal, then drive a fresh exchange (B pings A): traffic flows again.
        sim.net_mut().heal_partition();
        sim.net_mut()
            .set_agent(b, Box::new(EchoAgent::new(Some((ip(10, 1, 0, 1), 9000)))));
        sim.start_host(b);
        sim.run_for(Duration::from_secs(1));
        assert!(
            sim.net().counters().delivered >= 1,
            "healed partition delivers"
        );
    }

    #[test]
    fn same_site_partition_also_drops() {
        // The partition check runs on the delivery path, so even two hosts on
        // one LAN segment are split when their groups differ.
        let mut net = Network::new(13);
        let s = net.add_site(SiteSpec::open("X"));
        let a = net.add_host("A", s, ip(10, 0, 0, 1));
        let b = net.add_host("B", s, ip(10, 0, 0, 2));
        net.set_agent(a, Box::new(EchoAgent::new(Some((ip(10, 0, 0, 2), 9000)))));
        net.set_agent(b, Box::new(EchoAgent::new(None)));
        net.set_partition_group(a, 1);
        let mut sim = NetworkSim::new(net);
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.net().counters().partition_dropped, 1);
        assert_eq!(sim.net().counters().delivered, 0);
    }

    #[test]
    fn late_started_host_joins_the_simulation() {
        let mut net = Network::new(14);
        let s = net.add_site(SiteSpec::open("X"));
        let a = net.add_host("A", s, ip(10, 0, 0, 1));
        let b = net.add_host("B", s, ip(10, 0, 0, 2));
        net.set_agent(b, Box::new(EchoAgent::new(None)));
        let mut sim = NetworkSim::new(net);
        sim.run_for(Duration::from_secs(1));
        // A's agent arrives mid-run and is started explicitly.
        sim.net_mut()
            .set_agent(a, Box::new(EchoAgent::new(Some((ip(10, 0, 0, 2), 9000)))));
        sim.start_host(a);
        sim.run_for(Duration::from_secs(1));
        let replies = &sim.agent_as::<EchoAgent>(a).unwrap().received;
        assert_eq!(replies.len(), 1, "late joiner sent and got its pong");
    }

    #[test]
    fn host_lookup_helpers() {
        let mut net = Network::new(9);
        let s = net.add_site(SiteSpec::open("X"));
        let a = net.add_host("alpha", s, ip(10, 0, 0, 1));
        assert_eq!(net.host_by_name("alpha"), Some(a));
        assert_eq!(net.host_by_addr(ip(10, 0, 0, 1)), Some(a));
        assert_eq!(net.host_by_name("beta"), None);
        assert_eq!(net.host(a).name, "alpha");
    }

    #[test]
    #[should_panic(expected = "duplicate physical address")]
    fn duplicate_addresses_are_rejected() {
        let mut net = Network::new(10);
        let s = net.add_site(SiteSpec::open("X"));
        net.add_host("A", s, ip(10, 0, 0, 1));
        net.add_host("B", s, ip(10, 0, 0, 1));
    }

    /// One site, two hosts, A pings B. Returns (net, a, b).
    fn ping_pair(seed: u64) -> (Network, HostId, HostId) {
        let mut net = Network::new(seed);
        let s = net.add_site(SiteSpec::open("X"));
        let a = net.add_host("A", s, ip(10, 0, 0, 1));
        let b = net.add_host("B", s, ip(10, 0, 0, 2));
        net.set_agent(a, Box::new(EchoAgent::new(Some((ip(10, 0, 0, 2), 9000)))));
        net.set_agent(b, Box::new(EchoAgent::new(None)));
        (net, a, b)
    }

    #[test]
    fn full_loss_impairment_drops_and_counts() {
        let (mut net, a, b) = ping_pair(20);
        net.set_link_impairment(a, b, LinkImpairment::none().with_loss(1.0));
        let mut sim = NetworkSim::new(net);
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.net().counters().delivered, 0);
        assert_eq!(sim.net().counters().impair_dropped, 1);
        let per_pair = sim.net().impairment_counters(a, b).unwrap();
        assert_eq!(per_pair.dropped, 1);
        // The per-pair key is symmetric.
        assert_eq!(sim.net().impairment_counters(b, a), Some(per_pair));
    }

    /// Sends `count` datagrams to `to` at start and ignores what comes back.
    struct Burst {
        to: Ipv4Addr,
        count: u32,
    }

    impl HostAgent for Burst {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
            for _ in 0..self.count {
                let udp = UdpDatagram::new(4000, 9000, b"data".to_vec());
                ctx.send(Ipv4Packet::new(ctx.addr(), self.to, Ipv4Payload::Udp(udp)));
            }
        }
        fn on_packet(&mut self, _ctx: &mut HostCtx<'_, '_>, _pkt: Ipv4Packet) {}
        fn on_timer(&mut self, _ctx: &mut HostCtx<'_, '_>, _token: TimerToken) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn lossy_link_drops_roughly_the_configured_fraction() {
        let (mut net, a, b) = ping_pair(29);
        let to = ip(10, 0, 0, 2);
        net.set_agent(a, Box::new(Burst { to, count: 10_000 }));
        net.set_link_impairment(a, b, LinkImpairment::none().with_loss(0.3));
        let mut sim = NetworkSim::new(net);
        sim.run_for(Duration::from_secs(10));
        let dropped = sim.net().impairment_counters(a, b).unwrap().dropped;
        assert!((2_500..3_500).contains(&dropped), "dropped {dropped}");
        let delivered = sim.agent_as::<EchoAgent>(b).unwrap().received.len();
        assert_eq!(delivered as u64 + dropped, 10_000);
    }

    #[test]
    fn duplication_delivers_an_extra_copy() {
        let (mut net, a, b) = ping_pair(21);
        net.set_link_impairment(
            a,
            b,
            LinkImpairment::none()
                .with_duplicate(1.0)
                .with_reorder(0.0, Duration::from_millis(2)),
        );
        let mut sim = NetworkSim::new(net);
        sim.run_for(Duration::from_secs(1));
        // The ping and each pong it triggers are all duplicated.
        let pings = sim
            .agent_as::<EchoAgent>(b)
            .unwrap()
            .received
            .iter()
            .filter(|(_, d)| d == b"ping")
            .count();
        assert_eq!(pings, 2, "one original + one duplicate");
        assert!(sim.net().counters().impair_duplicated >= 1);
        assert!(sim.net().impairment_counters(a, b).unwrap().duplicated >= 1);
    }

    #[test]
    fn corruption_flips_payload_but_still_delivers() {
        let (mut net, a, b) = ping_pair(22);
        net.set_link_impairment(a, b, LinkImpairment::none().with_corrupt(1.0));
        let mut sim = NetworkSim::new(net);
        sim.run_for(Duration::from_secs(1));
        let received = &sim.agent_as::<EchoAgent>(b).unwrap().received;
        assert_eq!(received.len(), 1, "corrupted packets are still delivered");
        assert_ne!(received[0].1, b"ping", "payload bytes were flipped");
        assert_eq!(sim.net().counters().impair_corrupted, 1);
        assert_eq!(sim.net().impairment_counters(a, b).unwrap().corrupted, 1);
    }

    #[test]
    fn reordering_delays_but_still_delivers() {
        let (mut net, a, b) = ping_pair(23);
        net.set_link_impairment(
            a,
            b,
            LinkImpairment::none().with_reorder(1.0, Duration::from_millis(50)),
        );
        let mut sim = NetworkSim::new(net);
        sim.run_for(Duration::from_secs(1));
        let agent = sim.agent_as::<EchoAgent>(b).unwrap();
        assert_eq!(agent.received.len(), 1);
        assert!(sim.net().counters().impair_reordered >= 1);
    }

    #[test]
    fn default_impairment_applies_everywhere_but_pair_entry_wins() {
        let (mut net, a, b) = ping_pair(24);
        // Default: total loss. Pair override: clean. The override wins, so the
        // ping goes through and the default counters stay untouched.
        net.set_default_impairment(LinkImpairment::none().with_loss(1.0));
        net.set_link_impairment(a, b, LinkImpairment::none());
        let mut sim = NetworkSim::new(net);
        sim.run_for(Duration::from_secs(1));
        assert!(sim.net().counters().delivered >= 2, "ping + pong delivered");
        assert_eq!(sim.net().default_impairment_counters().unwrap().dropped, 0);
        // Now drop the override: the lossy default applies again.
        sim.net_mut().clear_link_impairment(a, b);
        sim.net_mut()
            .set_agent(a, Box::new(EchoAgent::new(Some((ip(10, 0, 0, 2), 9000)))));
        sim.start_host(a);
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.net().default_impairment_counters().unwrap().dropped, 1);
    }

    #[test]
    fn heal_impairments_restores_clean_delivery() {
        let (mut net, a, b) = ping_pair(25);
        net.set_default_impairment(LinkImpairment::none().with_loss(1.0));
        net.set_link_impairment(a, b, LinkImpairment::none().with_loss(1.0));
        let mut sim = NetworkSim::new(net);
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.net().counters().delivered, 0);
        sim.net_mut().heal_impairments();
        sim.net_mut()
            .set_agent(a, Box::new(EchoAgent::new(Some((ip(10, 0, 0, 2), 9000)))));
        sim.start_host(a);
        sim.run_for(Duration::from_secs(1));
        assert!(sim.net().counters().delivered >= 2, "healed link delivers");
        assert!(sim.net().impairment_counters(a, b).is_none());
        assert!(sim.net().default_impairment_counters().is_none());
    }

    #[test]
    fn partition_drop_takes_precedence_over_impairment() {
        let (mut net, a, b) = ping_pair(26);
        net.set_link_impairment(a, b, LinkImpairment::none().with_loss(1.0));
        net.set_partition_group(a, 1);
        let mut sim = NetworkSim::new(net);
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.net().counters().partition_dropped, 1);
        // The impairment was never consulted for the partition-dropped packet.
        assert_eq!(sim.net().counters().impair_dropped, 0);
        assert_eq!(sim.net().impairment_counters(a, b).unwrap().dropped, 0);
    }

    #[test]
    fn impaired_runs_are_deterministic() {
        let run = || {
            let (mut net, a, b) = ping_pair(27);
            net.set_link_impairment(
                a,
                b,
                LinkImpairment::none()
                    .with_loss(0.3)
                    .with_duplicate(0.3)
                    .with_corrupt(0.3)
                    .with_reorder(0.3, Duration::from_millis(5)),
            );
            let mut sim = NetworkSim::new(net);
            sim.run_for(Duration::from_secs(2));
            let c = sim.net().impairment_counters(a, b).unwrap();
            (c, sim.net().counters().delivered)
        };
        assert_eq!(run(), run(), "same seed, same impairment outcome");
    }
}
