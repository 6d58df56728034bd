//! The IPOP node: the paper's core contribution, assembled as a host agent.
//!
//! One [`IpopHostAgent`] owns everything that runs on a machine participating in an
//! IPOP virtual network (paper Fig. 2):
//!
//! * the **physical network stack** carrying Brunet traffic (UDP or TCP mode),
//! * the **Brunet overlay node** that self-configures connections, traverses NATs
//!   and routes packets on the 160-bit ring,
//! * **self-configuration** ([`crate::selfconfig`]): the DHCP-over-DHT address
//!   lease, the hostname, name lookups and resolution probes,
//! * the **data plane** ([`crate::dataplane`]): the tap device with its
//!   static-ARP "non-existent gateway" adapter, the user-level router between
//!   tap and overlay, and the virtual stack with the unmodified application
//!   ([`crate::app::VirtualApp`]) on it.
//!
//! The agent's pump is a dispatcher: it does the overlay's I/O, hands each
//! component the overlay node and the instant in a fixed order, charges the
//! host CPU for packets forwarded on behalf of others, and arms one wake-up.
//! User-level processing is charged according to [`ipop_netsim::Calibration`],
//! which is what reproduces the 6–10 ms overhead of Table I and the
//! load-dependent behaviour of Fig. 5.

use std::any::Any;
use std::net::Ipv4Addr;

use ipop_netsim::{HostAgent, HostCtx};
use ipop_netstack::{NetStack, StackConfig};
use ipop_overlay::transport::Transport;
use ipop_overlay::{Address, OverlayNode, OverlayStats, StreamEvent};
use ipop_packet::ipv4::Ipv4Packet;
use ipop_packet::Bytes;
use ipop_simcore::{Duration, SimTime, StreamRng, TimerToken};

use crate::app::VirtualApp;
use crate::config::IpopConfig;
use crate::dataplane::{router_charge, DataPlane, IpopMetrics};
use crate::selfconfig::SelfConfig;
use crate::wakeup::Wakeup;

/// A host agent running a full IPOP node plus one application.
pub struct IpopHostAgent {
    phys: NetStack,
    transport: Transport,
    overlay: OverlayNode,
    selfconfig: SelfConfig,
    dataplane: DataPlane,
    next_overlay_tick: SimTime,
    wakeup: Wakeup,
    last_forwarded: u64,
}

impl IpopHostAgent {
    /// Build an IPOP node for a host whose physical interface address is
    /// `phys_addr`, running `app` on the virtual network.
    pub fn new(mut cfg: IpopConfig, phys_addr: Ipv4Addr, app: Box<dyn VirtualApp>) -> Self {
        // Static nodes derive everything from the virtual IP; dynamic nodes
        // have none yet, so they seed from the (unique) physical address.
        let dynamic = cfg.dynamic_subnet.is_some();
        let seed = if dynamic {
            u64::from(u32::from(phys_addr)) ^ 0xd1c9_5eed
        } else {
            u64::from(u32::from(cfg.virtual_ip)) ^ 0x1b0b_5eed
        };
        let mut phys = NetStack::new(StackConfig::new(phys_addr));
        let port = cfg.overlay.local_endpoint.1;
        let transport = Transport::bind(&mut phys, cfg.transport, port, cfg.link_integrity_tag);
        // A dynamic node cannot hash an IP it does not have: its overlay
        // address is random (deterministic per host), and Brunet-ARP carries
        // the IP → overlay-address mapping once an address is claimed.
        cfg.overlay.address = if dynamic {
            Address::random(&mut StreamRng::new(seed, "ipop.dhcp.addr"))
        } else {
            Address::from_ip(cfg.virtual_ip)
        };
        cfg.overlay.local_endpoint = (phys_addr, port);
        IpopHostAgent {
            phys,
            transport,
            overlay: OverlayNode::new(cfg.overlay.clone(), StreamRng::new(seed, "ipop.overlay")),
            selfconfig: SelfConfig::new(&cfg, cfg.overlay.address, seed),
            dataplane: DataPlane::new(cfg, app, StreamRng::new(seed, "ipop.app")),
            next_overlay_tick: SimTime::ZERO,
            wakeup: Wakeup::default(),
            last_forwarded: 0,
        }
    }

    /// The virtual IP of this node's tap interface (unspecified while a
    /// dynamic node holds none).
    pub fn virtual_ip(&self) -> Ipv4Addr {
        self.dataplane.ip()
    }

    /// The node's overlay address.
    pub fn overlay_address(&self) -> Address {
        self.overlay.address()
    }

    /// IPOP activity counters.
    pub fn metrics(&self) -> IpopMetrics {
        self.dataplane.metrics
    }

    /// Overlay routing statistics.
    pub fn overlay_stats(&self) -> OverlayStats {
        self.overlay.stats()
    }

    /// Link messages the transport dropped for a bad FNV-64 integrity tag
    /// (always 0 with [`IpopConfig::link_integrity_tag`] off).
    pub fn transport_tag_rejects(&self) -> u64 {
        self.transport.tag_rejects()
    }

    /// True once the node has at least one established overlay connection.
    pub fn is_connected(&self) -> bool {
        self.overlay.is_connected()
    }

    /// Number of established overlay connections.
    pub fn connection_count(&self) -> usize {
        self.overlay.connections().established().count()
    }

    /// Downcast the embedded application.
    pub fn app_as<T: 'static>(&self) -> Option<&T> {
        self.dataplane.app_as()
    }

    /// Register an additional virtual IP this node routes for (a guest VM hosted by
    /// this machine — paper Section III-E). With Brunet-ARP enabled the mapping is
    /// registered in the DHT as a lease renewed at half [`IpopConfig::lease_ttl`];
    /// packets for that IP are collected in a guest queue.
    pub fn route_for(&mut self, now: SimTime, ip: Ipv4Addr) {
        self.dataplane.route_for(&mut self.overlay, now, ip);
    }

    /// Forget a guest IP this node routed for (the VM migrated away). The
    /// node stops renewing the mapping lease — it does not delete the record,
    /// because the migration target has already re-registered it (deleting
    /// would race the new owner's mapping).
    pub fn unroute_for(&mut self, _now: SimTime, ip: Ipv4Addr) {
        self.dataplane.unroute_for(&mut self.overlay, ip);
    }

    /// Packets delivered for registered guest IPs with their delivery
    /// instants — migration workloads use the timestamps to measure the
    /// blackout window between `unroute_for` and first post-migration
    /// delivery at the new host.
    pub fn take_guest_packets_timed(&mut self) -> Vec<(SimTime, Ipv4Packet)> {
        std::mem::take(&mut self.dataplane.guest_delivered)
    }

    /// True once the node has a virtual address (always true for static
    /// nodes; true after the DHCP-over-DHT claim is confirmed on dynamic ones).
    pub fn has_address(&self) -> bool {
        self.dataplane.is_live()
    }

    /// Time from joining to the confirmed dynamic allocation, if this node
    /// allocated dynamically and has bound.
    pub fn allocation_latency(&self) -> Option<Duration> {
        self.selfconfig.allocator()?.allocation_latency()
    }

    /// Collisions the dynamic allocator hit before binding.
    pub fn allocation_collisions(&self) -> Option<u64> {
        self.selfconfig.allocator().map(|a| a.collisions)
    }

    /// Issue a Brunet-ARP resolution probe for `ip` (bypassing the resolver
    /// cache); the result arrives via [`IpopHostAgent::take_probe_results`].
    /// Used by churn experiments to measure resolution success.
    pub fn resolve_ip(&mut self, now: SimTime, ip: Ipv4Addr) -> u64 {
        self.selfconfig.probe(&mut self.overlay, now, ip)
    }

    /// Completed resolution probes: `(token, mapped overlay address)`.
    pub fn take_probe_results(&mut self) -> Vec<(u64, Option<Address>)> {
        std::mem::take(&mut self.selfconfig.probe_results)
    }

    /// Resolve a hostname through the overlay name service. Returns the
    /// cached IP when fresh; otherwise issues a DHT lookup whose outcome
    /// arrives via [`IpopHostAgent::take_name_results`].
    pub fn lookup_name(&mut self, now: SimTime, name: &str) -> Option<Ipv4Addr> {
        self.selfconfig.names.resolve(&mut self.overlay, now, name)
    }

    /// Completed name lookups: `(hostname, IP if registered)`.
    pub fn take_name_results(&mut self) -> Vec<(String, Option<Ipv4Addr>)> {
        std::mem::take(&mut self.selfconfig.name_results)
    }

    /// Reverse-resolve a virtual IP to the hostname registered for it.
    /// Returns the cached name when fresh; otherwise issues a DHT lookup
    /// whose outcome arrives via [`IpopHostAgent::take_reverse_results`].
    pub fn lookup_ip(&mut self, now: SimTime, ip: Ipv4Addr) -> Option<String> {
        self.selfconfig.names.lookup_ip(&mut self.overlay, now, ip)
    }

    /// Completed reverse lookups: `(IP, hostname if registered)`.
    pub fn take_reverse_results(&mut self) -> Vec<(Ipv4Addr, Option<String>)> {
        std::mem::take(&mut self.selfconfig.reverse_results)
    }

    /// Subscribe to the topic whose key is `topic` (a name hashes to one with
    /// [`ipop_overlay::pubsub::topic_key`]). The subscription is soft state,
    /// renewed at half [`IpopConfig::pubsub_ttl`] until unsubscribed.
    pub fn pubsub_subscribe(&mut self, now: SimTime, topic: Address) {
        self.overlay
            .pubsub_subscribe(now, topic, self.dataplane.cfg.pubsub_ttl);
    }

    /// Withdraw a topic subscription; one never held sends nothing.
    pub fn pubsub_unsubscribe(&mut self, now: SimTime, topic: Address) {
        self.overlay.pubsub_unsubscribe(now, topic);
    }

    /// Publish `payload` on a topic (no subscription needed) and return its
    /// message id. The publish routes to the topic root, which fans it out to
    /// every subscriber along a bounded-degree relay tree.
    pub fn pubsub_publish(
        &mut self,
        now: SimTime,
        topic: Address,
        payload: impl Into<Bytes>,
    ) -> u64 {
        self.overlay.pubsub_publish(now, topic, payload)
    }

    /// Messages delivered on subscribed topics since the last call, in
    /// delivery order: `(topic key, msg id, body)`.
    pub fn take_pubsub_delivered(&mut self) -> Vec<(Address, u64, Bytes)> {
        self.overlay.take_pubsub_delivered()
    }

    /// Open a virtual stream — ordered, reliable bytes over routed overlay
    /// frames — to the node whose overlay address is `remote`, and return
    /// its id. Data queued on it flows once the handshake completes.
    pub fn stream_connect(&mut self, now: SimTime, remote: Address) -> u64 {
        self.overlay.stream_connect(now, remote)
    }

    /// Queue bytes on an open stream. Returns false when the stream is
    /// unknown, closing or already gone.
    pub fn stream_send(
        &mut self,
        now: SimTime,
        remote: Address,
        stream_id: u64,
        data: impl Into<Bytes>,
    ) -> bool {
        self.overlay.stream_send(now, remote, stream_id, data)
    }

    /// Close a stream; buffered data still delivers, then the FIN tears it
    /// down in both directions.
    pub fn stream_close(&mut self, now: SimTime, remote: Address, stream_id: u64) {
        self.overlay.stream_close(now, remote, stream_id);
    }

    /// Streams remote nodes opened to this one since the last call:
    /// `(remote, stream id)`.
    pub fn take_stream_accepted(&mut self) -> Vec<(Address, u64)> {
        self.overlay.take_stream_accepted()
    }

    /// In-order stream data since the last call: `(remote, stream id, chunk)`.
    pub fn take_stream_data(&mut self) -> Vec<(Address, u64, Bytes)> {
        self.overlay.take_stream_data()
    }

    /// Stream lifecycle events since the last call.
    pub fn take_stream_events(&mut self) -> Vec<StreamEvent> {
        self.overlay.take_stream_events()
    }

    /// Gracefully leave the virtual network: release the dynamic lease and
    /// name/mapping registrations, hand stored DHT records off to ring
    /// neighbours and close every overlay edge. The queued goodbye traffic
    /// flushes on the agent's next wakeup.
    pub fn leave(&mut self, now: SimTime) {
        self.selfconfig
            .leave(&mut self.overlay, now, self.dataplane.ip());
        self.dataplane.leave(&mut self.overlay, now);
        self.overlay.leave(now);
    }

    /// The main processing loop, run after every packet or timer event: one
    /// pass over the stages, repeated only while a stage has handed work to
    /// one that ran before it in the pass. Debug builds then run one pass
    /// more and check that it moves nothing — the feedback set is complete.
    fn pump(&mut self, ctx: &mut HostCtx<'_, '_>) {
        let charge = router_charge(&ctx.calibration(), ctx.load());
        for _ in 0..64 {
            self.dataplane.metrics.pump_passes += 1;
            if !self.pass(ctx, charge).1 {
                break;
            }
        }
        debug_assert!(!self.pass(ctx, charge).0, "a pump pass left work behind");
        // One wake-up, for the earliest deadline of any component.
        let next = [self.phys.next_timeout(), self.dataplane.next_deadline()]
            .into_iter()
            .flatten()
            .fold(self.next_overlay_tick, SimTime::min);
        self.wakeup.arm(ctx, next);
    }

    /// One pass over every stage, in order. Returns whether anything moved,
    /// and whether another pass is due: only three stages feed one before
    /// them — the overlay's output for the agent (DHT operations and sends
    /// of later stages can complete locally), a frame the virtual side
    /// wrote to the tap, and self-configuration's state.
    fn pass(&mut self, ctx: &mut HostCtx<'_, '_>, charge: (Duration, Duration)) -> (bool, bool) {
        let now = ctx.now();
        let mut moved = false;

        // Overlay periodic maintenance.
        if now >= self.next_overlay_tick {
            self.overlay.on_tick(now);
            self.next_overlay_tick = now + self.overlay.config().maintenance_interval;
            moved = true;
        }

        // Physical stack → transport → overlay; malformed datagrams the
        // transport dropped while decoding surface in the overlay's stats.
        self.phys.poll(now);
        let (messages, malformed) = self.transport.poll(&mut self.phys);
        for (ep, msg) in messages {
            self.overlay.on_message(now, ep, msg);
            moved = true;
        }
        self.overlay.note_malformed(malformed);

        // Overlay output for the agent: deliveries → the router's receive
        // queue. Pub/sub and stream output stay in the overlay until the
        // application drains it.
        moved |= self.overlay.has_output();
        let cpu = &mut |work| ctx.consume_cpu(work);
        self.dataplane.receive(&mut self.overlay, now, charge, cpu);

        // Self-configuration, then the DHT replies it left to Brunet-ARP.
        let (changed, arp_replies) =
            self.selfconfig
                .poll(&mut self.overlay, now, &mut self.dataplane);
        self.dataplane
            .on_arp_replies(&mut self.overlay, now, arp_replies);

        // The tap, the virtual stack and the application.
        let cpu = &mut |work| ctx.consume_cpu(work);
        moved |= self.dataplane.poll(now, charge, cpu);

        // Charge CPU for routed packets we forwarded on behalf of other nodes.
        let forwarded = self.overlay.forwarded();
        if forwarded > self.last_forwarded {
            let delta = forwarded - self.last_forwarded;
            ctx.consume_cpu(ctx.calibration().forward_cost_at_load(ctx.load()) * delta);
            self.last_forwarded = forwarded;
            moved = true;
        }

        // Overlay output → physical transport → physical network.
        for (ep, msg) in self.overlay.take_outbox() {
            self.transport.send(&mut self.phys, now, ep, &msg);
            moved = true;
        }
        self.phys.poll(now);
        for pkt in self.phys.take_packets() {
            ctx.send(pkt);
            moved = true;
        }

        let again = changed || self.overlay.has_output() || self.dataplane.holds_frame();
        (moved || changed, again)
    }
}

impl HostAgent for IpopHostAgent {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        let now = ctx.now();
        self.dataplane.set_host_name(ctx.name());
        self.overlay.start(now);
        self.selfconfig
            .start(&mut self.overlay, now, &mut self.dataplane);
        self.pump(ctx);
    }

    fn on_packet(&mut self, ctx: &mut HostCtx<'_, '_>, pkt: Ipv4Packet) {
        self.phys.handle_packet(ctx.now(), pkt);
        self.dataplane.flush(&mut self.overlay, ctx.now());
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, _token: TimerToken) {
        self.wakeup.fired();
        self.dataplane.flush(&mut self.overlay, ctx.now());
        self.pump(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{deploy_ipop, DeployOptions, IpopMember};
    use ipop_netsim::{lan_pair, Network};
    use ipop_overlay::{OverlayConfig, TransportMode};

    /// Every field of `DeployOptions` reaches what `deploy_ipop` installs:
    /// the overlay's knobs the overlay node's own configuration, the rest the
    /// agent. Spelled without `..Default::default()` so a new option cannot
    /// be added without being checked here.
    #[test]
    fn deploy_options_land_in_the_installed_agent() {
        let mut net = Network::new(1);
        let (a, b, a_addr, b_addr) = lan_pair(&mut net);
        let secs = Duration::from_secs;
        let subnet = (Ipv4Addr::new(172, 16, 9, 0), 24);
        let static_ip = Ipv4Addr::new(172, 16, 9, 1);
        let options = DeployOptions {
            transport: TransportMode::Tcp,
            brunet_arp: true,
            shortcuts: false,
            dynamic_subnet: subnet,
            lease_ttl: secs(77),
            arp_cache_ttl: Some(secs(11)),
            reserved_ips: vec![static_ip],
            link_probe_interval: Some(secs(3)),
            dht_sweep_interval: Some(secs(7)),
            phi_accrual: false,
            phi_threshold: Some(9.5),
            pubsub_fanout: Some(6),
            pubsub_ttl: Some(secs(33)),
            link_integrity_tag: true,
        };
        let members = vec![
            IpopMember::router(a, static_ip),
            IpopMember::dynamic_router(b).with_hostname("w1"),
        ];
        deploy_ipop(&mut net, members, options);

        for (host, phys) in [(a, a_addr), (b, b_addr)] {
            let agent = net.agent_as::<IpopHostAgent>(host).unwrap();
            assert_eq!(agent.transport.mode(), TransportMode::Tcp);
            assert!(agent.dataplane.brunet_arp.is_some());
            assert!(agent.dataplane.cfg.link_integrity_tag);
            assert_eq!(agent.dataplane.cfg.lease_ttl, secs(77));
            assert_eq!(agent.dataplane.cfg.brunet_arp_cache_ttl, secs(11));
            assert_eq!(agent.dataplane.cfg.reserved_ips, [static_ip]);
            assert_eq!(agent.dataplane.cfg.pubsub_ttl, secs(33));
            let oc = agent.overlay.config();
            assert_eq!(oc.local_endpoint, (phys, 4001));
            assert_eq!(oc.max_shortcuts, 0);
            assert!(!oc.phi_accrual);
            assert_eq!(oc.phi_threshold, 9.5);
            assert_eq!(oc.probe_interval, secs(3));
            assert_eq!(oc.dht.sweep_interval, Some(secs(7)));
            assert_eq!(oc.pubsub_fanout, 6);
            // What no option names keeps the overlay's default.
            let defaults = OverlayConfig::new(oc.address, oc.local_endpoint);
            assert_eq!(oc.maintenance_interval, defaults.maintenance_interval);
            assert_eq!(oc.link_monitor, defaults.link_monitor);
        }
        let first = net.agent_as::<IpopHostAgent>(a).unwrap();
        assert_eq!(first.overlay.address(), Address::from_ip(static_ip));
        assert!(first.overlay.config().bootstrap.is_empty());
        assert!(first.selfconfig.allocator().is_none());
        let second = net.agent_as::<IpopHostAgent>(b).unwrap();
        assert_eq!(second.overlay.config().bootstrap, [(a_addr, 4001)]);
        assert_eq!(second.dataplane.cfg.dynamic_subnet, Some(subnet));
        assert_eq!(second.dataplane.cfg.hostname.as_deref(), Some("w1"));
        assert!(second.selfconfig.allocator().is_some());
    }
}
