//! The IPOP node: the paper's core contribution, assembled as a host agent.
//!
//! One [`IpopHostAgent`] owns everything that runs on a machine participating in an
//! IPOP virtual network (paper Fig. 2):
//!
//! * the **physical network stack** carrying Brunet traffic (UDP or TCP mode),
//! * the **Brunet overlay node** that self-configures connections, traverses NATs
//!   and routes packets on the 160-bit ring,
//! * the **tap device** plus the kernel-side Ethernet adapter configured with the
//!   static-ARP "non-existent gateway" trick,
//! * the **virtual network stack** the unmodified application talks to, and
//! * the **application** itself ([`crate::app::VirtualApp`]).
//!
//! The data path is exactly the paper's: the application writes to a socket on the
//! virtual stack; the kernel emits an Ethernet frame on the tap; IPOP reads the
//! frame, extracts the IPv4 packet, maps the destination IP to an overlay address
//! (SHA-1 directly, or through Brunet-ARP), wraps it in a P2P packet and routes it;
//! the destination node unwraps it, rebuilds a frame and injects it into its own
//! tap, where the kernel delivers it to the receiving application. User-level
//! processing and tap crossings are charged to the host CPU according to
//! [`ipop_netsim::Calibration`], which is what reproduces the 6–10 ms overhead of
//! Table I and the load-dependent behaviour of Fig. 5.

use std::any::Any;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

use ipop_netsim::{HostAgent, HostCtx};
use ipop_netstack::eth::EthAdapter;
use ipop_netstack::tap::TapDevice;
use ipop_netstack::{NetStack, StackConfig};
use ipop_overlay::packets::RoutedPayload;
use ipop_overlay::transport::{OverlayTransport, TcpTransport, TransportMode, UdpTransport};
use ipop_overlay::{Address, ConnectionKind, OverlayNode, OverlayStats};
use ipop_packet::ether::{EthernetFrame, FramePayload, MacAddr};
use ipop_packet::ipv4::Ipv4Packet;
use ipop_services::dhcp::{DhcpAllocator, DhcpConfig, DhcpState};
use ipop_services::lookup::Lookups;
use ipop_services::name::NameService;
use ipop_services::pubsub::{PubSub, TopicMessage};
use ipop_services::vstream::{StreamFate, VirtualStream, VirtualStreams};
use ipop_services::Subnet;
use ipop_simcore::{Duration, SimTime, StreamRng, TimerToken};

use crate::app::{AppEnv, VirtualApp};
use crate::brunet_arp::{BrunetArp, Resolution};
use crate::config::IpopConfig;
use crate::wakeup::Wakeup;

/// Counters describing one IPOP node's activity.
#[derive(Clone, Copy, Debug, Default)]
pub struct IpopMetrics {
    /// Virtual IP packets read from the tap and tunnelled into the overlay.
    pub tunneled_tx: u64,
    /// Virtual IP packets received from the overlay and injected into the tap.
    pub tunneled_rx: u64,
    /// ARP frames read from the tap and contained within the host.
    pub arp_contained: u64,
    /// Non-IP, non-ARP frames dropped at the tap.
    pub non_ip_dropped: u64,
    /// Tunnelled packets whose destination was outside the virtual address space.
    pub not_virtual_dropped: u64,
    /// Tunnelled payloads that failed to parse as IPv4.
    pub decode_errors: u64,
    /// Packets received for a virtual IP this node routes for but that is not the
    /// tap address (guest VMs / multiple-IP support).
    pub guest_rx: u64,
    /// Brunet-ARP queries issued.
    pub arp_queries: u64,
}

/// A host agent running a full IPOP node plus one application.
pub struct IpopHostAgent {
    cfg: IpopConfig,
    label: String,

    phys: NetStack,
    transport: Box<dyn OverlayTransport>,
    overlay: OverlayNode,

    tap: TapDevice,
    veth: EthAdapter,
    gateway_mac: MacAddr,
    vstack: NetStack,

    app: Box<dyn VirtualApp>,
    app_rng: StreamRng,
    app_next: Option<SimTime>,

    brunet_arp: Option<BrunetArp>,
    extra_ips: Vec<Ipv4Addr>,
    guest_delivered: Vec<(SimTime, Ipv4Packet)>,

    /// DHCP-over-DHT allocation state (dynamic-address nodes only).
    allocator: Option<DhcpAllocator>,
    alloc_rng: StreamRng,
    /// True once the deferred virtual side (tap, stacks, app) is live — from
    /// the start on static nodes, from lease binding on dynamic nodes.
    app_started: bool,
    /// Overlay name service (hostname → virtual IP, and reverse) resolver
    /// state.
    name_service: NameService,
    /// Topic pub/sub client state (name bookkeeping and counters).
    pubsub: PubSub,
    /// Messages delivered on subscribed topics, drained by the application
    /// via [`IpopHostAgent::take_topic_messages`].
    topic_messages: Vec<TopicMessage>,
    /// Virtual-stream client state (per-stream inboxes and handles).
    vstreams: VirtualStreams,
    /// Streams that reached a terminal state, drained by the application
    /// via [`IpopHostAgent::take_stream_fates`].
    stream_fates: Vec<(VirtualStream, StreamFate)>,
    name_results: Vec<(String, Option<Ipv4Addr>)>,
    reverse_results: Vec<(Ipv4Addr, Option<String>)>,
    /// Outstanding Brunet-ARP probes issued via
    /// [`IpopHostAgent::resolve_ip`] (diagnostics and churn experiments);
    /// nothing is cached, every probe asks the DHT.
    probes: Lookups<Ipv4Addr, Address>,
    probe_results: Vec<(u64, Option<Address>)>,
    host_name: String,
    /// When the overlay started (readiness fallback for tiny deployments).
    overlay_started_at: SimTime,

    /// Cache of virtual IP → overlay address (SHA-1 of the IP). The mapping is
    /// a pure function, and hashing on every tunnelled packet is measurable on
    /// the data path.
    addr_cache: std::collections::BTreeMap<Ipv4Addr, Address>,

    /// Tunnel packets whose receive-side user-level processing completes at the
    /// given instant (so latency measurements include that cost). Completion
    /// instants come from the host's FIFO CPU queue, so both pending queues
    /// are ordered and the earliest deadline is the front.
    rx_pending: VecDeque<(SimTime, Ipv4Packet)>,
    /// Outbound virtual packets whose user-level processing completes at the
    /// given instant; the overlay send happens then. The completion instant
    /// reflects the router's per-packet latency, while only the (smaller)
    /// pipeline occupancy blocks the CPU — consecutive packets overlap.
    tx_pending: VecDeque<(SimTime, Ipv4Packet)>,

    next_overlay_tick: SimTime,
    wakeup: Wakeup,
    last_forwarded: u64,
    /// Transport parse-error count at the last pump pass; the delta per poll
    /// is charged to the overlay's malformed-drop counter.
    last_parse_errors: u64,
    metrics: IpopMetrics,
}

impl IpopHostAgent {
    /// Build an IPOP node for a host whose physical interface address is
    /// `phys_addr`, running `app` on the virtual network.
    pub fn new(mut cfg: IpopConfig, phys_addr: Ipv4Addr, app: Box<dyn VirtualApp>) -> Self {
        // Static nodes derive everything from the virtual IP; dynamic nodes
        // have none yet, so they seed from the (unique) physical address.
        let seed = if cfg.dynamic_subnet.is_some() {
            u64::from(u32::from(phys_addr)) ^ 0xd1c9_5eed
        } else {
            u64::from(u32::from(cfg.virtual_ip)) ^ 0x1b0b_5eed
        };
        let mut phys = NetStack::new(StackConfig::new(phys_addr));
        let port = cfg.overlay.local_endpoint.1;
        let transport: Box<dyn OverlayTransport> = match cfg.transport {
            TransportMode::Udp => Box::new(
                UdpTransport::bind(&mut phys, port).with_integrity_tag(cfg.link_integrity_tag),
            ),
            TransportMode::Tcp => Box::new(
                TcpTransport::bind(&mut phys, port).with_integrity_tag(cfg.link_integrity_tag),
            ),
        };
        // A dynamic node cannot hash an IP it does not have: its overlay
        // address is random (deterministic per host), and Brunet-ARP carries
        // the IP → overlay-address mapping once an address is claimed.
        let overlay_addr = if cfg.dynamic_subnet.is_some() {
            Address::random(&mut StreamRng::new(seed, "ipop.dhcp.addr"))
        } else {
            Address::from_ip(cfg.virtual_ip)
        };
        cfg.overlay.address = overlay_addr;
        cfg.overlay.local_endpoint = (phys_addr, port);
        let overlay = OverlayNode::new(cfg.overlay.clone(), StreamRng::new(seed, "ipop.overlay"));

        let tap_mac = MacAddr::local(u64::from(u32::from(cfg.virtual_ip)));
        let gateway_mac =
            MacAddr::local(0xFFFF_FFFF_0000 | u64::from(u32::from(cfg.gateway_ip)) & 0xFFFF);
        let tap = TapDevice::new(tap_mac);
        let veth =
            EthAdapter::with_static_gateway(tap_mac, cfg.virtual_ip, cfg.gateway_ip, gateway_mac);
        let vstack = NetStack::new(StackConfig::new(cfg.virtual_ip).with_mtu(cfg.virtual_mtu));

        let brunet_arp = cfg
            .brunet_arp
            .then(|| BrunetArp::new(cfg.brunet_arp_cache_ttl));
        let allocator = cfg.dynamic_subnet.map(|(net, len)| {
            let mut reserved = vec![cfg.gateway_ip];
            reserved.extend(cfg.reserved_ips.iter().copied());
            DhcpAllocator::new(
                Subnet::new(net, len),
                overlay_addr,
                DhcpConfig {
                    lease_ttl: cfg.lease_ttl,
                    ..DhcpConfig::default()
                },
            )
            .with_reserved(reserved)
        });
        let label = format!("ipop-{}", cfg.virtual_ip);
        let name_service = NameService::new(cfg.brunet_arp_cache_ttl);
        let pubsub = PubSub::new(cfg.pubsub_ttl);

        IpopHostAgent {
            cfg,
            label,
            phys,
            transport,
            overlay,
            tap,
            veth,
            gateway_mac,
            vstack,
            app,
            app_rng: StreamRng::new(seed, "ipop.app"),
            app_next: None,
            brunet_arp,
            extra_ips: Vec::new(),
            guest_delivered: Vec::new(),
            allocator,
            alloc_rng: StreamRng::new(seed, "ipop.dhcp"),
            app_started: false,
            name_service,
            pubsub,
            topic_messages: Vec::new(),
            vstreams: VirtualStreams::new(),
            stream_fates: Vec::new(),
            name_results: Vec::new(),
            reverse_results: Vec::new(),
            probes: Lookups::new(Duration::ZERO),
            probe_results: Vec::new(),
            host_name: String::new(),
            overlay_started_at: SimTime::ZERO,
            addr_cache: std::collections::BTreeMap::new(),
            rx_pending: VecDeque::new(),
            tx_pending: VecDeque::new(),
            next_overlay_tick: SimTime::ZERO,
            wakeup: Wakeup::default(),
            last_forwarded: 0,
            last_parse_errors: 0,
            metrics: IpopMetrics::default(),
        }
    }

    /// The virtual IP of this node's tap interface.
    pub fn virtual_ip(&self) -> Ipv4Addr {
        self.cfg.virtual_ip
    }

    /// The node's overlay address.
    pub fn overlay_address(&self) -> Address {
        self.overlay.address()
    }

    /// IPOP activity counters.
    pub fn metrics(&self) -> IpopMetrics {
        self.metrics
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

    /// Overlay addresses of the established connections.
    pub fn connection_peers(&self) -> Vec<Address> {
        self.overlay.connections().peers()
    }

    /// Downcast the embedded application.
    pub fn app_as<T: 'static>(&self) -> Option<&T> {
        self.app.as_any().downcast_ref::<T>()
    }

    /// Mutable downcast of the embedded application.
    pub fn app_as_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.app.as_any_mut().downcast_mut::<T>()
    }

    /// Register an additional virtual IP this node routes for (a guest VM hosted by
    /// this machine — paper Section III-E). With Brunet-ARP enabled the mapping is
    /// registered in the DHT as a lease renewed at half [`IpopConfig::lease_ttl`];
    /// packets for that IP are collected in a guest queue.
    pub fn route_for(&mut self, now: SimTime, ip: Ipv4Addr) {
        if !self.extra_ips.contains(&ip) {
            self.extra_ips.push(ip);
        }
        if self.brunet_arp.is_some() {
            let key = BrunetArp::key_for(ip);
            let value = BrunetArp::encode_mapping(&self.overlay.address());
            self.overlay
                .dht_put_ttl(now, key, value, self.cfg.lease_ttl);
        }
    }

    /// Forget a guest IP this node routed for (the VM migrated away). The
    /// node stops renewing the mapping lease — it does not delete the record,
    /// because the migration target has already re-registered it (deleting
    /// would race the new owner's mapping).
    pub fn unroute_for(&mut self, _now: SimTime, ip: Ipv4Addr) {
        self.extra_ips.retain(|&x| x != ip);
        if self.brunet_arp.is_some() {
            self.overlay.dht_unpublish(&BrunetArp::key_for(ip));
        }
    }

    /// Packets delivered for registered guest IPs.
    pub fn take_guest_packets(&mut self) -> Vec<Ipv4Packet> {
        self.take_guest_packets_timed()
            .into_iter()
            .map(|(_, pkt)| pkt)
            .collect()
    }

    /// Packets delivered for registered guest IPs with their delivery
    /// instants — migration workloads use the timestamps to measure the
    /// blackout window between `unroute_for` and first post-migration
    /// delivery at the new host.
    pub fn take_guest_packets_timed(&mut self) -> Vec<(SimTime, Ipv4Packet)> {
        std::mem::take(&mut self.guest_delivered)
    }

    /// Publish this node's own tap IP in the Brunet-ARP DHT as a renewed lease
    /// (done automatically at start when Brunet-ARP is enabled; callable again
    /// after "migration"). No-op while a dynamic node has no address — there
    /// the allocator's claim doubles as the mapping.
    pub fn publish_own_mapping(&mut self, now: SimTime) {
        if self.brunet_arp.is_some() && !self.cfg.virtual_ip.is_unspecified() {
            let key = BrunetArp::key_for(self.cfg.virtual_ip);
            let value = BrunetArp::encode_mapping(&self.overlay.address());
            self.overlay
                .dht_put_ttl(now, key, value, self.cfg.lease_ttl);
        }
    }

    /// True once the node has a virtual address (always true for static
    /// nodes; true after the DHCP-over-DHT claim is confirmed on dynamic ones).
    pub fn has_address(&self) -> bool {
        !self.cfg.virtual_ip.is_unspecified()
    }

    /// Time from joining to the confirmed dynamic allocation, if this node
    /// allocated dynamically and has bound.
    pub fn allocation_latency(&self) -> Option<Duration> {
        self.allocator.as_ref().and_then(|a| a.allocation_latency())
    }

    /// Collisions the dynamic allocator hit before binding.
    pub fn allocation_collisions(&self) -> Option<u64> {
        self.allocator.as_ref().map(|a| a.collisions)
    }

    /// Issue a Brunet-ARP resolution probe for `ip` (bypassing the resolver
    /// cache); the result arrives via [`IpopHostAgent::take_probe_results`].
    /// Used by churn experiments to measure resolution success.
    pub fn resolve_ip(&mut self, now: SimTime, ip: Ipv4Addr) -> u64 {
        let token = self.overlay.dht_get(now, BrunetArp::key_for(ip));
        self.probes.issued(now, token, ip);
        token
    }

    /// Completed resolution probes: `(token, mapped overlay address)`.
    pub fn take_probe_results(&mut self) -> Vec<(u64, Option<Address>)> {
        std::mem::take(&mut self.probe_results)
    }

    /// Resolve a hostname through the overlay name service. Returns the
    /// cached IP when fresh; otherwise issues a DHT lookup whose outcome
    /// arrives via [`IpopHostAgent::take_name_results`].
    pub fn lookup_name(&mut self, now: SimTime, name: &str) -> Option<Ipv4Addr> {
        match self.name_service.resolve(&mut self.overlay, now, name) {
            ipop_services::Resolution::Cached(ip) => Some(ip),
            ipop_services::Resolution::Pending(_) => None,
        }
    }

    /// Completed name lookups: `(hostname, IP if registered)`.
    pub fn take_name_results(&mut self) -> Vec<(String, Option<Ipv4Addr>)> {
        std::mem::take(&mut self.name_results)
    }

    /// Reverse-resolve a virtual IP to the hostname registered for it.
    /// Returns the cached name when fresh; otherwise issues a DHT lookup
    /// whose outcome arrives via [`IpopHostAgent::take_reverse_results`].
    pub fn lookup_ip(&mut self, now: SimTime, ip: Ipv4Addr) -> Option<String> {
        match self.name_service.lookup_ip(&mut self.overlay, now, ip) {
            ipop_services::ReverseResolution::Cached(name) => Some(name),
            ipop_services::ReverseResolution::Pending(_) => None,
        }
    }

    /// Completed reverse lookups: `(IP, hostname if registered)`.
    pub fn take_reverse_results(&mut self) -> Vec<(Ipv4Addr, Option<String>)> {
        std::mem::take(&mut self.reverse_results)
    }

    /// Subscribe to a pub/sub topic by name. The subscription is soft state,
    /// renewed at half [`IpopConfig::pubsub_ttl`] until unsubscribed;
    /// messages arrive via [`IpopHostAgent::take_topic_messages`].
    pub fn subscribe(&mut self, now: SimTime, topic: &str) {
        self.pubsub.subscribe(&mut self.overlay, now, topic);
    }

    /// Withdraw a topic subscription.
    pub fn unsubscribe(&mut self, now: SimTime, topic: &str) {
        self.pubsub.unsubscribe(&mut self.overlay, now, topic);
    }

    /// Publish `payload` on a topic (no subscription needed); returns the
    /// assigned message id. The publish routes to the topic root, which fans
    /// it out to every subscriber along a bounded-degree relay tree.
    pub fn publish(&mut self, now: SimTime, topic: &str, payload: ipop_packet::Bytes) -> u64 {
        self.pubsub.publish(&mut self.overlay, now, topic, payload)
    }

    /// Messages delivered on subscribed topics since the last call — the
    /// all-topics drain, in delivery order. For one topic's share use
    /// [`IpopHostAgent::take_topic_messages_for`].
    pub fn take_topic_messages(&mut self) -> Vec<TopicMessage> {
        std::mem::take(&mut self.topic_messages)
    }

    /// Messages delivered on one named topic since the last call, in
    /// delivery order; other topics' messages stay queued for their own
    /// drain (clients no longer need to re-bucket the all-topics Vec).
    pub fn take_topic_messages_for(&mut self, topic: &str) -> Vec<TopicMessage> {
        let mut taken = Vec::new();
        let mut kept = Vec::new();
        for msg in std::mem::take(&mut self.topic_messages) {
            if msg.topic == topic {
                taken.push(msg);
            } else {
                kept.push(msg);
            }
        }
        self.topic_messages = kept;
        taken
    }

    /// Pub/sub client counters: `(published, received, unknown-topic drops)`.
    pub fn pubsub_counters(&self) -> (u64, u64, u64) {
        (
            self.pubsub.published,
            self.pubsub.received,
            self.pubsub.unknown_topic,
        )
    }

    /// Open a virtual stream — ordered, reliable bytes over routed overlay
    /// frames — to the node whose overlay address is `remote`. The handle
    /// arrives immediately; data queued on it flows once the handshake
    /// completes. Remote opens surface via [`IpopHostAgent::stream_accept`],
    /// data via [`IpopHostAgent::take_stream_data`], and lifecycle changes
    /// via [`IpopHostAgent::take_stream_fates`].
    pub fn stream_connect(&mut self, now: SimTime, remote: Address) -> VirtualStream {
        self.vstreams.connect(&mut self.overlay, now, remote)
    }

    /// Claim the next stream a remote node opened to this one, if any.
    pub fn stream_accept(&mut self) -> Option<VirtualStream> {
        self.vstreams.accept()
    }

    /// Queue bytes on an open stream. Returns false when the stream is
    /// unknown, closing or already gone.
    pub fn stream_send(
        &mut self,
        now: SimTime,
        stream: VirtualStream,
        data: impl Into<ipop_packet::Bytes>,
    ) -> bool {
        self.vstreams.send(&mut self.overlay, now, stream, data)
    }

    /// Drain everything received on `stream` as one contiguous buffer.
    pub fn take_stream_data(&mut self, stream: VirtualStream) -> Vec<u8> {
        self.vstreams.recv_all(stream)
    }

    /// Close a stream; buffered data still delivers, then the FIN tears it
    /// down in both directions.
    pub fn stream_close(&mut self, now: SimTime, stream: VirtualStream) {
        self.vstreams.close(&mut self.overlay, now, stream);
    }

    /// Streams that reached a terminal state since the last call.
    pub fn take_stream_fates(&mut self) -> Vec<(VirtualStream, StreamFate)> {
        std::mem::take(&mut self.stream_fates)
    }

    /// True once `stream`'s handshake has completed.
    pub fn stream_established(&self, stream: VirtualStream) -> bool {
        self.vstreams.is_established(stream)
    }

    /// Gracefully leave the virtual network: release the dynamic lease and
    /// name/mapping registrations, hand stored DHT records off to ring
    /// neighbours and close every overlay edge. The queued goodbye traffic
    /// flushes on the agent's next wakeup.
    pub fn leave(&mut self, now: SimTime) {
        if let Some(alloc) = self.allocator.as_mut() {
            alloc.release(now, &mut self.overlay);
        }
        if self.has_address() {
            if let Some(name) = self.cfg.hostname.clone() {
                NameService::unregister(&mut self.overlay, now, &name, self.cfg.virtual_ip);
            }
            // A dynamic node's own mapping is the lease the allocator just
            // released; a static node's must be deleted here.
            if self.brunet_arp.is_some() && self.allocator.is_none() {
                self.overlay
                    .dht_remove(now, BrunetArp::key_for(self.cfg.virtual_ip));
            }
        }
        // Guest mappings are separate leases regardless of how this node got
        // its own address: delete them so guest traffic does not black-hole
        // into a departed host for a full TTL.
        if self.brunet_arp.is_some() {
            for ip in self.extra_ips.clone() {
                self.overlay.dht_remove(now, BrunetArp::key_for(ip));
            }
        }
        self.overlay.leave(now);
    }

    // ------------------------------------------------------------------ internals

    /// Overlay address of a virtual IP (SHA-1, memoized).
    fn overlay_addr_of(&mut self, ip: Ipv4Addr) -> Address {
        *self
            .addr_cache
            .entry(ip)
            .or_insert_with(|| Address::from_ip(ip))
    }

    /// Charge the user-level router for one tunnelled packet: the CPU is
    /// occupied for the pipeline cost, while the packet itself is ready only
    /// after the full processing latency (whichever completes later).
    fn router_ready_at(ctx: &mut HostCtx<'_, '_>) -> SimTime {
        let now = ctx.now();
        let cal = ctx.calibration();
        let load = ctx.load();
        let occupied_until =
            ctx.consume_cpu(cal.pipeline_cost_at_load(load) + cal.tap_crossing_cost);
        occupied_until.max(now + cal.ipop_cost_at_load(load) + cal.tap_crossing_cost)
    }

    /// Queue a packet behind the user-level router until `ready`.
    fn push_pending(queue: &mut VecDeque<(SimTime, Ipv4Packet)>, ready: SimTime, vpkt: Ipv4Packet) {
        debug_assert!(
            queue.back().is_none_or(|(t, _)| *t <= ready),
            "router completion instants are FIFO"
        );
        queue.push_back((ready, vpkt));
    }

    /// Take the front packet if the router has finished with it by `now`.
    fn pop_ready(queue: &mut VecDeque<(SimTime, Ipv4Packet)>, now: SimTime) -> Option<Ipv4Packet> {
        if queue.front()?.0 > now {
            return None;
        }
        queue.pop_front().map(|(_, vpkt)| vpkt)
    }

    fn tunnel_out(&mut self, ctx: &mut HostCtx<'_, '_>, vpkt: Ipv4Packet) {
        let ready = Self::router_ready_at(ctx);
        Self::push_pending(&mut self.tx_pending, ready, vpkt);
    }

    /// Hand one processed outbound packet to the overlay (runs at its ready
    /// instant, after the user-level processing latency has elapsed).
    fn dispatch_tunnel_out(&mut self, now: SimTime, vpkt: Ipv4Packet) {
        let dst = vpkt.dst();
        self.metrics.tunneled_tx += 1;
        match &mut self.brunet_arp {
            None => {
                let addr = self.overlay_addr_of(dst);
                self.overlay.send_ip(now, addr, vpkt.to_bytes());
            }
            Some(arp) => match arp.resolve(now, dst) {
                Resolution::Resolved(addr) => {
                    self.overlay.send_ip(now, addr, vpkt.to_bytes());
                }
                Resolution::NeedsQuery(key) => {
                    let token = self.overlay.dht_get(now, key);
                    arp.query_issued(now, token, dst);
                    arp.park(dst, vpkt);
                    self.metrics.arp_queries += 1;
                }
                Resolution::Pending => {
                    arp.park(dst, vpkt);
                }
            },
        }
    }

    fn deliver_virtual(&mut self, now: SimTime, vpkt: Ipv4Packet) {
        let dst = vpkt.dst();
        if dst == self.cfg.virtual_ip {
            // Rebuild the Ethernet frame and inject it through the tap, exactly as
            // the prototype writes to /dev/net/tun: source MAC is the fabricated
            // gateway, destination is the tap device.
            let frame = EthernetFrame::ipv4(self.gateway_mac, self.tap.mac(), vpkt);
            self.tap.user_write(frame);
            self.metrics.tunneled_rx += 1;
        } else if self.extra_ips.contains(&dst) {
            self.metrics.guest_rx += 1;
            self.guest_delivered.push((now, vpkt));
        } else {
            // Delivered here by the overlay but we do not route for this IP.
            self.metrics.decode_errors += 1;
        }
    }

    /// The main processing loop, run after every packet or timer event.
    fn pump(&mut self, ctx: &mut HostCtx<'_, '_>) {
        let now = ctx.now();
        let cal = ctx.calibration();
        let load = ctx.load();
        for _ in 0..64 {
            let mut progress = false;

            // Overlay periodic maintenance.
            if now >= self.next_overlay_tick {
                self.overlay.on_tick(now);
                self.next_overlay_tick = now + self.overlay.config().maintenance_interval;
                progress = true;
            }

            // Physical stack → transport → overlay.
            self.phys.poll(now);
            for (ep, msg) in self.transport.poll(&mut self.phys, now) {
                self.overlay.on_message(now, ep, msg);
                progress = true;
            }
            // Malformed datagrams the transport dropped while decoding:
            // surface the delta in the overlay's stats.
            let parse_errors = self.transport.parse_errors();
            if parse_errors > self.last_parse_errors {
                self.overlay
                    .note_malformed(parse_errors - self.last_parse_errors);
                self.last_parse_errors = parse_errors;
                progress = true;
            }

            // Overlay deliveries → receive-side processing delay queue.
            for routed in self.overlay.take_delivered() {
                if let RoutedPayload::IpTunnel(bytes) = routed.payload {
                    match Ipv4Packet::from_bytes(&bytes) {
                        Ok(vpkt) => {
                            let ready = Self::router_ready_at(ctx);
                            Self::push_pending(&mut self.rx_pending, ready, vpkt);
                        }
                        Err(_) => self.metrics.decode_errors += 1,
                    }
                    progress = true;
                }
            }

            // Pub/sub deliveries → the application-facing topic queue.
            let topic_msgs = self.pubsub.poll(&mut self.overlay);
            if !topic_msgs.is_empty() {
                self.topic_messages.extend(topic_msgs);
                progress = true;
            }

            // Virtual-stream accepts/data/events → per-stream inboxes and
            // the terminal-fate queue.
            let finished = self.vstreams.poll(&mut self.overlay);
            if !finished.is_empty() {
                self.stream_fates.extend(finished);
                progress = true;
            }

            // Dynamic address allocation: drive the DHCP-over-DHT state
            // machine until the lease is confirmed, then bring the virtual
            // side up. Claiming waits for ring neighbours on both sides so a
            // half-converged ring cannot split-brain the atomic create. The
            // machine keeps running after the first bind too: a lease lost to
            // a healed partition re-claims, and the node re-binds to the
            // replacement address when it confirms.
            if self.allocator.is_some() {
                // Ring neighbours on both sides mean the ring has locally
                // converged; the time fallback keeps deployments too small to
                // ever reach two Near edges (e.g. bootstrap + one member)
                // from hanging unallocated forever.
                let ready = self.overlay.connections().count_kind(ConnectionKind::Near) >= 2
                    || (self.overlay.is_connected()
                        && now.saturating_since(self.overlay_started_at)
                            >= Duration::from_secs(10));
                let before = self.allocator.as_ref().map(|a| a.state());
                if let Some(alloc) = self.allocator.as_mut() {
                    alloc.poll(now, ready, &mut self.alloc_rng, &mut self.overlay);
                }
                let after = self.allocator.as_ref().map(|a| a.state());
                if after != before {
                    progress = true;
                }
                if let Some(DhcpState::Bound { ip }) = after {
                    if !self.app_started || ip != self.cfg.virtual_ip {
                        self.bind_lease(now);
                        progress = true;
                    }
                }
                // Re-allocation after a lost lease can end terminally (budget
                // spent, subnet exhausted). The old address belongs to the
                // partition winner now — relinquish it rather than keep
                // running as a zombie duplicate.
                if self.app_started
                    && matches!(
                        after,
                        Some(DhcpState::Failed | DhcpState::AddressSpaceExhausted)
                    )
                {
                    self.relinquish_address(now);
                    progress = true;
                }
            }

            // Lost leases: a TTL/2 renewal discovered a conflicting record
            // owning our address key (healed partition). The winner owns the
            // address *now* — tear the virtual side down immediately and
            // re-allocate; the node re-binds when a replacement confirms.
            for key in self.overlay.take_lost_leases() {
                progress = true;
                let bound_key = self
                    .allocator
                    .as_ref()
                    .and_then(|a| a.ip())
                    .map(ipop_services::dhcp::lease_key);
                if bound_key == Some(key) {
                    if let Some(alloc) = self.allocator.as_mut() {
                        alloc.on_lease_lost(now, &mut self.alloc_rng, &mut self.overlay);
                    }
                    if self.app_started {
                        self.relinquish_address(now);
                    }
                }
            }

            // DHT create replies: allocation claims. `existing` distinguishes
            // a real collision (draw a fresh candidate) from a quorum-write
            // failure (retry the same, unclaimed address).
            for (token, created, existing) in self.overlay.take_dht_create_replies() {
                progress = true;
                if let Some(alloc) = self.allocator.as_mut() {
                    alloc.on_create_reply(
                        now,
                        token,
                        created,
                        existing.is_some(),
                        &mut self.alloc_rng,
                        &mut self.overlay,
                    );
                }
            }

            // DHT get replies: allocator confirms, name lookups, resolution
            // probes, and Brunet-ARP resolutions releasing parked packets.
            let replies = self.overlay.take_dht_replies();
            if !replies.is_empty() {
                progress = true;
                for (token, value) in replies {
                    if let Some(alloc) = self.allocator.as_mut() {
                        if alloc.on_get_reply(
                            now,
                            token,
                            value.as_deref(),
                            &mut self.alloc_rng,
                            &mut self.overlay,
                        ) {
                            continue;
                        }
                    }
                    if let Some(res) = self.name_service.on_reply(now, token, value.as_deref()) {
                        self.name_results.push(res);
                        continue;
                    }
                    if let Some(res) =
                        self.name_service
                            .on_reverse_reply(now, token, value.as_deref())
                    {
                        self.reverse_results.push(res);
                        continue;
                    }
                    if self.probes.answered(token).is_some() {
                        self.probe_results
                            .push((token, value.as_deref().and_then(BrunetArp::decode_mapping)));
                        continue;
                    }
                    let released = self
                        .brunet_arp
                        .as_mut()
                        .and_then(|arp| arp.on_reply(now, token, value));
                    if let Some((_, addr, packets)) = released {
                        for vpkt in packets {
                            match addr {
                                Some(a) => {
                                    self.metrics.tunneled_tx += 1;
                                    self.overlay.send_ip(now, a, vpkt.to_bytes());
                                }
                                None => self.metrics.not_virtual_dropped += 1,
                            }
                        }
                    }
                }
            }

            // Tap: frames the kernel transmitted (application traffic going out).
            while let Some(frame) = self.tap.user_read() {
                progress = true;
                match frame.payload {
                    FramePayload::Ipv4(vpkt) => {
                        let dst = vpkt.dst();
                        if dst == self.cfg.virtual_ip {
                            // Local loopback on the virtual interface.
                            self.deliver_virtual(now, vpkt);
                        } else if !self.cfg.in_virtual_space(dst) || dst == self.cfg.gateway_ip {
                            self.metrics.not_virtual_dropped += 1;
                        } else {
                            self.tunnel_out(ctx, vpkt);
                        }
                    }
                    FramePayload::Arp(_) => {
                        // ARP is contained within the host (paper Section III-A).
                        self.metrics.arp_contained += 1;
                    }
                    FramePayload::Other(..) => self.metrics.non_ip_dropped += 1,
                }
            }

            // Tap: frames IPOP injected (tunnelled traffic going up to the kernel).
            while let Some(frame) = self.tap.kernel_read() {
                progress = true;
                let (up, responses) = self.veth.process_frame(frame);
                for pkt in up {
                    self.vstack.handle_packet(now, pkt);
                }
                for f in responses {
                    self.tap.kernel_write(f);
                }
            }

            // Application (not before its deferred start on dynamic nodes).
            if self.app_started {
                let mut env = AppEnv {
                    stack: &mut self.vstack,
                    now,
                    rng: &mut self.app_rng,
                    host_name: &self.label,
                };
                self.app_next = self.app.poll(&mut env);
            }

            // Virtual stack output → Ethernet frames on the tap (kernel side).
            self.vstack.poll(now);
            for pkt in self.vstack.take_packets() {
                for frame in self.veth.encapsulate(pkt) {
                    self.tap.kernel_write(frame);
                }
                progress = true;
            }

            // Charge CPU for routed packets we forwarded on behalf of other nodes.
            let forwarded = self.overlay.forwarded();
            if forwarded > self.last_forwarded {
                let delta = forwarded - self.last_forwarded;
                ctx.consume_cpu(cal.forward_cost_at_load(load) * delta);
                self.last_forwarded = forwarded;
                progress = true;
            }

            // Overlay output → physical transport → physical network.
            for (ep, msg) in self.overlay.take_outbox() {
                self.transport.send(&mut self.phys, now, ep, &msg);
                progress = true;
            }
            self.phys.poll(now);
            for pkt in self.phys.take_packets() {
                ctx.send(pkt);
                progress = true;
            }

            if !progress {
                break;
            }
        }
        self.arm_wakeup(ctx);
    }

    /// Deliver any queued packets whose user-level processing delay has elapsed,
    /// in both directions. Kept separate from `pump` so the borrows of the
    /// pending queues do not overlap the main loop's borrows.
    fn flush_pending(&mut self, now: SimTime) {
        while let Some(vpkt) = Self::pop_ready(&mut self.rx_pending, now) {
            self.deliver_virtual(now, vpkt);
        }
        while let Some(vpkt) = Self::pop_ready(&mut self.tx_pending, now) {
            self.dispatch_tunnel_out(now, vpkt);
        }
    }

    /// Bring the virtual side up on a confirmed dynamic lease: adopt the
    /// allocated address, rebuild the tap/adapter/virtual stack around it,
    /// register the hostname, and start the deferred application. The claim
    /// record already carries the Brunet-ARP mapping, so no extra publish is
    /// needed.
    fn bind_lease(&mut self, now: SimTime) {
        let Some(ip) = self.allocator.as_ref().and_then(|a| a.ip()) else {
            return;
        };
        self.cfg.virtual_ip = ip;
        self.label = format!("{}({})", self.host_name, ip);
        self.rebuild_virtual_side(ip);
        if let Some(name) = self.cfg.hostname.clone() {
            NameService::register(&mut self.overlay, now, &name, ip, self.cfg.lease_ttl);
        }
        let mut env = AppEnv {
            stack: &mut self.vstack,
            now,
            rng: &mut self.app_rng,
            host_name: &self.label,
        };
        self.app.on_start(&mut env);
        self.app_started = true;
    }

    /// Give up the virtual address: the lease is gone and no replacement
    /// could be allocated. The node degrades to its pre-bind state (overlay
    /// router with no virtual side) instead of keeping a conflicted address
    /// another node now legitimately owns — including tearing down the tap,
    /// adapter and virtual stack, whose in-flight timers (TCP retransmits)
    /// would otherwise keep emitting segments sourced from the old address.
    fn relinquish_address(&mut self, now: SimTime) {
        if let Some(name) = self.cfg.hostname.clone() {
            NameService::unregister(&mut self.overlay, now, &name, self.cfg.virtual_ip);
        }
        self.cfg.virtual_ip = Ipv4Addr::UNSPECIFIED;
        self.label = format!("{}(unbound)", self.host_name);
        self.app_started = false;
        self.rebuild_virtual_side(Ipv4Addr::UNSPECIFIED);
    }

    /// Replace the tap, adapter and virtual stack with fresh instances bound
    /// to `ip` (the pre-bind placeholder when unspecified), and drop every
    /// packet queued against the previous address. Shared by (re-)bind and
    /// relinquish so the two rebuild sequences cannot drift apart.
    fn rebuild_virtual_side(&mut self, ip: Ipv4Addr) {
        let tap_mac = MacAddr::local(u64::from(u32::from(ip)));
        self.gateway_mac =
            MacAddr::local(0xFFFF_FFFF_0000 | u64::from(u32::from(self.cfg.gateway_ip)) & 0xFFFF);
        self.tap = TapDevice::new(tap_mac);
        self.veth =
            EthAdapter::with_static_gateway(tap_mac, ip, self.cfg.gateway_ip, self.gateway_mac);
        self.vstack = NetStack::new(StackConfig::new(ip).with_mtu(self.cfg.virtual_mtu));
        self.clear_pending_virtual_state();
    }

    /// Drop every queued packet tied to the current virtual address: the
    /// rx/tx processing queues and the Brunet-ARP parked packets (released by
    /// a late reply, they would emit from an address this node no longer
    /// holds). Shared by re-bind and relinquish so the two stay in lockstep.
    fn clear_pending_virtual_state(&mut self) {
        self.rx_pending.clear();
        self.tx_pending.clear();
        if let Some(arp) = self.brunet_arp.as_mut() {
            arp.reset_pending();
        }
    }

    /// Arm the wake-up for the earliest deadline of any component.
    fn arm_wakeup(&mut self, ctx: &mut HostCtx<'_, '_>) {
        let next = [
            self.phys.next_timeout(),
            self.vstack.next_timeout(),
            self.app_next,
            self.rx_pending.front().map(|(t, _)| *t),
            self.tx_pending.front().map(|(t, _)| *t),
        ]
        .into_iter()
        .flatten()
        .fold(self.next_overlay_tick, SimTime::min);
        self.wakeup.arm(ctx, next);
    }
}

impl HostAgent for IpopHostAgent {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        let now = ctx.now();
        self.host_name = ctx.name().to_string();
        self.label = format!("{}({})", self.host_name, self.cfg.virtual_ip);
        self.overlay_started_at = now;
        self.overlay.start(now);
        if self.allocator.is_none() {
            // Static node: the virtual side is live immediately.
            self.publish_own_mapping(now);
            if let Some(name) = self.cfg.hostname.clone() {
                NameService::register(
                    &mut self.overlay,
                    now,
                    &name,
                    self.cfg.virtual_ip,
                    self.cfg.lease_ttl,
                );
            }
            let mut env = AppEnv {
                stack: &mut self.vstack,
                now,
                rng: &mut self.app_rng,
                host_name: &self.label,
            };
            self.app.on_start(&mut env);
            self.app_started = true;
        }
        // Dynamic node: the tap, virtual stack and application wait in
        // `bind_lease` until the allocator confirms an address.
        self.pump(ctx);
    }

    fn on_packet(&mut self, ctx: &mut HostCtx<'_, '_>, pkt: Ipv4Packet) {
        self.phys.handle_packet(ctx.now(), pkt);
        self.flush_pending(ctx.now());
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, _token: TimerToken) {
        self.wakeup.fired();
        self.flush_pending(ctx.now());
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
    use ipop_overlay::OverlayConfig;

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
            assert!(agent.brunet_arp.is_some());
            assert!(agent.cfg.link_integrity_tag);
            assert_eq!(agent.cfg.lease_ttl, secs(77));
            assert_eq!(agent.cfg.brunet_arp_cache_ttl, secs(11));
            assert_eq!(agent.cfg.reserved_ips, [static_ip]);
            assert_eq!(agent.cfg.pubsub_ttl, secs(33));
            let oc = agent.overlay.config();
            assert_eq!(oc.local_endpoint, (phys, 4001));
            assert!(!oc.shortcuts_enabled);
            assert!(!oc.phi_accrual);
            assert_eq!(oc.phi_threshold, 9.5);
            assert_eq!(oc.probe_interval, secs(3));
            assert_eq!(oc.dht.sweep_interval, secs(7));
            assert_eq!(oc.pubsub_fanout, 6);
            // What no option names keeps the overlay's default.
            let defaults = OverlayConfig::new(oc.address, oc.local_endpoint);
            assert_eq!(oc.maintenance_interval, defaults.maintenance_interval);
            assert_eq!(oc.link_monitor, defaults.link_monitor);
        }
        let first = net.agent_as::<IpopHostAgent>(a).unwrap();
        assert_eq!(first.overlay.address(), Address::from_ip(static_ip));
        assert!(first.overlay.config().bootstrap.is_empty());
        assert!(first.allocator.is_none());
        let second = net.agent_as::<IpopHostAgent>(b).unwrap();
        assert_eq!(second.overlay.config().bootstrap, [(a_addr, 4001)]);
        assert_eq!(second.cfg.dynamic_subnet, Some(subnet));
        assert_eq!(second.cfg.hostname.as_deref(), Some("w1"));
        assert!(second.allocator.is_some());
    }
}
