//! The virtual data plane (paper Fig. 2, Section III-A): the tap and its
//! kernel-side adapter, the user-level router between tap and overlay
//! (SHA-1 or Brunet-ARP addressing), and the virtual stack the application
//! runs on. [`DataPlane`] is sans-IO: each call is lent the overlay node and
//! the instant, and the host CPU it charges, priced by [`router_charge`].

use std::collections::{BTreeMap, VecDeque};
use std::net::Ipv4Addr;

use ipop_netsim::Calibration;
use ipop_netstack::eth::EthAdapter;
use ipop_netstack::tap::TapDevice;
use ipop_netstack::{NetStack, StackConfig};
use ipop_overlay::packets::RoutedPayload;
use ipop_overlay::{Address, OverlayNode};
use ipop_packet::ether::{EthernetFrame, FramePayload, MacAddr};
use ipop_packet::ipv4::Ipv4Packet;
use ipop_packet::Bytes;
use ipop_simcore::{Duration, SimTime, StreamRng};

use crate::app::{AppHost, VirtualApp};
use crate::brunet_arp::{BrunetArp, Resolution};
use crate::config::IpopConfig;

/// Counters describing one IPOP node's activity.
#[derive(Clone, Copy, Debug, Default)]
pub struct IpopMetrics {
    /// Virtual IP packets read from the tap and tunnelled into the overlay.
    pub tunneled_tx: u64,
    /// Virtual IP packets received from the overlay and injected into the tap.
    pub tunneled_rx: u64,
    /// Overlay hops travelled by the packets counted in `tunneled_rx`
    /// (`RoutedPacket::hops` at delivery): over `tunneled_rx`, the mean path
    /// length of a tunnelled packet.
    pub tunneled_rx_hops: u64,
    /// ARP frames read from the tap and contained within the host.
    pub arp_contained: u64,
    /// Non-IP, non-ARP frames dropped at the tap.
    pub non_ip_dropped: u64,
    /// Tap packets dropped for a destination outside the virtual space (or the gateway).
    pub not_virtual_dropped: u64,
    /// Tunnelled payloads that failed to parse as IPv4.
    pub decode_errors: u64,
    /// Tunnelled packets delivered here for an IP this node neither holds nor
    /// routes for (a guest that migrated away, a sender's stale Brunet-ARP
    /// mapping).
    pub misdelivered: u64,
    /// Packets received for a virtual IP this node routes for but that is not the
    /// tap address (guest VMs / multiple-IP support).
    pub guest_rx: u64,
    /// Brunet-ARP queries issued.
    pub arp_queries: u64,
    /// Passes the agent's pump ran over its stages (one or more per wake-up).
    pub pump_passes: u64,
}

/// What the user-level router charges the host for one tunnelled packet, as
/// `(occupancy, latency)`: the CPU is busy for the pipelined share plus the
/// tap crossing, while the packet leaves the router only after the full
/// processing latency plus the crossing. Every packet pays alike, an ack as
/// much as a full-sized segment.
pub(crate) fn router_charge(cal: &Calibration, load: f64) -> (Duration, Duration) {
    (
        cal.pipeline_cost_at_load(load) + cal.tap_crossing_cost,
        cal.ipop_cost_at_load(load) + cal.tap_crossing_cost,
    )
}

/// Packets inside the user-level router in one direction, each with the
/// instant it leaves. The instants come from the host's FIFO CPU queue, so
/// the queue is ordered and its front is the earliest.
struct RouterQueue<T>(VecDeque<(SimTime, T)>);

impl<T> RouterQueue<T> {
    /// Charge `cpu` — which returns when the host has done the work it is
    /// given — for one packet, and queue the packet until it leaves: when the
    /// CPU is through with it or the latency has passed, whichever is later.
    fn push(
        &mut self,
        now: SimTime,
        (occupancy, latency): (Duration, Duration),
        cpu: &mut impl FnMut(Duration) -> SimTime,
        item: T,
    ) {
        let ready = cpu(occupancy).max(now + latency);
        debug_assert!(
            self.0.back().is_none_or(|(t, _)| *t <= ready),
            "router completion instants are FIFO"
        );
        self.0.push_back((ready, item));
    }

    /// Take the front packet if the router has finished with it by `now`.
    fn pop_ready(&mut self, now: SimTime) -> Option<T> {
        if self.0.front()?.0 > now {
            return None;
        }
        self.0.pop_front().map(|(_, item)| item)
    }

    fn next(&self) -> Option<SimTime> {
        self.0.front().map(|(t, _)| *t)
    }
}

/// One node's virtual side: tap, adapter, virtual stack and application,
/// and the router between them and the overlay.
pub(crate) struct DataPlane {
    /// The node's configuration. `cfg.virtual_ip` is the tap's address —
    /// unspecified while a dynamic node holds none, which is also exactly
    /// when its application is not running.
    pub(crate) cfg: IpopConfig,
    host_name: String,
    tap: TapDevice,
    veth: EthAdapter,
    gateway_mac: MacAddr,
    app: AppHost,
    pub(crate) brunet_arp: Option<BrunetArp>,
    /// Guest IPs this node routes for (paper Section III-E), and the packets
    /// delivered to them with their delivery instants.
    guest_ips: Vec<Ipv4Addr>,
    pub(crate) guest_delivered: Vec<(SimTime, Ipv4Packet)>,
    /// Virtual IP → overlay address (SHA-1 of the IP). The mapping is a pure
    /// function, and hashing on every tunnelled packet is measurable.
    addr_cache: BTreeMap<Ipv4Addr, Address>,
    /// Tunnelled packets on their way up to the tap, with their hop counts.
    rx: RouterQueue<(Ipv4Packet, u8)>,
    /// Packets from the tap on their way into the overlay.
    tx: RouterQueue<Ipv4Packet>,
    pub(crate) metrics: IpopMetrics,
}

impl DataPlane {
    pub(crate) fn new(cfg: IpopConfig, app: Box<dyn VirtualApp>, rng: StreamRng) -> Self {
        let gateway_mac =
            MacAddr::local(0xFFFF_FFFF_0000 | u64::from(u32::from(cfg.gateway_ip())) & 0xFFFF);
        let (tap, veth, stack) = virtual_side(&cfg, gateway_mac);
        DataPlane {
            brunet_arp: cfg
                .brunet_arp
                .then(|| BrunetArp::new(cfg.brunet_arp_cache_ttl)),
            cfg,
            host_name: String::new(),
            tap,
            veth,
            gateway_mac,
            app: AppHost::new(stack, app, rng),
            guest_ips: Vec::new(),
            guest_delivered: Vec::new(),
            addr_cache: BTreeMap::new(),
            rx: RouterQueue(VecDeque::new()),
            tx: RouterQueue(VecDeque::new()),
            metrics: IpopMetrics::default(),
        }
    }

    /// The tap's virtual IP, unspecified while there is none.
    pub(crate) fn ip(&self) -> Ipv4Addr {
        self.cfg.virtual_ip
    }

    /// True while the virtual side is up (the node holds an address).
    pub(crate) fn is_live(&self) -> bool {
        !self.cfg.virtual_ip.is_unspecified()
    }

    pub(crate) fn app_as<T: 'static>(&self) -> Option<&T> {
        self.app.app_as()
    }

    /// Learn the host's name, which labels the application's results.
    pub(crate) fn set_host_name(&mut self, name: &str) {
        self.host_name = name.to_string();
    }

    /// Bring the virtual side up on `ip`: a fresh tap, adapter and virtual
    /// stack around it, and the application started.
    pub(crate) fn bind(&mut self, now: SimTime, ip: Ipv4Addr) {
        self.cfg.virtual_ip = ip;
        self.app.label = format!("{}({})", self.host_name, ip);
        self.rebuild();
        self.app.start(now);
    }

    /// Take the virtual side down: the node is an overlay router with no
    /// address again. The tap, adapter and virtual stack are replaced too, or
    /// their in-flight timers (TCP retransmits) would keep emitting segments
    /// sourced from an address another node now owns.
    pub(crate) fn relinquish(&mut self) {
        self.cfg.virtual_ip = Ipv4Addr::UNSPECIFIED;
        self.app.label = format!("{}(unbound)", self.host_name);
        self.rebuild();
    }

    /// Fresh tap, adapter and virtual stack for the current address, and
    /// every packet queued against the previous one dropped: the router's
    /// queues and Brunet-ARP's parked packets (released by a late reply,
    /// they would emit from an address this node no longer holds).
    fn rebuild(&mut self) {
        (self.tap, self.veth, self.app.stack) = virtual_side(&self.cfg, self.gateway_mac);
        self.rx.0.clear();
        self.tx.0.clear();
        if let Some(arp) = self.brunet_arp.as_mut() {
            arp.reset_pending();
        }
    }

    /// Register `ip → this node` as a Brunet-ARP mapping lease, renewed at
    /// half the lease TTL (a no-op without Brunet-ARP).
    pub(crate) fn publish_mapping(&self, overlay: &mut OverlayNode, now: SimTime, ip: Ipv4Addr) {
        if self.brunet_arp.is_some() {
            let value = BrunetArp::encode_mapping(&overlay.address());
            overlay.dht_put_ttl(now, BrunetArp::key_for(ip), value, self.cfg.lease_ttl);
        }
    }

    pub(crate) fn route_for(&mut self, overlay: &mut OverlayNode, now: SimTime, ip: Ipv4Addr) {
        if !self.guest_ips.contains(&ip) {
            self.guest_ips.push(ip);
        }
        self.publish_mapping(overlay, now, ip);
    }

    pub(crate) fn unroute_for(&mut self, overlay: &mut OverlayNode, ip: Ipv4Addr) {
        self.guest_ips.retain(|&x| x != ip);
        if self.brunet_arp.is_some() {
            overlay.dht_unpublish(&BrunetArp::key_for(ip));
        }
    }

    /// Delete this node's Brunet-ARP mappings on a graceful leave: the own
    /// one of a static node (a dynamic node's is the lease its allocator
    /// releases), and every guest's — those are separate leases, and guest
    /// traffic must not black-hole into a departed host for a full TTL.
    pub(crate) fn leave(&mut self, overlay: &mut OverlayNode, now: SimTime) {
        if self.brunet_arp.is_none() {
            return;
        }
        if self.is_live() && self.cfg.dynamic_subnet.is_none() {
            overlay.dht_remove(now, BrunetArp::key_for(self.cfg.virtual_ip));
        }
        for &ip in &self.guest_ips {
            overlay.dht_remove(now, BrunetArp::key_for(ip));
        }
    }

    /// Overlay deliveries into the router's receive queue, each charged to
    /// `cpu`.
    pub(crate) fn receive(
        &mut self,
        overlay: &mut OverlayNode,
        now: SimTime,
        charge: (Duration, Duration),
        cpu: &mut impl FnMut(Duration) -> SimTime,
    ) {
        for routed in overlay.take_delivered() {
            if let RoutedPayload::IpTunnel(bytes) = routed.payload {
                match Ipv4Packet::from_bytes(&bytes) {
                    Ok(vpkt) => self.rx.push(now, charge, cpu, (vpkt, routed.hops)),
                    Err(_) => self.metrics.decode_errors += 1,
                }
            }
        }
    }

    /// Release what the router has finished with by `now`, both directions:
    /// inbound packets up to the tap or a guest queue, outbound ones into
    /// the overlay.
    pub(crate) fn flush(&mut self, overlay: &mut OverlayNode, now: SimTime) {
        while let Some((vpkt, hops)) = self.rx.pop_ready(now) {
            self.deliver(now, vpkt, hops);
        }
        while let Some(vpkt) = self.tx.pop_ready(now) {
            self.dispatch(overlay, now, vpkt);
        }
    }

    /// Brunet-ARP's DHT replies: a resolved destination releases the packets
    /// parked for it into the overlay.
    pub(crate) fn on_arp_replies(
        &mut self,
        overlay: &mut OverlayNode,
        now: SimTime,
        replies: Vec<(u64, Option<Bytes>)>,
    ) {
        let Some(arp) = self.brunet_arp.as_mut() else {
            return;
        };
        for (token, value) in replies {
            let Some((addr, packets)) = arp.on_reply(now, token, value) else {
                continue;
            };
            for vpkt in packets {
                self.metrics.tunneled_tx += 1;
                overlay.send_ip(now, addr, vpkt.to_bytes());
            }
        }
    }

    /// One pass over the tap and what sits behind it: frames the kernel sent
    /// (outbound traffic, charged to `cpu` on its way into the router),
    /// frames the router injected (up through the adapter to the virtual
    /// stack), the application, and the stack's output back onto the tap.
    /// Returns whether any frame moved.
    pub(crate) fn poll(
        &mut self,
        now: SimTime,
        charge: (Duration, Duration),
        cpu: &mut impl FnMut(Duration) -> SimTime,
    ) -> bool {
        let mut progress = false;
        while let Some(frame) = self.tap.user_read() {
            progress = true;
            match frame.payload {
                FramePayload::Ipv4(vpkt) => {
                    let dst = vpkt.dst();
                    if dst == self.cfg.virtual_ip {
                        // Local loopback on the virtual interface.
                        self.deliver(now, vpkt, 0);
                    } else if !self.cfg.in_virtual_space(dst) || dst == self.cfg.gateway_ip() {
                        self.metrics.not_virtual_dropped += 1;
                    } else {
                        self.tx.push(now, charge, cpu, vpkt);
                    }
                }
                // ARP is contained within the host (paper Section III-A).
                FramePayload::Arp(_) => self.metrics.arp_contained += 1,
                FramePayload::Other(..) => self.metrics.non_ip_dropped += 1,
            }
        }
        while let Some(frame) = self.tap.kernel_read() {
            progress = true;
            let (up, responses) = self.veth.process_frame(frame);
            for pkt in up {
                self.app.stack.handle_packet(now, pkt);
            }
            for f in responses {
                self.tap.kernel_write(f);
            }
        }
        // Not before the deferred start of a dynamic node.
        if self.is_live() {
            self.app.poll(now);
        }
        self.app.stack.poll(now);
        for pkt in self.app.stack.take_packets() {
            for frame in self.veth.encapsulate(pkt) {
                self.tap.kernel_write(frame);
            }
            progress = true;
        }
        progress
    }

    /// True while the tap holds a frame the virtual side wrote after this
    /// pass's [`DataPlane::poll`] read the tap: the next pass must read it.
    pub(crate) fn holds_frame(&self) -> bool {
        self.tap.pending_user() > 0
    }

    /// The earliest instant the data plane needs a pass: a virtual-stack
    /// timer, the application, or a packet leaving the router.
    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        [self.app.next_deadline(), self.rx.next(), self.tx.next()]
            .into_iter()
            .flatten()
            .min()
    }

    /// Hand one processed outbound packet to the overlay.
    fn dispatch(&mut self, overlay: &mut OverlayNode, now: SimTime, vpkt: Ipv4Packet) {
        let dst = vpkt.dst();
        self.metrics.tunneled_tx += 1;
        let Some(arp) = self.brunet_arp.as_mut() else {
            let addr = *self
                .addr_cache
                .entry(dst)
                .or_insert_with(|| Address::from_ip(dst));
            overlay.send_ip(now, addr, vpkt.to_bytes());
            return;
        };
        match arp.resolve(now, dst) {
            Resolution::Resolved(addr) => overlay.send_ip(now, addr, vpkt.to_bytes()),
            Resolution::NeedsQuery(key) => {
                let token = overlay.dht_get(now, key);
                arp.query_issued(now, token, dst);
                arp.park(dst, vpkt);
                self.metrics.arp_queries += 1;
            }
            Resolution::Pending => arp.park(dst, vpkt),
        }
    }

    /// Deliver one packet the router is done with, `hops` overlay hops from
    /// its sender.
    fn deliver(&mut self, now: SimTime, vpkt: Ipv4Packet, hops: u8) {
        let dst = vpkt.dst();
        if dst == self.cfg.virtual_ip {
            // Rebuild the Ethernet frame and inject it through the tap, exactly as
            // the prototype writes to /dev/net/tun: source MAC is the fabricated
            // gateway, destination is the tap device.
            let frame = EthernetFrame::ipv4(self.gateway_mac, self.tap.mac(), vpkt);
            self.tap.user_write(frame);
            self.metrics.tunneled_rx += 1;
            self.metrics.tunneled_rx_hops += u64::from(hops);
        } else if self.guest_ips.contains(&dst) {
            self.metrics.guest_rx += 1;
            self.guest_delivered.push((now, vpkt));
        } else {
            self.metrics.misdelivered += 1;
        }
    }
}

/// MTU of the virtual interface, kept below the physical 1500 so an
/// encapsulated virtual packet still fits in one physical datagram.
const VIRTUAL_MTU: usize = 1400;

/// A fresh tap, static-gateway adapter and virtual stack for
/// `cfg.virtual_ip` (the pre-bind placeholder when unspecified).
fn virtual_side(cfg: &IpopConfig, gateway_mac: MacAddr) -> (TapDevice, EthAdapter, NetStack) {
    let ip = cfg.virtual_ip;
    let tap_mac = MacAddr::local(u64::from(u32::from(ip)));
    (
        TapDevice::new(tap_mac),
        EthAdapter::with_static_gateway(tap_mac, ip, cfg.gateway_ip(), gateway_mac),
        NetStack::new(StackConfig::new(ip).with_mtu(VIRTUAL_MTU)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipop_packet::ipv4::Ipv4Payload;

    /// A FIFO host CPU, as netsim's: work starts when the previous job ends.
    fn fifo_cpu(now: SimTime) -> impl FnMut(Duration) -> SimTime {
        let mut busy_until = now;
        move |work| {
            busy_until = busy_until.max(now) + work;
            busy_until
        }
    }

    fn packet(len: usize) -> Ipv4Packet {
        Ipv4Packet::new(
            Ipv4Addr::new(172, 16, 0, 1),
            Ipv4Addr::new(172, 16, 0, 2),
            Ipv4Payload::Raw(99, vec![0; len].into()),
        )
    }

    #[test]
    fn an_idle_host_pays_the_base_costs_plus_one_tap_crossing() {
        let cal = Calibration::default();
        for load in [0.0, 1.0] {
            assert_eq!(
                router_charge(&cal, load),
                (
                    cal.ipop_pipeline_cost + cal.tap_crossing_cost,
                    cal.ipop_processing_cost + cal.tap_crossing_cost
                ),
                "load {load} clamps to an idle host"
            );
        }
    }

    #[test]
    fn a_loaded_host_scales_both_by_the_load_rule() {
        let cal = Calibration::default();
        let (occupancy, latency) = router_charge(&cal, 10.0);
        assert_eq!(
            occupancy,
            cal.pipeline_cost_at_load(10.0) + cal.tap_crossing_cost
        );
        assert_eq!(latency, cal.ipop_cost_at_load(10.0) + cal.tap_crossing_cost);
        // The CPU share scales by the load; only the latency also waits for
        // the scheduling quantum of a contended host.
        assert_eq!(
            occupancy - cal.tap_crossing_cost,
            cal.ipop_pipeline_cost * 10
        );
        assert_eq!(
            latency - cal.tap_crossing_cost,
            cal.ipop_processing_cost * 10 + cal.load_scheduling_quantum.mul_f64(0.8)
        );
    }

    #[test]
    fn completion_instants_stay_fifo() {
        let charge = router_charge(&Calibration::default(), 1.0);
        let (occupancy, latency) = charge;
        let now = SimTime::ZERO;
        let mut cpu = fifo_cpu(now);
        let mut queue = RouterQueue(VecDeque::new());
        for i in 0..8u8 {
            queue.push(now, charge, &mut cpu, i);
        }
        // A burst overlaps in the pipeline: no packet leaves before the full
        // latency, nor before the CPU has worked through the ones ahead of it.
        assert_eq!(queue.next(), Some(now + latency));
        let instants: Vec<SimTime> = queue.0.iter().map(|(t, _)| *t).collect();
        assert!(instants.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(instants[7], now + occupancy * 8);
        assert_eq!(
            queue.pop_ready(now + latency - Duration::from_micros(1)),
            None
        );
        let mut out = Vec::new();
        while let Some(i) = queue.pop_ready(SimTime::MAX) {
            out.push(i);
        }
        assert_eq!(
            out,
            (0..8).collect::<Vec<u8>>(),
            "packets leave in arrival order"
        );
    }

    /// The router charges per packet, not per byte: today an ack costs a
    /// full segment's pipeline time. A size-aware charge (ROADMAP item 7(c))
    /// changes this test on purpose.
    #[test]
    fn ack_sized_and_full_sized_packets_are_charged_alike() {
        let charge = router_charge(&Calibration::default(), 1.0);
        let now = SimTime::ZERO;
        let ready = |pkt: Ipv4Packet| {
            let mut queue = RouterQueue(VecDeque::new());
            queue.push(now, charge, &mut fifo_cpu(now), pkt);
            queue.next()
        };
        // A bare TCP ack is 40 bytes on the wire, a full segment 1400.
        let ack = packet(20);
        let full = packet(1380);
        assert_eq!((ack.wire_len(), full.wire_len()), (40, 1400));
        assert_eq!(ready(ack), ready(full));
    }
}
