//! Ablation experiments for the design points the paper discusses but does not
//! quantify: shortcut connections (Section V.1) and the Brunet-ARP mapper
//! (Section III-E).

use std::any::Any;
use std::net::Ipv4Addr;

use ipop::app::{AppEnv, VirtualApp};
use ipop::prelude::*;
use ipop::IpopHostAgent;
use ipop_apps::ping::PingApp;
use ipop_netsim::{planetlab, Network, NetworkSim};
use ipop_simcore::{stats, Duration, SimTime};

use crate::paper::{self, Measured};
use crate::scenarios::{app, mean_hops, History};
use crate::Outcome;

// ------------------------------------------------------------------- shortcuts

/// Compare routing with and without Kleinberg shortcut connections on an
/// `n`-node overlay (lightly loaded, so path length dominates the RTT): per
/// row the mean ping RTT, the mean hops of a delivered tunnel packet and the
/// overlay's established connections.
pub fn shortcuts(n: usize, pings: u32) -> Vec<Measured> {
    let mut cells = Vec::new();
    for (row, enabled) in [("enabled", true), ("disabled", false)] {
        let mut net = Network::new(0xab1a71);
        let plab = planetlab(&mut net, n, 1.0, 7);
        let vip = |i: usize| Ipv4Addr::new(172, 16, 3 + (i / 200) as u8, (i % 200 + 1) as u8);
        let ping = PingApp::new(vip(n - 1), pings, Duration::from_millis(50))
            .with_start_delay(Duration::from_secs(30))
            .with_timeout(Duration::from_secs(10));
        let mut ping = Some(Box::new(ping) as Box<dyn VirtualApp>);
        let members = plab.nodes.iter().enumerate().map(|(i, &h)| match i {
            1 => IpopMember::new(h, vip(i), ping.take().expect("one pinger")),
            _ => IpopMember::router(h, vip(i)),
        });
        let options = DeployOptions {
            shortcuts: enabled,
            ..DeployOptions::udp()
        };
        ipop::deploy_ipop(&mut net, members.collect(), options);
        let mut sim = NetworkSim::new(net);
        sim.run_for(Duration::from_secs(40) + Duration::from_millis(50) * u64::from(pings) * 4);
        let rtt =
            app::<PingApp>(sim.net(), plab.nodes[1]).map(|p| stats::mean(&p.report().rtts_ms));
        let agents = plab
            .nodes
            .iter()
            .filter_map(|&h| sim.net().agent_as::<IpopHostAgent>(h));
        let connections: usize = agents.map(|a| a.connection_count()).sum();
        let history = History::of(&sim);
        for (column, value) in [
            ("mean RTT (ms)", rtt.unwrap_or_default()),
            ("hops", mean_hops(sim.net(), &plab.nodes)),
            ("connections", connections as f64),
        ] {
            let key = ("§V.1 shortcuts", row, column);
            cells.push(Measured {
                key,
                value,
                history,
            });
        }
    }
    cells
}

/// Overlay nodes and pings of the shortcut ablation: 64 and 200, 24 and 30
/// when `quick`.
pub(crate) fn shortcut_size(quick: bool) -> (usize, u32) {
    if quick {
        (24, 30)
    } else {
        (64, 200)
    }
}

/// The `shortcuts` scenario at [`shortcut_size`].
pub fn shortcuts_scenario(quick: bool) -> Outcome {
    let (nodes, pings) = shortcut_size(quick);
    let title = format!("Ablation - shortcut (structured-far) connections, {nodes}-node overlay");
    paper::print(&title, &shortcuts(nodes, pings))
}

// ------------------------------------------------------------------ Brunet-ARP

/// A little application that sends UDP datagrams to a (possibly migrating)
/// virtual IP at a fixed interval; used to exercise the Brunet-ARP resolver.
struct UdpBlaster {
    target: Ipv4Addr,
    count: u32,
    interval: Duration,
    start_delay: Duration,
    socket: Option<ipop_netstack::SocketHandle>,
    sent: u32,
    next_at: SimTime,
}

impl UdpBlaster {
    fn new(target: Ipv4Addr, count: u32, interval: Duration, start_delay: Duration) -> Self {
        UdpBlaster {
            target,
            count,
            interval,
            start_delay,
            socket: None,
            sent: 0,
            next_at: SimTime::ZERO,
        }
    }
}

impl VirtualApp for UdpBlaster {
    fn on_start(&mut self, env: &mut AppEnv<'_>) {
        self.socket = env.stack.udp_bind(7100).ok();
        self.next_at = env.now + self.start_delay;
    }

    fn poll(&mut self, env: &mut AppEnv<'_>) -> Option<SimTime> {
        let socket = self.socket?;
        while self.sent < self.count && env.now >= self.next_at {
            let _ = env
                .stack
                .udp_send(socket, self.target, 7200, vec![self.sent as u8; 64]);
            self.sent += 1;
            self.next_at += self.interval;
        }
        (self.sent < self.count).then_some(self.next_at)
    }

    fn finished(&self) -> bool {
        self.sent >= self.count
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Exercise the Brunet-ARP mapper: a sender keeps transmitting to a guest virtual
/// IP that is hosted by node B and later "migrates" to node C (Section III-E's VM
/// migration scenario). Rows count packets delivered to each host, and the
/// DHT queries and tunnelled packets of the sender.
pub fn brunet_arp() -> Vec<Measured> {
    let mut net = Network::new(0xab1a72);
    let site = net.add_site(ipop_netsim::SiteSpec::open("LAN"));
    let a = net.add_host("sender", site, Ipv4Addr::new(10, 60, 0, 1));
    let b = net.add_host("host-b", site, Ipv4Addr::new(10, 60, 0, 2));
    let c = net.add_host("host-c", site, Ipv4Addr::new(10, 60, 0, 3));
    let guest_ip = Ipv4Addr::new(172, 16, 9, 9);
    let members = vec![
        IpopMember::new(
            a,
            Ipv4Addr::new(172, 16, 0, 1),
            Box::new(UdpBlaster::new(
                guest_ip,
                100,
                Duration::from_secs(4),
                Duration::from_secs(10),
            )),
        ),
        IpopMember::router(b, Ipv4Addr::new(172, 16, 0, 2)),
        IpopMember::router(c, Ipv4Addr::new(172, 16, 0, 3)),
    ];
    let options = DeployOptions {
        brunet_arp: true,
        ..DeployOptions::udp()
    };
    ipop::deploy_ipop(&mut net, members, options);
    let mut sim = NetworkSim::new(net);
    // Let the overlay form, then register the guest IP at node B.
    sim.run_for(Duration::from_secs(8));
    let now = sim.now();
    if let Some(agent) = sim.net_mut().agent_as_mut::<IpopHostAgent>(b) {
        agent.route_for(now, guest_ip);
    }
    // First half of the transmission: packets should land on B.
    sim.run_for(Duration::from_secs(22));
    let delivered_before = sim
        .net()
        .agent_as::<IpopHostAgent>(b)
        .map(|ag| ag.metrics().guest_rx)
        .unwrap_or(0);
    // Migrate: node C now routes for the guest IP and re-publishes the
    // mapping, while B stops renewing its lease (the guest left it — were B
    // to keep refreshing, the two hosts would fight over the record).
    let now = sim.now();
    if let Some(agent) = sim.net_mut().agent_as_mut::<IpopHostAgent>(b) {
        agent.unroute_for(now, guest_ip);
    }
    let now = sim.now();
    if let Some(agent) = sim.net_mut().agent_as_mut::<IpopHostAgent>(c) {
        agent.route_for(now, guest_ip);
    }
    // The sender's Brunet-ARP cache entry (TTL 300 s) expires while packets are
    // still being sent, so the re-resolution picks up the migrated mapping.
    sim.run_for(Duration::from_secs(500));
    let delivered_after = sim
        .net()
        .agent_as::<IpopHostAgent>(c)
        .map(|ag| ag.metrics().guest_rx)
        .unwrap_or(0);
    let sender = sim
        .net()
        .agent_as::<IpopHostAgent>(a)
        .expect("sender agent");
    let history = History::of(&sim);
    [
        ("delivered to original host", delivered_before),
        ("delivered to migrated host", delivered_after),
        ("DHT queries by the sender", sender.metrics().arp_queries),
        ("tunnelled by the sender", sender.metrics().tunneled_tx),
    ]
    .map(|(row, n)| Measured {
        key: ("§III-E Brunet-ARP", row, "count"),
        value: n as f64,
        history,
    })
    .to_vec()
}

/// The `brunet_arp` scenario; one size, `--quick` changes nothing.
pub fn brunet_arp_scenario(_quick: bool) -> Outcome {
    let title = "Ablation - Brunet-ARP DHT mapping with VM migration";
    paper::print(title, &brunet_arp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brunet_arp_resolves_and_follows_migration() {
        let cells = brunet_arp();
        let get = |row| paper::get(&cells, row, "count");
        assert!(
            get("DHT queries by the sender") >= 1.0,
            "at least one DHT resolution"
        );
        assert!(
            get("delivered to original host") > 0.0,
            "guest packets reached the original host"
        );
        assert!(
            get("delivered to migrated host") > 0.0,
            "after migration and cache expiry, packets reach the new host"
        );
    }
}
