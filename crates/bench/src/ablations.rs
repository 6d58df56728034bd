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
use ipop_simcore::{Duration, SimTime};

use crate::report::{f, Table};
use crate::Outcome;

// ------------------------------------------------------------------- shortcuts

/// Result of the shortcut ablation for one configuration.
#[derive(Clone, Debug)]
pub struct ShortcutResult {
    /// Whether far (shortcut) connections were enabled.
    pub shortcuts: bool,
    /// Mean ping RTT in milliseconds.
    pub mean_rtt_ms: f64,
    /// Mean overlay hops of a delivered tunnel packet.
    pub mean_hops: f64,
    /// Total established connections in the overlay.
    pub total_connections: usize,
}

/// Compare routing with and without Kleinberg shortcut connections on an
/// `n`-node overlay (lightly loaded, so path length dominates the RTT).
pub fn shortcuts(n: usize, pings: u32) -> Vec<ShortcutResult> {
    [true, false]
        .into_iter()
        .map(|enabled| {
            let mut net = Network::new(0xab1a71);
            let plab = planetlab(&mut net, n, 1.0, 7);
            let mut members = Vec::new();
            let mut ping_target = Ipv4Addr::UNSPECIFIED;
            let mut src_host = plab.nodes[0];
            for (i, &h) in plab.nodes.iter().enumerate() {
                let vip = Ipv4Addr::new(172, 16, 3 + (i / 200) as u8, (i % 200 + 1) as u8);
                if i == n - 1 {
                    ping_target = vip;
                }
                if i == 1 {
                    src_host = h;
                    members.push(IpopMember::new(
                        h,
                        vip,
                        Box::new(PingApp::new(
                            Ipv4Addr::UNSPECIFIED,
                            0,
                            Duration::from_millis(50),
                        )),
                    ));
                } else {
                    members.push(IpopMember::router(h, vip));
                }
            }
            // Replace the placeholder ping app now that the target is known.
            members[1] = IpopMember::new(
                src_host,
                Ipv4Addr::new(172, 16, 3, 2),
                Box::new(
                    PingApp::new(ping_target, pings, Duration::from_millis(50))
                        .with_start_delay(Duration::from_secs(30))
                        .with_timeout(Duration::from_secs(10)),
                ),
            );
            let options = DeployOptions {
                shortcuts: enabled,
                ..DeployOptions::udp()
            };
            ipop::deploy_ipop(&mut net, members, options);
            let mut sim = NetworkSim::new(net);
            sim.run_for(Duration::from_secs(40) + Duration::from_millis(50) * u64::from(pings) * 4);
            let report = sim
                .net()
                .agent_as::<IpopHostAgent>(src_host)
                .and_then(|a| a.app_as::<PingApp>())
                .map(|p| p.report().clone())
                .unwrap_or_default();
            let (mut hops, mut tunneled, mut connections) = (0u64, 0u64, 0usize);
            for &h in &plab.nodes {
                if let Some(agent) = sim.net().agent_as::<IpopHostAgent>(h) {
                    hops += agent.metrics().tunneled_rx_hops;
                    tunneled += agent.metrics().tunneled_rx;
                    connections += agent.connection_count();
                }
            }
            ShortcutResult {
                shortcuts: enabled,
                mean_rtt_ms: report.summary().mean,
                mean_hops: hops as f64 / tunneled.max(1) as f64,
                total_connections: connections,
            }
        })
        .collect()
}

/// Render the shortcut ablation table.
pub fn render_shortcuts(rows: &[ShortcutResult], n: usize) -> Table {
    let mut table = Table::new(
        &format!("Ablation - shortcut (structured-far) connections, {n}-node overlay"),
        &[
            "shortcuts",
            "mean ping RTT (ms)",
            "mean hops/delivery",
            "total connections",
        ],
    );
    for row in rows {
        table.row(&[
            if row.shortcuts { "enabled" } else { "disabled" }.to_string(),
            f(row.mean_rtt_ms, 1),
            f(row.mean_hops, 2),
            row.total_connections.to_string(),
        ]);
    }
    table
}

/// The `shortcuts` scenario: 64 nodes and 200 pings, 24 and 30 when `quick`.
pub fn shortcuts_scenario(quick: bool) -> Outcome {
    let (nodes, pings) = if quick { (24, 30) } else { (64, 200) };
    render_shortcuts(&shortcuts(nodes, pings), nodes).print();
    Outcome::printed()
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

/// Result of the Brunet-ARP ablation.
#[derive(Clone, Debug)]
pub struct BrunetArpResult {
    /// Packets that reached the node hosting the guest IP before migration.
    pub delivered_before: u64,
    /// Packets that reached the new host after the guest IP migrated.
    pub delivered_after: u64,
    /// DHT queries issued by the sender.
    pub queries: u64,
    /// Packets the sender tunnelled in total.
    pub tunneled: u64,
}

/// Exercise the Brunet-ARP mapper: a sender keeps transmitting to a guest virtual
/// IP that is hosted by node B and later "migrates" to node C (Section III-E's VM
/// migration scenario).
pub fn brunet_arp() -> BrunetArpResult {
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
    BrunetArpResult {
        delivered_before,
        delivered_after,
        queries: sender.metrics().arp_queries,
        tunneled: sender.metrics().tunneled_tx,
    }
}

/// Render the Brunet-ARP ablation table.
pub fn render_brunet_arp(result: &BrunetArpResult) -> Table {
    let mut table = Table::new(
        "Ablation - Brunet-ARP DHT mapping with VM migration",
        &["metric", "value"],
    );
    table.row(&[
        "packets delivered to original host".into(),
        result.delivered_before.to_string(),
    ]);
    table.row(&[
        "packets delivered to migrated host".into(),
        result.delivered_after.to_string(),
    ]);
    table.row(&[
        "DHT queries issued by the sender".into(),
        result.queries.to_string(),
    ]);
    table.row(&[
        "packets tunnelled by the sender".into(),
        result.tunneled.to_string(),
    ]);
    table
}

/// The `brunet_arp` scenario; one size, `--quick` changes nothing.
pub fn brunet_arp_scenario(_quick: bool) -> Outcome {
    render_brunet_arp(&brunet_arp()).print();
    Outcome::printed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brunet_arp_resolves_and_follows_migration() {
        let result = brunet_arp();
        assert!(result.queries >= 1, "at least one DHT resolution");
        assert!(
            result.delivered_before > 0,
            "guest packets reached the original host"
        );
        assert!(
            result.delivered_after > 0,
            "after migration and cache expiry, packets reach the new host"
        );
    }
}
