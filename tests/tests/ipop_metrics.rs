//! `IpopMetrics` counts what happened under the name of what happened: a
//! tunnel packet that reaches a node which neither holds nor routes for its
//! destination is misdelivered, not a decode error; and a delivered packet's
//! hops are the ones it travelled.

use std::net::Ipv4Addr;

use ipop::prelude::*;
use ipop::IpopHostAgent;
use ipop_apps::ping::PingApp;
use ipop_netsim::{HostId, SiteSpec};

fn agent(sim: &mut NetworkSim, host: HostId) -> &mut IpopHostAgent {
    sim.net_mut()
        .agent_as_mut::<IpopHostAgent>(host)
        .expect("every member runs IPOP")
}

/// A guest IP leaves its host while a sender's Brunet-ARP cache (TTL 300 s)
/// still maps it there: the old host keeps receiving the guest's traffic.
#[test]
fn traffic_for_a_guest_that_left_counts_as_misdelivered() {
    let mut net = Network::new(0x6e57);
    let site = net.add_site(SiteSpec::open("LAN"));
    let sender = net.add_host("sender", site, Ipv4Addr::new(10, 70, 0, 1));
    let old_host = net.add_host("old-host", site, Ipv4Addr::new(10, 70, 0, 2));
    let guest = Ipv4Addr::new(172, 16, 9, 9);
    let ping = PingApp::new(guest, 40, Duration::from_secs(1))
        .with_start_delay(Duration::from_secs(10))
        .with_timeout(Duration::from_secs(2));
    let members = vec![
        IpopMember::new(sender, Ipv4Addr::new(172, 16, 0, 1), Box::new(ping)),
        IpopMember::router(old_host, Ipv4Addr::new(172, 16, 0, 2)),
    ];
    let options = DeployOptions {
        brunet_arp: true,
        ..DeployOptions::udp()
    };
    deploy_ipop(&mut net, members, options);
    let mut sim = NetworkSim::new(net);
    sim.run_for(Duration::from_secs(8));
    let now = sim.now();
    agent(&mut sim, old_host).route_for(now, guest);
    sim.run_for(Duration::from_secs(12));
    let before = agent(&mut sim, old_host).metrics();
    assert!(before.guest_rx > 0, "the guest's traffic reached its host");
    assert_eq!(before.misdelivered, 0);

    let now = sim.now();
    agent(&mut sim, old_host).unroute_for(now, guest);
    sim.run_for(Duration::from_secs(10));
    let after = agent(&mut sim, old_host).metrics();
    assert_eq!(after.guest_rx, before.guest_rx, "no longer a guest here");
    assert!(after.misdelivered >= 1, "{after:?}");
    assert_eq!(after.decode_errors, 0, "every payload parsed: {after:?}");
}

/// `tunneled_rx_hops` counts overlay hops, not forwards anywhere in the
/// overlay: between two nodes every tunnel packet crosses the one edge.
#[test]
fn a_direct_edge_is_one_hop_per_delivery() {
    let mut net = Network::new(0x6e58);
    let (a, b, _, _) = lan_pair(&mut net);
    let target = Ipv4Addr::new(172, 16, 0, 2);
    let ping = PingApp::new(target, 10, Duration::from_millis(100))
        .with_start_delay(Duration::from_secs(10));
    let members = vec![
        IpopMember::new(a, Ipv4Addr::new(172, 16, 0, 1), Box::new(ping)),
        IpopMember::router(b, target),
    ];
    deploy_ipop(&mut net, members, DeployOptions::udp());
    let mut sim = NetworkSim::new(net);
    sim.run_for(Duration::from_secs(15));
    let m = agent(&mut sim, a).metrics();
    assert!(m.tunneled_rx >= 10, "{m:?}");
    assert_eq!(m.tunneled_rx_hops, m.tunneled_rx, "{m:?}");
}
