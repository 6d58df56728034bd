//! Simulator events must grow with the traffic an agent carries, not with
//! how long it has been running.
//!
//! Each host agent owns one pending wake-up timer
//! (`crates/core/src/wakeup.rs`). Before that, every earlier deadline armed
//! one more timer and every fired timer re-armed itself, so an agent's timer
//! population only grew: a WAN ttcp cost ~300 events per tunnelled packet and
//! doubling the transfer more than doubled the events. These tests pin the
//! cause — event count per packet and its growth with transfer size — rather
//! than a wall-clock symptom.
//!
//! Inside each event the agent's pump runs passes over its stages, and a pass
//! is repeated only when a later stage handed work to an earlier one. The
//! pass counts are pinned here too: with the old rule — another pass
//! whenever anything moved, so every busy pass bought a confirming one —
//! the transfer ran 16–18 passes per tunnelled packet and an idle Fig. 4
//! deployment 14,434 passes a minute, two per wake-up.

use ipop::{DeployOptions, IpopHostAgent, IpopMember, PlainHostAgent, VirtualApp};
use ipop_apps::ttcp::TtcpApp;
use ipop_bench::scenarios::{fig4_virtual_ips, WARMUP};
use ipop_netsim::{fig4_testbed, lan_pair, HostId, Network, NetworkSim};
use ipop_simcore::Duration;

const PORT: u16 = 5201;

/// Run `sim` until `finished` or 600 virtual seconds; returns events executed.
fn run_transfer(sim: &mut NetworkSim, finished: impl Fn(&NetworkSim) -> bool) -> u64 {
    for _ in 0..600 {
        if finished(sim) {
            return sim.events_executed();
        }
        sim.run_for(Duration::from_secs(1));
    }
    panic!("transfer did not finish within 600 virtual s");
}

/// Pump passes run so far by the IPOP agents on `hosts`.
fn pump_passes(sim: &NetworkSim, hosts: &[HostId]) -> u64 {
    let agent = |&h| sim.agent_as::<IpopHostAgent>(h);
    hosts
        .iter()
        .filter_map(agent)
        .map(|a| a.metrics().pump_passes)
        .sum()
}

/// Table III's transfer (ttcp F4 → V1 over IPOP-UDP on the Fig. 4 testbed):
/// `(events executed, virtual IP packets tunnelled to the receiver, pump
/// passes of all six agents)`.
fn wan_ipop_ttcp(bytes: u64) -> (u64, u64, u64) {
    const SRC: usize = 3; // F4
    const DST: usize = 4; // V1
    let mut net = Network::new(7);
    let hosts = fig4_testbed(&mut net).all();
    let vips = fig4_virtual_ips();
    let members = vips
        .iter()
        .map(|&(i, vip)| match i {
            SRC => IpopMember::new(
                hosts[i],
                vip,
                Box::new(TtcpApp::sender(vips[DST].1, PORT, bytes).with_start_delay(WARMUP)),
            ),
            DST => IpopMember::new(hosts[i], vip, Box::new(TtcpApp::receiver(PORT))),
            _ => IpopMember::router(hosts[i], vip),
        })
        .collect();
    ipop::deploy_ipop(&mut net, members, DeployOptions::udp());
    let mut sim = NetworkSim::new(net);
    let events = run_transfer(&mut sim, |sim| {
        let sender = sim.agent_as::<IpopHostAgent>(hosts[SRC]).unwrap();
        sender.app_as::<TtcpApp>().unwrap().finished()
    });
    let receiver = sim.agent_as::<IpopHostAgent>(hosts[DST]).unwrap();
    assert_eq!(receiver.app_as::<TtcpApp>().unwrap().received(), bytes);
    let passes = pump_passes(&sim, &hosts);
    (events, receiver.metrics().tunneled_rx, passes)
}

/// The physical baseline on a LAN: `(events executed, packets delivered)`.
fn lan_plain_ttcp(bytes: u64) -> (u64, u64) {
    let mut net = Network::new(7);
    let (a, b, _, b_addr) = lan_pair(&mut net);
    ipop::deploy_plain(&mut net, a, Box::new(TtcpApp::sender(b_addr, PORT, bytes)));
    ipop::deploy_plain(&mut net, b, Box::new(TtcpApp::receiver(PORT)));
    let mut sim = NetworkSim::new(net);
    let events = run_transfer(&mut sim, |sim| {
        let sender = sim.agent_as::<PlainHostAgent>(a).unwrap();
        sender.app_as::<TtcpApp>().unwrap().finished()
    });
    (events, sim.net().counters().delivered)
}

/// `< per_packet` events per packet at both sizes, and twice the bytes cost
/// at most 2.2 × the events.
fn assert_linear(what: &str, per_packet: f64, small: (u64, u64), large: (u64, u64)) {
    for (events, packets) in [small, large] {
        let ratio = events as f64 / packets as f64;
        assert!(
            ratio < per_packet,
            "{what}: {events} events for {packets} packets = {ratio:.1} per packet"
        );
    }
    assert!(
        large.0 as f64 <= 2.2 * small.0 as f64,
        "{what}: doubling the transfer took {} -> {} events",
        small.0,
        large.0
    );
}

#[test]
fn ipop_agent_events_are_linear_in_tunnelled_packets() {
    let (small, large) = (wan_ipop_ttcp(2_000_000), wan_ipop_ttcp(4_000_000));
    assert_linear(
        "WAN ttcp over IPOP-UDP",
        20.0,
        (small.0, small.1),
        (large.0, large.1),
    );
    // Measured: 9.9 and 9.1 passes per tunnelled packet (17.8 and 16.1
    // under the old rule).
    for (_, packets, passes) in [small, large] {
        let ratio = passes as f64 / packets as f64;
        assert!(
            ratio < 12.0,
            "{passes} pump passes for {packets} tunnelled packets = {ratio:.1} per packet"
        );
    }
}

/// A converged deployment with no traffic: every wake-up — a maintenance
/// tick, a probe or a keep-alive — costs one pass, since nothing it does
/// comes back to an earlier stage. Measured: 7,217 passes for six agents over
/// 60 virtual s (14,434 under the old rule).
#[test]
fn an_idle_deployment_runs_one_pass_per_wakeup() {
    let mut net = Network::new(7);
    let hosts = fig4_testbed(&mut net).all();
    let members = fig4_virtual_ips()
        .iter()
        .map(|&(i, vip)| IpopMember::router(hosts[i], vip))
        .collect();
    ipop::deploy_ipop(&mut net, members, DeployOptions::udp());
    let mut sim = NetworkSim::new(net);
    sim.run_for(WARMUP);
    let before = pump_passes(&sim, &hosts);
    sim.run_for(Duration::from_secs(60));
    let passes = pump_passes(&sim, &hosts) - before;
    assert!(passes <= 8_000, "{passes} pump passes in 60 idle virtual s");
}

#[test]
fn plain_agent_events_are_linear_in_delivered_packets() {
    let (small, large) = (lan_plain_ttcp(2_000_000), lan_plain_ttcp(4_000_000));
    assert_linear("LAN ttcp on the physical network", 20.0, small, large);
}
