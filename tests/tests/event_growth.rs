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

use ipop::{DeployOptions, IpopHostAgent, IpopMember, PlainHostAgent, VirtualApp};
use ipop_apps::ttcp::TtcpApp;
use ipop_bench::scenarios::{fig4_virtual_ips, WARMUP};
use ipop_netsim::{fig4_testbed, lan_pair, Network, NetworkSim};
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

/// Table III's transfer (ttcp F4 → V1 over IPOP-UDP on the Fig. 4 testbed):
/// `(events executed, virtual IP packets tunnelled to the receiver)`.
fn wan_ipop_ttcp(bytes: u64) -> (u64, u64) {
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
    (events, receiver.metrics().tunneled_rx)
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
    assert_linear("WAN ttcp over IPOP-UDP", 20.0, small, large);
}

#[test]
fn plain_agent_events_are_linear_in_delivered_packets() {
    let (small, large) = (lan_plain_ttcp(2_000_000), lan_plain_ttcp(4_000_000));
    assert_linear("LAN ttcp on the physical network", 20.0, small, large);
}
