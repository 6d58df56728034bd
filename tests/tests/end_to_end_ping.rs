//! End-to-end: an unmodified ping application runs over an IPOP virtual network
//! deployed on the paper's Fig. 4 testbed, and the user-level overhead matches the
//! paper's qualitative claim (a few milliseconds added on a LAN path).

use std::net::Ipv4Addr;

use ipop::prelude::*;
use ipop::{IpopHostAgent, PlainHostAgent};
use ipop_apps::ping::PingApp;
use ipop_netsim::fig4_testbed;
use ipop_simcore::stats;

fn ipop_lan_ping(seed: u64) -> (f64, u64, u64) {
    let mut net = Network::new(seed);
    let tb = fig4_testbed(&mut net);
    let f2_vip = Ipv4Addr::new(172, 16, 0, 4);
    let f4_vip = Ipv4Addr::new(172, 16, 0, 2);
    deploy_ipop(
        &mut net,
        vec![
            IpopMember::router(tb.f4, f4_vip),
            IpopMember::new(
                tb.f2,
                f2_vip,
                Box::new(
                    PingApp::new(f4_vip, 15, Duration::from_millis(20))
                        .with_start_delay(Duration::from_secs(15)),
                ),
            ),
        ],
        DeployOptions::udp(),
    );
    let mut sim = NetworkSim::new(net);
    sim.run_for(Duration::from_secs(40));
    let agent = sim.agent_as::<IpopHostAgent>(tb.f2).expect("ipop agent");
    assert!(agent.is_connected(), "overlay self-configured");
    let report = agent.app_as::<PingApp>().unwrap().report().clone();
    (
        stats::mean(&report.rtts_ms),
        agent.metrics().tunneled_tx,
        agent.metrics().tunneled_rx,
    )
}

fn physical_lan_ping(seed: u64) -> f64 {
    let mut net = Network::new(seed);
    let tb = fig4_testbed(&mut net);
    let target = tb.addrs[3];
    ipop::deploy_plain(
        &mut net,
        tb.f2,
        Box::new(PingApp::new(target, 15, Duration::from_millis(20))),
    );
    ipop::deploy_plain(&mut net, tb.f4, Box::new(ipop::NullApp));
    let mut sim = NetworkSim::new(net);
    sim.run_for(Duration::from_secs(10));
    sim.agent_as::<PlainHostAgent>(tb.f2)
        .and_then(|a| a.app_as::<PingApp>())
        .map(|p| stats::mean(&p.report().rtts_ms))
        .unwrap_or(f64::NAN)
}

#[test]
fn ipop_lan_ping_overhead_is_single_digit_milliseconds() {
    let physical = physical_lan_ping(501);
    let (ipop_mean, tx, rx) = ipop_lan_ping(502);
    assert!(physical < 2.5, "physical LAN RTT {physical} ms");
    assert!(
        tx > 0 && rx > 0,
        "packets actually crossed the overlay ({tx}/{rx})"
    );
    let overhead = ipop_mean - physical;
    assert!(
        overhead > 3.0 && overhead < 20.0,
        "IPOP user-level overhead should be a few ms (paper: 6-10 ms), measured {overhead:.2} ms"
    );
}
