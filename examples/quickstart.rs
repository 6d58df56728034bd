//! Quickstart: build a two-site physical network, join both machines to an IPOP
//! virtual network and ping across it — the "hello world" of the paper.
//!
//! Run with `cargo run -p ipop-examples --bin quickstart`.

use std::net::Ipv4Addr;

use ipop::prelude::*;
use ipop_apps::ping::PingApp;
use ipop_simcore::stats;

fn main() {
    // 1. A physical network: two hosts at two sites connected over a wide-area core.
    let mut net = Network::new(7);
    let (a, b, _, _) = ipop_netsim::wan_pair(&mut net);

    // 2. Join both to a virtual 172.16.0.0/16 network; host A pings host B's
    //    virtual address once the overlay has self-configured.
    let target = Ipv4Addr::new(172, 16, 0, 2);
    deploy_ipop(
        &mut net,
        vec![
            IpopMember::new(
                a,
                Ipv4Addr::new(172, 16, 0, 1),
                Box::new(
                    PingApp::new(target, 20, Duration::from_millis(100))
                        .with_start_delay(Duration::from_secs(10)),
                ),
            ),
            IpopMember::router(b, target),
        ],
        DeployOptions::udp(),
    );

    // 3. Run the simulation.
    let mut sim = NetworkSim::new(net);
    sim.run_for(Duration::from_secs(30));

    // 4. Inspect the results.
    let node = sim
        .agent_as::<IpopHostAgent>(a)
        .expect("IPOP node on host A");
    let report = node.app_as::<PingApp>().expect("ping app").report();
    println!("IPOP node connected: {}", node.is_connected());
    println!(
        "ping {} over the virtual network: {} replies, mean RTT {:.3} ms (std dev {:.3} ms)",
        target,
        report.rtts_ms.len(),
        stats::mean(&report.rtts_ms),
        stats::std_dev(&report.rtts_ms)
    );
    println!(
        "packets tunnelled through the overlay: {} sent / {} received",
        node.metrics().tunneled_tx,
        node.metrics().tunneled_rx
    );
}
