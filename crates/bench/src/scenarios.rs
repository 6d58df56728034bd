//! Shared scenario builders: each function stands up a physical topology, deploys
//! the workload (baseline or IPOP) and runs the simulation to completion.

use std::net::Ipv4Addr;

use ipop::prelude::*;
use ipop::{IpopHostAgent, PlainHostAgent};
use ipop_apps::lss::{LssFileServer, LssMaster, LssParams, LssReport, LssWorker};
use ipop_apps::ping::{PingApp, PingReport};
use ipop_apps::ttcp::{TtcpApp, TtcpReport};
use ipop_netsim::{fig4_testbed, planetlab, HostId, Network, NetworkSim};
use ipop_simcore::{Duration, SimTime};

/// How the workload reaches the other endpoint.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Directly on the physical network (the paper's "physical" rows).
    Physical,
    /// Over IPOP with Brunet in UDP mode.
    IpopUdp,
    /// Over IPOP with Brunet in TCP mode.
    IpopTcp,
}

impl Mode {
    /// Human-readable label matching the paper's row names.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Physical => "physical",
            Mode::IpopUdp => "IPOP-UDP",
            Mode::IpopTcp => "IPOP-TCP",
        }
    }

    fn deploy_options(self) -> DeployOptions {
        match self {
            Mode::IpopUdp => DeployOptions::udp(),
            Mode::IpopTcp => DeployOptions::tcp(),
            Mode::Physical => DeployOptions::udp(),
        }
    }
}

/// The virtual IPs assigned to the Fig. 4 machines (following the figure's labels).
pub fn fig4_virtual_ips() -> [(usize, Ipv4Addr); 6] {
    [
        (0, Ipv4Addr::new(172, 16, 0, 3)),  // F1
        (1, Ipv4Addr::new(172, 16, 0, 4)),  // F2
        (2, Ipv4Addr::new(172, 16, 0, 51)), // F3
        (3, Ipv4Addr::new(172, 16, 0, 2)),  // F4
        (4, Ipv4Addr::new(172, 16, 0, 18)), // V1
        (5, Ipv4Addr::new(172, 16, 0, 20)), // L1
    ]
}

/// Time given to the overlay to self-configure before measurements start.
pub const WARMUP: Duration = Duration::from_secs(20);

fn run_until<F>(sim: &mut NetworkSim, limit: Duration, mut done: F)
where
    F: FnMut(&Network) -> bool,
{
    let deadline = SimTime::ZERO + limit;
    loop {
        if done(sim.net()) || sim.now() >= deadline {
            return;
        }
        let step = Duration::from_secs(1).min(deadline - sim.now());
        let before_events = sim.events_executed();
        let before_now = sim.now();
        sim.run_for(step);
        if sim.events_executed() == before_events && sim.now() == before_now {
            // The event queue drained without reaching the predicate: nothing more
            // will ever happen, so stop instead of spinning.
            return;
        }
    }
}

// --------------------------------------------------------------------------- ping

/// Run a ping measurement between two Fig. 4 hosts.
///
/// `src`/`dst` index the testbed hosts in the order F1, F2, F3, F4, V1, L1.
pub fn fig4_ping(mode: Mode, src: usize, dst: usize, count: u32, seed: u64) -> PingReport {
    let mut net = Network::new(seed);
    let tb = fig4_testbed(&mut net);
    let hosts = tb.all();
    let interval = Duration::from_millis(20);
    match mode {
        Mode::Physical => {
            let target = tb.addrs[dst];
            let app = PingApp::new(target, count, interval);
            ipop::deploy_plain(&mut net, hosts[src], Box::new(app));
            ipop::deploy_plain(&mut net, hosts[dst], Box::new(ipop::NullApp));
        }
        Mode::IpopUdp | Mode::IpopTcp => {
            let vips = fig4_virtual_ips();
            let target = vips[dst].1;
            let members = vips
                .iter()
                .map(|&(i, vip)| {
                    if i == src {
                        IpopMember::new(
                            hosts[i],
                            vip,
                            Box::new(
                                PingApp::new(target, count, interval).with_start_delay(WARMUP),
                            ),
                        )
                    } else {
                        IpopMember::router(hosts[i], vip)
                    }
                })
                .collect();
            ipop::deploy_ipop(&mut net, members, mode.deploy_options());
        }
    }
    let src_host = hosts[src];
    let mut sim = NetworkSim::new(net);
    let limit = Duration::from_secs(120) + interval * u64::from(count);
    run_until(&mut sim, limit, |net| ping_finished(net, src_host, mode));
    extract_ping(sim.net(), src_host, mode)
}

fn ping_finished(net: &Network, host: HostId, mode: Mode) -> bool {
    match mode {
        Mode::Physical => net
            .agent_as::<PlainHostAgent>(host)
            .and_then(|a| a.app_as::<PingApp>())
            .is_some_and(|p| p.finished()),
        _ => net
            .agent_as::<IpopHostAgent>(host)
            .and_then(|a| a.app_as::<PingApp>())
            .is_some_and(|p| p.finished()),
    }
}

fn extract_ping(net: &Network, host: HostId, mode: Mode) -> PingReport {
    match mode {
        Mode::Physical => net
            .agent_as::<PlainHostAgent>(host)
            .and_then(|a| a.app_as::<PingApp>())
            .map(|p| p.report().clone())
            .unwrap_or_default(),
        _ => net
            .agent_as::<IpopHostAgent>(host)
            .and_then(|a| a.app_as::<PingApp>())
            .map(|p| p.report().clone())
            .unwrap_or_default(),
    }
}

// --------------------------------------------------------------------------- ttcp

/// Run a ttcp bulk transfer between two Fig. 4 hosts and return the sender report.
pub fn fig4_ttcp(mode: Mode, src: usize, dst: usize, bytes: u64, seed: u64) -> TtcpReport {
    let mut net = Network::new(seed);
    let tb = fig4_testbed(&mut net);
    let hosts = tb.all();
    const PORT: u16 = 5201;
    match mode {
        Mode::Physical => {
            let target = tb.addrs[dst];
            ipop::deploy_plain(
                &mut net,
                hosts[src],
                Box::new(TtcpApp::sender(target, PORT, bytes)),
            );
            ipop::deploy_plain(&mut net, hosts[dst], Box::new(TtcpApp::receiver(PORT)));
        }
        Mode::IpopUdp | Mode::IpopTcp => {
            let vips = fig4_virtual_ips();
            let target = vips[dst].1;
            let members = vips
                .iter()
                .map(|&(i, vip)| {
                    if i == src {
                        IpopMember::new(
                            hosts[i],
                            vip,
                            Box::new(TtcpApp::sender(target, PORT, bytes).with_start_delay(WARMUP)),
                        )
                    } else if i == dst {
                        IpopMember::new(hosts[i], vip, Box::new(TtcpApp::receiver(PORT)))
                    } else {
                        IpopMember::router(hosts[i], vip)
                    }
                })
                .collect();
            ipop::deploy_ipop(&mut net, members, mode.deploy_options());
        }
    }
    let src_host = hosts[src];
    let mut sim = NetworkSim::new(net);
    // Generous limit: the slowest configuration (IPOP-TCP over the WAN, 93 MB at a
    // few hundred KB/s) needs several hundred virtual seconds.
    let limit = Duration::from_secs(1200);
    run_until(&mut sim, limit, |net| ttcp_finished(net, src_host, mode));
    extract_ttcp(sim.net(), src_host, mode)
}

fn ttcp_finished(net: &Network, host: HostId, mode: Mode) -> bool {
    match mode {
        Mode::Physical => net
            .agent_as::<PlainHostAgent>(host)
            .and_then(|a| a.app_as::<TtcpApp>())
            .is_some_and(|p| p.finished()),
        _ => net
            .agent_as::<IpopHostAgent>(host)
            .and_then(|a| a.app_as::<TtcpApp>())
            .is_some_and(|p| p.finished()),
    }
}

fn extract_ttcp(net: &Network, host: HostId, mode: Mode) -> TtcpReport {
    match mode {
        Mode::Physical => net
            .agent_as::<PlainHostAgent>(host)
            .and_then(|a| a.app_as::<TtcpApp>())
            .map(|p| p.report())
            .unwrap_or_default(),
        _ => net
            .agent_as::<IpopHostAgent>(host)
            .and_then(|a| a.app_as::<TtcpApp>())
            .map(|p| p.report())
            .unwrap_or_default(),
    }
}

// ---------------------------------------------------------------------------- LSS

/// Run the LSS case study over an IPOP-UDP virtual network on the Fig. 4 testbed.
///
/// The NFS file server runs on F4, the master on F3 and `workers` compute nodes on
/// F1, F2, V1, L1 (in that order), matching the paper's "compute nodes across three
/// firewalled domains with a central file server" setup.
pub fn fig4_lss(workers: usize, params: LssParams, seed: u64) -> LssReport {
    assert!(
        (1..=4).contains(&workers),
        "the testbed provides up to 4 compute nodes"
    );
    let mut net = Network::new(seed);
    let tb = fig4_testbed(&mut net);
    let vips = fig4_virtual_ips();
    let nfs_vip = vips[3].1; // F4
    let master_vip = vips[2].1; // F3
    let worker_order = [0usize, 1, 4, 5]; // F1, F2, V1, L1
    let mut members = vec![
        IpopMember::new(tb.f4, nfs_vip, Box::new(LssFileServer::new(params.clone()))),
        IpopMember::new(
            tb.f3,
            master_vip,
            Box::new(LssMaster::new(params.clone(), workers)),
        ),
    ];
    for &w in worker_order.iter().take(workers) {
        members.push(IpopMember::new(
            tb.all()[w],
            vips[w].1,
            Box::new(LssWorker::new(params.clone(), master_vip, nfs_vip)),
        ));
    }
    // Remaining testbed machines still join the overlay as routers.
    for &w in worker_order.iter().skip(workers) {
        members.push(IpopMember::router(tb.all()[w], vips[w].1));
    }
    ipop::deploy_ipop(&mut net, members, DeployOptions::udp());
    let master_host = tb.f3;
    let mut sim = NetworkSim::new(net);
    run_until(&mut sim, Duration::from_secs(6_000), |net| {
        net.agent_as::<IpopHostAgent>(master_host)
            .and_then(|a| a.app_as::<LssMaster>())
            .is_some_and(|m| m.finished())
    });
    sim.net()
        .agent_as::<IpopHostAgent>(master_host)
        .and_then(|a| a.app_as::<LssMaster>())
        .map(|m| m.report().clone())
        .unwrap_or_default()
}

// ---------------------------------------------------------------- Planet-Lab ping

/// Result of the Planet-Lab experiment (Fig. 5).
#[derive(Clone, Debug, Default)]
pub struct PlanetLabResult {
    /// RTTs in milliseconds.
    pub rtts_ms: Vec<f64>,
    /// Requests lost.
    pub lost: u32,
    /// Mean overlay hops of a delivered tunnel packet.
    pub mean_hops: f64,
}

/// Ping across an overlay deployed on `nodes` Planet-Lab-like machines with CPU
/// load `load`. Source and destination are two of the (loaded) Planet-Lab nodes
/// themselves, so every measured packet pays the contended user-level processing
/// the paper identifies as the dominant cost — regardless of whether the overlay
/// happens to have formed a direct shortcut between the endpoints.
pub fn planetlab_ping(nodes: usize, load: f64, count: u32, seed: u64) -> PlanetLabResult {
    assert!(nodes >= 4, "the Planet-Lab scenario needs at least 4 nodes");
    let mut net = Network::new(seed);
    let plab = planetlab(&mut net, nodes, load, seed);

    let vip_of = |i: usize| Ipv4Addr::new(172, 16, 2 + (i / 200) as u8, (i % 200 + 1) as u8);
    // Measurement endpoints: two overlay members well apart in the join order
    // (the first node is everyone's bootstrap and stays a plain router).
    let src_idx = 1;
    let dst_idx = nodes / 2;
    let src_host = plab.nodes[src_idx];

    let mut members = Vec::new();
    for (i, &h) in plab.nodes.iter().enumerate() {
        if i == src_idx {
            members.push(IpopMember::new(
                h,
                vip_of(i),
                Box::new(
                    PingApp::new(vip_of(dst_idx), count, Duration::from_millis(100))
                        .with_start_delay(Duration::from_secs(40))
                        .with_timeout(Duration::from_secs(20)),
                ),
            ));
        } else {
            members.push(IpopMember::router(h, vip_of(i)));
        }
    }
    // The paper's Planet-Lab overlay ran Brunet over TCP.
    ipop::deploy_ipop(&mut net, members, DeployOptions::tcp());

    let mut sim = NetworkSim::new(net);
    let limit = Duration::from_secs(120) + Duration::from_millis(100) * u64::from(count) * 4;
    run_until(&mut sim, limit, |net| {
        net.agent_as::<IpopHostAgent>(src_host)
            .and_then(|a| a.app_as::<PingApp>())
            .is_some_and(|p| p.finished())
    });
    let report = extract_ping(sim.net(), src_host, Mode::IpopTcp);
    // Hops the delivered tunnel packets travelled, across the whole overlay.
    let (mut hops, mut tunneled) = (0u64, 0u64);
    for host in plab.nodes.iter().copied() {
        if let Some(agent) = sim.net().agent_as::<IpopHostAgent>(host) {
            hops += agent.metrics().tunneled_rx_hops;
            tunneled += agent.metrics().tunneled_rx;
        }
    }
    PlanetLabResult {
        rtts_ms: report.rtts_ms,
        lost: report.lost,
        mean_hops: hops as f64 / tunneled.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_physical_lan_ping_is_fast() {
        let report = fig4_ping(Mode::Physical, 1, 3, 10, 1);
        assert_eq!(report.rtts_ms.len(), 10);
        assert!(
            report.summary().mean < 2.5,
            "mean {}",
            report.summary().mean
        );
    }

    #[test]
    fn fig4_ipop_udp_lan_ping_has_user_level_overhead() {
        let report = fig4_ping(Mode::IpopUdp, 1, 3, 10, 2);
        assert!(
            report.rtts_ms.len() >= 8,
            "most pings answered, got {}",
            report.rtts_ms.len()
        );
        let mean = report.summary().mean;
        assert!(mean > 3.0 && mean < 25.0, "IPOP LAN mean {mean} ms");
    }

    #[test]
    fn fig4_virtual_ips_are_unique() {
        let vips = fig4_virtual_ips();
        let set: std::collections::BTreeSet<_> = vips.iter().map(|(_, ip)| ip).collect();
        assert_eq!(set.len(), 6);
    }
}
