//! Shared scenario builders: each function stands up a physical topology, deploys
//! the workload (baseline or IPOP) and runs the simulation to completion.

use std::net::Ipv4Addr;

use ipop::prelude::*;
use ipop::{IpopHostAgent, PlainHostAgent};
use ipop_apps::lss::{LssFileServer, LssMaster, LssParams, LssReport, LssWorker};
use ipop_apps::ping::{PingApp, PingReport};
use ipop_apps::ttcp::{TtcpApp, TtcpReport};
use ipop_netsim::{fig4_testbed, planetlab, HostId, Network, NetworkSim};
use ipop_simcore::{fnv1a, Duration, SimTime, FNV_OFFSET};

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

/// What a run leaves behind besides its report: the events it executed and a
/// digest of its history — FNV-1a over the event count, the end time and the
/// network's packet counters — so a ledger cell names the run it came from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct History {
    /// Events the simulator executed.
    pub events: u64,
    /// The history digest.
    pub trace_hash: u64,
}

impl History {
    /// The history of `sim` so far.
    pub(crate) fn of(sim: &NetworkSim) -> History {
        let c = sim.net().counters();
        let words = [
            sim.events_executed(),
            sim.now().as_nanos(),
            c.delivered,
            c.unroutable,
            c.firewall_out_dropped,
            c.firewall_in_dropped,
            c.nat_filtered,
            c.link_dropped,
        ];
        History {
            events: words[0],
            trace_hash: words
                .iter()
                .fold(FNV_OFFSET, |h, w| fnv1a(h, &w.to_le_bytes())),
        }
    }

    /// One history for a cell that two runs measured together.
    pub(crate) fn and(self, other: History) -> History {
        History {
            events: self.events + other.events,
            trace_hash: fnv1a(self.trace_hash, &other.trace_hash.to_le_bytes()),
        }
    }
}

/// Run until `done` holds, `limit` of virtual time passes, or the event queue
/// drains, checking once per virtual second.
fn run_until<F>(sim: &mut NetworkSim, limit: Duration, mut done: F) -> History
where
    F: FnMut(&Network) -> bool,
{
    let deadline = SimTime::ZERO + limit;
    loop {
        if done(sim.net()) || sim.now() >= deadline {
            return History::of(sim);
        }
        let step = Duration::from_secs(1).min(deadline - sim.now());
        let before_events = sim.events_executed();
        let before_now = sim.now();
        sim.run_for(step);
        if sim.events_executed() == before_events && sim.now() == before_now {
            // The event queue drained without reaching the predicate: nothing more
            // will ever happen, so stop instead of spinning.
            return History::of(sim);
        }
    }
}

/// The app of type `T` on `host`, whichever agent runs it.
pub(crate) fn app<T: 'static>(net: &Network, host: HostId) -> Option<&T> {
    match net.agent_as::<IpopHostAgent>(host) {
        Some(agent) => agent.app_as(),
        None => net.agent_as::<PlainHostAgent>(host)?.app_as(),
    }
}

// ----------------------------------------------------------------- ping + ttcp

/// Stand up the Fig. 4 testbed with the `(sender, receiver)` pair that `apps`
/// builds for a target address and a start delay on hosts `src` and `dst`:
/// on the physical network, or on an IPOP overlay of all six machines whose
/// sender waits out [`WARMUP`]. Run until the sender finishes or `limit`
/// passes, and hand back what `report` reads off it.
///
/// `src`/`dst` index the testbed hosts in the order F1, F2, F3, F4, V1, L1.
fn fig4_pair<A: VirtualApp + 'static, R: Default>(
    mode: Mode,
    (src, dst): (usize, usize),
    seed: u64,
    limit: Duration,
    apps: impl Fn(Ipv4Addr, Duration) -> (A, Box<dyn VirtualApp>),
    report: impl Fn(&A) -> R,
) -> (R, History) {
    let mut net = Network::new(seed);
    let tb = fig4_testbed(&mut net);
    let hosts = tb.all();
    if mode == Mode::Physical {
        let (sender, receiver) = apps(tb.addrs[dst], Duration::ZERO);
        ipop::deploy_plain(&mut net, hosts[src], Box::new(sender));
        ipop::deploy_plain(&mut net, hosts[dst], receiver);
    } else {
        let vips = fig4_virtual_ips();
        let (sender, receiver) = apps(vips[dst].1, WARMUP);
        let mut members: Vec<IpopMember> = vips
            .iter()
            .map(|&(i, vip)| IpopMember::router(hosts[i], vip))
            .collect();
        members[src] = IpopMember::new(hosts[src], vips[src].1, Box::new(sender));
        members[dst] = IpopMember::new(hosts[dst], vips[dst].1, receiver);
        ipop::deploy_ipop(&mut net, members, mode.deploy_options());
    }
    let mut sim = NetworkSim::new(net);
    let history = run_until(&mut sim, limit, |net| {
        app::<A>(net, hosts[src]).is_some_and(|a| a.finished())
    });
    let report = app::<A>(sim.net(), hosts[src])
        .map(report)
        .unwrap_or_default();
    (report, history)
}

/// Ping `dst` from `src`, `count` requests 20 ms apart.
pub fn fig4_ping(
    mode: Mode,
    src: usize,
    dst: usize,
    count: u32,
    seed: u64,
) -> (PingReport, History) {
    let interval = Duration::from_millis(20);
    let limit = Duration::from_secs(120) + interval * u64::from(count);
    let apps = |target, delay| {
        let ping = PingApp::new(target, count, interval).with_start_delay(delay);
        (ping, Box::new(ipop::NullApp) as Box<dyn VirtualApp>)
    };
    fig4_pair(mode, (src, dst), seed, limit, apps, |p| p.report().clone())
}

/// A ttcp bulk transfer of `bytes` from `src` to `dst`; the sender's report.
pub fn fig4_ttcp(
    mode: Mode,
    src: usize,
    dst: usize,
    bytes: u64,
    seed: u64,
) -> (TtcpReport, History) {
    const PORT: u16 = 5201;
    // Generous limit: the slowest configuration (IPOP-TCP over the WAN, 93 MB at a
    // few hundred KB/s) needs several hundred virtual seconds.
    let limit = Duration::from_secs(1200);
    let apps = |target, delay| {
        let sender = TtcpApp::sender(target, PORT, bytes).with_start_delay(delay);
        (
            sender,
            Box::new(TtcpApp::receiver(PORT)) as Box<dyn VirtualApp>,
        )
    };
    fig4_pair(mode, (src, dst), seed, limit, apps, TtcpApp::report)
}

// ---------------------------------------------------------------------------- LSS

/// Run the LSS case study over an IPOP-UDP virtual network on the Fig. 4 testbed.
///
/// The NFS file server runs on F4, the master on F3 and `workers` compute nodes on
/// F1, F2, V1, L1 (in that order), matching the paper's "compute nodes across three
/// firewalled domains with a central file server" setup.
pub fn fig4_lss(workers: usize, params: LssParams, seed: u64) -> (LssReport, History) {
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
    let history = run_until(&mut sim, Duration::from_secs(6_000), |net| {
        app::<LssMaster>(net, master_host).is_some_and(|m| m.finished())
    });
    let report = app::<LssMaster>(sim.net(), master_host).map(|m| m.report().clone());
    (report.unwrap_or_default(), history)
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
    /// The run's history.
    pub history: History,
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
    let history = run_until(&mut sim, limit, |net| {
        app::<PingApp>(net, src_host).is_some_and(|p| p.finished())
    });
    let report =
        app::<PingApp>(sim.net(), src_host).map_or_else(Default::default, |p| p.report().clone());
    PlanetLabResult {
        rtts_ms: report.rtts_ms,
        lost: report.lost,
        mean_hops: mean_hops(sim.net(), &plab.nodes),
        history,
    }
}

/// Mean overlay hops of the tunnel packets delivered to any of `hosts`.
pub(crate) fn mean_hops(net: &Network, hosts: &[HostId]) -> f64 {
    let (mut hops, mut tunneled) = (0u64, 0u64);
    for agent in hosts
        .iter()
        .filter_map(|&h| net.agent_as::<IpopHostAgent>(h))
    {
        hops += agent.metrics().tunneled_rx_hops;
        tunneled += agent.metrics().tunneled_rx;
    }
    hops as f64 / tunneled.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipop_simcore::stats;

    #[test]
    fn fig4_physical_lan_ping_is_fast() {
        let (report, _) = fig4_ping(Mode::Physical, 1, 3, 10, 1);
        assert_eq!(report.rtts_ms.len(), 10);
        let mean = stats::mean(&report.rtts_ms);
        assert!(mean < 2.5, "mean {mean}");
    }

    #[test]
    fn fig4_ipop_udp_lan_ping_has_user_level_overhead() {
        let (report, _) = fig4_ping(Mode::IpopUdp, 1, 3, 10, 2);
        assert!(
            report.rtts_ms.len() >= 8,
            "most pings answered, got {}",
            report.rtts_ms.len()
        );
        let mean = stats::mean(&report.rtts_ms);
        assert!(mean > 3.0 && mean < 25.0, "IPOP LAN mean {mean} ms");
    }

    #[test]
    fn fig4_virtual_ips_are_unique() {
        let vips = fig4_virtual_ips();
        let set: std::collections::BTreeSet<_> = vips.iter().map(|(_, ip)| ip).collect();
        assert_eq!(set.len(), 6);
    }
}
