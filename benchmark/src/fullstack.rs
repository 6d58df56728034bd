//! Shared pieces of the three full-stack workloads (`wan_bulk`,
//! `churn_ping`, `selfconfig`): deployment with or without span wrappers,
//! and the counter read-out every one of them reports.

use std::any::Any;
use std::cell::Cell;

use ipop::{deploy_ipop, DeployOptions, IpopConfig, IpopHostAgent, IpopMember};
use ipop_netsim::host::{HostAgent, HostCtx};
use ipop_netsim::{HostId, Network, NetworkSim};
use ipop_overlay::node::OverlayStats;
use ipop_packet::ipv4::Ipv4Packet;
use ipop_simcore::TimerToken;

use crate::span;
use crate::workloads::Outcome;

/// Span names of the agent boundary. `SIM` is opened by the workload around
/// its whole simulation loop, so its self time is what `NetworkSim` and the
/// event queue cost outside any agent.
pub const SIM: &str = "netsim.sim";
pub const ON_START: &str = "core.node.on_start";
pub const ON_PACKET: &str = "core.node.on_packet";
pub const ON_TIMER: &str = "core.node.on_timer";

thread_local! {
    /// Ordinal of the agent callback being timed: the op id spans are
    /// sampled by (the agent boundary sees packets and timers, not pings).
    static CALLBACK: Cell<u64> = const { Cell::new(0) };
}

fn next_callback() -> u64 {
    CALLBACK.with(|c| {
        c.set(c.get() + 1);
        c.get()
    })
}

/// A host agent whose three entry points are timed as spans. Downcasts see
/// through it, so result extraction is the same traced or not.
pub struct Spanned<A: HostAgent>(pub A);

impl<A: HostAgent> HostAgent for Spanned<A> {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        span::scope(ON_START, next_callback(), || self.0.on_start(ctx));
    }

    fn on_packet(&mut self, ctx: &mut HostCtx<'_, '_>, pkt: Ipv4Packet) {
        span::scope(ON_PACKET, next_callback(), || self.0.on_packet(ctx, pkt));
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, token: TimerToken) {
        span::scope(ON_TIMER, next_callback(), || self.0.on_timer(ctx, token));
    }

    fn as_any(&self) -> &dyn Any {
        self.0.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.0.as_any_mut()
    }
}

/// Deploy an IPOP virtual network. Untraced, this is `ipop::deploy_ipop`
/// itself. Traced, the agents are built here from the public `IpopConfig`
/// builder — the same derivation, for the options the workloads set — so
/// each can be installed inside a [`Spanned`] wrapper; `trace.faithful`
/// reports whether the two still produce the same history.
pub fn deploy(net: &mut Network, members: Vec<IpopMember>, options: DeployOptions, traced: bool) {
    if !traced {
        deploy_ipop(net, members, options);
        return;
    }
    let defaults = DeployOptions::default();
    assert!(
        options.shortcuts
            && options.phi_accrual
            && !options.link_integrity_tag
            && options.reserved_ips.is_empty()
            && options.arp_cache_ttl.is_none()
            && options.link_probe_interval.is_none()
            && options.dht_sweep_interval.is_none()
            && options.phi_threshold.is_none()
            && options.pubsub_fanout.is_none()
            && options.pubsub_ttl.is_none()
            && options.lease_ttl == defaults.lease_ttl,
        "traced deployment mirrors only the options the workloads use"
    );
    let bootstrap_host = members
        .iter()
        .map(|m| m.host)
        .find(|&h| net.publicly_reachable(h))
        .unwrap_or(members[0].host);
    let bootstrap = (net.host(bootstrap_host).addr, 4001);
    for member in members {
        let mut cfg = match member.virtual_ip {
            Some(ip) => IpopConfig::new(ip),
            None => IpopConfig::dynamic(options.dynamic_subnet),
        }
        .with_transport(options.transport)
        .with_lease_ttl(options.lease_ttl);
        if let Some(name) = &member.hostname {
            cfg = cfg.with_hostname(name);
        }
        if options.brunet_arp {
            cfg = cfg.with_brunet_arp();
        }
        if member.host != bootstrap_host {
            cfg = cfg.with_bootstrap(vec![bootstrap]);
        }
        let agent = IpopHostAgent::new(cfg, net.host(member.host).addr, member.app);
        net.set_agent(member.host, Box::new(Spanned(agent)));
    }
}

/// Run `drive` as the measured simulation, inside the [`SIM`] span when
/// traced.
pub fn simulate(traced: bool, drive: impl FnOnce()) {
    if traced {
        span::scope(SIM, 0, drive);
    } else {
        drive();
    }
}

/// Field-wise sum of the overlay counters of every IPOP agent among `hosts`
/// (crashed hosts run a plain agent and are skipped).
pub fn overlay_totals(sim: &NetworkSim, hosts: &[HostId]) -> OverlayStats {
    let mut t = OverlayStats::default();
    for &h in hosts {
        let Some(agent) = sim.agent_as::<IpopHostAgent>(h) else {
            continue;
        };
        let s = agent.overlay_stats();
        t.forwarded += s.forwarded;
        t.link_tx += s.link_tx;
        t.dht_records += s.dht_records;
        t.dht_replicas += s.dht_replicas;
        t.dht_quorum_writes += s.dht_quorum_writes;
        t.dht_quorum_write_timeouts += s.dht_quorum_write_timeouts;
        t.dht_quorum_reads += s.dht_quorum_reads;
        t.dht_quorum_read_timeouts += s.dht_quorum_read_timeouts;
        t.link_probes_sent += s.link_probes_sent;
        t.link_probe_timeouts += s.link_probe_timeouts;
        t.dead_edges_detected += s.dead_edges_detected;
    }
    t
}

/// `a / b`, 0 when nothing was counted.
pub fn share(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The counter-sourced layer metrics every full-stack workload reports:
/// simulator events and physical packets per op, drops, overlay hop count,
/// link-monitor verdicts and maintenance traffic.
pub fn record_stack_counters(out: &mut Outcome, sim: &NetworkSim, hosts: &[HostId]) {
    let c = sim.net().counters();
    let dropped = c.unroutable
        + c.firewall_out_dropped
        + c.firewall_in_dropped
        + c.nat_filtered
        + c.link_dropped
        + c.partition_dropped
        + c.impair_dropped;
    let tunneled: u64 = hosts
        .iter()
        .filter_map(|&h| sim.agent_as::<IpopHostAgent>(h))
        .map(|a| a.metrics().tunneled_rx)
        .sum();
    let o = overlay_totals(sim, hosts);
    let virtual_s = sim.now().as_secs_f64();
    out.set("events", sim.events_executed() as f64);
    out.set("netsim.pkts_per_op", share(c.delivered, out.ops));
    out.set("netsim.drop_share", share(dropped, c.delivered + dropped));
    if tunneled > 0 {
        out.set(
            "overlay.route.hops_mean",
            1.0 + share(o.forwarded, tunneled),
        );
    }
    out.set(
        "overlay.monitor.probe_timeout_share",
        share(o.link_probe_timeouts, o.link_probes_sent),
    );
    out.set("overlay.monitor.dead_edges", o.dead_edges_detected as f64);
    out.set(
        "overlay.maint.msgs_per_node_s",
        o.link_tx as f64 / hosts.len() as f64 / virtual_s,
    );
    out.set(
        "overlay.dht.quorum_timeout_share",
        share(
            o.dht_quorum_write_timeouts + o.dht_quorum_read_timeouts,
            o.dht_quorum_writes + o.dht_quorum_reads,
        ),
    );
    out.set(
        "overlay.dht.replicas_per_record",
        share(
            o.dht_replicas,
            o.dht_records - o.dht_replicas.min(o.dht_records),
        ),
    );
}
