//! The traced twin of `ipop_bench::scale::run_scale`: the same warm ring
//! (`build_warm_ring`), the same `Deliver` / `Tick` / `Probe` events in the
//! same scheduling order — so `ShardedSim::trace_hash` must come out equal,
//! which is what `trace.faithful` checks — but driven by a `ShardWorld` of
//! the benchmark's own that times every call into `OverlayNode` as a span
//! and tags the spans of probe traffic with the probe they work for.

use std::collections::HashMap;
use std::sync::Arc;

use ipop_bench::scale::{build_warm_ring, ScaleConfig, ScaleReport, WarmRing};
use ipop_netsim::ScaleNet;
use ipop_overlay::packets::{ConnectionKind, LinkMessage, RoutedPayload};
use ipop_overlay::{Address, OverlayNode};
use ipop_simcore::{
    Duration, ShardCtl, ShardRunOutcome, ShardWorld, ShardedSim, SimTime, StreamRng,
};

use crate::span;

/// Span names. `SIM` wraps the whole `ShardedSim::run_until`, `HANDLE` one
/// event; their self times are the simulator's and the tick driver's own
/// cost, the `overlay.node.*` spans are the overlay's.
pub const SIM: &str = "simcore.shard.sim";
pub const HANDLE: &str = "scale.handle";
pub const ON_ROUTED: &str = "overlay.node.on_routed";
pub const ON_LINK: &str = "overlay.node.on_link";
pub const ON_TICK: &str = "overlay.node.on_tick";
pub const SEND_IP: &str = "overlay.node.send_ip";
pub const TAKE_OUTBOX: &str = "overlay.node.take_outbox";
pub const TAKE_DELIVERED: &str = "overlay.node.take_delivered";
/// Every span that is time spent inside `OverlayNode`.
pub const NODE_SPANS: [&str; 6] = [
    ON_ROUTED,
    ON_LINK,
    ON_TICK,
    SEND_IP,
    TAKE_OUTBOX,
    TAKE_DELIVERED,
];

/// Counters only the benchmark's own world can read.
pub struct TracedExtras {
    /// Link messages sent by all nodes.
    pub link_tx: u64,
    /// Routed packets forwarded by all nodes (probe traffic in transit).
    pub forwarded: u64,
    /// Maintenance ticks executed, and how many left the outbox empty.
    pub ticks: u64,
    pub idle_ticks: u64,
}

enum Ev {
    Deliver {
        src: u32,
        dst: u32,
        msg: LinkMessage,
    },
    Tick {
        dst: u32,
        remaining: u32,
    },
    Probe {
        src: u32,
        target: u32,
        op: u64,
    },
}

struct World {
    net: ScaleNet,
    interval: Duration,
    lo: u32,
    nodes: Vec<OverlayNode>,
    addrs: Arc<Vec<Address>>,
    /// (source address, destination address) → probe id, to tag spans.
    probe_of: Arc<HashMap<(Address, Address), u64>>,
    hops: Vec<u32>,
    probes_sent: u64,
    probes_delivered: u64,
    ticks: u64,
    idle_ticks: u64,
}

impl World {
    /// Same as the scale harness's pump; returns whether the outbox was empty.
    fn pump(&mut self, idx: usize, now: SimTime, op: u64, ctl: &mut ShardCtl<Ev>) -> bool {
        let src = self.lo + idx as u32;
        let node = &mut self.nodes[idx];
        let outbox = span::scope(TAKE_OUTBOX, op, || node.take_outbox());
        let idle = outbox.is_empty();
        for (ep, msg) in outbox {
            let Some(dst) = self.net.node_of(&ep) else {
                continue;
            };
            let at = now + self.net.latency(src, dst);
            ctl.send(
                self.net.shard_of(dst) as usize,
                at,
                Ev::Deliver { src, dst, msg },
            );
        }
        for pkt in span::scope(TAKE_DELIVERED, op, || node.take_delivered()) {
            self.probes_delivered += 1;
            self.hops.push(u32::from(pkt.hops));
        }
        idle
    }

    fn op_of(&self, msg: &LinkMessage) -> u64 {
        match msg {
            LinkMessage::Routed(pkt) if matches!(pkt.payload, RoutedPayload::IpTunnel(_)) => {
                self.probe_of.get(&(pkt.src, pkt.dst)).copied().unwrap_or(0)
            }
            _ => 0,
        }
    }
}

impl ShardWorld for World {
    type Ev = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, ctl: &mut ShardCtl<Ev>) {
        match ev {
            Ev::Deliver { src, dst, msg } => {
                let op = self.op_of(&msg);
                span::scope(HANDLE, op, || {
                    let idx = (dst - self.lo) as usize;
                    let from = self.net.endpoint(src);
                    let name = if matches!(msg, LinkMessage::Routed(_)) {
                        ON_ROUTED
                    } else {
                        ON_LINK
                    };
                    let node = &mut self.nodes[idx];
                    span::scope(name, op, || node.on_message(now, from, msg));
                    self.pump(idx, now, op, ctl);
                });
            }
            Ev::Tick { dst, remaining } => span::scope(HANDLE, 0, || {
                let idx = (dst - self.lo) as usize;
                let node = &mut self.nodes[idx];
                span::scope(ON_TICK, 0, || node.on_tick(now));
                self.ticks += 1;
                if self.pump(idx, now, 0, ctl) {
                    self.idle_ticks += 1;
                }
                if remaining > 0 {
                    ctl.send_local(
                        now + self.interval,
                        Ev::Tick {
                            dst,
                            remaining: remaining - 1,
                        },
                    );
                }
            }),
            Ev::Probe { src, target, op } => span::scope(HANDLE, op, || {
                let idx = (src - self.lo) as usize;
                let dst_addr = self.addrs[target as usize];
                self.probes_sent += 1;
                let node = &mut self.nodes[idx];
                span::scope(SEND_IP, op, || node.send_ip(now, dst_addr, vec![0u8; 8]));
                self.pump(idx, now, op, ctl);
            }),
        }
    }
}

/// `run_scale`, traced. Sequential whatever `cfg.parallel` says: the span
/// recorder is per thread.
pub fn run_scale_traced(cfg: &ScaleConfig) -> (ScaleReport, TracedExtras) {
    let WarmRing {
        net,
        addrs,
        nodes,
        slice,
    } = build_warm_ring(cfg);
    let n = cfg.nodes as usize;
    let t0 = SimTime::ZERO;
    let interval_ns = cfg.maintenance_interval.as_nanos();

    // Probe pairs first (same draws as `run_scale`), so worlds can tag them.
    let mut probe_rng = StreamRng::new(cfg.seed, "scale-probes");
    let probes: Vec<(u32, u32)> = (0..cfg.probes)
        .map(|_| {
            let src = probe_rng.index(n) as u32;
            let mut target = probe_rng.index(n) as u32;
            if target == src {
                target = (src + 1) % cfg.nodes;
            }
            (src, target)
        })
        .collect();
    let probe_of: Arc<HashMap<(Address, Address), u64>> = Arc::new(
        probes
            .iter()
            .enumerate()
            .map(|(p, &(s, t))| ((addrs[s as usize], addrs[t as usize]), p as u64 + 1))
            .collect(),
    );

    let mut worlds = Vec::with_capacity(net.shards() as usize);
    let mut nodes = nodes.into_iter();
    for s in 0..net.shards() {
        let count = (net.shard_end(s) - net.shard_start(s)) as usize;
        worlds.push(World {
            net,
            interval: cfg.maintenance_interval,
            lo: net.shard_start(s),
            nodes: nodes.by_ref().take(count).collect(),
            addrs: Arc::clone(&addrs),
            probe_of: Arc::clone(&probe_of),
            hops: Vec::new(),
            probes_sent: 0,
            probes_delivered: 0,
            ticks: 0,
            idle_ticks: 0,
        });
    }
    let mut sim = ShardedSim::new(worlds, slice, false);

    for i in 0..cfg.nodes {
        let at = t0 + Duration::from_nanos(u64::from(i) * interval_ns / u64::from(cfg.nodes));
        sim.schedule(
            net.shard_of(i) as usize,
            at,
            Ev::Tick {
                dst: i,
                remaining: cfg.maintenance_ticks,
            },
        );
    }
    let probe_start =
        t0 + Duration::from_nanos(interval_ns * (u64::from(cfg.maintenance_ticks) + 2));
    for (p, &(src, target)) in probes.iter().enumerate() {
        sim.schedule(
            net.shard_of(src) as usize,
            probe_start + Duration::from_millis(p as u64),
            Ev::Probe {
                src,
                target,
                op: p as u64 + 1,
            },
        );
    }
    let limit =
        probe_start + Duration::from_millis(u64::from(cfg.probes)) + Duration::from_secs(60);
    let outcome = span::scope(SIM, 0, || sim.run_until(limit));

    let mut report = ScaleReport {
        nodes: cfg.nodes,
        shards: net.shards(),
        events: sim.executed(),
        virtual_s: sim.now().saturating_since(SimTime::ZERO).as_secs_f64(),
        probes_sent: 0,
        probes_delivered: 0,
        hops: Vec::new(),
        mean_far: 0.0,
        full_budget_nodes: 0,
        dropped_no_target: 0,
        dropped_ttl: 0,
        trace_hash: sim.trace_hash(),
        drained: outcome == ShardRunOutcome::Drained,
    };
    let mut extras = TracedExtras {
        link_tx: 0,
        forwarded: 0,
        ticks: 0,
        idle_ticks: 0,
    };
    let mut far_total = 0usize;
    for w in sim.worlds() {
        report.hops.extend_from_slice(&w.hops);
        report.probes_sent += w.probes_sent;
        report.probes_delivered += w.probes_delivered;
        extras.ticks += w.ticks;
        extras.idle_ticks += w.idle_ticks;
        for node in &w.nodes {
            let far = node.connections().count_kind(ConnectionKind::Far);
            far_total += far;
            if far >= cfg.max_shortcuts {
                report.full_budget_nodes += 1;
            }
            let s = node.stats();
            report.dropped_no_target += s.dropped_no_target;
            report.dropped_ttl += s.dropped_ttl;
            extras.link_tx += s.link_tx;
            extras.forwarded += s.forwarded;
        }
    }
    report.mean_far = far_total as f64 / f64::from(cfg.nodes);
    (report, extras)
}
