//! 10k–100k node overlay scale harness: Kleinberg shortcut routing measured
//! where it matters.
//!
//! Every other experiment in this crate runs tens of nodes through the full
//! physical-network model. This harness instead drives [`OverlayNode`]s
//! directly on top of the interned flat substrate
//! ([`ipop_netsim::ScaleNet`]) and the sharded deterministic simulator
//! ([`ipop_simcore::ShardedSim`]), which is what makes 100k nodes tractable:
//!
//! * node identity is a dense `u32`; endpoints and link latencies are
//!   computed, not stored;
//! * the ring is warm-started — near edges and half of each node's shortcut
//!   budget are seeded directly — then real maintenance runs: every node
//!   ticks [`request_shortcut`-style] maintenance for a configurable number
//!   of rounds, forming its remaining Far edges through routed
//!   ConnectRequests over the live overlay;
//! * after maintenance, a probe workload measures greedy routing: random
//!   node pairs exchange Exact-mode packets and the delivered hop counts
//!   give the routing stretch against the `log₂N` Kleinberg ideal.
//!
//! The part of this that is not specific to probes — partition the warm ring
//! into shards, tick every node, pump outboxes into the fabric — is the ring
//! driver (`run_ring`); the probes here, the pub/sub fan-out
//! ([`crate::fanout`]) and the stream-fairness run ([`crate::streams`]) are
//! each a `RingWorkload` on it: one injected operation and one harvest.
//!
//! Identical seeds produce identical histories whether the shards run
//! sequentially or fanned out over threads ([`ScaleReport::trace_hash`]
//! proves it — `ipop-bench ring_10k --verify` and a tier-1 test compare the two).

use std::sync::Arc;

use ipop_netsim::ScaleNet;
use ipop_overlay::address::Address;
use ipop_overlay::node::{OverlayConfig, OverlayNode};
use ipop_overlay::packets::{ConnectionKind, LinkMessage};
use ipop_simcore::{
    Duration, ShardCtl, ShardRunOutcome, ShardWorld, ShardedSim, SimTime, StreamRng,
};

use crate::json::Json;
use crate::{mode, Outcome};

/// Parameters of one scale run.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Overlay size.
    pub nodes: u32,
    /// Shard count for the parallel simulator (fixed, not machine-derived,
    /// so reports are comparable across hosts).
    pub shards: u32,
    /// Root seed: addresses, latencies, probe pairs, node RNG streams.
    pub seed: u64,
    /// Structured-near connections per ring side.
    pub near_per_side: usize,
    /// Far (shortcut) connection budget per node.
    pub max_shortcuts: usize,
    /// Shortcuts seeded directly at start; the rest form through live
    /// maintenance (`0..=max_shortcuts`).
    pub seeded_shortcuts: usize,
    /// Overlay maintenance cadence.
    pub maintenance_interval: Duration,
    /// Maintenance rounds each node runs before the probe phase.
    pub maintenance_ticks: u32,
    /// Number of routing probes (random src → random dst, Exact mode).
    pub probes: u32,
    /// Fan shards out over threads; `false` runs them sequentially.
    /// Both settings produce identical histories.
    pub parallel: bool,
    /// Pub/sub relay-tree out-degree on every node (only exercised by the
    /// fan-out workload, [`crate::fanout`]).
    pub pubsub_fanout: usize,
    /// Per-link deterministic latency jitter on top of the 1 ms slice base.
    /// Zero gives every link exactly the base latency — the uniform substrate
    /// the stream-fairness workload ([`crate::streams`]) measures on.
    pub link_jitter: Duration,
}

impl ScaleConfig {
    /// Defaults for an `nodes`-node ring: 8 shards, 2+2 near edges, 4-slot
    /// shortcut budget half-seeded, 10 maintenance rounds at 500 ms, one
    /// probe per node.
    pub fn ring(nodes: u32) -> Self {
        ScaleConfig {
            nodes,
            shards: 8,
            seed: 0x5CA1E,
            near_per_side: 2,
            max_shortcuts: 4,
            seeded_shortcuts: 2,
            maintenance_interval: Duration::from_millis(500),
            maintenance_ticks: 10,
            probes: nodes,
            parallel: true,
            pubsub_fanout: 4,
            link_jitter: Duration::from_millis(9),
        }
    }
}

/// Outcome of one scale run.
#[derive(Clone, Debug)]
pub struct ScaleReport {
    pub nodes: u32,
    pub shards: u32,
    /// Simulator events executed.
    pub events: u64,
    /// Virtual seconds simulated.
    pub virtual_s: f64,
    pub probes_sent: u64,
    pub probes_delivered: u64,
    /// Hop counts of delivered probes.
    pub hops: Vec<u32>,
    /// Established Far edges per node, averaged.
    pub mean_far: f64,
    /// Nodes that reached their full `max_shortcuts` budget.
    pub full_budget_nodes: u32,
    /// Exact-mode packets dropped at the closest-but-not-target node.
    pub dropped_no_target: u64,
    /// Packets dropped on TTL exhaustion.
    pub dropped_ttl: u64,
    /// FNV digest of the full `(time, seq)` execution history — identical
    /// for sequential and parallel runs of the same config.
    pub trace_hash: u64,
    /// Whether the event queues drained before the time limit.
    pub drained: bool,
}

impl ScaleReport {
    pub fn mean_hops(&self) -> f64 {
        if self.hops.is_empty() {
            return f64::NAN;
        }
        self.hops.iter().map(|&h| h as f64).sum::<f64>() / self.hops.len() as f64
    }

    /// Hop count at the `q` quantile (`0.0..=1.0`) of delivered probes.
    pub fn hops_quantile(&self, q: f64) -> u32 {
        if self.hops.is_empty() {
            return 0;
        }
        let mut sorted = self.hops.clone();
        sorted.sort_unstable();
        sorted[((sorted.len() - 1) as f64 * q) as usize]
    }

    pub fn log2n(&self) -> f64 {
        (self.nodes as f64).log2()
    }

    /// Mean hops over the `log₂N` Kleinberg ideal.
    pub fn stretch(&self) -> f64 {
        self.mean_hops() / self.log2n()
    }

    pub fn delivery_rate(&self) -> f64 {
        if self.probes_sent == 0 {
            return f64::NAN;
        }
        self.probes_delivered as f64 / self.probes_sent as f64
    }
}

/// What a scenario adds to the ring driver: one kind of injected operation
/// and one harvest. Each shard owns one instance, so measurement state needs
/// no synchronisation; the scenario folds the instances after the run.
pub(crate) trait RingWorkload: Send {
    /// The scenario's operation, scheduled on one node at one instant.
    type Op: Send;

    /// Start `op` on `node`; the driver pumps the node afterwards.
    fn inject(&mut self, now: SimTime, node: &mut OverlayNode, op: Self::Op);

    /// Collect what `node` delivered to its application. Runs after every
    /// event the node handles, so `now` is the delivery instant.
    fn harvest(&mut self, now: SimTime, node: &mut OverlayNode);
}

/// Events driving a ring world. The queues sort and move entries by value, so
/// the 152-byte link message is boxed (as `netsim::NetEvent` boxes its packet).
pub(crate) enum RingEv<Op> {
    /// A link message from node `src` arriving at node `dst`.
    Deliver {
        src: u32,
        dst: u32,
        msg: Box<LinkMessage>,
    },
    /// Maintenance tick on `dst`; reschedules itself `remaining` more times.
    Tick { dst: u32, remaining: u32 },
    /// The workload's operation `op`, injected at node `at`.
    Op { at: u32, op: Op },
}

/// One shard: a contiguous block of nodes plus the workload's local
/// measurement state.
pub(crate) struct RingShard<W> {
    net: ScaleNet,
    /// Maintenance tick cadence.
    interval: Duration,
    /// First node id of this shard.
    lo: u32,
    pub(crate) nodes: Vec<OverlayNode>,
    pub(crate) workload: W,
}

impl<W: RingWorkload> RingShard<W> {
    /// Flush node `idx`'s outbox into the event fabric, then let the workload
    /// harvest. Every link message — same shard or not — crosses the slice
    /// barrier with its full link latency, so shard layout never affects
    /// delivery times.
    fn pump(&mut self, idx: usize, now: SimTime, ctl: &mut ShardCtl<RingEv<W::Op>>) {
        let src = self.lo + idx as u32;
        let node = &mut self.nodes[idx];
        for (ep, msg) in node.take_outbox() {
            let Some(dst) = self.net.node_of(&ep) else {
                continue;
            };
            let at = now + self.net.latency(src, dst);
            let msg = Box::new(msg);
            ctl.send(
                self.net.shard_of(dst) as usize,
                at,
                RingEv::Deliver { src, dst, msg },
            );
        }
        self.workload.harvest(now, node);
    }
}

impl<W: RingWorkload> ShardWorld for RingShard<W> {
    type Ev = RingEv<W::Op>;

    fn handle(&mut self, now: SimTime, ev: Self::Ev, ctl: &mut ShardCtl<Self::Ev>) {
        match ev {
            RingEv::Deliver { src, dst, msg } => {
                let idx = (dst - self.lo) as usize;
                let from = self.net.endpoint(src);
                self.nodes[idx].on_message(now, from, *msg);
                self.pump(idx, now, ctl);
            }
            RingEv::Tick { dst, remaining } => {
                let idx = (dst - self.lo) as usize;
                self.nodes[idx].on_tick(now);
                self.pump(idx, now, ctl);
                if remaining > 0 {
                    ctl.send_local(
                        now + self.interval,
                        RingEv::Tick {
                            dst,
                            remaining: remaining - 1,
                        },
                    );
                }
            }
            RingEv::Op { at, op } => {
                let idx = (at - self.lo) as usize;
                self.workload.inject(now, &mut self.nodes[idx], op);
                self.pump(idx, now, ctl);
            }
        }
    }
}

/// A finished ring run: the shards (nodes and per-shard workload state) plus
/// the figures every ring report carries.
pub(crate) struct RingRun<W: RingWorkload> {
    sim: ShardedSim<RingShard<W>>,
    /// Shard count the ring was partitioned into.
    pub(crate) shard_count: u32,
    /// Simulator events executed.
    pub(crate) events: u64,
    /// Virtual seconds simulated.
    pub(crate) virtual_s: f64,
    /// FNV digest of the full `(time, seq)` execution history.
    pub(crate) trace_hash: u64,
    /// Whether the event queues drained before the time limit.
    pub(crate) drained: bool,
}

impl<W: RingWorkload> RingRun<W> {
    pub(crate) fn shards(&self) -> impl Iterator<Item = &RingShard<W>> {
        self.sim.worlds()
    }
}

/// The instant a workload may start: maintenance has run its rounds and two
/// more intervals have let the last of its traffic settle.
pub(crate) fn workload_start(cfg: &ScaleConfig) -> SimTime {
    SimTime::ZERO + cfg.maintenance_interval * (cfg.maintenance_ticks as u64 + 2)
}

/// Drive a warm ring through maintenance and one workload.
///
/// Partitions `ring` into contiguous shards (ring neighbours share a shard)
/// with one `make_workload()` each, staggers every node's maintenance ticks
/// across one interval (so 100k nodes do not all tick in the same slice),
/// schedules `ops` — `(when, node, op)` — in the order given, and runs to a
/// minute past `last_op`; runs drain long before that (ticks are finite,
/// workload traffic terminates or TTLs out).
///
/// The order here is part of every pinned history: `trace_hash` folds each
/// event's push-order sequence number, so all ticks are scheduled before any
/// operation.
pub(crate) fn run_ring<W: RingWorkload>(
    cfg: &ScaleConfig,
    ring: WarmRing,
    mut make_workload: impl FnMut() -> W,
    ops: impl IntoIterator<Item = (SimTime, u32, W::Op)>,
    last_op: SimTime,
) -> RingRun<W> {
    let WarmRing {
        net, nodes, slice, ..
    } = ring;
    let mut nodes = nodes.into_iter();
    let shards = (0..net.shards())
        .map(|s| RingShard {
            net,
            interval: cfg.maintenance_interval,
            lo: net.shard_start(s),
            nodes: nodes
                .by_ref()
                .take((net.shard_end(s) - net.shard_start(s)) as usize)
                .collect(),
            workload: make_workload(),
        })
        .collect();
    let mut sim = ShardedSim::new(shards, slice, cfg.parallel);

    let interval_ns = cfg.maintenance_interval.as_nanos();
    for i in 0..cfg.nodes {
        let at = SimTime::ZERO + Duration::from_nanos(i as u64 * interval_ns / cfg.nodes as u64);
        sim.schedule(
            net.shard_of(i) as usize,
            at,
            RingEv::Tick {
                dst: i,
                remaining: cfg.maintenance_ticks,
            },
        );
    }
    for (when, at, op) in ops {
        sim.schedule(net.shard_of(at) as usize, when, RingEv::Op { at, op });
    }

    let outcome = sim.run_until(last_op + Duration::from_secs(60));
    RingRun {
        shard_count: net.shards(),
        events: sim.executed(),
        virtual_s: sim.now().saturating_since(SimTime::ZERO).as_secs_f64(),
        trace_hash: sim.trace_hash(),
        drained: outcome == ShardRunOutcome::Drained,
        sim,
    }
}

/// The scale scenario's workload: Exact-mode probes to a target node's
/// address, hop counts harvested where they arrive.
struct Probes {
    /// Global id → overlay address (shared, read-only).
    addrs: Arc<Vec<Address>>,
    hops: Vec<u32>,
    sent: u64,
    delivered: u64,
}

impl RingWorkload for Probes {
    /// Target node id.
    type Op = u32;

    fn inject(&mut self, now: SimTime, node: &mut OverlayNode, target: u32) {
        self.sent += 1;
        node.send_ip(now, self.addrs[target as usize], vec![0u8; 8]);
    }

    fn harvest(&mut self, _now: SimTime, node: &mut OverlayNode) {
        for pkt in node.take_delivered() {
            self.delivered += 1;
            self.hops.push(pkt.hops as u32);
        }
    }
}

/// Deterministic unique ring addresses for `n` nodes, in ascending ring
/// order (node `i` is node `i+1`'s counter-clockwise neighbour).
fn ring_addresses(n: u32, seed: u64) -> Vec<Address> {
    let mut rng = StreamRng::new(seed, "scale-addresses");
    let mut addrs: Vec<Address> = (0..n)
        .map(|_| {
            let mut b = [0u8; 20];
            for chunk in b.chunks_mut(8) {
                let w = rng.next_u64().to_le_bytes();
                chunk.copy_from_slice(&w[..chunk.len()]);
            }
            Address(b)
        })
        .collect();
    addrs.sort_unstable();
    addrs.dedup();
    assert_eq!(addrs.len(), n as usize, "160-bit address collision");
    addrs
}

/// The interned substrate plus warm-started overlay nodes shared by the
/// scale and fan-out workloads.
pub struct WarmRing {
    /// The interned flat substrate (`Copy`; every shard keeps one).
    pub net: ScaleNet,
    /// Global node id → overlay address, in ascending ring order.
    pub addrs: Arc<Vec<Address>>,
    /// One warm-started node per id: near edges to `near_per_side` ring
    /// neighbours each side, `seeded_shortcuts` harmonically-drawn Far edges.
    pub nodes: Vec<OverlayNode>,
    /// The event-slice width the substrate was built with.
    pub slice: Duration,
}

/// Build the substrate and warm-start the ring: near edges to the
/// `near_per_side` ring neighbours on each side, plus `seeded_shortcuts`
/// harmonically-drawn Far edges (both directions, like a completed
/// handshake). The remaining shortcut budget is left for live maintenance
/// to fill.
pub fn build_warm_ring(cfg: &ScaleConfig) -> WarmRing {
    assert!(cfg.nodes >= 8, "ring too small to be interesting");
    assert!(cfg.seeded_shortcuts <= cfg.max_shortcuts);
    let slice = Duration::from_millis(1);
    let net = ScaleNet::new(cfg.nodes, cfg.shards, cfg.seed, slice, cfg.link_jitter);
    let n = cfg.nodes as usize;
    let addrs = Arc::new(ring_addresses(cfg.nodes, cfg.seed));
    // Hop budget: greedy tail paths run a small multiple of log₂N; the wire
    // default (32) starts truncating the tail beyond ~10k nodes.
    let packet_ttl = ((4.0 * (cfg.nodes as f64).log2()) as u8).clamp(32, 128);

    let mut nodes: Vec<OverlayNode> = (0..n)
        .map(|i| {
            let mut oc = OverlayConfig::new(addrs[i], net.endpoint(i as u32))
                .without_link_monitor()
                .without_anti_entropy();
            oc.near_per_side = cfg.near_per_side;
            oc.max_shortcuts = cfg.max_shortcuts;
            oc.maintenance_interval = cfg.maintenance_interval;
            oc.packet_ttl = packet_ttl;
            oc.pubsub_fanout = cfg.pubsub_fanout;
            OverlayNode::new(oc, StreamRng::new(cfg.seed, &format!("scale-node-{i}")))
        })
        .collect();

    let t0 = SimTime::ZERO;
    for (i, node) in nodes.iter_mut().enumerate() {
        for d in 1..=cfg.near_per_side.min(n / 2) {
            for j in [(i + d) % n, (i + n - d) % n] {
                if j != i {
                    node.seed_connection(
                        t0,
                        addrs[j],
                        net.endpoint(j as u32),
                        ConnectionKind::Near,
                    );
                }
            }
        }
    }
    let mut far_rng = StreamRng::new(cfg.seed, "scale-seed-far");
    for i in 0..n {
        for _ in 0..cfg.seeded_shortcuts {
            // Symphony/Kleinberg harmonic draw over ring offsets: n^u with
            // u uniform in (0,1) gives P(offset = d) ∝ 1/d.
            let offset = ((n as f64).powf(far_rng.unit()) as usize).clamp(1, n - 1);
            let j = (i + offset) % n;
            if j == i
                || nodes[i].connections().contains(&addrs[j])
                || nodes[j].connections().contains(&addrs[i])
            {
                continue; // degenerate draw; maintenance will top the budget up
            }
            nodes[i].seed_connection(t0, addrs[j], net.endpoint(j as u32), ConnectionKind::Far);
            nodes[j].seed_connection(t0, addrs[i], net.endpoint(i as u32), ConnectionKind::Far);
        }
    }
    WarmRing {
        net,
        addrs,
        nodes,
        slice,
    }
}

/// Run one scale experiment.
pub fn run_scale(cfg: &ScaleConfig) -> ScaleReport {
    let ring = build_warm_ring(cfg);
    let addrs = Arc::clone(&ring.addrs);
    let n = cfg.nodes as usize;

    // Probe phase: random pairs, spaced 1 ms apart after maintenance settles.
    let probe_start = workload_start(cfg);
    let mut probe_rng = StreamRng::new(cfg.seed, "scale-probes");
    let probes = (0..cfg.probes).map(|p| {
        let src = probe_rng.index(n) as u32;
        let mut target = probe_rng.index(n) as u32;
        if target == src {
            target = (src + 1) % cfg.nodes;
        }
        (probe_start + Duration::from_millis(p as u64), src, target)
    });
    let run = run_ring(
        cfg,
        ring,
        || Probes {
            addrs: Arc::clone(&addrs),
            hops: Vec::new(),
            sent: 0,
            delivered: 0,
        },
        probes,
        probe_start + Duration::from_millis(cfg.probes as u64),
    );

    let mut hops = Vec::new();
    let mut probes_sent = 0;
    let mut probes_delivered = 0;
    let mut far_total = 0usize;
    let mut full_budget = 0u32;
    let mut dropped_no_target = 0;
    let mut dropped_ttl = 0;
    for shard in run.shards() {
        hops.extend_from_slice(&shard.workload.hops);
        probes_sent += shard.workload.sent;
        probes_delivered += shard.workload.delivered;
        for node in &shard.nodes {
            let far = node.connections().count_kind(ConnectionKind::Far);
            far_total += far;
            if far >= cfg.max_shortcuts {
                full_budget += 1;
            }
            let s = node.stats();
            dropped_no_target += s.dropped_no_target;
            dropped_ttl += s.dropped_ttl;
        }
    }

    ScaleReport {
        nodes: cfg.nodes,
        shards: run.shard_count,
        events: run.events,
        virtual_s: run.virtual_s,
        probes_sent,
        probes_delivered,
        hops,
        mean_far: far_total as f64 / cfg.nodes as f64,
        full_budget_nodes: full_budget,
        dropped_no_target,
        dropped_ttl,
        trace_hash: run.trace_hash,
        drained: run.drained,
    }
}

/// Run the same config sequentially and in parallel; return the two reports.
/// Histories must match bit-for-bit (`trace_hash` and all measurements) —
/// [`verify_modes_agree`] and a tier-1 test assert it.
pub fn run_both_modes(cfg: &ScaleConfig) -> (ScaleReport, ScaleReport) {
    let mut seq = cfg.clone();
    seq.parallel = false;
    let mut par = cfg.clone();
    par.parallel = true;
    (run_scale(&seq), run_scale(&par))
}

/// The `--verify` pass of the ring scenarios: run a 1k-node config both
/// sequentially and shard-parallel and panic unless the histories match
/// bit-for-bit.
pub fn verify_modes_agree() {
    eprintln!("verifying parallel == sequential on a 1k ring…");
    let (seq, par) = run_both_modes(&ScaleConfig {
        shards: 8,
        maintenance_ticks: 4,
        probes: 500,
        ..ScaleConfig::ring(1000)
    });
    assert!(
        seq.trace_hash == par.trace_hash && seq.hops == par.hops,
        "determinism violation: sequential {:#x} vs parallel {:#x}",
        seq.trace_hash,
        par.trace_hash
    );
    eprintln!(
        "  ok: trace {:#018x}, {} events",
        par.trace_hash, par.events
    );
}

/// The `ring_10k` / `ring_100k` scenarios: [`ScaleConfig::ring`] at `nodes`,
/// with fewer maintenance rounds and probes when `quick` (CI-sized).
/// `verified` says [`verify_modes_agree`] ran (and so passed) first.
pub fn scenario(name: &str, nodes: u32, quick: bool, verified: bool) -> Outcome {
    let mut cfg = ScaleConfig::ring(nodes);
    if quick {
        cfg.maintenance_ticks = 6;
        cfg.probes = (nodes / 5).max(1000).min(nodes);
    }
    eprintln!(
        "{name} ({} mode): {} nodes, {} shards, {} maintenance rounds, {} probes",
        mode(quick),
        cfg.nodes,
        cfg.shards,
        cfg.maintenance_ticks,
        cfg.probes
    );
    let r = run_scale(&cfg);
    let json = Json::obj([
        ("bench", "scale".into()),
        ("scenario", name.into()),
        ("mode", mode(quick).into()),
        ("nodes", r.nodes.into()),
        ("shards", r.shards.into()),
        ("events", r.events.into()),
        ("virtual_s", Json::Fixed(r.virtual_s, 1)),
        (
            "probes",
            Json::obj([
                ("sent", r.probes_sent.into()),
                ("delivered", r.probes_delivered.into()),
                ("delivery_rate", Json::Fixed(r.delivery_rate(), 4)),
            ]),
        ),
        (
            "hops",
            Json::obj([
                ("mean", Json::Fixed(r.mean_hops(), 3)),
                ("p50", r.hops_quantile(0.5).into()),
                ("p99", r.hops_quantile(0.99).into()),
                ("max", r.hops_quantile(1.0).into()),
            ]),
        ),
        ("log2n", Json::Fixed(r.log2n(), 3)),
        ("stretch", Json::Fixed(r.stretch(), 3)),
        (
            "shortcuts",
            Json::obj([
                ("mean_far", Json::Fixed(r.mean_far, 3)),
                ("full_budget_nodes", r.full_budget_nodes.into()),
            ]),
        ),
        (
            "dropped",
            Json::obj([
                ("no_target", r.dropped_no_target.into()),
                ("ttl", r.dropped_ttl.into()),
            ]),
        ),
        (
            "determinism",
            Json::obj([
                ("verified", if verified { true.into() } else { Json::Null }),
                ("trace_hash", Json::hash(r.trace_hash)),
            ]),
        ),
    ]);
    Outcome::artefact(json, Ok(()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ratchet: queues and barrier move events by value, so fat ones cost.
    #[test]
    fn ring_events_stay_small() {
        assert!(std::mem::size_of::<RingEv<u32>>() <= 48);
        assert!(std::mem::size_of::<LinkMessage>() <= 152);
    }

    fn small() -> ScaleConfig {
        ScaleConfig {
            shards: 4,
            maintenance_ticks: 4,
            probes: 64,
            ..ScaleConfig::ring(128)
        }
    }

    #[test]
    fn small_ring_routes_all_probes() {
        let r = run_scale(&small());
        assert!(r.drained, "run must drain");
        assert_eq!(r.probes_sent, 64);
        assert_eq!(r.probes_delivered, 64, "every probe must arrive");
        assert_eq!(r.dropped_no_target, 0, "no blackholed probes");
        assert!(r.mean_far >= 2.0, "seeded shortcuts survive maintenance");
        // 128 nodes: log2 = 7; greedy with shortcuts must beat ring walking
        // (mean ~32 hops on a bare 128-ring with 2 near per side).
        assert!(
            r.mean_hops() < 3.0 * r.log2n(),
            "mean hops {} vs log2N {}",
            r.mean_hops(),
            r.log2n()
        );
    }

    #[test]
    fn parallel_and_sequential_histories_match() {
        let (seq, par) = run_both_modes(&small());
        assert_eq!(seq.trace_hash, par.trace_hash);
        assert_eq!(seq.events, par.events);
        assert_eq!(seq.hops, par.hops);
        assert_eq!(seq.probes_delivered, par.probes_delivered);
        assert_eq!(seq.mean_far, par.mean_far);
    }

    #[test]
    fn same_config_replays_identically() {
        let a = run_scale(&small());
        let b = run_scale(&small());
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.hops, b.hops);
    }

    #[test]
    fn maintenance_fills_the_shortcut_budget() {
        // Zero seeded shortcuts: every Far edge must come from live
        // request_shortcut maintenance over the seeded ring.
        let mut cfg = small();
        cfg.seeded_shortcuts = 0;
        cfg.maintenance_ticks = 8;
        cfg.probes = 16;
        let r = run_scale(&cfg);
        assert!(r.drained);
        assert!(
            r.mean_far >= 1.0,
            "maintenance formed shortcuts (mean_far {})",
            r.mean_far
        );
        assert_eq!(r.probes_delivered, r.probes_sent);
    }
}
