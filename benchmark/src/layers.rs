//! The per-layer ledger of one workload: every name in
//! `metrics::PER_LAYER` gets a value or `None` plus the reason, from three
//! sources — (A) counters the untraced repetitions read from public stats,
//! (B) spans of the traced repetition, (C) the replay kernels.

use std::collections::BTreeMap;

use crate::fullstack as fs;
use crate::metrics::PER_LAYER;
use crate::rep::Rep;
use crate::ringtrace as rt;
use crate::stats::median;

/// How a workload gets its layer numbers.
pub fn trace_kind(workload: &str) -> &'static str {
    match workload {
        "fanout" | "streams" => "counters+kernels",
        _ => "spans",
    }
}

/// The ledger's own spelling of `name`, if the ledger lists it.
fn listed(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|m| m.name == name).map(|m| m.name)
}

const NOT_EXERCISED: &str = "layer not exercised by this workload";
const NO_SPANS: &str = "needs spans; this workload is traced by counters+kernels";
const NO_TRACED_REP: &str = "no traced repetition ran";

pub struct LayerValue {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub value: Option<f64>,
    /// Why there is no value.
    pub reason: &'static str,
}

/// Build the ledger. `plain` must be non-empty; `traced` / `parallel` may be.
pub fn ledger(
    workload: &str,
    plain: &[Rep],
    traced: &[Rep],
    parallel: &[Rep],
    kernels: &BTreeMap<String, f64>,
) -> Vec<LayerValue> {
    let first = &plain[0];
    let ops = first.ops.max(1) as f64;
    let plain_wall = median(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let mut v: BTreeMap<&str, f64> = BTreeMap::new();

    // (A) counters, identical in every plain repetition.
    for (name, value) in &first.values {
        if let Some(name) = listed(name) {
            v.insert(name, *value);
        }
    }
    v.insert(
        "proc.raw_wall_s",
        median(&plain.iter().map(|r| r.raw_wall_s).collect::<Vec<_>>()),
    );
    v.insert(
        "proc.speed_factor",
        median(&plain.iter().map(|r| r.speed_factor).collect::<Vec<_>>()),
    );
    let events = first.values.get("events").copied().unwrap_or(f64::NAN);
    v.insert("simcore.events_per_op", events / ops);
    v.insert("simcore.events_per_wall_s", events / plain_wall);
    if let Some(p50) = first.op_ms_p50 {
        v.insert("virt.op_ms_p50", p50);
        v.insert("virt.op_ms_tail", first.op_ms_tail.unwrap_or(f64::NAN));
        v.insert(
            "virt.op_tail_percentile",
            first.op_tail_percentile.unwrap_or(f64::NAN),
        );
    }
    if let Some(&hops) = v.get("overlay.route.hops_mean") {
        v.insert("virt.hops_mean", hops);
    }

    // (C) kernels.
    for (name, value) in kernels {
        if let Some(name) = listed(name) {
            v.insert(name, *value);
        }
    }
    let kernel = |name: &str| kernels.get(name).copied().unwrap_or(0.0);

    // (B) spans and allocation counts of the traced repetitions.
    if let Some(t) = traced.last() {
        // Spans are in clock time, so shares of wall are shares of raw wall.
        let wall_ns = t.raw_wall_s * 1e9;
        let traced_wall = median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        v.insert("trace.overhead_share", traced_wall / plain_wall - 1.0);
        v.insert(
            "trace.faithful",
            f64::from(t.fingerprint == first.fingerprint),
        );
        v.insert("proc.allocs_per_op", t.allocs as f64 / ops);
        v.insert("proc.alloc_bytes_per_op", t.alloc_bytes as f64 / ops);
        for (name, value) in &t.values {
            // Counters only the traced harness can read.
            if let Some(name) = listed(name) {
                v.entry(name).or_insert(*value);
            }
        }
        let total = |name: &str| t.spans.get(name).map_or(0.0, |s| s.total_ns);
        let own = |name: &str| t.spans.get(name).map_or(0.0, |s| s.self_ns);
        let count = |name: &str| t.spans.get(name).map_or(0.0, |s| s.count);
        // Mean duration of a span, at reference speed like every reported time.
        let mean = |name: &str| total(name) / count(name) * t.speed_factor;
        // Wall the spans leave to the simulator and drivers, and what the
        // kernels predict for it; the rest only in-program tracing explains.
        let (unexplained_ns, modelled_ns);
        match workload {
            "wan_bulk" | "churn_ping" | "selfconfig" => {
                let agents = total(fs::ON_START) + total(fs::ON_PACKET) + total(fs::ON_TIMER);
                v.insert("core.node.on_packet_ns", mean(fs::ON_PACKET));
                v.insert("core.node.on_timer_ns", mean(fs::ON_TIMER));
                v.insert("core.node.busy_share", agents / wall_ns);
                v.insert("core.node.wakeups_per_op", count(fs::ON_TIMER) / ops);
                v.insert("netsim.dispatch_self_share", own(fs::SIM) / wall_ns);
                unexplained_ns = wall_ns - agents;
                let pkts = v.get("netsim.pkts_per_op").copied().unwrap_or(0.0) * ops;
                modelled_ns = events * kernel("simcore.queue.push_pop_ns")
                    + pkts * kernel("netsim.link.transmit_ns");
            }
            "ring_route" => {
                let node: f64 = rt::NODE_SPANS.iter().map(|n| total(n)).sum();
                v.insert("overlay.node.on_routed_ns", mean(rt::ON_ROUTED));
                v.insert("overlay.node.on_link_ns", mean(rt::ON_LINK));
                v.insert("overlay.node.on_tick_ns", mean(rt::ON_TICK));
                v.insert("overlay.node.take_outbox_ns", mean(rt::TAKE_OUTBOX));
                v.insert("overlay.node.busy_share", node / wall_ns);
                v.insert("simcore.shard.self_share", own(rt::SIM) / wall_ns);
                unexplained_ns = wall_ns - node;
                modelled_ns = events
                    * (kernel("simcore.queue.push_pop_ns") + kernel("netsim.scale.latency_ns"));
            }
            _ => {
                unexplained_ns = wall_ns;
                let per_op = match workload {
                    "fanout" => kernel("overlay.pubsub.fanout_ns_per_recipient"),
                    _ => 0.0,
                };
                modelled_ns = events * kernel("simcore.queue.push_pop_ns") + ops * per_op;
            }
        }
        v.insert(
            "trace.unattributed_share",
            (unexplained_ns - modelled_ns).max(0.0) / wall_ns,
        );
    }
    if let Some(p) = parallel.last() {
        let par_wall = median(&parallel.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        // Equal fingerprints include equal `trace_hash`; `summarize` fails
        // the run when they differ.
        if p.fingerprint == first.fingerprint {
            v.insert("simcore.shard.par_over_seq", par_wall / plain_wall);
        }
    }

    PER_LAYER
        .iter()
        .map(|m| {
            let value = v.get(m.name).copied().filter(|x| x.is_finite());
            let spans_only = m.name.starts_with("core.node.")
                || m.name.starts_with("overlay.node.")
                || matches!(
                    m.name,
                    "netsim.dispatch_self_share"
                        | "simcore.shard.self_share"
                        | "simcore.shard.par_over_seq"
                );
            let reason = if value.is_some() {
                ""
            } else if traced.is_empty()
                && (spans_only || m.name.starts_with("proc.") || m.name.starts_with("trace."))
            {
                NO_TRACED_REP
            } else if spans_only && trace_kind(workload) != "spans" {
                NO_SPANS
            } else {
                NOT_EXERCISED
            };
            LayerValue {
                name: m.name,
                unit: m.unit,
                better: m.better,
                value,
                reason,
            }
        })
        .collect()
}
