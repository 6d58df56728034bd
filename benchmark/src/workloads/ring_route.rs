//! `ring_route` — `ipop_bench::scale::run_scale` on a warm-started ring:
//! maintenance rounds, then Exact-mode probes between random pairs, one per
//! millisecond (open loop). Bypasses packet / netsim / netstack / core
//! entirely: `overlay::node` route decisions, shortcut maintenance,
//! `bench::scale`'s tick driver and `simcore::ShardedSim` do all the work.
//!
//! Op = one probe. The seed drives addresses, link latencies, node random
//! streams and the probe pairs.

use ipop_bench::scale::{run_scale, ScaleConfig, ScaleReport};

use super::{Fingerprint, Mode, Outcome, Size, Workload};
use crate::ringtrace::{self, TracedExtras};

fn config(seed: u64, size: Size, parallel: bool) -> ScaleConfig {
    let nodes = match size {
        Size::Full => 3_000,
        Size::Smoke => 512,
    };
    ScaleConfig {
        seed,
        parallel,
        ..ScaleConfig::ring(nodes)
    }
}

pub fn sizes(size: Size) -> String {
    let c = config(0, size, false);
    format!(
        "{}-node warm ring, {} shards, {} maintenance rounds, {} probes",
        c.nodes, c.shards, c.maintenance_ticks, c.probes
    )
}

pub struct RingRoute {
    cfg: ScaleConfig,
    mode: Mode,
    report: Option<ScaleReport>,
    extras: Option<TracedExtras>,
}

pub fn prepare(seed: u64, size: Size, mode: Mode) -> RingRoute {
    RingRoute {
        cfg: config(seed, size, mode == Mode::Parallel),
        mode,
        report: None,
        extras: None,
    }
}

impl Workload for RingRoute {
    fn run(&mut self) {
        if self.mode == Mode::Traced {
            let (report, extras) = ringtrace::run_scale_traced(&self.cfg);
            self.report = Some(report);
            self.extras = Some(extras);
        } else {
            self.report = Some(run_scale(&self.cfg));
        }
    }

    fn finish(self: Box<Self>) -> Outcome {
        let r = self.report.expect("finish follows run");
        let mut out = Outcome {
            ops: r.probes_sent,
            failed: r.probes_sent - r.probes_delivered,
            ..Outcome::default()
        };
        out.check(r.probes_sent == u64::from(self.cfg.probes), || {
            format!("sent {} of {} probes", r.probes_sent, self.cfg.probes)
        });
        out.check(r.probes_delivered == r.probes_sent, || {
            format!(
                "delivered {} of {} probes",
                r.probes_delivered, r.probes_sent
            )
        });
        out.check(r.dropped_no_target + r.dropped_ttl == 0, || {
            format!(
                "{} probes dropped (no target {}, ttl {})",
                r.dropped_no_target + r.dropped_ttl,
                r.dropped_no_target,
                r.dropped_ttl
            )
        });
        out.check(r.drained, || "event queues did not drain".into());
        out.set("events", r.events as f64);
        out.set("overlay.route.hops_mean", r.mean_hops());
        out.set("overlay.route.hops_p99", f64::from(r.hops_quantile(0.99)));
        out.set("overlay.route.stretch", r.stretch());
        if let Some(x) = &self.extras {
            out.set(
                "overlay.maint.msgs_per_node_s",
                (x.link_tx - x.forwarded.min(x.link_tx)) as f64 / f64::from(r.nodes) / r.virtual_s,
            );
            out.set(
                "overlay.node.idle_tick_share",
                x.idle_ticks as f64 / x.ticks.max(1) as f64,
            );
        }
        out.fingerprint = Fingerprint::new()
            .add(r.events)
            .add(r.trace_hash)
            .add(r.probes_delivered)
            .add(r.hops.iter().map(|&h| u64::from(h)).sum())
            .finish();
        out
    }
}
