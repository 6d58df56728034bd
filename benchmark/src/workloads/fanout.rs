//! `fanout` — `ipop_bench::fanout::run_fanout`: a block of subscribers on a
//! warm ring, then a block of publishers publishing one 64-byte message each,
//! one per millisecond (open loop). One-to-many over the bounded-degree relay
//! tree and the shared wire image: `overlay::pubsub` dominates, point-to-point
//! routing is a minority — the same overlay layer as `ring_route`, used
//! differently. Sequential shards.
//!
//! Op = one (publish, subscriber) delivery. The seed drives the ring
//! (addresses, latencies, node random streams) and the message body.

use ipop_bench::fanout::{run_fanout, FanoutConfig, FanoutReport};
use ipop_bench::scale::ScaleConfig;

use super::{Fingerprint, Outcome, Size, Workload};
use crate::fullstack::share;

fn config(seed: u64, size: Size) -> FanoutConfig {
    let (nodes, subscribers, publishers) = match size {
        Size::Full => (2_048, 1_500, 150),
        Size::Smoke => (512, 256, 32),
    };
    FanoutConfig {
        scale: ScaleConfig {
            seed,
            parallel: false,
            maintenance_ticks: 4,
            probes: 0,
            ..ScaleConfig::ring(nodes)
        },
        subscribers,
        publishers,
        ..FanoutConfig::full()
    }
}

pub fn sizes(size: Size) -> String {
    let c = config(0, size);
    format!(
        "{}-node ring, {} subscribers x {} publishers, {}-byte bodies, fan-out {}",
        c.scale.nodes, c.subscribers, c.publishers, c.payload_bytes, c.scale.pubsub_fanout
    )
}

pub struct Fanout {
    cfg: FanoutConfig,
    report: Option<FanoutReport>,
}

pub fn prepare(seed: u64, size: Size) -> Fanout {
    Fanout {
        cfg: config(seed, size),
        report: None,
    }
}

impl Workload for Fanout {
    fn run(&mut self) {
        self.report = Some(run_fanout(&self.cfg));
    }

    fn finish(self: Box<Self>) -> Outcome {
        let r = self.report.expect("finish follows run");
        let mut out = Outcome {
            ops: r.expected,
            failed: r.expected - r.delivered.min(r.expected),
            ..Outcome::default()
        };
        out.check(r.publishes == u64::from(self.cfg.publishers), || {
            format!(
                "{} of {} publishes happened",
                r.publishes, self.cfg.publishers
            )
        });
        out.check(r.delivered == r.expected, || {
            format!("delivered {} of {} expected", r.delivered, r.expected)
        });
        out.check(r.drained, || "event queues did not drain".into());
        out.set("events", r.events as f64);
        out.set(
            "overlay.pubsub.relay_share",
            share(r.relayed, r.fanout_sent),
        );
        out.set(
            "overlay.pubsub.msgs_per_delivery",
            share(r.fanout_sent, r.delivered),
        );
        out.fingerprint = Fingerprint::new()
            .add(r.events)
            .add(r.trace_hash)
            .add(r.delivered)
            .add(r.fanout_sent)
            .finish();
        out.latencies_ms = r.latencies_ms;
        out
    }
}
