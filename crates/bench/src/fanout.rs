//! Heavy-traffic pub/sub fan-out workload: many publishers, one hot topic,
//! thousands of subscribers.
//!
//! A workload on the [`crate::scale`] ring driver (warm ring, staggered
//! maintenance, sharded simulator — none of it lives here): a block of
//! subscriber nodes subscribes to one topic (staggered, soft-state records
//! converging at the topic root), and after a settle window a block of
//! publisher nodes publishes one message each (staggered). Every publish
//! routes to the topic root and fans out along the bounded-degree relay
//! tree; the workload measures the fan-out latency distribution
//! (publish instant → delivery instant per subscriber), the delivery rate
//! against the `publishers × subscribers` ideal, and simulator throughput.
//!
//! Because simulator events carry `LinkMessage` structs rather than
//! encoded datagrams, the published body is one shared `Bytes` region across
//! every copy at every relay depth — the zero-copy fan-out path the wire
//! codec's cached-image tests pin down, exercised at workload scale.

use ipop_overlay::address::Address;
use ipop_overlay::node::OverlayNode;
use ipop_overlay::pubsub::topic_key;
use ipop_packet::Bytes;
use ipop_simcore::{Duration, SimTime, StreamRng};

use crate::harness::{fmax, mean, quantile};
use crate::json::Json;
use crate::scale::{build_warm_ring, run_ring, workload_start, RingWorkload, ScaleConfig};
use crate::{ensure, mode, Outcome};

/// Parameters of one fan-out run.
#[derive(Clone, Debug)]
pub struct FanoutConfig {
    /// Ring substrate (size, shards, seeding, relay-tree out-degree).
    pub scale: ScaleConfig,
    /// Nodes `0..subscribers` subscribe to the topic.
    pub subscribers: u32,
    /// Nodes `subscribers..subscribers + publishers` publish one message
    /// each. The two blocks must fit the ring, disjoint.
    pub publishers: u32,
    /// Published body size.
    pub payload_bytes: usize,
    /// Gap between consecutive subscribes (staggered so the root merges a
    /// stream, not one burst).
    pub subscribe_spacing: Duration,
    /// Gap between consecutive publishes.
    pub publish_spacing: Duration,
    /// Quiet window between the last subscribe and the first publish, for
    /// the subscriber record (and its replicas) to settle.
    pub settle: Duration,
    /// Subscription TTL. Kept far above the run length so no renewals fire
    /// mid-measurement.
    pub sub_ttl: Duration,
}

impl FanoutConfig {
    /// The paper-scale workload: 1k publishers × 10k subscribers on a 12k
    /// ring, fan-out 4, 64-byte bodies.
    pub fn full() -> Self {
        FanoutConfig {
            scale: ScaleConfig {
                maintenance_ticks: 4,
                probes: 0,
                ..ScaleConfig::ring(12_000)
            },
            subscribers: 10_000,
            publishers: 1_000,
            payload_bytes: 64,
            subscribe_spacing: Duration::from_millis(1),
            publish_spacing: Duration::from_millis(1),
            settle: Duration::from_secs(5),
            sub_ttl: Duration::from_secs(3600),
        }
    }

    /// CI-sized: 32 publishers × 256 subscribers on a 512-node ring.
    pub fn quick() -> Self {
        FanoutConfig {
            scale: ScaleConfig {
                shards: 4,
                maintenance_ticks: 4,
                probes: 0,
                ..ScaleConfig::ring(512)
            },
            subscribers: 256,
            publishers: 32,
            ..Self::full()
        }
    }
}

/// Outcome of one fan-out run.
#[derive(Clone, Debug)]
pub struct FanoutReport {
    pub nodes: u32,
    pub shards: u32,
    pub subscribers: u32,
    pub publishers: u32,
    pub fanout: usize,
    /// Messages actually published (one per publisher).
    pub publishes: u64,
    /// `publishes × subscribers`: every subscriber must see every message.
    pub expected: u64,
    /// Deliveries harvested at subscribers.
    pub delivered: u64,
    /// Publish-to-delivery latency of every delivery, in virtual ms.
    pub latencies_ms: Vec<f64>,
    /// Direct relay-tree sends (root + delegated heads).
    pub fanout_sent: u64,
    /// Deliveries that also carried a delegated chunk to re-fan.
    pub relayed: u64,
    /// Salvage re-fans (should be 0 without churn).
    pub salvaged: u64,
    /// Simulator events executed.
    pub events: u64,
    /// Virtual seconds simulated.
    pub virtual_s: f64,
    /// FNV digest of the full execution history (determinism witness).
    pub trace_hash: u64,
    /// Whether the event queues drained before the time limit.
    pub drained: bool,
}

impl FanoutReport {
    pub fn delivery_rate(&self) -> f64 {
        if self.expected == 0 {
            return f64::NAN;
        }
        self.delivered as f64 / self.expected as f64
    }
}

/// One operation of the fan-out workload.
enum FanOp {
    /// The node subscribes to the topic.
    Subscribe,
    /// The node publishes one message on the topic.
    Publish,
}

/// The fan-out scenario's workload: subscribes and publishes on one topic,
/// publish and arrival instants harvested per message id.
struct Fan {
    topic: Address,
    /// The published body, one shared region for every publish and copy.
    payload: Bytes,
    sub_ttl: Duration,
    /// `(msg_id, publish instant)` of publishes originated in this shard.
    publishes: Vec<(u64, SimTime)>,
    /// `(msg_id, delivery instant)` of messages delivered in this shard.
    arrivals: Vec<(u64, SimTime)>,
}

impl RingWorkload for Fan {
    type Op = FanOp;

    fn inject(&mut self, now: SimTime, node: &mut OverlayNode, op: FanOp) {
        match op {
            FanOp::Subscribe => node.pubsub_subscribe(now, self.topic, self.sub_ttl),
            FanOp::Publish => {
                let msg_id = node.pubsub_publish(now, self.topic, self.payload.clone());
                self.publishes.push((msg_id, now));
            }
        }
    }

    fn harvest(&mut self, now: SimTime, node: &mut OverlayNode) {
        for (_topic, msg_id, _payload) in node.take_pubsub_delivered() {
            self.arrivals.push((msg_id, now));
        }
    }
}

/// Run one fan-out experiment.
pub fn run_fanout(cfg: &FanoutConfig) -> FanoutReport {
    let scfg = &cfg.scale;
    assert!(
        cfg.subscribers + cfg.publishers <= scfg.nodes,
        "subscriber and publisher blocks must fit the ring"
    );
    let ring = build_warm_ring(scfg);
    let topic = topic_key("bench");
    let mut payload = vec![0u8; cfg.payload_bytes];
    StreamRng::new(scfg.seed, "fanout-body").fill_bytes(&mut payload);
    let payload = Bytes::from(payload);

    // Subscribe phase after maintenance settles, staggered; publish phase
    // after the settle window, staggered.
    let sub_start = workload_start(scfg);
    let pub_start = sub_start + cfg.subscribe_spacing * cfg.subscribers as u64 + cfg.settle;
    let subscribes = (0..cfg.subscribers).map(|s| {
        (
            sub_start + cfg.subscribe_spacing * s as u64,
            s,
            FanOp::Subscribe,
        )
    });
    let publishes = (0..cfg.publishers).map(|p| {
        let src = cfg.subscribers + p;
        (
            pub_start + cfg.publish_spacing * p as u64,
            src,
            FanOp::Publish,
        )
    });
    let run = run_ring(
        scfg,
        ring,
        || Fan {
            topic,
            payload: payload.clone(),
            sub_ttl: cfg.sub_ttl,
            publishes: Vec::new(),
            arrivals: Vec::new(),
        },
        subscribes.chain(publishes),
        pub_start + cfg.publish_spacing * cfg.publishers as u64,
    );

    // Fold: publish instants by message id, then latency per arrival.
    let mut publish_at: std::collections::BTreeMap<u64, SimTime> =
        std::collections::BTreeMap::new();
    let mut publishes = 0u64;
    for shard in run.shards() {
        for &(id, at) in &shard.workload.publishes {
            publish_at.insert(id, at);
            publishes += 1;
        }
    }
    let mut latencies_ms = Vec::new();
    let mut delivered = 0u64;
    let mut fanout_sent = 0u64;
    let mut relayed = 0u64;
    let mut salvaged = 0u64;
    for shard in run.shards() {
        for &(id, at) in &shard.workload.arrivals {
            if let Some(&sent) = publish_at.get(&id) {
                delivered += 1;
                latencies_ms.push(at.saturating_since(sent).as_secs_f64() * 1e3);
            }
        }
        for node in &shard.nodes {
            let s = node.stats();
            fanout_sent += s.pubsub_fanout_sent;
            relayed += s.pubsub_relayed;
            salvaged += s.pubsub_salvaged;
        }
    }

    FanoutReport {
        nodes: scfg.nodes,
        shards: run.shard_count,
        subscribers: cfg.subscribers,
        publishers: cfg.publishers,
        fanout: scfg.pubsub_fanout,
        publishes,
        expected: publishes * cfg.subscribers as u64,
        delivered,
        latencies_ms,
        fanout_sent,
        relayed,
        salvaged,
        events: run.events,
        virtual_s: run.virtual_s,
        trace_hash: run.trace_hash,
        drained: run.drained,
    }
}

/// The `fanout` scenario (`BENCH_fanout.json`): [`FanoutConfig::full`], or
/// [`FanoutConfig::quick`]. Gate: the run drains and ≥ 99.9 % of the
/// `publishes × subscribers` deliveries arrive.
pub fn scenario(quick: bool) -> Outcome {
    let cfg = if quick {
        FanoutConfig::quick()
    } else {
        FanoutConfig::full()
    };
    eprintln!(
        "fanout ({} mode): {} nodes / {} shards, {} publishers x {} subscribers, fan-out {}",
        mode(quick),
        cfg.scale.nodes,
        cfg.scale.shards,
        cfg.publishers,
        cfg.subscribers,
        cfg.scale.pubsub_fanout
    );
    let r = run_fanout(&cfg);
    let latency = |q| Json::Fixed(quantile(&r.latencies_ms, q), 2);
    let json = Json::obj([
        ("bench", "fanout".into()),
        ("mode", mode(quick).into()),
        ("nodes", r.nodes.into()),
        ("shards", r.shards.into()),
        ("publishers", r.publishers.into()),
        ("subscribers", r.subscribers.into()),
        ("fanout", r.fanout.into()),
        ("payload_bytes", cfg.payload_bytes.into()),
        ("events", r.events.into()),
        ("virtual_s", Json::Fixed(r.virtual_s, 1)),
        (
            "delivery",
            Json::obj([
                ("publishes", r.publishes.into()),
                ("expected", r.expected.into()),
                ("delivered", r.delivered.into()),
                ("rate", Json::Fixed(r.delivery_rate(), 6)),
            ]),
        ),
        (
            "latency_ms",
            Json::obj([
                ("mean", Json::Fixed(mean(&r.latencies_ms), 2)),
                ("p50", latency(0.5)),
                ("p90", latency(0.9)),
                ("p99", latency(0.99)),
                ("max", Json::Fixed(fmax(&r.latencies_ms), 2)),
            ]),
        ),
        (
            "relay_tree",
            Json::obj([
                ("fanout_sent", r.fanout_sent.into()),
                ("relayed", r.relayed.into()),
                ("salvaged", r.salvaged.into()),
            ]),
        ),
        (
            "determinism",
            Json::obj([
                ("drained", r.drained.into()),
                ("trace_hash", Json::hash(r.trace_hash)),
            ]),
        ),
    ]);
    let check = ensure(r.drained, "fan-out run failed to drain").and(ensure(
        r.delivery_rate() >= 0.999,
        format!(
            "delivery rate {:.6} below the 99.9% floor",
            r.delivery_rate()
        ),
    ));
    Outcome::artefact(json, check)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FanoutConfig {
        FanoutConfig {
            scale: ScaleConfig {
                shards: 4,
                maintenance_ticks: 3,
                probes: 0,
                ..ScaleConfig::ring(96)
            },
            subscribers: 48,
            publishers: 8,
            settle: Duration::from_secs(2),
            ..FanoutConfig::full()
        }
    }

    #[test]
    fn every_subscriber_gets_every_message() {
        let r = run_fanout(&tiny());
        assert!(r.drained, "run must drain");
        assert_eq!(r.publishes, 8);
        assert_eq!(r.expected, 8 * 48);
        assert_eq!(
            r.delivered, r.expected,
            "lossless substrate: delivery must be exact"
        );
        assert_eq!(r.latencies_ms.len() as u64, r.delivered);
        assert!(r.relayed > 0, "bounded fan-out must delegate");
        assert_eq!(r.salvaged, 0, "no churn, no salvage");
    }

    #[test]
    fn fanout_runs_are_deterministic_and_mode_independent() {
        let mut seq = tiny();
        seq.scale.parallel = false;
        let a = run_fanout(&seq);
        let b = run_fanout(&tiny());
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.latencies_ms.len(), b.latencies_ms.len());
    }
}
