//! Tier-1 scale-routing checks: a deterministic 1000-node ring exercising
//! Kleinberg shortcut routing end to end through the sharded simulator.
//!
//! The heavy 10k/100k measurements live in the `ring_10k`/`ring_100k`
//! benchmark binaries; these tests pin the properties those benches rely on
//! at a size cargo-test can afford:
//!
//! * greedy routing over a converged ring with shortcuts delivers **every**
//!   probe (no loops, no blackholes, no TTL exhaustion);
//! * mean hop count stays within a disclosed bound of the `log₂N` Kleinberg
//!   ideal (measured stretch on this seed is ~0.9; the bound of 1.5 leaves
//!   room for routing-irrelevant perturbations without letting a broken
//!   shortcut layer — ring-walk stretch would be ~19 — slip through);
//! * the sharded parallel tick replays the sequential history bit-for-bit;
//! * the three ring workloads (probes, pub/sub fan-out, stream fairness)
//!   replay one pinned history each, so a change to the ring driver they
//!   share cannot move an event unnoticed.

use ipop_bench::fanout::{run_fanout, FanoutConfig};
use ipop_bench::scale::{run_both_modes, run_scale, ScaleConfig};
use ipop_bench::streams::{run_fairness, FairnessConfig};
use ipop_simcore::Duration;

fn thousand() -> ScaleConfig {
    ScaleConfig {
        shards: 8,
        maintenance_ticks: 5,
        probes: 1000,
        ..ScaleConfig::ring(1000)
    }
}

#[test]
fn thousand_node_ring_stretch_within_bound() {
    let r = run_scale(&thousand());
    assert!(r.drained, "run must drain before the time limit");
    assert_eq!(r.probes_sent, 1000);
    assert_eq!(
        r.probes_delivered, 1000,
        "every probe must arrive (no loops, blackholes or TTL drops)"
    );
    assert_eq!(r.dropped_no_target, 0);
    assert_eq!(r.dropped_ttl, 0);
    // Shortcut budget actually filled: routing below is shortcut routing,
    // not a lucky ring walk.
    assert!(
        r.mean_far >= 3.0,
        "mean Far edges {:.2} — shortcut formation broke",
        r.mean_far
    );
    let stretch = r.stretch();
    assert!(
        stretch < 1.5,
        "mean hops {:.2} vs log2(1000) = {:.2}: stretch {stretch:.2} exceeds the 1.5 bound",
        r.mean_hops(),
        r.log2n()
    );
}

#[test]
fn thousand_node_parallel_tick_matches_sequential() {
    let (seq, par) = run_both_modes(&thousand());
    assert_eq!(
        seq.trace_hash, par.trace_hash,
        "sharded parallel execution diverged from sequential"
    );
    assert_eq!(seq.events, par.events);
    assert_eq!(seq.hops, par.hops);
    assert_eq!(seq.probes_delivered, par.probes_delivered);
}

/// `ShardedSim::trace_hash` folds every executed `(time, seq)` and `seq` is
/// assigned by push order, so these constants pin the driver's schedule
/// (ticks first, then the workload's operations in order) as well as the
/// overlay's behaviour. A change that moves one is a behaviour change: say so
/// and re-pin on purpose, never to make a refactor pass.
#[test]
fn ring_workload_histories_are_pinned() {
    let scale = run_scale(&ScaleConfig {
        shards: 4,
        maintenance_ticks: 4,
        probes: 64,
        ..ScaleConfig::ring(128)
    });
    assert_eq!(scale.events, 3534);
    assert_eq!(scale.trace_hash, 0xcedb_3148_ea7e_88c0);
    assert_eq!(scale.hops.iter().sum::<u32>(), 217);

    let small_ring = ScaleConfig {
        shards: 4,
        maintenance_ticks: 3,
        probes: 0,
        ..ScaleConfig::ring(96)
    };
    let fan = run_fanout(&FanoutConfig {
        scale: small_ring.clone(),
        subscribers: 48,
        publishers: 8,
        settle: Duration::from_secs(2),
        ..FanoutConfig::full()
    });
    assert_eq!(fan.events, 3199);
    assert_eq!(fan.trace_hash, 0x504a_de85_27aa_ae0d);
    assert_eq!(fan.delivered, 384);
    assert_eq!(fan.fanout_sent, 376);

    let fair = run_fairness(&FairnessConfig {
        scale: ScaleConfig {
            link_jitter: Duration::ZERO,
            ..small_ring
        },
        streams: 64,
        transfer_bytes: 4 * 1024,
        ..FairnessConfig::full()
    });
    assert_eq!(fair.events, 3080);
    assert_eq!(fair.trace_hash, 0x3188_4de2_eb0a_6ce5);
    assert_eq!(fair.bytes_received, 262_144);
}
