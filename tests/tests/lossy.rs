//! Overlay behaviour on lossy networks, driven by the fault-injection
//! harness's link-impairment events: phi-accrual edge suspicion must keep
//! live-but-lossy edges alive (zero false dead-edge verdicts) while a
//! genuinely crashed peer is still detected within the fast-detection bound
//! — and the ablation run shows the fixed consecutive-miss verdict *does*
//! cut off a lossy member, which is exactly what phi-accrual buys.

use std::net::Ipv4Addr;

use ipop::prelude::*;
use ipop_netsim::{planetlab, LinkImpairment};
use ipop_tests::{FaultEvent, FaultHarness, FaultScenario};

fn vip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(172, 16, 7, (i + 1) as u8)
}

fn deploy(seed: u64, n: usize, options: DeployOptions, scenario: FaultScenario) -> FaultHarness {
    let mut net = Network::new(seed);
    let plab = planetlab(&mut net, n, 1.0, 5);
    let members = plab
        .nodes
        .iter()
        .enumerate()
        .map(|(i, &h)| IpopMember::router(h, vip(i)))
        .collect();
    let hosts = ipop::deploy_ipop(&mut net, members, options);
    FaultHarness::new(NetworkSim::new(net), hosts, scenario)
}

/// Acceptance criterion for the phi-accrual layer: at 5 % loss (plus
/// reordering) on *every* path, minutes of steady state produce zero false
/// dead-edge verdicts — and when a member then really crashes, its edges
/// are still declared dead within the ~8 s fast-detection bound.
#[test]
fn five_percent_loss_drops_no_edges_and_a_real_crash_is_still_caught() {
    const N: usize = 10;
    const VICTIM: usize = 7;
    let wan = LinkImpairment::none()
        .with_loss(0.05)
        .with_reorder(0.05, Duration::from_millis(20));
    let scenario = FaultScenario::new()
        .at(Duration::from_secs(20), FaultEvent::ImpairAll(wan))
        .at(Duration::from_secs(150), FaultEvent::Crash(VICTIM));
    let mut h = deploy(0x0551_0C5E, N, DeployOptions::udp(), scenario);

    // 130 s of 5 % loss: gossip gaps make edges idle enough to probe and
    // some probe exchanges get eaten by the network, yet no edge dies.
    h.run_until(SimTime::ZERO + Duration::from_secs(150));
    let steady = h.overlay_totals();
    assert!(
        steady.link_probes_sent > 0,
        "lost gossip made edges idle enough to probe"
    );
    assert_eq!(
        steady.dead_edges_detected, 0,
        "a live edge was declared dead under 5% loss"
    );
    let dropped = h
        .sim
        .net()
        .default_impairment_counters()
        .map_or(0, |c| c.dropped);
    assert!(dropped > 0, "the impairment actually dropped packets");

    // The crash fires as this run resumes; 8 s later the victim's edges
    // must already be gone (phi needs more misses on a lossy edge, but the
    // sub-second adaptive probe deadlines keep the verdict inside the bound).
    h.run_until(SimTime::ZERO + Duration::from_secs(158));
    let after = h.overlay_totals();
    assert!(
        after.dead_edges_detected >= 1,
        "the crashed member's edges were not detected within 8 s of the crash"
    );
}

/// One member's every path runs at sustained 20 % loss (so the phi windows
/// of its edges learn the loss rate), then suffers a 4 s total blackout — a
/// routing flap — and recovers. Returns the dead-edge count after the dust
/// settles; the phi/fixed contrast on that count is the whole test.
fn blackout_burst_run(seed: u64, phi: bool) -> u64 {
    const N: usize = 10;
    const LOSSY: usize = 4;
    let noisy = LinkImpairment::none().with_loss(0.2);
    let blackout = LinkImpairment::none().with_loss(1.0);
    let mut scenario = FaultScenario::new();
    for j in 0..N {
        if j != LOSSY {
            scenario = scenario
                .at(
                    Duration::from_secs(20),
                    FaultEvent::ImpairLink(LOSSY, j, noisy),
                )
                .at(
                    Duration::from_secs(140),
                    FaultEvent::ImpairLink(LOSSY, j, blackout),
                )
                .at(
                    Duration::from_secs(144),
                    FaultEvent::ImpairLink(LOSSY, j, noisy),
                );
        }
    }
    // Probe aggressively (every tick an edge is idle) so each edge's phi
    // window gathers plenty of loss samples during the two-minute warm-up.
    let options = DeployOptions {
        link_probe_interval: Some(Duration::from_millis(500)),
        phi_accrual: phi,
        ..DeployOptions::udp()
    };
    let mut h = deploy(seed, N, options, scenario);
    h.run_until(SimTime::ZERO + Duration::from_secs(155));
    h.overlay_totals().dead_edges_detected
}

/// The ablation contrast, same seed both ways: a 4 s blackout burst on a
/// link the fixed verdict already distrusts is fatal — three silent misses
/// take about two seconds — while phi-accrual, having learned the edge's
/// 20 % loss rate from probe exchanges that went unanswered although the
/// peer kept talking, demands twice the silent misses and rides the burst
/// out without a single false verdict.
#[test]
fn ablation_fixed_miss_limit_drops_a_blackout_burst_but_phi_rides_it_out() {
    let seed = 0xAB1A_7E57;
    let fixed = blackout_burst_run(seed, false);
    assert!(
        fixed >= 1,
        "the fixed 3-miss limit should cut off a member during a 4 s blackout, got {fixed} drops"
    );
    let phi = blackout_burst_run(seed, true);
    assert_eq!(
        phi, 0,
        "phi-accrual declared {phi} edges dead across a transient blackout burst"
    );
}

/// The same contrast as a sweep: one seed can ride a blackout out by luck.
/// With gossip change-driven, nothing but the probe exchange vouches for an
/// idle edge, so this is the heartbeat standing on its own — on every one of
/// twelve seeds phi-accrual declares no edge dead and the fixed limit does.
#[test]
fn blackout_burst_sweep_phi_never_drops_and_the_fixed_limit_always_does() {
    for k in 0..12u64 {
        let seed = 0xAB1A_7E57 + 7919 * k;
        let phi = blackout_burst_run(seed, true);
        assert_eq!(
            phi, 0,
            "seed {seed:#x}: phi-accrual declared {phi} edges dead"
        );
        let fixed = blackout_burst_run(seed, false);
        assert!(
            fixed >= 1,
            "seed {seed:#x}: the fixed limit rode the blackout out"
        );
    }
}
