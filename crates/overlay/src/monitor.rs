//! The link monitor: the overlay's heartbeat and its fast dead-edge
//! detection, as a sans-IO component.
//!
//! Brunet keeps IPOP's edges live with a ping on idle ones (paper Section
//! II-C); here that is one probe exchange per silent edge. A converged ring
//! does not gossip ([`crate::ring`]), so an edge that carries no traffic is
//! silent and the monitor probes it every `probe_interval`: one `Probe` /
//! `ProbeAck` pair refreshes both ends, about two messages per edge-second
//! at the defaults. The monitor owns the per-edge health — an RFC 6298 RTT
//! estimate, the probe in flight, a 64-probe loss window and the phi-accrual
//! suspicion derived from it — and decides two things on each maintenance
//! pass: *who to probe* and *who is dead*. An edge that misses enough
//! consecutive probe deadlines ([`DeathRule`]) is dead within seconds
//! instead of the 45 s connection timeout. (With the monitor switched off,
//! the ring's 10 s `Ping` / `Pong` keep-alive and that timeout are all there
//! is.)
//!
//! Like [`crate::vstream::VStreams`] it reads nothing but its arguments: the
//! embedding [`crate::node::OverlayNode`] hands [`LinkMonitor::run`] the
//! clock, its established edges and the knobs from its config, applies the
//! returned [`Verdicts`] (drop the dead, draw a nonce and [`LinkMonitor::arm`]
//! a probe per silent edge), and feeds `ProbeAck`s to [`LinkMonitor::on_ack`].
//! No routing table, outbox, DHT or randomness in here — which is what lets
//! the verdict logic be tested against a reference rule without a node.

use std::collections::BTreeMap;

use ipop_netstack::tcp::rtt::Smoothed;
use ipop_simcore::{Duration, SimTime};

use crate::address::Address;
use crate::packets::Endpoint;

/// Probe deadline bounds: the adaptive timeout (`srtt + 4·rttvar`, doubled
/// per consecutive failure) is clamped into this range; before any RTT
/// sample exists the initial timeout applies.
const PROBE_TIMEOUT_MIN: Duration = Duration::from_millis(250);
const PROBE_TIMEOUT_MAX: Duration = Duration::from_secs(3);
const PROBE_TIMEOUT_INITIAL: Duration = Duration::from_secs(1);

/// Bounds on the phi estimator's per-edge loss estimate. The floor makes a
/// clean edge's suspicion grow at -log₁₀(0.01) = 2 per miss — with the
/// default threshold of 6, exactly the historical 3-miss verdict. The cap
/// keeps an extremely lossy edge (more than every second exchange lost) from
/// becoming effectively undroppable: at the cap a verdict takes 20 misses.
/// Below it a miss is priced at the loss the window *observed* — nothing
/// but the probe exchange vouches for an idle edge, so a cap under a link's
/// true rate (0.1 on a 20 %-loss link) turns its ordinary streaks into
/// verdicts.
const PHI_LOSS_FLOOR: f64 = 0.01;
const PHI_LOSS_CAP: f64 = 0.5;

/// When consecutive probe misses add up to a dead edge.
#[derive(Clone, Copy, Debug)]
pub enum DeathRule {
    /// Phi-accrual: dead once `misses × -log₁₀(loss estimate)` reaches this
    /// threshold, so an edge that routinely drops probes needs
    /// proportionally more consecutive misses than a clean one.
    Phi(f64),
    /// Dead after this many consecutive misses, whatever the loss history.
    Misses(u32),
}

/// Monitor-wide counters, merged into [`crate::node::OverlayStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Liveness probes armed on silent edges.
    pub probes_sent: u64,
    /// Probes whose ack missed the adaptive deadline.
    pub probe_timeouts: u64,
    /// Edges declared dead.
    pub dead_edges: u64,
    /// Deadlines re-armed instead of charged because this node itself
    /// stalled past them.
    pub deadline_clamps: u64,
}

/// What one [`LinkMonitor::run`] pass decided, each list in edge order.
#[derive(Debug, Default)]
pub struct Verdicts {
    /// Edges to drop: their monitor state is already gone.
    pub dead: Vec<(Address, Endpoint)>,
    /// Edges to probe now: [`LinkMonitor::arm`] each and send the probe.
    pub probe: Vec<(Address, Endpoint)>,
}

/// Link-monitor state of one established edge.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct EdgeHealth {
    rtt: Smoothed,
    /// Outstanding probe: `(nonce, sent_at, deadline)`.
    outstanding: Option<(u64, SimTime, SimTime)>,
    /// Consecutive probes that missed their deadline.
    failures: u32,
    /// Sliding window of recent probe outcomes, newest at bit 0 (1 = miss).
    /// This is the per-edge loss history the phi estimator reads.
    window: u64,
    /// Number of valid bits in `window` (saturates at 64).
    window_len: u32,
    /// Suspicion added per consecutive miss, frozen when the current miss
    /// episode started (`failures` 0 → 1). Freezing keeps the misses of a
    /// genuine crash from inflating the loss estimate mid-episode and
    /// stalling their own verdict.
    phi_per_miss: f64,
    /// Set while a pass visits the edge and cleared as the pass ends: state
    /// no pass claims belongs to an edge that left the table, and goes.
    visited: bool,
}

impl EdgeHealth {
    /// Record one probe outcome in the sliding loss window.
    fn record_outcome(&mut self, missed: bool) {
        self.window = (self.window << 1) | u64::from(missed);
        self.window_len = (self.window_len + 1).min(64);
    }

    /// The edge's estimated probe-loss probability, clamped into
    /// `[PHI_LOSS_FLOOR, PHI_LOSS_CAP]`. With no history yet, the floor —
    /// i.e. assume a clean link until misses prove otherwise.
    fn loss_estimate(&self) -> f64 {
        if self.window_len == 0 {
            return PHI_LOSS_FLOOR;
        }
        let p = f64::from(self.window.count_ones()) / f64::from(self.window_len);
        p.clamp(PHI_LOSS_FLOOR, PHI_LOSS_CAP)
    }

    /// Current suspicion level: the probability that a *live* edge with this
    /// loss rate misses `failures` consecutive probes is `p^failures`, and
    /// φ = -log₁₀ of that — so φ = failures × -log₁₀(p).
    fn phi(&self) -> f64 {
        f64::from(self.failures) * self.phi_per_miss
    }

    /// The adaptive probe deadline: `srtt + 4·rttvar`, doubled per
    /// consecutive miss, clamped to the probe-timeout bounds. The backoff
    /// shift is capped at 2 so a lossy edge — which legitimately accumulates
    /// more consecutive misses under phi-accrual before a verdict — still
    /// detects a real crash within seconds rather than paying the 3 s
    /// ceiling on every extra round.
    fn probe_timeout(&self) -> Duration {
        let base = self.rtt.rto().unwrap_or(PROBE_TIMEOUT_INITIAL);
        let backed_off = base.as_nanos().saturating_mul(1u64 << self.failures.min(2));
        Duration::from_nanos(
            backed_off.clamp(PROBE_TIMEOUT_MIN.as_nanos(), PROBE_TIMEOUT_MAX.as_nanos()),
        )
    }
}

/// The per-node link monitor (see the module docs).
#[derive(Default)]
pub struct LinkMonitor {
    /// Health per established peer.
    edge_health: BTreeMap<Address, EdgeHealth>,
    /// When [`LinkMonitor::run`] last ran. A gap much larger than the
    /// maintenance interval means this node itself stalled (CPU-saturated
    /// host, paused pump): probe deadlines that expired inside the gap are
    /// re-armed instead of counted as misses.
    last_run: SimTime,
    pub stats: MonitorStats,
}

impl LinkMonitor {
    /// One monitor pass over the established `edges` — `(peer, endpoint,
    /// last heard)` each. An edge nothing was heard on for `probe_interval`
    /// is probed — every idle edge of a quiet ring, that often: the probe is
    /// the heartbeat — and a crashed peer is dead after a few adaptive
    /// deadlines. State of edges not in `edges` any more is dropped.
    pub fn run(
        &mut self,
        now: SimTime,
        edges: impl Iterator<Item = (Address, Endpoint, SimTime)>,
        probe_interval: Duration,
        tick_interval: Duration,
        rule: DeathRule,
    ) -> Verdicts {
        // Did this node itself stall past the deadlines? The monitor runs
        // every maintenance tick; a gap of more than two intervals means the
        // pump was starved (CPU-saturated host), so deadlines that expired
        // inside the gap say nothing about the peer.
        let prev_run = self.last_run;
        let stalled = prev_run != SimTime::ZERO
            && now.saturating_since(prev_run) > tick_interval + tick_interval;
        self.last_run = now;
        let mut verdicts = Verdicts::default();
        for (peer, endpoint, last_heard) in edges {
            let health = self.edge_health.entry(peer).or_default();
            health.visited = true;
            if let Some((nonce, sent, deadline)) = health.outstanding {
                // The probe runs to its deadline even if other traffic from
                // the peer arrives meanwhile — the exchange is then a loss
                // *measurement* (did the ack make it back?) feeding the phi
                // window, not just a liveness check.
                if now < deadline {
                    continue;
                }
                if stalled && deadline > prev_run {
                    // The deadline was still in the future the last time
                    // this node got to run — it expired while *we* were
                    // stalled, not while the peer was silent for its own
                    // full timeout. Clamp the deadline forward to this
                    // pump tick instead of charging the peer a miss.
                    let extended = now + health.probe_timeout();
                    health.outstanding = Some((nonce, sent, extended));
                    self.stats.deadline_clamps += 1;
                    continue;
                }
                health.outstanding = None;
                if last_heard > sent {
                    // The peer spoke since the probe went out (any message
                    // proves liveness) but the ack itself never came back:
                    // the link ate the exchange. A pure loss sample — the
                    // window learns the edge's loss rate with no suspicion
                    // attached.
                    health.failures = 0;
                    health.record_outcome(true);
                    continue;
                }
                health.failures += 1;
                if health.failures == 1 {
                    // A new miss episode: freeze the per-miss suspicion
                    // at the loss rate observed *before* this episode,
                    // so a crash's own misses cannot dilute it.
                    health.phi_per_miss = -health.loss_estimate().log10();
                }
                health.record_outcome(true);
                self.stats.probe_timeouts += 1;
                let dead = match rule {
                    DeathRule::Phi(threshold) => health.phi() >= threshold,
                    DeathRule::Misses(limit) => health.failures >= limit,
                };
                if dead {
                    health.visited = false;
                    self.stats.dead_edges += 1;
                    verdicts.dead.push((peer, endpoint));
                } else {
                    verdicts.probe.push((peer, endpoint));
                }
            } else if now.saturating_since(last_heard) >= probe_interval {
                verdicts.probe.push((peer, endpoint));
            }
        }
        self.edge_health
            .retain(|_, health| std::mem::take(&mut health.visited));
        verdicts
    }

    /// Arm the probe the caller is about to send to `peer` under `nonce`
    /// (drawn from the caller's randomness): it is due one adaptive timeout
    /// from `now`.
    pub fn arm(&mut self, now: SimTime, peer: Address, nonce: u64) {
        let health = self.edge_health.entry(peer).or_default();
        let deadline = now + health.probe_timeout();
        health.outstanding = Some((nonce, now, deadline));
        self.stats.probes_sent += 1;
    }

    /// A `ProbeAck` claiming to come from `peer`. Only the ack of the probe
    /// in flight — same peer, same nonce — feeds the RTT estimator and
    /// clears the miss streak; anything else (a superseded or guessed nonce,
    /// no probe outstanding, no such edge) changes nothing, so a forged ack
    /// cannot take a charged miss back.
    pub fn on_ack(&mut self, now: SimTime, peer: Address, nonce: u64) {
        let Some(health) = self.edge_health.get_mut(&peer) else {
            return;
        };
        let Some((expected, sent, _)) = health.outstanding else {
            return;
        };
        if expected != nonce {
            return;
        }
        health.rtt.sample(now.saturating_since(sent));
        health.outstanding = None;
        health.failures = 0;
        health.record_outcome(false);
    }

    /// The edge to `peer` is gone (the peer closed it): drop its state.
    pub fn forget(&mut self, peer: &Address) {
        self.edge_health.remove(peer);
    }

    /// The health record of `peer`'s edge, for forged-field regressions.
    #[cfg(test)]
    pub(crate) fn health(&self, peer: &Address) -> Option<&EdgeHealth> {
        self.edge_health.get(peer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: Duration = Duration::from_millis(500);
    const PROBE_INTERVAL: Duration = Duration::from_secs(1);
    const PHI: DeathRule = DeathRule::Phi(6.0);

    fn addr(n: u8) -> Address {
        Address::from_key(&[n])
    }

    fn ep(n: u8) -> Endpoint {
        (std::net::Ipv4Addr::new(10, 0, 0, n), 4000)
    }

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(ms)
    }

    /// One pass over a single edge to `addr(1)`.
    fn pass(m: &mut LinkMonitor, now: SimTime, last_heard: SimTime, rule: DeathRule) -> Verdicts {
        let edges = [(addr(1), ep(1), last_heard)];
        m.run(now, edges.into_iter(), PROBE_INTERVAL, TICK, rule)
    }

    #[test]
    fn phi_verdict_adapts_to_observed_loss() {
        // A clean window sits on the loss floor: two phi units per miss, so
        // three consecutive silent misses cross the default threshold of 6 —
        // bit-identical to the old fixed limit.
        let mut clean = EdgeHealth::default();
        clean.phi_per_miss = -clean.loss_estimate().log10();
        for _ in 0..3 {
            clean.failures += 1;
            clean.record_outcome(true);
        }
        assert!(clean.phi() >= 6.0, "clean edge: 3 misses suffice");

        // A window that has watched one probe exchange in five vanish prices
        // a miss at -log₁₀(0.2) ≈ 0.7 phi units (under the cap, so at what it
        // observed): the same three misses stay well under the threshold,
        // eight still do, and the ninth reaches it.
        let mut lossy = EdgeHealth::default();
        for i in 0..30 {
            lossy.record_outcome(i % 5 == 0);
        }
        lossy.phi_per_miss = -lossy.loss_estimate().log10();
        for _ in 0..3 {
            lossy.failures += 1;
            lossy.record_outcome(true);
        }
        assert!(lossy.phi() < 6.0, "lossy edge: 3 misses are not a verdict");
        for _ in 0..5 {
            lossy.failures += 1;
            lossy.record_outcome(true);
        }
        assert!(lossy.phi() < 6.0, "lossy edge: nor are 8");
        lossy.failures += 1;
        lossy.record_outcome(true);
        assert!(lossy.phi() >= 6.0, "lossy edge: 9 misses are");
    }

    #[test]
    fn forged_probe_acks_leave_the_edge_health_untouched() {
        // CONTRACTS C6 for the link-monitor handlers: the peer address and
        // the nonce of a `ProbeAck` are the wire's word.
        let mut m = LinkMonitor::default();
        let peer = addr(1);
        // An honest exchange first, so there is an RTT estimate to corrupt.
        assert_eq!(pass(&mut m, at(1000), at(0), PHI).probe.len(), 1);
        m.arm(at(1000), peer, 7);
        m.on_ack(at(1040), peer, 7);
        let honest = m.health(&peer).cloned().expect("edge tracked");
        assert_eq!(honest.rtt.srtt(), Some(Duration::from_millis(40)));
        assert_eq!(honest.outstanding, None);

        // No probe outstanding: a replayed or invented ack is ignored.
        m.on_ack(at(1100), peer, 7);
        m.on_ack(at(1100), peer, u64::MAX);
        assert_eq!(m.health(&peer), Some(&honest));

        // No such edge: nothing is created for a stranger.
        m.on_ack(at(1100), addr(9), 7);
        assert_eq!(m.health(&addr(9)), None);

        // The peer goes silent; its probe misses the deadline.
        assert_eq!(pass(&mut m, at(2500), at(1040), PHI).probe.len(), 1);
        m.arm(at(2500), peer, 8);
        let armed = m.health(&peer).cloned().expect("edge tracked");
        // Stale (the previous probe's) and guessed nonces while one is out.
        for forged in [7, 0, 9, u64::MAX] {
            m.on_ack(at(2600), peer, forged);
        }
        assert_eq!(m.health(&peer), Some(&armed));

        // The deadline is charged (srtt 40 ms ⇒ the 250 ms floor), and the
        // late ack for the charged probe must not take the miss back — not
        // before the next probe is armed and not after.
        let v = pass(&mut m, at(3000), at(1040), PHI);
        assert_eq!((v.dead.len(), v.probe.len()), (0, 1));
        let charged = m.health(&peer).cloned().expect("edge tracked");
        assert_eq!((charged.failures, charged.window), (1, 0b01));
        m.on_ack(at(3010), peer, 8);
        assert_eq!(m.health(&peer), Some(&charged));
        m.arm(at(3000), peer, 9);
        let rearmed = m.health(&peer).cloned().expect("edge tracked");
        m.on_ack(at(3010), peer, 8);
        assert_eq!(m.health(&peer), Some(&rearmed));
        assert_eq!(
            rearmed.failures, 1,
            "the miss streak survived every forgery"
        );
        assert_eq!(m.stats.probe_timeouts, 1);
    }

    #[test]
    fn state_of_edges_that_left_the_table_is_dropped() {
        let mut m = LinkMonitor::default();
        pass(&mut m, at(1000), at(0), PHI);
        m.arm(at(1000), addr(1), 1);
        let none = std::iter::empty();
        let v = m.run(at(1500), none, PROBE_INTERVAL, TICK, PHI);
        assert!(v.dead.is_empty() && v.probe.is_empty());
        assert_eq!(m.health(&addr(1)), None);
        m.arm(at(1500), addr(2), 2);
        m.forget(&addr(2));
        assert_eq!(m.health(&addr(2)), None);
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// A peer of the loss-free model: every probe sent before
        /// `crash_tick` is acked `rtt` later, none after; while alive it also
        /// chatters (gossip refreshing `last_heard`) on the ticks whose bit
        /// is set in `chat`.
        struct Peer {
            rtt: Duration,
            crash_tick: u64,
            chat: u64,
        }

        const TICKS: u64 = 80;

        /// Run `peers` under `rule`: per tick, who was declared dead and who
        /// was probed.
        fn loss_free_history(peers: &[Peer], rule: DeathRule) -> Vec<Verdicts> {
            let mut m = LinkMonitor::default();
            // The table: peer `i` is `addr(i)`, gone once declared dead.
            let mut last_heard: BTreeMap<Address, SimTime> = (0..peers.len())
                .map(|i| (addr(i as u8), SimTime::ZERO))
                .collect();
            let script: BTreeMap<Address, &Peer> = last_heard.keys().copied().zip(peers).collect();
            let mut nonce = 0;
            let mut history = Vec::new();
            for tick in 1..=TICKS {
                let now = at(tick * 500);
                for (peer, heard) in last_heard.iter_mut() {
                    let p = script[peer];
                    if tick < p.crash_tick && p.chat >> (tick % 64) & 1 == 1 {
                        *heard = now;
                    }
                }
                let edges = last_heard.iter().map(|(a, heard)| (*a, ep(1), *heard));
                let v = m.run(now, edges, PROBE_INTERVAL, TICK, rule);
                for (peer, _) in &v.dead {
                    last_heard.remove(peer);
                }
                for (peer, _) in &v.probe {
                    nonce += 1;
                    m.arm(now, *peer, nonce);
                    if tick < script[peer].crash_tick {
                        let acked = now + script[peer].rtt;
                        m.on_ack(acked, *peer, nonce);
                        last_heard.insert(*peer, acked);
                    }
                }
                history.push(v);
            }
            history
        }

        fn peers_of(v: &[(Address, Endpoint)]) -> Vec<Address> {
            v.iter().map(|(a, _)| *a).collect()
        }

        proptest! {
            /// The `phi_threshold` doc claim: on loss-free histories phi at
            /// 6.0 *is* the fixed 3-miss rule — same probes, same verdicts,
            /// same tick — with the fixed-limit path as the reference.
            #[test]
            fn phi_at_six_equals_three_misses_on_loss_free_histories(
                script in vec(any::<u64>(), 1..5),
                chatter: [u64; 4],
            ) {
                // RTTs up to 200 ms (under the 250 ms deadline floor: an ack
                // is never late), crashes at ticks 1..50.
                let peers: Vec<Peer> = script
                    .iter()
                    .zip(chatter)
                    .map(|(&w, chat)| Peer {
                        rtt: Duration::from_millis(1 + w % 200),
                        crash_tick: 1 + (w >> 8) % 49,
                        chat,
                    })
                    .collect();
                let reference = loss_free_history(&peers, DeathRule::Misses(3));
                let phi = loss_free_history(&peers, DeathRule::Phi(6.0));
                let mut dead = 0;
                for (tick, (phi, reference)) in phi.iter().zip(&reference).enumerate() {
                    prop_assert_eq!(peers_of(&phi.dead), peers_of(&reference.dead), "tick {}", tick);
                    prop_assert_eq!(peers_of(&phi.probe), peers_of(&reference.probe), "tick {}", tick);
                    dead += reference.dead.len();
                }
                prop_assert_eq!(dead, peers.len(), "every crashed peer is detected");
            }

            /// No false dead edges: whatever the tick jitter and however
            /// long this node itself stalls, an edge whose every probe is
            /// acked before its deadline is never charged a miss. A stall
            /// (a gap of more than two tick intervals) may also hold the ack
            /// back until just after the late pass — the case the deadline
            /// clamp exists for.
            #[test]
            fn acked_edges_survive_tick_jitter_and_self_stalls(
                steps in vec(any::<u32>(), 1..120),
            ) {
                let mut m = LinkMonitor::default();
                let peer = addr(1);
                let mut now = SimTime::ZERO;
                let mut last_heard = SimTime::ZERO;
                // The ack in flight: `(nonce, when it reaches this node)`.
                let mut in_flight: Option<(u64, SimTime)> = None;
                let mut nonce = 0;
                for step in steps {
                    let (gap_ms, ack_at, held_back) =
                        (u64::from(step & 0xFFFF), u64::from(step >> 16 & 0xFF), step >> 24 & 1 == 1);
                    let gap = if gap_ms % 8 == 0 {
                        Duration::from_millis(1001 + gap_ms % 9000)
                    } else {
                        Duration::from_millis(100 + gap_ms % 900)
                    };
                    let stalled = gap > TICK + TICK;
                    now += gap;
                    let due = in_flight.filter(|(_, arrives)| *arrives <= now);
                    let deferred = due.filter(|_| stalled && held_back);
                    if let (Some((n, arrives)), None) = (due, deferred) {
                        m.on_ack(arrives, peer, n);
                        last_heard = arrives;
                        in_flight = None;
                    }
                    let v = pass(&mut m, now, last_heard, PHI);
                    prop_assert!(v.dead.is_empty(), "false dead edge at {:?}", now);
                    if let Some((n, _)) = deferred {
                        m.on_ack(now, peer, n);
                        last_heard = now;
                        in_flight = None;
                    }
                    for (p, _) in v.probe {
                        nonce += 1;
                        m.arm(now, p, nonce);
                        let (_, sent, deadline) = m
                            .health(&p)
                            .and_then(|h| h.outstanding)
                            .expect("just armed");
                        let budget = deadline.saturating_since(sent).as_nanos();
                        let delay = 1 + (budget - 2) * ack_at / 255;
                        in_flight = Some((nonce, sent + Duration::from_nanos(delay)));
                    }
                }
                prop_assert!(m.stats.probes_sent > 0 || now < at(1000));
                prop_assert_eq!(m.stats.probe_timeouts, 0);
                prop_assert_eq!(m.stats.dead_edges, 0);
            }
        }
    }
}
