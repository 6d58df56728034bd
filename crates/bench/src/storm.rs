//! The crash-storm workload and the two scenarios measured on it.
//!
//! [`durability`] (`BENCH_durability.json`): crash record owners and routing
//! hops in the middle of a write storm, then measure how many records survive
//! and how fast the DHT reconverges. This is the workload the durability layer
//! (fast dead-edge detection + anti-entropy sweeps) exists for: before it, a
//! put routed through a freshly-crashed hop was silently lost until the 45 s
//! connection timeout *and* the publisher's TTL/2 refresh (here 300 s).
//!
//! [`adversarial`] (`BENCH_adversarial.json`): the same storm replayed over a
//! network that is never clean — 1 % loss plus bounded reordering on every
//! path, packet duplication, and one actively corrupting link through the
//! bootstrap. Proves the robustness stack end to end: hardened decoders drop
//! corrupted datagrams at ingress instead of panicking or mis-parsing,
//! phi-accrual suspicion keeps lossy-but-live edges out of the dead list,
//! duplicated packets never mint duplicate address allocations, and every
//! record still survives and reconverges. It runs twice, the second time with
//! the FNV-64 link integrity tag enabled: corrupted-but-parseable datagrams
//! are then rejected at ingress before they can mint phantom peers, so the
//! artefact reports the ghost-edge delta between the two runs alongside the
//! tag-reject count.
//!
//! The storm (`fn storm`):
//!
//! 1. **Converge** — N static members form the overlay ring.
//! 2. **Write storm** — P publishers register G guest mappings each
//!    (`route_for` puts with a 600 s lease, so refreshes cannot mask a
//!    loss). Halfway through the storm, C ring owners of already-written
//!    keys and H uninvolved hop nodes crash unannounced: records stored on
//!    the owners are lost with them, and the storm's remaining puts are
//!    forwarded into dead edges.
//! 3. **Reconverge** — a prober issues cache-bypassing resolution reads for
//!    every mapping until each resolves. Reported per record: time to first
//!    successful resolution after the crash.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use ipop::prelude::*;
use ipop::IpopHostAgent;
use ipop_netsim::{planetlab, HostId, LinkImpairment};
use ipop_overlay::Address;
use ipop_simcore::stats::{fmax, mean, rate};
use ipop_simcore::SimTime;

use crate::json::Json;
use crate::{mode, Outcome};

struct Params {
    nodes: usize,
    publishers: usize,
    guests_per_publisher: usize,
    owners_crashed: usize,
    hops_crashed: usize,
    lease_ttl: Duration,
    sweep_interval: Duration,
    /// How long the prober keeps retrying before declaring a record lost.
    probe_window: Duration,
}

impl Params {
    fn full() -> Self {
        Params {
            nodes: 40,
            publishers: 12,
            guests_per_publisher: 3,
            owners_crashed: 4,
            hops_crashed: 2,
            lease_ttl: Duration::from_secs(600),
            sweep_interval: Duration::from_secs(10),
            probe_window: Duration::from_secs(60),
        }
    }

    fn quick() -> Self {
        Params {
            nodes: 20,
            publishers: 8,
            guests_per_publisher: 2,
            owners_crashed: 2,
            hops_crashed: 1,
            ..Self::full()
        }
    }

    /// What both scenarios deploy with; `adversarial` adds the integrity tag.
    fn options(&self, link_integrity_tag: bool) -> DeployOptions {
        DeployOptions {
            brunet_arp: true,
            lease_ttl: self.lease_ttl,
            dht_sweep_interval: Some(self.sweep_interval),
            link_integrity_tag,
            ..DeployOptions::udp()
        }
    }
}

fn vip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(172, 16, 7, (i + 1) as u8)
}

fn guest_ip(publisher: usize, g: usize) -> Ipv4Addr {
    Ipv4Addr::new(172, 16, 8, (publisher * 8 + g + 1) as u8)
}

/// The IPOP agents still running: every member not in `crashed`.
fn live_agents<'a>(
    sim: &'a NetworkSim,
    hosts: &'a [HostId],
    crashed: &'a BTreeSet<usize>,
) -> impl Iterator<Item = &'a IpopHostAgent> {
    hosts
        .iter()
        .enumerate()
        .filter(|(i, _)| !crashed.contains(i))
        .filter_map(|(_, &h)| sim.agent_as::<IpopHostAgent>(h))
}

fn dead_edges(sim: &NetworkSim, hosts: &[HostId], crashed: &BTreeSet<usize>) -> u64 {
    live_agents(sim, hosts, crashed)
        .map(|a| a.overlay_stats().dead_edges_detected)
        .sum()
}

/// A finished crash-storm, for each scenario to take its own census of.
struct Storm {
    sim: NetworkSim,
    hosts: Vec<HostId>,
    /// Member indices crashed mid-storm.
    crashed: BTreeSet<usize>,
    /// Mappings written.
    records: usize,
    /// Per resolved record: seconds from the crash (or from the put, for
    /// records written after it) to its first successful resolution.
    reconverge_s: Vec<f64>,
    /// Dead-edge verdicts across all members when the ring had converged…
    dead_edges_at_convergence: u64,
    /// …and just before the crash.
    dead_edges_at_crash: u64,
}

impl Storm {
    fn live(&self) -> impl Iterator<Item = &IpopHostAgent> {
        live_agents(&self.sim, &self.hosts, &self.crashed)
    }

    /// The `survival` object both artefacts carry.
    fn survival(&self) -> Json {
        let resolved = self.reconverge_s.len();
        if resolved < self.records {
            eprintln!(
                "  WARNING: {} records never resolved inside the probe window",
                self.records - resolved
            );
        }
        Json::obj([
            ("resolved", resolved.into()),
            ("rate", Json::Fixed(rate(resolved, self.records), 4)),
        ])
    }
}

/// Run the three phases on a `p.nodes`-member planetlab overlay. `dirty` sees
/// the deployed network before the first event runs (the adversarial scenario
/// impairs its links there).
fn storm(
    p: &Params,
    seed: u64,
    options: DeployOptions,
    dirty: impl FnOnce(&mut Network, &[HostId]),
) -> Storm {
    let mut net = Network::new(seed);
    let plab = planetlab(&mut net, p.nodes, 1.0, seed);
    let members = plab
        .nodes
        .iter()
        .enumerate()
        .map(|(i, &h)| IpopMember::router(h, vip(i)))
        .collect();
    let hosts = ipop::deploy_ipop(&mut net, members, options);
    dirty(&mut net, &plab.nodes);
    let mut sim = NetworkSim::new(net);

    // Phase 1: converge.
    sim.run_for(Duration::from_secs(60));
    let mut crashed: BTreeSet<usize> = BTreeSet::new();
    let dead_edges_at_convergence = dead_edges(&sim, &hosts, &crashed);
    let mut dead_edges_at_crash = 0;

    // Phase 2: write storm with mid-storm crashes. Publishers are member
    // indices 1..=P; victims are drawn from the rest, so every record keeps
    // a live publisher (survival should then come from replicas + sweep, not
    // luck). One batch = one guest per publisher, 500 ms apart.
    let publishers: Vec<usize> = (1..=p.publishers).collect();
    let mut crash_time = SimTime::ZERO;
    let mut publish_time: Vec<(Ipv4Addr, SimTime)> = Vec::new();
    for batch in 0..p.guests_per_publisher {
        for &pb in &publishers {
            let now = sim.now();
            let ip = guest_ip(pb, batch);
            sim.net_mut()
                .agent_as_mut::<IpopHostAgent>(hosts[pb])
                .unwrap()
                .route_for(now, ip);
            publish_time.push((ip, now));
        }
        sim.run_for(Duration::from_millis(500));
        if batch == p.guests_per_publisher / 2 && crashed.is_empty() {
            dead_edges_at_crash = dead_edges(&sim, &hosts, &crashed);
            // Crash C live ring owners of already-written keys...
            let mut victims: Vec<usize> = Vec::new();
            for &(ip, _) in &publish_time {
                if victims.len() >= p.owners_crashed {
                    break;
                }
                let key = Address::from_ip(ip);
                let owner = (0..p.nodes)
                    .filter(|i| !crashed.contains(i) && !victims.contains(i))
                    .filter(|i| !publishers.contains(i) && *i != 0)
                    .min_by_key(|&i| Address::from_ip(vip(i)).ring_distance(&key));
                if let Some(o) = owner {
                    victims.push(o);
                }
            }
            // ...plus H uninvolved hop nodes.
            let mut hops = 0usize;
            for i in (1..p.nodes).rev() {
                if hops >= p.hops_crashed {
                    break;
                }
                if !publishers.contains(&i) && !victims.contains(&i) {
                    victims.push(i);
                    hops += 1;
                }
            }
            crash_time = sim.now();
            for &v in &victims {
                crashed.insert(v);
                ipop::deploy_plain(sim.net_mut(), hosts[v], Box::new(ipop::NullApp));
            }
        }
    }

    // Phase 3: reconvergence. The bootstrap probes every mapping until it
    // resolves; per record the clock starts at the crash (or the put, for
    // records written after it).
    let records = publish_time.len();
    let mut unresolved: Vec<(Ipv4Addr, SimTime)> = publish_time
        .iter()
        .map(|&(ip, at)| (ip, at.max(crash_time)))
        .collect();
    let mut reconverge_s: Vec<f64> = Vec::new();
    let deadline = sim.now() + p.probe_window;
    while !unresolved.is_empty() && sim.now() < deadline {
        let now = sim.now();
        let mut tokens: Vec<(u64, usize)> = Vec::new();
        {
            let prober = sim
                .net_mut()
                .agent_as_mut::<IpopHostAgent>(hosts[0])
                .unwrap();
            let _ = prober.take_probe_results();
            for (idx, &(ip, _)) in unresolved.iter().enumerate() {
                tokens.push((prober.resolve_ip(now, ip), idx));
            }
        }
        sim.run_for(Duration::from_millis(500));
        let results = sim
            .net_mut()
            .agent_as_mut::<IpopHostAgent>(hosts[0])
            .unwrap()
            .take_probe_results();
        let mut remove: Vec<usize> = results
            .iter()
            .filter(|(_, addr)| addr.is_some())
            .filter_map(|(token, _)| tokens.iter().find(|(t, _)| t == token).map(|&(_, idx)| idx))
            .collect();
        let at = sim.now();
        remove.sort_unstable();
        remove.dedup();
        for &idx in remove.iter().rev() {
            let (_, since) = unresolved.remove(idx);
            reconverge_s.push(at.saturating_since(since).as_secs_f64());
        }
    }

    Storm {
        sim,
        hosts,
        crashed,
        records,
        reconverge_s,
        dead_edges_at_convergence,
        dead_edges_at_crash,
    }
}

/// The acceptance bound on reconvergence: dead-edge detection (probe idle
/// interval plus a few adaptive timeouts), one full anti-entropy sweep
/// interval (worst-case phase), and slack for the digest/pull/put/read round
/// trips. Far below both the 45 s connection timeout and the 300 s refresh.
fn reconverge_bound_s(p: &Params) -> f64 {
    10.0 + 2.0 * p.sweep_interval.as_secs_f64() + 5.0
}

/// The `durability` scenario: the storm on a clean network; survival rate and
/// whether the worst reconvergence stayed inside the sweep-derived bound
/// (detection + one sweep interval + resolution slack ≪ 45 s).
pub fn durability(quick: bool) -> Outcome {
    let p = if quick {
        Params::quick()
    } else {
        Params::full()
    };
    eprintln!(
        "durability ({} mode): {} nodes, {} records, {}+{} crashes mid-storm",
        mode(quick),
        p.nodes,
        p.publishers * p.guests_per_publisher,
        p.owners_crashed,
        p.hops_crashed,
    );
    let s = storm(&p, 0xD47A_B111, p.options(false), |_, _| {});

    let (mut probes, mut timeouts, mut dead) = (0, 0, 0);
    let (mut digests, mut pulls, mut pushes, mut repairs) = (0, 0, 0, 0);
    for agent in s.live() {
        let st = agent.overlay_stats();
        probes += st.link_probes_sent;
        timeouts += st.link_probe_timeouts;
        dead += st.dead_edges_detected;
        digests += st.dht_sync_digests;
        pulls += st.dht_sync_pulls;
        pushes += st.dht_sync_pushes;
        repairs += st.dht_read_repairs;
    }
    let bound = reconverge_bound_s(&p);
    let within = s.reconverge_s.len() == s.records && fmax(&s.reconverge_s) <= bound;
    if fmax(&s.reconverge_s) > bound {
        eprintln!("  WARNING: reconvergence exceeded the sweep-derived bound ({bound:.1} s)");
    }

    let json = Json::obj([
        ("bench", "dht_durability".into()),
        ("mode", mode(quick).into()),
        ("nodes", p.nodes.into()),
        ("records", s.records.into()),
        ("owners_crashed", p.owners_crashed.into()),
        ("hops_crashed", p.hops_crashed.into()),
        ("crashed_total", s.crashed.len().into()),
        ("lease_ttl_s", Json::Fixed(p.lease_ttl.as_secs_f64(), 1)),
        (
            "sweep_interval_s",
            Json::Fixed(p.sweep_interval.as_secs_f64(), 1),
        ),
        ("survival", s.survival()),
        (
            "reconverge",
            Json::obj([
                ("mean_s", Json::Fixed(mean(&s.reconverge_s), 3)),
                ("max_s", Json::Fixed(fmax(&s.reconverge_s), 3)),
                ("bound_s", Json::Fixed(bound, 1)),
                ("within_bound", within.into()),
                ("pre_durability_window_s", Json::Fixed(45.0, 1)),
            ]),
        ),
        (
            "link_monitor",
            Json::obj([
                ("probes_sent", probes.into()),
                ("probe_timeouts", timeouts.into()),
                ("dead_edges_detected", dead.into()),
            ]),
        ),
        (
            "anti_entropy",
            Json::obj([
                ("digests", digests.into()),
                ("pulls", pulls.into()),
                ("pushes", pushes.into()),
                ("read_repairs", repairs.into()),
            ]),
        ),
        ("events", s.sim.events_executed().into()),
    ]);
    Outcome::artefact(json, Ok(()))
}

/// Count live members sharing a virtual IP — must be zero even when the
/// network duplicates the datagrams that carried the allocations.
fn duplicate_allocations(s: &Storm) -> usize {
    let mut seen: BTreeSet<Ipv4Addr> = BTreeSet::new();
    s.live()
        .filter(|a| a.has_address())
        .filter(|a| !seen.insert(a.virtual_ip()))
        .count()
}

/// The `adversarial` scenario: the storm converges, writes and reconverges
/// while every path already drops, duplicates and reorders packets.
/// Invariants: 100 % survival, zero duplicate virtual address allocations,
/// zero dead-edge verdicts between convergence and the crash (no false
/// positives from loss — join-time verdicts are the monitor
/// garbage-collecting phantom peers minted by corrupted-but-parseable
/// packets, reported separately), corrupted datagrams counted and dropped.
pub fn adversarial(quick: bool) -> Outcome {
    let p = Params {
        probe_window: Duration::from_secs(90),
        ..if quick {
            Params::quick()
        } else {
            Params::full()
        }
    };
    let (loss, duplicate, reorder, corrupt) = (0.01, 0.01, 0.02, 0.02);
    eprintln!(
        "adversarial ({} mode): {} nodes, {} records, {}+{} crashes, {:.0}% loss + dup + reorder, corrupting bootstrap links",
        mode(quick),
        p.nodes,
        p.publishers * p.guests_per_publisher,
        p.owners_crashed,
        p.hops_crashed,
        loss * 100.0,
    );
    let dirty = |net: &mut Network, nodes: &[HostId]| {
        // The whole run happens on a dirty WAN: every path loses, duplicates
        // and reorders packets...
        let lossy = LinkImpairment::none()
            .with_loss(loss)
            .with_duplicate(duplicate)
            .with_reorder(reorder, Duration::from_millis(20));
        net.set_default_impairment(lossy);
        // ...and the bootstrap's links also flip bytes (pair entries replace
        // the default, so they carry the loss/dup/reorder rates too). Every
        // member talks to the bootstrap while joining, so the corruption is
        // guaranteed to hit real traffic.
        for &h in &nodes[1..] {
            net.set_link_impairment(nodes[0], h, lossy.with_corrupt(corrupt));
        }
    };
    // Converging under impairment, corrupted-but-parseable packets (a flipped
    // byte inside a 20-byte overlay address survives every checksum) mint
    // phantom peers during the join storm; the link monitor garbage-collects
    // those ghost edges — their probes are acked under the real peer's
    // address, so they accumulate genuine misses. Every verdict up to
    // convergence is ghost GC; every verdict between convergence and the
    // crash condemned a live-but-lossy peer: the false-positive count the phi
    // layer must hold at 0.
    let seed = 0xAD5E_7A1A;
    let s = storm(&p, seed, p.options(false), dirty);
    let ghosts = s.dead_edges_at_convergence;
    let false_dead = s.dead_edges_at_crash.saturating_sub(ghosts);
    let dup_allocs = duplicate_allocations(&s);
    if dup_allocs > 0 {
        eprintln!("  WARNING: duplicate virtual address allocations under duplication");
    }
    if false_dead > 0 {
        eprintln!("  WARNING: live edges were declared dead after convergence, before any crash");
    }

    // Second run, same seed, with the FNV-64 link integrity tag on: corrupted
    // datagrams die at ingress, so the ghost-edge count should collapse.
    eprintln!("  re-running with the link integrity tag enabled");
    let tagged = storm(&p, seed, p.options(true), dirty);
    let tagged_ghosts = tagged.dead_edges_at_convergence;
    if tagged_ghosts > ghosts {
        eprintln!("  WARNING: the integrity tag increased the ghost-edge count");
    }

    let (mut probes, mut timeouts, mut malformed) = (0, 0, 0);
    for agent in s.live() {
        let st = agent.overlay_stats();
        probes += st.link_probes_sent;
        timeouts += st.link_probe_timeouts;
        malformed += st.malformed_dropped;
    }
    let tag_rejects: u64 = tagged.live().map(|a| a.transport_tag_rejects()).sum();
    let net = s.sim.net().counters();
    let survival_rate = Json::Fixed(rate(s.reconverge_s.len(), s.records), 4);
    let tagged_rate = rate(tagged.reconverge_s.len(), tagged.records);

    let json = Json::obj([
        ("bench", "lossy_churn".into()),
        ("mode", mode(quick).into()),
        ("nodes", p.nodes.into()),
        ("records", s.records.into()),
        ("crashed_total", s.crashed.len().into()),
        (
            "impairment",
            Json::obj([
                ("loss", Json::Fixed(loss, 3)),
                ("duplicate", Json::Fixed(duplicate, 3)),
                ("reorder", Json::Fixed(reorder, 3)),
                ("corrupt_bootstrap_links", Json::Fixed(corrupt, 3)),
                ("packets_dropped", net.impair_dropped.into()),
                ("packets_duplicated", net.impair_duplicated.into()),
                ("packets_corrupted", net.impair_corrupted.into()),
                ("packets_reordered", net.impair_reordered.into()),
            ]),
        ),
        (
            "invariants",
            Json::obj([
                ("duplicate_allocations", dup_allocs.into()),
                ("ghost_edges_collected_during_join", ghosts.into()),
                ("false_dead_edges_post_convergence", false_dead.into()),
                ("malformed_dropped", malformed.into()),
                ("survival_rate", survival_rate),
            ]),
        ),
        ("survival", s.survival()),
        (
            "reconverge",
            Json::obj([
                ("mean_s", Json::Fixed(mean(&s.reconverge_s), 3)),
                ("max_s", Json::Fixed(fmax(&s.reconverge_s), 3)),
            ]),
        ),
        (
            "link_monitor",
            Json::obj([
                ("probes_sent", probes.into()),
                ("probe_timeouts", timeouts.into()),
                (
                    "dead_edges_detected",
                    dead_edges(&s.sim, &s.hosts, &s.crashed).into(),
                ),
            ]),
        ),
        (
            "integrity_tag",
            Json::obj([
                ("ghost_edges_plain", ghosts.into()),
                ("ghost_edges_tagged", tagged_ghosts.into()),
                (
                    "ghost_edge_delta",
                    (ghosts as i64 - tagged_ghosts as i64).into(),
                ),
                ("tag_rejects", tag_rejects.into()),
                ("tagged_survival_rate", Json::Fixed(tagged_rate, 4)),
                (
                    "tagged_duplicate_allocations",
                    duplicate_allocations(&tagged).into(),
                ),
            ]),
        ),
        ("events", s.sim.events_executed().into()),
    ]);
    Outcome::artefact(json, Ok(()))
}
