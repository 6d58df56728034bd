//! VM-migration-under-churn benchmark: guest IPs hop between hosts while
//! nodes crash, join, and the network partitions — the workload the paper's
//! Section III-E motivates (Brunet-ARP soft-state mappings re-resolving a
//! migrated VM) and the one the quorum DHT must survive. Tracked across PRs
//! in `BENCH_migration.json`.
//!
//! The scenario:
//!
//! 1. **Join** — N nodes (one static bootstrap, the rest dynamic) allocate
//!    addresses from a /24 through the quorum claim path.
//! 2. **Migrate under churn** — G guest IPs are registered (`route_for`) on
//!    host nodes; senders ping each guest continuously; every round each
//!    guest migrates to a new host (`unroute_for`/`route_for`) while pool
//!    nodes crash and fresh nodes join mid-run. Measured per migration:
//!    the *blackout window* (from `unroute_for` to the first packet delivered
//!    at the new host), the packets lost inside it (ICMP sequence gap), and
//!    the DHT *resolution latency* of the migrated mapping.
//! 3. **Partition** — the network splits; joiners allocate on both sides;
//!    after healing, lost-lease detection (quorum renewals) must leave
//!    **zero duplicate allocations** once the settle period elapses.
//!
//! Run as `ipop-bench migration [--quick] [--out PATH]`.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use ipop::prelude::*;
use ipop_apps::ping::PingApp;
use ipop_netsim::{planetlab, HostId};
use ipop_overlay::{Address, Distance};
use ipop_packet::ipv4::Ipv4Payload;
use ipop_simcore::stats::{fmax, mean};
use ipop_simcore::SimTime;

use crate::json::Json;
use crate::{mode, Outcome};

struct Params {
    /// IPOP members deployed at time zero (index 0 is the static bootstrap).
    nodes: usize,
    /// Spare hosts that join mid-run.
    spares: usize,
    /// Guest IPs migrating between hosts.
    guests: usize,
    /// Migration rounds (every guest migrates once per round).
    rounds: usize,
    lease_ttl: Duration,
    arp_cache_ttl: Duration,
}

impl Params {
    fn full() -> Self {
        Params {
            nodes: 48,
            spares: 6,
            guests: 6,
            rounds: 6,
            lease_ttl: Duration::from_secs(40),
            arp_cache_ttl: Duration::from_secs(15),
        }
    }

    fn quick() -> Self {
        Params {
            nodes: 24,
            spares: 4,
            guests: 3,
            rounds: 3,
            ..Self::full()
        }
    }
}

fn guest_ip(g: usize) -> Ipv4Addr {
    Ipv4Addr::new(172, 16, 9, 200 + g as u8)
}

/// The `migration` scenario.
pub fn scenario(quick: bool) -> Outcome {
    let p = &if quick {
        Params::quick()
    } else {
        Params::full()
    };
    let seed = 0x716_7a7e;
    eprintln!(
        "migration ({} mode): {} nodes, {} guests x {} rounds, partition + heal",
        mode(quick),
        p.nodes,
        p.guests,
        p.rounds
    );
    let total_hosts = p.nodes + p.spares;
    let mut net = Network::new(seed);
    let plab = planetlab(&mut net, total_hosts, 1.0, seed);
    let reserved: Vec<Ipv4Addr> = (0..p.guests).map(guest_ip).collect();

    // Bootstrap is static; senders (1..=guests) and everyone else dynamic.
    // Each sender pings "its" guest IP for the whole run; the guests never
    // answer — the pings are a delivery probe stream, not an RTT measurement.
    let mut members = vec![IpopMember::router(
        plab.nodes[0],
        Ipv4Addr::new(172, 16, 0, 1),
    )];
    for (i, &h) in plab.nodes.iter().enumerate().take(p.nodes).skip(1) {
        let member = if (1..=p.guests).contains(&i) {
            IpopMember::dynamic(
                h,
                Box::new(
                    PingApp::new(guest_ip(i - 1), 20_000, Duration::from_millis(500))
                        .with_start_delay(Duration::from_secs(130))
                        .with_timeout(Duration::from_secs(1)),
                ),
            )
        } else {
            IpopMember::dynamic_router(h)
        };
        members.push(member.with_hostname(&format!("grid-{i}")));
    }
    let options = DeployOptions {
        brunet_arp: true,
        dynamic_subnet: (Ipv4Addr::new(172, 16, 9, 0), 24),
        lease_ttl: p.lease_ttl,
        arp_cache_ttl: Some(p.arp_cache_ttl),
        reserved_ips: reserved.clone(),
        ..DeployOptions::udp()
    };
    deploy_ipop(&mut net, members, options);
    let mut sim = NetworkSim::new(net);

    let mut crashed: BTreeSet<usize> = BTreeSet::new();
    let mut joined = 0usize;
    let mut next_spare = p.nodes;

    // Phase 1: join.
    sim.run_for(Duration::from_secs(120));
    let bound_start = (1..p.nodes)
        .filter(|&i| {
            sim.agent_as::<IpopHostAgent>(plab.nodes[i])
                .is_some_and(|a| a.has_address())
        })
        .count();

    // Assign each guest an initial host from the pool (everyone who is not
    // the bootstrap, a sender, or a guest host already).
    let pool: Vec<usize> = (p.guests + 1..p.nodes).collect();
    assert!(pool.len() >= p.guests + p.rounds, "pool large enough");
    let mut guest_host: Vec<usize> = (0..p.guests).map(|g| pool[g]).collect();
    let now = sim.now();
    for (g, &h) in guest_host.iter().enumerate() {
        sim.net_mut()
            .agent_as_mut::<IpopHostAgent>(plab.nodes[h])
            .unwrap()
            .route_for(now, guest_ip(g));
    }
    // Let the mappings replicate and the senders come up (pings start at 130).
    sim.run_until(SimTime::ZERO + Duration::from_secs(150));

    // Arrival log per guest: (delivery time, member index, ICMP sequence).
    let mut arrivals: Vec<Vec<(SimTime, usize, u16)>> = vec![Vec::new(); p.guests];
    let drain = |sim: &mut NetworkSim,
                 arrivals: &mut Vec<Vec<(SimTime, usize, u16)>>,
                 crashed: &BTreeSet<usize>| {
        for i in 0..p.nodes {
            if crashed.contains(&i) {
                continue;
            }
            let Some(agent) = sim.net_mut().agent_as_mut::<IpopHostAgent>(plab.nodes[i]) else {
                continue;
            };
            for (t, pkt) in agent.take_guest_packets_timed() {
                let dst = pkt.dst();
                let Some(g) = (0..p.guests).find(|&g| guest_ip(g) == dst) else {
                    continue;
                };
                if let Ipv4Payload::Icmp(icmp) = &pkt.payload {
                    arrivals[g].push((t, i, icmp.sequence));
                }
            }
        }
    };

    // Phase 2: migration rounds under churn.
    let mut migration_log: Vec<(usize, SimTime, usize)> = Vec::new(); // (guest, at, new host)
    let mut resolution_latencies_s: Vec<f64> = Vec::new();
    let mut migrations = 0usize;
    for round in 0..p.rounds {
        // Migrate every guest to the next free pool host.
        let mut moved: Vec<(usize, SimTime, usize)> = Vec::new(); // (guest, at, new host)
        for g in 0..p.guests {
            let old = guest_host[g];
            let Some(&new) = pool
                .iter()
                .find(|i| !crashed.contains(i) && !guest_host.contains(i) && **i != old)
            else {
                continue;
            };
            let now = sim.now();
            sim.net_mut()
                .agent_as_mut::<IpopHostAgent>(plab.nodes[old])
                .unwrap()
                .unroute_for(now, guest_ip(g));
            sim.net_mut()
                .agent_as_mut::<IpopHostAgent>(plab.nodes[new])
                .unwrap()
                .route_for(now, guest_ip(g));
            guest_host[g] = new;
            moved.push((g, now, new));
            migrations += 1;
        }

        // Let the migration puts land and replicate before the churn event
        // fires — a crash and a migration are independent events, not
        // synchronized to the same instant.
        let settle_end = sim.now() + Duration::from_secs(3);
        while sim.now() < settle_end {
            sim.run_for(Duration::from_millis(500));
            drain(&mut sim, &mut arrivals, &crashed);
        }

        // Churn: odd rounds crash a pool node nobody is using, even rounds
        // (after the first) start a fresh joiner on a spare host. The ring
        // owner and replica holders of each guest mapping are spared: crashing
        // one black-holes that mapping's puts/gets until ring repair (the 45 s
        // connection timeout, longer than a round) — that fault class is
        // measured separately by the selfconfig scenario's orphaned-mapping
        // resolution; here the blackout metric isolates migration pickup.
        if round % 2 == 1 {
            let protected: BTreeSet<usize> = (0..p.guests)
                .flat_map(|g| {
                    let key = Address::from_ip(guest_ip(g));
                    let mut live: Vec<(Distance, usize)> = (0..p.nodes)
                        .filter(|i| !crashed.contains(i))
                        .filter_map(|i| {
                            sim.agent_as::<IpopHostAgent>(plab.nodes[i])
                                .map(|a| (a.overlay_address().ring_distance(&key), i))
                        })
                        .collect();
                    live.sort();
                    live.into_iter().take(3).map(|(_, i)| i).collect::<Vec<_>>()
                })
                .collect();
            if let Some(&victim) = pool
                .iter()
                .find(|i| !crashed.contains(i) && !guest_host.contains(i) && !protected.contains(i))
            {
                crashed.insert(victim);
                deploy_plain(sim.net_mut(), plab.nodes[victim], Box::new(NullApp));
            }
        } else if round > 0 && next_spare < total_hosts {
            let h = plab.nodes[next_spare];
            spawn_joiner(&mut sim, &plab.addrs[0], h, p, &reserved, next_spare);
            next_spare += 1;
            joined += 1;
        }

        // Resolution latency: the bootstrap probes the first migrated mapping
        // (a cache-bypassing quorum read) and we step until the answer lands
        // (measurement granularity: one 500 ms step).
        let probe = moved.first().map(|&(g, _, _)| g);
        let mut probe_issued: Option<SimTime> = None;
        if let Some(g) = probe {
            let now = sim.now();
            sim.net_mut()
                .agent_as_mut::<IpopHostAgent>(plab.nodes[0])
                .unwrap()
                .resolve_ip(now, guest_ip(g));
            probe_issued = Some(now);
        }

        // Run out the round in small steps, draining guest deliveries.
        let round_end = sim.now() + Duration::from_secs(22);
        while sim.now() < round_end {
            sim.run_for(Duration::from_millis(500));
            drain(&mut sim, &mut arrivals, &crashed);
            if let Some(issued) = probe_issued {
                let results = sim
                    .net_mut()
                    .agent_as_mut::<IpopHostAgent>(plab.nodes[0])
                    .unwrap()
                    .take_probe_results();
                if let Some((_, addr)) = results.first() {
                    if addr.is_some() {
                        resolution_latencies_s
                            .push(sim.now().saturating_since(issued).as_secs_f64());
                    }
                    probe_issued = None;
                }
            }
        }
        migration_log.extend(moved);
    }

    // Grace period so the last round's migrations finish delivering before
    // the partition starts.
    let grace_end = sim.now() + Duration::from_secs(20);
    while sim.now() < grace_end {
        sim.run_for(Duration::from_millis(500));
        drain(&mut sim, &mut arrivals, &crashed);
    }

    // Blackout + loss per migration: the first delivery at the new host after
    // the migration instant ends the blackout; the ICMP sequence gap against
    // the last delivery anywhere before it counts the packets lost inside.
    let mut blackouts_s: Vec<f64> = Vec::new();
    let mut unresolved = 0usize;
    let mut lost_packets = 0u64;
    for &(g, at, new) in &migration_log {
        // Bound each migration's window at the guest's *next* migration: a
        // guest can rotate back onto a previously used host, and a later
        // tenancy's deliveries must not silently resolve an earlier
        // migration that in fact never delivered.
        let until = migration_log
            .iter()
            .filter(|&&(g2, at2, _)| g2 == g && at2 > at)
            .map(|&(_, at2, _)| at2)
            .min()
            .unwrap_or(SimTime::MAX);
        let first_new = arrivals[g]
            .iter()
            .filter(|(t, host, _)| *host == new && *t >= at && *t < until)
            .min_by_key(|(t, _, seq)| (*t, *seq))
            .copied();
        let last_old = arrivals[g]
            .iter()
            .filter(|(t, host, _)| *host != new && *t < at)
            .max_by_key(|(t, _, seq)| (*t, *seq))
            .copied();
        match first_new {
            Some((t, _, first_seq)) => {
                blackouts_s.push(t.saturating_since(at).as_secs_f64());
                if let Some((_, _, last_seq)) = last_old {
                    lost_packets += u64::from(first_seq.saturating_sub(last_seq + 1));
                }
            }
            None => {
                unresolved += 1;
                eprintln!(
                    "  WARNING: guest {} never delivered at member {new} after the {at:?} migration",
                    guest_ip(g),
                );
            }
        }
    }

    // Phase 3: partition. A quarter of the live pool (no bootstrap, senders
    // or guest hosts) splits off; one joiner starts on each side; after the
    // heal and a settle period covering several renewal intervals, no
    // duplicate allocation may survive.
    let minority: Vec<usize> = pool
        .iter()
        .filter(|i| !crashed.contains(i) && !guest_host.contains(i))
        .take(p.nodes / 4)
        .copied()
        .collect();
    for &i in &minority {
        sim.net_mut().set_partition_group(plab.nodes[i], 1);
    }
    // Majority-side joiner bootstraps off the static node, minority-side off
    // a minority member.
    if next_spare + 1 < total_hosts && !minority.is_empty() {
        let h = plab.nodes[next_spare];
        spawn_joiner(&mut sim, &plab.addrs[0], h, p, &reserved, next_spare);
        next_spare += 1;
        joined += 1;
        let h = plab.nodes[next_spare];
        sim.net_mut().set_partition_group(h, 1);
        let minority_bootstrap = plab.addrs[minority[0]];
        spawn_joiner(&mut sim, &minority_bootstrap, h, p, &reserved, next_spare);
        next_spare += 1;
        joined += 1;
    }
    let partition_end = sim.now() + Duration::from_secs(60);
    while sim.now() < partition_end {
        sim.run_for(Duration::from_secs(1));
        drain(&mut sim, &mut arrivals, &crashed);
    }
    sim.net_mut().heal_partition();
    let settle_end = sim.now() + Duration::from_secs(70);
    while sim.now() < settle_end {
        sim.run_for(Duration::from_secs(1));
        drain(&mut sim, &mut arrivals, &crashed);
    }

    // Final census across every live IPOP agent (members + joiners). The
    // duplicate check spans everyone with an address; the bound count is
    // members-only so the ratio reads against `dynamic_total`.
    let mut ips: BTreeMap<Ipv4Addr, usize> = BTreeMap::new();
    let mut bound_final = 0usize;
    let mut leases_lost = 0u64;
    let mut renewal_timeouts = 0u64;
    let mut read_repairs = 0u64;
    let mut quorum_write_timeouts = 0u64;
    for i in 0..next_spare {
        if crashed.contains(&i) {
            continue;
        }
        let Some(agent) = sim.agent_as::<IpopHostAgent>(plab.nodes[i]) else {
            continue;
        };
        let s = agent.overlay_stats();
        leases_lost += s.dht_leases_lost;
        renewal_timeouts += s.dht_renewal_timeouts;
        read_repairs += s.dht_read_repairs;
        quorum_write_timeouts += s.dht_quorum_write_timeouts;
        if i > 0 && agent.has_address() {
            if i < p.nodes {
                bound_final += 1;
            }
            *ips.entry(agent.virtual_ip()).or_insert(0) += 1;
        }
    }
    let duplicates_after_heal = ips.values().filter(|&&c| c > 1).count();

    if duplicates_after_heal > 0 {
        eprintln!("  WARNING: duplicate allocations survived the heal");
    }
    // The bound is the cache TTL (when the sender's stale entry ages out and
    // re-resolves) plus slack for the resolution round trip and the first
    // delivery — stated explicitly in the artifact, not implied.
    let bound = blackout_bound_s(p);
    if fmax(&blackouts_s) > bound {
        eprintln!(
            "  WARNING: blackout window exceeded the cache-TTL-plus-slack bound ({bound:.1} s)"
        );
    }
    let json = Json::obj([
        ("bench", "migration_churn".into()),
        ("mode", mode(quick).into()),
        ("nodes", p.nodes.into()),
        ("guests", p.guests.into()),
        (
            "arp_cache_ttl_s",
            Json::Fixed(p.arp_cache_ttl.as_secs_f64(), 1),
        ),
        ("lease_ttl_s", Json::Fixed(p.lease_ttl.as_secs_f64(), 1)),
        (
            "allocation",
            Json::obj([
                ("dynamic_nodes", (p.nodes - 1).into()),
                ("bound", bound_start.max(bound_final).into()),
                ("joined_mid_run", joined.into()),
                ("crashed", crashed.len().into()),
            ]),
        ),
        (
            "migration",
            Json::obj([
                ("migrations", migrations.into()),
                ("blackout_mean_s", Json::Fixed(mean(&blackouts_s), 3)),
                ("blackout_max_s", Json::Fixed(fmax(&blackouts_s), 3)),
                ("blackout_bound_s", Json::Fixed(bound, 1)),
                (
                    "blackout_within_bound",
                    (unresolved == 0 && fmax(&blackouts_s) <= bound).into(),
                ),
                ("unresolved", unresolved.into()),
                ("lost_packets", lost_packets.into()),
                (
                    "resolution_latency_mean_s",
                    Json::Fixed(mean(&resolution_latencies_s), 3),
                ),
                (
                    "resolution_latency_max_s",
                    Json::Fixed(fmax(&resolution_latencies_s), 3),
                ),
            ]),
        ),
        (
            "partition",
            Json::obj([
                (
                    "partition_dropped",
                    sim.net().counters().partition_dropped.into(),
                ),
                ("duplicates_after_heal", duplicates_after_heal.into()),
                ("leases_lost", leases_lost.into()),
                ("renewal_timeouts", renewal_timeouts.into()),
                ("quorum_write_timeouts", quorum_write_timeouts.into()),
                ("read_repairs", read_repairs.into()),
            ]),
        ),
        ("events", sim.events_executed().into()),
    ]);
    Outcome::artefact(json, Ok(()))
}

/// Start a dynamic node on a spare host mid-run (churn joiner).
fn spawn_joiner(
    sim: &mut NetworkSim,
    bootstrap_addr: &Ipv4Addr,
    host: HostId,
    p: &Params,
    reserved: &[Ipv4Addr],
    index: usize,
) {
    let mut cfg = IpopConfig::dynamic((Ipv4Addr::new(172, 16, 9, 0), 24))
        .with_bootstrap(vec![(*bootstrap_addr, 4001)])
        .with_lease_ttl(p.lease_ttl)
        .with_hostname(&format!("joiner-{index}"));
    cfg.brunet_arp_cache_ttl = p.arp_cache_ttl;
    cfg.reserved_ips = reserved.to_vec();
    let phys = sim.net().host(host).addr;
    let agent = IpopHostAgent::new(cfg, phys, Box::new(NullApp));
    sim.net_mut().set_agent(host, Box::new(agent));
    sim.start_host(host);
}

/// The acceptance bound on the blackout window: the sender-side ARP cache TTL
/// (a stale mapping ages out and re-resolves at most one TTL after the
/// migration) plus 5 s of slack for the resolution round trip and the first
/// post-migration delivery.
fn blackout_bound_s(p: &Params) -> f64 {
    p.arp_cache_ttl.as_secs_f64() + 5.0
}
