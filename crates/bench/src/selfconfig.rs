//! Self-configuration churn benchmark: dynamic-membership workloads the
//! static harness cannot express, tracked across PRs in `BENCH_selfconfig.json`.
//!
//! The scenario exercises the whole self-configuration stack:
//!
//! 1. **Join** — 64 nodes (32 with `--quick`) join a Planet-Lab-like overlay
//!    knowing only the virtual subnet (a /24) and one bootstrap endpoint. Each
//!    draws, claims (atomic `DhtCreate`) and confirms its own address;
//!    the benchmark measures allocation latency, collisions and duplicates.
//! 2. **Churn** — a spread of nodes that *own other nodes' Brunet-ARP mapping
//!    keys* crash (agents replaced outright, no goodbye), so the ring must
//!    repair and the replicated soft-state DHT must keep the mappings alive.
//! 3. **Resolve** — a surviving node probes the mapping of every surviving
//!    address; the benchmark reports the resolution success rate, overall and
//!    restricted to mappings whose DHT owner crashed.
//!
//! Run as `ipop-bench selfconfig [--quick] [--out PATH]`.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use ipop::prelude::*;
use ipop_netsim::planetlab;
use ipop_overlay::Address;
use ipop_simcore::SimTime;

use crate::harness::{fmax, mean, rate};
use crate::json::Json;
use crate::{mode, Outcome};

/// The `selfconfig` scenario: 64 nodes and up to 6 crashed owners, 32 and 4
/// with `quick`.
pub fn scenario(quick: bool) -> Outcome {
    let (nodes, churn) = if quick { (32, 4) } else { (64, 6) };
    let seed = 0x5e1f_c0f6;
    eprintln!(
        "selfconfig ({} mode): {nodes} nodes, crashing up to {churn} DHT owners",
        mode(quick)
    );
    let mut net = Network::new(seed);
    let plab = planetlab(&mut net, nodes, 1.0, seed);
    let mut members = vec![IpopMember::router(
        plab.nodes[0],
        Ipv4Addr::new(172, 16, 0, 1),
    )];
    for (i, &h) in plab.nodes.iter().enumerate().skip(1) {
        members.push(IpopMember::dynamic_router(h).with_hostname(&format!("grid-{i}")));
    }
    let options = DeployOptions {
        brunet_arp: true,
        ..DeployOptions::udp()
    }
    .with_dynamic_subnet(Ipv4Addr::new(172, 16, 9, 0), 24);
    deploy_ipop(&mut net, members, options);
    let mut sim = NetworkSim::new(net);

    // Phase 1: join until every dynamic node is bound (or the deadline).
    let deadline = SimTime::ZERO + Duration::from_secs(180);
    let all_bound = |sim: &NetworkSim| {
        plab.nodes[1..].iter().all(|&h| {
            sim.agent_as::<IpopHostAgent>(h)
                .is_some_and(|a| a.has_address())
        })
    };
    while !all_bound(&sim) && sim.now() < deadline {
        sim.run_for(Duration::from_secs(1));
    }
    let all_bound_s = sim.now().as_secs_f64();

    let mut ips = Vec::new();
    let mut latencies = Vec::new();
    let mut collisions = 0u64;
    for &h in &plab.nodes[1..] {
        let agent = sim.agent_as::<IpopHostAgent>(h).expect("ipop agent");
        collisions += agent.allocation_collisions().unwrap_or(0);
        if agent.has_address() {
            ips.push(agent.virtual_ip());
            if let Some(l) = agent.allocation_latency() {
                latencies.push(l.as_secs_f64());
            }
        }
    }
    let bound = ips.len();
    let mut seen = BTreeMap::new();
    for ip in &ips {
        *seen.entry(*ip).or_insert(0usize) += 1;
    }
    let duplicates = seen.values().filter(|&&c| c > 1).count();

    // Pre-churn mapping census: every bound node's address, overlay address,
    // and which node owns its mapping key on the ring (the node ring-closest
    // to SHA-1(ip)).
    let owner_of = |sim: &NetworkSim, key: Address| -> usize {
        (0..nodes)
            .filter(|&i| sim.agent_as::<IpopHostAgent>(plab.nodes[i]).is_some())
            .min_by_key(|&i| {
                sim.agent_as::<IpopHostAgent>(plab.nodes[i])
                    .unwrap()
                    .overlay_address()
                    .ring_distance(&key)
            })
            .expect("live nodes remain")
    };
    let mappings: Vec<(usize, Ipv4Addr, Address, usize)> = plab.nodes[1..]
        .iter()
        .enumerate()
        .map(|(k, &h)| (k + 1, h))
        .filter_map(|(i, h)| {
            let agent = sim.agent_as::<IpopHostAgent>(h)?;
            if !agent.has_address() {
                return None;
            }
            let ip = agent.virtual_ip();
            let owner = owner_of(&sim, Address::from_ip(ip));
            Some((i, ip, agent.overlay_address(), owner))
        })
        .collect();

    // Phase 2: crash owners of *other* nodes' mappings, keeping the bootstrap
    // (0) and the prober (1) alive.
    let mut victims: Vec<usize> = Vec::new();
    for &(i, _ip, _addr, o) in &mappings {
        if victims.len() >= churn {
            break;
        }
        if o != i && o != 0 && o != 1 && !victims.contains(&o) {
            victims.push(o);
        }
    }
    for &v in &victims {
        deploy_plain(sim.net_mut(), plab.nodes[v], Box::new(NullApp));
    }
    // Ring repair: wait out the connection timeout (45 s) plus slack.
    sim.run_for(Duration::from_secs(75));

    // Phase 3: a surviving node resolves every surviving address. A mapping is
    // "orphaned" when its pre-churn DHT owner crashed — those are the ones
    // only replication can keep resolvable.
    let survivors: Vec<usize> = (1..nodes).filter(|i| !victims.contains(i)).collect();
    let prober = plab.nodes[survivors[0]];
    let mut expected: BTreeMap<u64, (Ipv4Addr, Address, bool)> = BTreeMap::new();
    for &(i, ip, addr, owner) in &mappings {
        if victims.contains(&i) || i == survivors[0] {
            continue;
        }
        let orphaned = victims.contains(&owner);
        let now = sim.now();
        let token = sim
            .net_mut()
            .agent_as_mut::<IpopHostAgent>(prober)
            .unwrap()
            .resolve_ip(now, ip);
        expected.insert(token, (ip, addr, orphaned));
    }
    sim.run_for(Duration::from_secs(15));
    let results = sim
        .net_mut()
        .agent_as_mut::<IpopHostAgent>(prober)
        .unwrap()
        .take_probe_results();
    let mut probes = 0;
    let mut resolved = 0;
    let mut orphan_probes = 0;
    let mut orphan_resolved = 0;
    for (token, got) in results {
        let Some((_ip, want, orphaned)) = expected.get(&token) else {
            continue;
        };
        probes += 1;
        let ok = got == Some(*want);
        if ok {
            resolved += 1;
        }
        if *orphaned {
            orphan_probes += 1;
            if ok {
                orphan_resolved += 1;
            }
        }
    }

    // DHT health across the survivors.
    let mut dht = (0u64, 0u64, 0u64, 0u64, 0u64);
    for &i in std::iter::once(&0).chain(survivors.iter()) {
        if let Some(agent) = sim.agent_as::<IpopHostAgent>(plab.nodes[i]) {
            let s = agent.overlay_stats();
            dht.0 += s.dht_records;
            dht.1 += s.dht_bytes;
            dht.2 += s.dht_replicas;
            dht.3 += s.dht_refreshes;
            dht.4 += s.dht_expired;
        }
    }

    if duplicates > 0 {
        eprintln!("  WARNING: duplicate allocations detected");
    }
    let json = Json::obj([
        ("bench", "selfconfig_churn".into()),
        ("mode", mode(quick).into()),
        ("nodes", nodes.into()),
        ("crashed_owners", victims.len().into()),
        (
            "allocation",
            Json::obj([
                ("dynamic_nodes", (nodes - 1).into()),
                ("bound", bound.into()),
                ("duplicates", duplicates.into()),
                ("collisions", collisions.into()),
                ("all_bound_virtual_s", Json::Fixed(all_bound_s, 1)),
                ("latency_mean_s", Json::Fixed(mean(&latencies), 3)),
                ("latency_max_s", Json::Fixed(fmax(&latencies), 3)),
            ]),
        ),
        (
            "resolution",
            Json::obj([
                ("probes", probes.into()),
                ("resolved", resolved.into()),
                ("success_rate", Json::Fixed(rate(resolved, probes), 4)),
                ("orphaned_probes", orphan_probes.into()),
                ("orphaned_resolved", orphan_resolved.into()),
                (
                    "orphaned_success_rate",
                    Json::Fixed(rate(orphan_resolved, orphan_probes), 4),
                ),
            ]),
        ),
        (
            "dht",
            Json::obj([
                ("records", dht.0.into()),
                ("bytes", dht.1.into()),
                ("replicas_held", dht.2.into()),
                ("refreshes_sent", dht.3.into()),
                ("expired", dht.4.into()),
            ]),
        ),
        ("events", sim.events_executed().into()),
    ]);
    Outcome::artefact(json, Ok(()))
}
