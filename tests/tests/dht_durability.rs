//! DHT durability under faults, driven by the declarative fault-injection
//! harness in `ipop_tests`: the 45 s put-loss-window regression, a combined
//! crash/partition/heal/join scenario, and the name service's reverse
//! lookups surviving alongside it all.

use std::net::Ipv4Addr;

use ipop::prelude::*;
use ipop::IpopHostAgent;
use ipop_netsim::planetlab;
use ipop_overlay::Address;
use ipop_tests::{FaultEvent, FaultHarness, FaultScenario};

fn vip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(172, 16, 5, (i + 1) as u8)
}

/// Regression for the ROADMAP's "45 s loss window": a plain `DhtPut` routed
/// through a freshly-crashed hop used to be silently lost until the
/// connection timeout aged the dead edge out (45 s) *and* the publisher's
/// TTL/2 refresh re-put it (here 300 s). With the link monitor dropping the
/// dead edge in seconds and the publisher's anti-entropy sweep re-sending
/// the record the moment the new owner's digest pull arrives, the mapping
/// must resolve again within roughly one sweep interval.
#[test]
fn put_through_crashed_hop_recovers_within_a_sweep_interval() {
    const N: usize = 16;
    let mut net = Network::new(0x0D07_A11E);
    let plab = planetlab(&mut net, N, 1.0, 11);
    let members = plab
        .nodes
        .iter()
        .enumerate()
        .map(|(i, &h)| IpopMember::router(h, vip(i)))
        .collect();
    let options = DeployOptions {
        brunet_arp: true,
        // A long lease keeps the TTL/2 refresh (300 s) out of the test window:
        // only the anti-entropy sweep can recover the lost put in time.
        lease_ttl: Duration::from_secs(600),
        ..DeployOptions::udp()
    };
    let hosts = ipop::deploy_ipop(&mut net, members, options);
    let sim = NetworkSim::new(net);

    // The guest mapping's ring owner among the static members (their overlay
    // addresses are the SHA-1 of their virtual IPs).
    let guest = Ipv4Addr::new(172, 16, 5, 200);
    let key = Address::from_ip(guest);
    let owner = (0..N)
        .min_by_key(|&i| Address::from_ip(vip(i)).ring_distance(&key))
        .expect("members exist");
    let publisher = (0..N)
        .find(|&i| i != owner && i != 0)
        .expect("a publisher distinct from owner and bootstrap");
    let prober = (0..N)
        .find(|&i| i != owner && i != publisher && i != 0)
        .expect("a prober distinct from both");

    // Let the ring converge, then crash the owner.
    let scenario = FaultScenario::new().at(Duration::from_secs(60), FaultEvent::Crash(owner));
    let mut h = FaultHarness::new(sim, hosts, scenario);
    h.run_until(SimTime::ZERO + Duration::from_millis(60_200));
    assert!(h.crashed.contains(&owner), "the owner crashed on schedule");

    // 200 ms after the crash nobody has noticed yet: the put is forwarded
    // straight into the dead hop and lost in flight.
    let now = h.now();
    h.agent_mut(publisher)
        .expect("publisher alive")
        .route_for(now, guest);

    let recovered = h.resolve_within(prober, guest, Duration::from_secs(35));
    let elapsed = recovered.expect("the mapping resolved again inside the probe window");
    assert!(
        elapsed <= Duration::from_secs(30),
        "recovery took {elapsed:?} — the sweep should bound it well under the 45 s \
         connection timeout (and the 300 s refresh)"
    );
    let totals = h.overlay_totals();
    assert!(
        totals.dead_edges_detected >= 1,
        "the link monitor declared the crashed hop's edges dead"
    );
    assert!(
        totals.dht_sync_digests >= 1,
        "anti-entropy digests flowed: {}",
        totals.dht_sync_digests
    );
    assert!(
        totals.dht_sync_pulls >= 1,
        "the lost record came back through a digest pull: {}",
        totals.dht_sync_pulls
    );
}

/// A declarative end-to-end durability scenario: a crash, a two-node
/// partition, a heal and a mid-run joiner — through all of which the
/// dynamic address space must stay duplicate-free and every live node bound.
#[test]
fn crash_partition_heal_join_scenario_keeps_addresses_consistent() {
    const N: usize = 10;
    let mut net = Network::new(0x000F_A017);
    let plab = planetlab(&mut net, N + 1, 1.0, 7);
    let mut members = vec![IpopMember::router(
        plab.nodes[0],
        Ipv4Addr::new(172, 16, 0, 1),
    )];
    for (i, &h) in plab.nodes.iter().enumerate().take(N).skip(1) {
        members.push(IpopMember::dynamic_router(h).with_hostname(&format!("d{i}")));
    }
    let options = DeployOptions {
        brunet_arp: true,
        lease_ttl: Duration::from_secs(40),
        ..DeployOptions::udp()
    }
    .with_dynamic_subnet(Ipv4Addr::new(172, 16, 9, 0), 24);
    let hosts = ipop::deploy_ipop(&mut net, members, options);

    let spare = plab.nodes[N];
    let bootstrap_addr = plab.addrs[0];
    let scenario = FaultScenario::new()
        .at(Duration::from_secs(125), FaultEvent::Crash(5))
        .at(Duration::from_secs(140), FaultEvent::Partition(7, 1))
        .at(Duration::from_secs(140), FaultEvent::Partition(8, 1))
        .at(Duration::from_secs(170), FaultEvent::Heal)
        .at(
            Duration::from_secs(175),
            FaultEvent::Custom(Box::new(move |h: &mut FaultHarness| {
                let cfg = IpopConfig::dynamic((Ipv4Addr::new(172, 16, 9, 0), 24))
                    .with_bootstrap(vec![(bootstrap_addr, 4001)])
                    .with_lease_ttl(Duration::from_secs(40))
                    .with_hostname("joiner");
                let phys = h.sim.net().host(spare).addr;
                let agent = IpopHostAgent::new(cfg, phys, Box::new(ipop::NullApp));
                h.sim.net_mut().set_agent(spare, Box::new(agent));
                h.sim.start_host(spare);
                // Registered as a member: live() and the duplicate census
                // cover the joiner from here on.
                h.add_member(spare);
            })),
        );
    let mut h = FaultHarness::new(NetworkSim::new(net), hosts, scenario);
    h.run_until(SimTime::ZERO + Duration::from_secs(225));

    // Every live dynamic member — the mid-run joiner included — ended bound,
    // uniquely (the census spans the joiner since add_member).
    assert_eq!(h.live().len(), N + 1 - 1, "one crash, one joiner");
    for i in h.live() {
        if i == 0 {
            continue;
        }
        assert!(
            h.agent(i).expect("live").has_address(),
            "member {i} lost its address to the fault schedule"
        );
    }
    h.assert_no_duplicate_addresses();
    // The durability machinery actually engaged.
    let totals = h.overlay_totals();
    assert!(
        totals.dead_edges_detected >= 1,
        "crash/partition edges were detected dead"
    );
    assert!(totals.dht_sync_digests >= 1, "anti-entropy swept");
}

/// Reverse lookups: a registered hostname resolves back from its IP, both
/// directions coexist, and unregistered IPs answer with nothing.
#[test]
fn reverse_lookup_maps_ips_back_to_hostnames() {
    const N: usize = 8;
    let mut net = Network::new(0x0009_E7AA);
    let plab = planetlab(&mut net, N, 1.0, 3);
    let members = plab
        .nodes
        .iter()
        .enumerate()
        .map(|(i, &h)| IpopMember::router(h, vip(i)).with_hostname(&format!("h{i}")))
        .collect();
    let hosts = ipop::deploy_ipop(&mut net, members, DeployOptions::udp());
    let mut sim = NetworkSim::new(net);
    sim.run_for(Duration::from_secs(30));

    let resolver = hosts[2];
    // Forward lookup still works...
    let now = sim.now();
    let pending = sim
        .net_mut()
        .agent_as_mut::<IpopHostAgent>(resolver)
        .unwrap()
        .lookup_name(now, "h5");
    assert_eq!(pending, None, "first lookup goes to the DHT");
    sim.run_for(Duration::from_secs(5));
    let names = sim
        .net_mut()
        .agent_as_mut::<IpopHostAgent>(resolver)
        .unwrap()
        .take_name_results();
    assert_eq!(names, vec![("h5".to_string(), Some(vip(5)))]);

    // ...and the reverse record turns the IP back into the hostname.
    let now = sim.now();
    let cached = sim
        .net_mut()
        .agent_as_mut::<IpopHostAgent>(resolver)
        .unwrap()
        .lookup_ip(now, vip(5));
    assert_eq!(cached, None, "first reverse lookup goes to the DHT");
    sim.run_for(Duration::from_secs(5));
    let reversed = sim
        .net_mut()
        .agent_as_mut::<IpopHostAgent>(resolver)
        .unwrap()
        .take_reverse_results();
    assert_eq!(reversed, vec![(vip(5), Some("h5".to_string()))]);
    // The answer is now cached.
    let now = sim.now();
    let cached = sim
        .net_mut()
        .agent_as_mut::<IpopHostAgent>(resolver)
        .unwrap()
        .lookup_ip(now, vip(5));
    assert_eq!(cached, Some("h5".to_string()));

    // An IP nobody registered reverse-resolves to nothing.
    let ghost = Ipv4Addr::new(172, 16, 5, 123);
    let now = sim.now();
    assert_eq!(
        sim.net_mut()
            .agent_as_mut::<IpopHostAgent>(resolver)
            .unwrap()
            .lookup_ip(now, ghost),
        None
    );
    sim.run_for(Duration::from_secs(5));
    let reversed = sim
        .net_mut()
        .agent_as_mut::<IpopHostAgent>(resolver)
        .unwrap()
        .take_reverse_results();
    assert_eq!(reversed, vec![(ghost, None)]);
}
