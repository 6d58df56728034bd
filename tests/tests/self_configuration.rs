//! Decentralized self-configuration: a dozen nodes joining through a single
//! bootstrap form a connected overlay, and virtual IP packets are routable between
//! any pair without any central coordinator. With the DHCP-over-DHT allocator,
//! nodes join knowing only the subnet: they draw, claim and confirm their own
//! addresses, register hostnames, and stay resolvable through owner crashes.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use ipop::prelude::*;
use ipop::IpopHostAgent;
use ipop_apps::ping::PingApp;
use ipop_netsim::planetlab;
use ipop_overlay::Address;

#[test]
fn twelve_nodes_self_configure_and_route() {
    let mut net = Network::new(3001);
    let plab = planetlab(&mut net, 12, 1.0, 5);
    let vip = |i: usize| Ipv4Addr::new(172, 16, 5, (i + 1) as u8);
    let mut members = Vec::new();
    for (i, &h) in plab.nodes.iter().enumerate() {
        if i == 3 {
            members.push(IpopMember::new(
                h,
                vip(i),
                Box::new(
                    PingApp::new(vip(9), 10, Duration::from_millis(200))
                        .with_start_delay(Duration::from_secs(20))
                        .with_timeout(Duration::from_secs(10)),
                ),
            ));
        } else {
            members.push(IpopMember::router(h, vip(i)));
        }
    }
    deploy_ipop(&mut net, members, DeployOptions::udp());
    let mut sim = NetworkSim::new(net);
    sim.run_for(Duration::from_secs(60));

    let connected = plab
        .nodes
        .iter()
        .filter(|&&h| {
            sim.agent_as::<IpopHostAgent>(h)
                .is_some_and(|a| a.is_connected())
        })
        .count();
    assert_eq!(connected, 12, "every node joined the overlay");

    let pinger = sim.agent_as::<IpopHostAgent>(plab.nodes[3]).unwrap();
    let report = pinger.app_as::<PingApp>().unwrap().report();
    assert!(
        report.rtts_ms.len() >= 8,
        "virtual IP traffic routed across the overlay ({} replies)",
        report.rtts_ms.len()
    );
}

#[test]
fn concurrent_dynamic_joins_allocate_unique_addresses() {
    const N: usize = 17;
    let mut net = Network::new(4202);
    let plab = planetlab(&mut net, N, 1.0, 7);
    // One statically addressed bootstrap; everyone else joins with nothing but
    // the subnet and claims an address through the DHT, concurrently.
    let mut members = vec![IpopMember::router(
        plab.nodes[0],
        Ipv4Addr::new(172, 16, 0, 1),
    )];
    for (i, &h) in plab.nodes.iter().enumerate().skip(1) {
        members.push(IpopMember::dynamic_router(h).with_hostname(&format!("worker-{i}")));
    }
    let options = DeployOptions {
        brunet_arp: true,
        ..DeployOptions::udp()
    }
    .with_dynamic_subnet(Ipv4Addr::new(172, 16, 9, 0), 24);
    deploy_ipop(&mut net, members, options);
    let mut sim = NetworkSim::new(net);
    sim.run_for(Duration::from_secs(90));

    let mut ips = Vec::new();
    for &h in plab.nodes.iter().skip(1) {
        let agent = sim.agent_as::<IpopHostAgent>(h).expect("ipop agent");
        assert!(
            agent.has_address(),
            "node {h:?} failed to allocate (state without address after 90 s)"
        );
        let ip = agent.virtual_ip();
        assert!(
            (u32::from(ip) & 0xFFFF_FF00) == u32::from(Ipv4Addr::new(172, 16, 9, 0)),
            "allocated address {ip} outside the /24"
        );
        assert_ne!(
            ip,
            Ipv4Addr::new(172, 16, 9, 254),
            "gateway never allocated"
        );
        ips.push(ip);
    }
    let unique: BTreeSet<_> = ips.iter().collect();
    assert_eq!(unique.len(), ips.len(), "zero duplicate addresses: {ips:?}");

    // The claims double as Brunet-ARP mappings: a resolution probe from the
    // bootstrap finds the claimant's overlay address.
    let target_ip = ips[3];
    let target_addr = sim
        .agent_as::<IpopHostAgent>(plab.nodes[4])
        .unwrap()
        .overlay_address();
    let now = sim.now();
    sim.net_mut()
        .agent_as_mut::<IpopHostAgent>(plab.nodes[0])
        .unwrap()
        .resolve_ip(now, target_ip);
    sim.run_for(Duration::from_secs(5));
    let probes = sim
        .net_mut()
        .agent_as_mut::<IpopHostAgent>(plab.nodes[0])
        .unwrap()
        .take_probe_results();
    assert_eq!(probes.len(), 1);
    assert_eq!(
        probes[0].1,
        Some(target_addr),
        "the lease record resolves to the claimant's overlay address"
    );

    // And the name service maps hostnames to the dynamically allocated IPs.
    let now = sim.now();
    let cached = sim
        .net_mut()
        .agent_as_mut::<IpopHostAgent>(plab.nodes[1])
        .unwrap()
        .lookup_name(now, "worker-9");
    assert!(cached.is_none(), "first lookup goes to the DHT");
    sim.run_for(Duration::from_secs(5));
    let results = sim
        .net_mut()
        .agent_as_mut::<IpopHostAgent>(plab.nodes[1])
        .unwrap()
        .take_name_results();
    let expected = sim
        .agent_as::<IpopHostAgent>(plab.nodes[9])
        .unwrap()
        .virtual_ip();
    assert_eq!(
        results,
        vec![("worker-9".to_string(), Some(expected))],
        "hostname resolves to the dynamically allocated address"
    );
}

#[test]
fn graceful_leave_releases_the_lease() {
    const N: usize = 10;
    let mut net = Network::new(6404);
    let plab = planetlab(&mut net, N, 1.0, 13);
    let mut members = vec![IpopMember::router(
        plab.nodes[0],
        Ipv4Addr::new(172, 16, 0, 1),
    )];
    for &h in plab.nodes.iter().skip(1) {
        members.push(IpopMember::dynamic_router(h));
    }
    let options = DeployOptions {
        brunet_arp: true,
        ..DeployOptions::udp()
    }
    .with_dynamic_subnet(Ipv4Addr::new(172, 16, 7, 0), 24);
    deploy_ipop(&mut net, members, options);
    let mut sim = NetworkSim::new(net);
    sim.run_for(Duration::from_secs(60));
    let leaver = plab.nodes[4];
    let leaver_ip = sim.agent_as::<IpopHostAgent>(leaver).unwrap().virtual_ip();
    assert!(!leaver_ip.is_unspecified());
    let now = sim.now();
    sim.net_mut()
        .agent_as_mut::<IpopHostAgent>(leaver)
        .unwrap()
        .leave(now);
    sim.run_for(Duration::from_secs(5));
    // The released address no longer resolves: the lease was deleted, not
    // left to linger until its TTL.
    let now = sim.now();
    sim.net_mut()
        .agent_as_mut::<IpopHostAgent>(plab.nodes[1])
        .unwrap()
        .resolve_ip(now, leaver_ip);
    sim.run_for(Duration::from_secs(5));
    let probes = sim
        .net_mut()
        .agent_as_mut::<IpopHostAgent>(plab.nodes[1])
        .unwrap()
        .take_probe_results();
    assert_eq!(probes.len(), 1);
    assert_eq!(
        probes[0].1, None,
        "released lease for {leaver_ip} must be gone from the DHT"
    );
}

#[test]
fn arp_mapping_survives_dht_owner_crash() {
    // Dynamic nodes have random overlay addresses, so the DHT owner of a
    // node's mapping key (SHA-1 of its allocated IP) is generally a *different*
    // node — crashing that owner must not make the IP unresolvable. (For a
    // statically addressed node the key equals the node's own overlay address,
    // so there is no separate owner to crash.)
    const N: usize = 16;
    let mut net = Network::new(5303);
    let plab = planetlab(&mut net, N, 1.0, 11);
    let mut members = vec![IpopMember::router(
        plab.nodes[0],
        Ipv4Addr::new(172, 16, 0, 1),
    )];
    for &h in plab.nodes.iter().skip(1) {
        members.push(IpopMember::dynamic_router(h));
    }
    let options = DeployOptions {
        brunet_arp: true,
        ..DeployOptions::udp()
    }
    .with_dynamic_subnet(Ipv4Addr::new(172, 16, 6, 0), 24);
    deploy_ipop(&mut net, members, options);
    let mut sim = NetworkSim::new(net);
    sim.run_for(Duration::from_secs(60));
    for &h in plab.nodes.iter().skip(1) {
        assert!(
            sim.agent_as::<IpopHostAgent>(h).unwrap().has_address(),
            "every dynamic node bound before the churn phase"
        );
    }
    let vip = |sim: &NetworkSim, i: usize| -> Ipv4Addr {
        sim.agent_as::<IpopHostAgent>(plab.nodes[i])
            .unwrap()
            .virtual_ip()
    };

    // Pick a target whose mapping is owned by a different node.
    let owner_of = |sim: &NetworkSim, key: Address| -> usize {
        (0..N)
            .min_by_key(|&i| {
                sim.agent_as::<IpopHostAgent>(plab.nodes[i])
                    .unwrap()
                    .overlay_address()
                    .ring_distance(&key)
            })
            .unwrap()
    };
    let (target, owner) = (2..N)
        .map(|t| (t, owner_of(&sim, Address::from_ip(vip(&sim, t)))))
        .find(|&(t, o)| o != t && t != 1 && o != 1 && o != 0)
        .expect("a target whose mapping lives elsewhere");
    let target_ip = vip(&sim, target);

    // Crash the DHT owner: its agent is replaced outright, no goodbye.
    deploy_plain(sim.net_mut(), plab.nodes[owner], Box::new(NullApp));
    // Wait out the connection timeout (45 s) so the ring repairs around it.
    sim.run_for(Duration::from_secs(75));

    let prober = 1;
    let now = sim.now();
    sim.net_mut()
        .agent_as_mut::<IpopHostAgent>(plab.nodes[prober])
        .unwrap()
        .resolve_ip(now, target_ip);
    sim.run_for(Duration::from_secs(10));
    let probes = sim
        .net_mut()
        .agent_as_mut::<IpopHostAgent>(plab.nodes[prober])
        .unwrap()
        .take_probe_results();
    let expected = sim
        .agent_as::<IpopHostAgent>(plab.nodes[target])
        .unwrap()
        .overlay_address();
    assert_eq!(probes.len(), 1);
    assert_eq!(
        probes[0].1,
        Some(expected),
        "resolution of {target_ip} still succeeds after its DHT owner crashed"
    );

    // DHT health is visible in the overlay stats of the survivors.
    let (records, replicas): (u64, u64) = (0..N)
        .filter(|&i| i != owner)
        .filter_map(|i| sim.agent_as::<IpopHostAgent>(plab.nodes[i]))
        .map(|a| {
            let s = a.overlay_stats();
            (s.dht_records, s.dht_replicas)
        })
        .fold((0, 0), |(r, p), (a, b)| (r + a, p + b));
    assert!(records >= N as u64, "mappings stored: {records}");
    assert!(replicas > 0, "replicas held: {replicas}");
}
