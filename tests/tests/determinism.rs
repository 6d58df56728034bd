//! Whole-system determinism: two `Network::new(seed)` runs of the same IPOP
//! scenario must execute the same number of events and produce identical
//! application-level results and traffic counters. This is the property that
//! makes every benchmark table in `ipop-bench` reproducible.

use std::net::Ipv4Addr;

use ipop::prelude::*;
use ipop::IpopHostAgent;
use ipop_apps::ping::PingApp;
use ipop_netsim::fig4_testbed;
use ipop_overlay::pubsub::topic_key;
use ipop_overlay::Address;

/// Outcome of one scenario run, in comparable form.
#[derive(Debug, PartialEq)]
struct RunTrace {
    events: u64,
    rtts_ms: Vec<f64>,
    tx_packets: Vec<u64>,
    rx_packets: Vec<u64>,
    delivered: u64,
}

fn run_fig4_ping(seed: u64) -> RunTrace {
    let mut net = Network::new(seed);
    let tb = fig4_testbed(&mut net);
    let vips = [
        Ipv4Addr::new(172, 16, 0, 3),
        Ipv4Addr::new(172, 16, 0, 4),
        Ipv4Addr::new(172, 16, 0, 51),
        Ipv4Addr::new(172, 16, 0, 2),
        Ipv4Addr::new(172, 16, 0, 18),
        Ipv4Addr::new(172, 16, 0, 20),
    ];
    let hosts = tb.all();
    let members = vips
        .iter()
        .enumerate()
        .map(|(i, &vip)| {
            if i == 1 {
                IpopMember::new(
                    hosts[i],
                    vip,
                    Box::new(
                        PingApp::new(vips[4], 10, Duration::from_millis(50))
                            .with_start_delay(Duration::from_secs(20)),
                    ),
                )
            } else {
                IpopMember::router(hosts[i], vip)
            }
        })
        .collect();
    ipop::deploy_ipop(&mut net, members, DeployOptions::udp());
    let mut sim = NetworkSim::new(net);
    sim.run_for(Duration::from_secs(30));
    let rtts_ms = sim
        .agent_as::<IpopHostAgent>(hosts[1])
        .and_then(|a| a.app_as::<PingApp>())
        .map(|p| p.report().rtts_ms.clone())
        .unwrap_or_default();
    RunTrace {
        events: sim.events_executed(),
        rtts_ms,
        tx_packets: hosts
            .iter()
            .map(|&h| sim.net().host(h).counters.tx_packets)
            .collect(),
        rx_packets: hosts
            .iter()
            .map(|&h| sim.net().host(h).counters.rx_packets)
            .collect(),
        delivered: sim.net().counters().delivered,
    }
}

/// Outcome of the 64-node run, in byte-comparable form. The overlay tuple
/// covers the link-monitor path (probes sent, probe timeouts, dead edges
/// detected) and the malformed-ingress counter, so crash-induced detection
/// traffic and corruption-induced decode drops are part of the
/// byte-identical contract; `impair` carries the network-wide impairment
/// counters (dropped, duplicated, corrupted, reordered).
#[derive(Debug, PartialEq)]
struct BigRunTrace {
    events: u64,
    delivered: u64,
    rtts_ms: Vec<f64>,
    per_host: Vec<(u64, u64, u64, u64)>,
    overlay: Vec<(u64, u64, u64, u64, u64, u64, u64)>,
    impair: (u64, u64, u64, u64),
}

/// A 64-node overlay across a mix of open sites, NATed sites (alternating cone
/// types) and firewalled sites — the composition the paper targets — driven by
/// the typed-event scheduler. One node pings across the ring while the rest
/// route — and four nodes crash mid-run, so the link monitor's probe and
/// dead-edge traffic is exercised under the same-seed replay contract. With
/// `lossy` the whole fabric additionally runs under a 1 % loss + reorder +
/// corruption impairment, so every impairment draw and every
/// malformed-datagram drop joins the byte-identical contract too.
fn run_mixed_64(seed: u64, lossy: bool) -> BigRunTrace {
    use ipop_netsim::firewall::Firewall;
    use ipop_netsim::link::LinkParams;
    use ipop_netsim::nat::{NatBox, NatType};
    use ipop_netsim::site::Prefix;
    use ipop_netsim::SiteSpec;

    const N: usize = 64;
    let mut net = Network::new(seed);
    let mut hosts = Vec::with_capacity(N);
    for i in 0..N {
        let name = format!("site-{i:02}");
        let spec = SiteSpec::open(&name).with_access(LinkParams::wan(
            Duration::from_millis(2 + (i as u64 % 7)),
            20.0,
        ));
        let (spec, addr) = match i % 4 {
            // NATed site: private address space behind an alternating cone type.
            1 => {
                let nat_type = if i % 8 == 1 {
                    NatType::FullCone
                } else {
                    NatType::PortRestrictedCone
                };
                let public = Ipv4Addr::new(100, 64, i as u8, 1);
                (
                    spec.with_nat(
                        NatBox::new(nat_type, public),
                        Prefix::new(Ipv4Addr::new(192, 168, i as u8, 0), 24),
                    ),
                    Ipv4Addr::new(192, 168, i as u8, 2),
                )
            }
            // Firewalled site: outbound-initiated traffic only.
            3 => (
                spec.with_firewall(Firewall::default_deny_inbound()),
                Ipv4Addr::new(139, 70, i as u8, 2),
            ),
            // Open public site.
            _ => (spec, Ipv4Addr::new(128, 227, i as u8, 2)),
        };
        let site = net.add_site(spec);
        hosts.push(net.add_host(&format!("h{i:02}"), site, addr));
    }

    let vip_of = |i: usize| Ipv4Addr::new(172, 16, 1, (i + 1) as u8);
    let src_idx = 2;
    let members = hosts
        .iter()
        .enumerate()
        .map(|(i, &h)| {
            if i == src_idx {
                IpopMember::new(
                    h,
                    vip_of(i),
                    Box::new(
                        PingApp::new(vip_of(N / 2), 20, Duration::from_millis(250))
                            .with_start_delay(Duration::from_secs(8))
                            .with_timeout(Duration::from_secs(3)),
                    ),
                )
            } else {
                IpopMember::router(h, vip_of(i))
            }
        })
        .collect();
    ipop::deploy_ipop(&mut net, members, DeployOptions::udp());
    if lossy {
        use ipop_netsim::LinkImpairment;
        // A uniformly hostile fabric: loss, reordering and byte-flipping
        // corruption on every path, so the hardened decoders' drop path runs
        // inside the replay contract.
        net.set_default_impairment(
            LinkImpairment::none()
                .with_loss(0.01)
                .with_reorder(0.02, Duration::from_millis(10))
                .with_corrupt(0.02),
        );
    }

    let mut sim = NetworkSim::new(net);
    // Induced crashes: four routers die unannounced at 6 s (none of them the
    // pinger or its target), and the link monitor must detect the dead edges
    // identically across same-seed runs.
    sim.run_for(Duration::from_secs(6));
    for &victim in &[10usize, 20, 40, 50] {
        ipop::deploy_plain(sim.net_mut(), hosts[victim], Box::new(ipop::NullApp));
    }
    sim.run_for(Duration::from_secs(9));

    let rtts_ms = sim
        .agent_as::<IpopHostAgent>(hosts[src_idx])
        .and_then(|a| a.app_as::<PingApp>())
        .map(|p| p.report().rtts_ms.clone())
        .unwrap_or_default();
    BigRunTrace {
        events: sim.events_executed(),
        delivered: sim.net().counters().delivered,
        rtts_ms,
        per_host: hosts
            .iter()
            .map(|&h| {
                let c = sim.net().host(h).counters;
                (c.tx_packets, c.tx_bytes, c.rx_packets, c.rx_bytes)
            })
            .collect(),
        overlay: hosts
            .iter()
            .map(|&h| {
                sim.agent_as::<IpopHostAgent>(h)
                    .map(|a| {
                        let s = a.overlay_stats();
                        (
                            s.link_tx,
                            s.link_rx,
                            s.forwarded,
                            s.link_probes_sent,
                            s.link_probe_timeouts,
                            s.dead_edges_detected,
                            s.malformed_dropped,
                        )
                    })
                    .unwrap_or_default()
            })
            .collect(),
        impair: {
            let c = sim.net().counters();
            (
                c.impair_dropped,
                c.impair_duplicated,
                c.impair_corrupted,
                c.impair_reordered,
            )
        },
    }
}

#[test]
fn mixed_nat_public_64_node_runs_are_byte_identical() {
    let a = run_mixed_64(0xB16_5EED, false);
    let b = run_mixed_64(0xB16_5EED, false);
    // The overlay actually formed and carried traffic...
    assert!(a.delivered > 10_000, "delivered {}", a.delivered);
    assert!(
        a.rtts_ms.len() >= 10,
        "pings crossed the mixed overlay: {}",
        a.rtts_ms.len()
    );
    // ...the crashed routers' edges were hunted down by the link monitor...
    let dead_edges: u64 = a.overlay.iter().map(|o| o.5).sum();
    assert!(
        dead_edges >= 1,
        "induced crashes produced dead-edge detections: {dead_edges}"
    );
    let probes: u64 = a.overlay.iter().map(|o| o.3).sum();
    assert!(probes >= 1, "probes flowed: {probes}");
    // ...and the two same-seed runs are indistinguishable, field by field.
    assert_eq!(a, b);
}

#[test]
fn lossy_mixed_64_node_runs_are_byte_identical() {
    let a = run_mixed_64(0x0010_55ED, true);
    let b = run_mixed_64(0x0010_55ED, true);
    // The impairments actually bit: packets were dropped, reordered and
    // corrupted by the seeded draws...
    assert!(a.impair.0 > 0, "loss draws dropped packets: {:?}", a.impair);
    assert!(
        a.impair.3 > 0,
        "reorder draws delayed packets: {:?}",
        a.impair
    );
    assert!(
        a.impair.2 > 0,
        "corruption draws flipped packets: {:?}",
        a.impair
    );
    // ...corrupted overlay datagrams were counted out at ingress instead of
    // crashing a decoder...
    let malformed: u64 = a.overlay.iter().map(|o| o.6).sum();
    assert!(malformed >= 1, "corruption surfaced as malformed drops");
    // ...the overlay still carried the workload end to end...
    assert!(a.delivered > 10_000, "delivered {}", a.delivered);
    assert!(
        a.rtts_ms.len() >= 10,
        "pings crossed the lossy overlay: {}",
        a.rtts_ms.len()
    );
    // ...and every impairment draw, malformed drop and detection verdict
    // replays byte-identically under the same seed.
    assert_eq!(a, b);
}

/// Outcome of a dynamic-allocation run, in byte-comparable form: every field
/// that DHT, lease and replication traffic can influence.
#[derive(Debug, PartialEq)]
struct SelfConfigTrace {
    events: u64,
    delivered: u64,
    ips: Vec<Ipv4Addr>,
    latencies_ns: Vec<Option<u64>>,
    collisions: Vec<Option<u64>>,
    dht: Vec<(u64, u64, u64, u64, u64)>,
    /// Quorum machinery per node: coordinated reads, writes, repairs.
    quorum: Vec<(u64, u64, u64)>,
    /// Anti-entropy machinery per node: digests sent, records pulled,
    /// fresher copies pushed back.
    sync: Vec<(u64, u64, u64)>,
    /// Resolution probes answered over the quorum read path.
    probes: Vec<(u64, bool)>,
}

/// A 12-node overlay where everyone but the bootstrap allocates its address
/// through the DHCP-over-DHT claim path — the run exercises creates, confirm
/// reads, replication, lease refreshes and name registrations. One allocated
/// node crashes mid-run, so the anti-entropy sweep's recovery traffic (and
/// the link monitor's detection of the dead edges) is part of the trace.
fn run_dynamic_join(seed: u64) -> SelfConfigTrace {
    use ipop_netsim::planetlab;
    const N: usize = 12;
    let mut net = Network::new(seed);
    let plab = planetlab(&mut net, N, 1.0, seed);
    let mut members = vec![IpopMember::router(
        plab.nodes[0],
        Ipv4Addr::new(172, 16, 0, 1),
    )];
    for (i, &h) in plab.nodes.iter().enumerate().skip(1) {
        members.push(IpopMember::dynamic_router(h).with_hostname(&format!("d{i}")));
    }
    let options = DeployOptions {
        brunet_arp: true,
        ..DeployOptions::udp()
    }
    .with_dynamic_subnet(Ipv4Addr::new(172, 16, 9, 0), 24);
    ipop::deploy_ipop(&mut net, members, options);
    let mut sim = NetworkSim::new(net);
    // Crash one allocated node at 55 s: the records it owned must come back
    // through the sweep (and its own lease simply ages out) — identically
    // across same-seed runs.
    sim.run_for(Duration::from_secs(55));
    ipop::deploy_plain(sim.net_mut(), plab.nodes[6], Box::new(ipop::NullApp));
    sim.run_for(Duration::from_secs(20));
    // Drive the quorum read path explicitly: one node resolves every bound
    // address (replica polls, freshest-copy selection and any read repair all
    // land in the trace below).
    let bound: Vec<Ipv4Addr> = plab
        .nodes
        .iter()
        .skip(1)
        .filter_map(|&h| sim.agent_as::<IpopHostAgent>(h))
        .filter(|a| a.has_address())
        .map(|a| a.virtual_ip())
        .collect();
    let now = sim.now();
    for ip in &bound {
        sim.net_mut()
            .agent_as_mut::<IpopHostAgent>(plab.nodes[0])
            .unwrap()
            .resolve_ip(now, *ip);
    }
    sim.run_for(Duration::from_secs(10));
    let probes: Vec<(u64, bool)> = sim
        .net_mut()
        .agent_as_mut::<IpopHostAgent>(plab.nodes[0])
        .unwrap()
        .take_probe_results()
        .into_iter()
        .map(|(token, addr)| (token, addr.is_some()))
        .collect();
    // The crashed node's agent is gone: its slots carry defaults so the
    // trace stays index-aligned with the member list.
    let agents: Vec<Option<&IpopHostAgent>> = plab
        .nodes
        .iter()
        .map(|&h| sim.agent_as::<IpopHostAgent>(h))
        .collect();
    SelfConfigTrace {
        events: sim.events_executed(),
        delivered: sim.net().counters().delivered,
        ips: agents
            .iter()
            .map(|a| a.map_or(Ipv4Addr::UNSPECIFIED, |a| a.virtual_ip()))
            .collect(),
        latencies_ns: agents
            .iter()
            .map(|a| a.and_then(|a| a.allocation_latency()).map(|d| d.as_nanos()))
            .collect(),
        collisions: agents
            .iter()
            .map(|a| a.and_then(|a| a.allocation_collisions()))
            .collect(),
        dht: agents
            .iter()
            .map(|a| {
                a.map_or_else(Default::default, |a| {
                    let s = a.overlay_stats();
                    (
                        s.dht_records,
                        s.dht_bytes,
                        s.dht_replicas,
                        s.dht_refreshes,
                        s.dht_expired,
                    )
                })
            })
            .collect(),
        quorum: agents
            .iter()
            .map(|a| {
                a.map_or_else(Default::default, |a| {
                    let s = a.overlay_stats();
                    (s.dht_quorum_reads, s.dht_quorum_writes, s.dht_read_repairs)
                })
            })
            .collect(),
        sync: agents
            .iter()
            .map(|a| {
                a.map_or_else(Default::default, |a| {
                    let s = a.overlay_stats();
                    (s.dht_sync_digests, s.dht_sync_pulls, s.dht_sync_pushes)
                })
            })
            .collect(),
        probes,
    }
}

#[test]
fn dynamic_join_runs_are_byte_identical() {
    let a = run_dynamic_join(0xD4C9_05EED);
    let b = run_dynamic_join(0xD4C9_05EED);
    // The run exercised the allocator: every surviving dynamic node bound
    // (index 6 is the induced crash — its slot carries the default)...
    assert!(
        a.ips
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(i, _)| *i != 6)
            .all(|(_, ip)| !ip.is_unspecified()),
        "all surviving dynamic nodes allocated: {:?}",
        a.ips
    );
    assert!(
        a.ips[6].is_unspecified(),
        "the crashed member's slot is defaulted"
    );
    // The durability machinery ran: digests were exchanged and the crashed
    // node's edges were detected dead.
    assert!(
        a.sync.iter().map(|s| s.0).sum::<u64>() > 0,
        "anti-entropy digests flowed"
    );
    assert!(
        a.dht.iter().map(|d| d.3).sum::<u64>() > 0,
        "lease refreshes happened"
    );
    // The quorum machinery actually ran: claims were majority-acked and the
    // resolution probes went through replica polls.
    assert!(
        a.quorum.iter().map(|q| q.0).sum::<u64>() > 0,
        "quorum reads coordinated"
    );
    assert!(
        a.quorum.iter().map(|q| q.1).sum::<u64>() > 0,
        "quorum writes coordinated"
    );
    assert!(
        !a.probes.is_empty() && a.probes.iter().all(|(_, ok)| *ok),
        "every bound address resolved over the quorum path: {:?}",
        a.probes
    );
    // ...and DHT/lease/quorum traffic replays byte-identically.
    assert_eq!(a, b);
}

/// Outcome of a mixed pub/sub run, in byte-comparable form: per-node
/// subscribe/publish/delivery counters, relay-tree counters from the overlay
/// stats, and the full delivered message stream (topic, id, payload).
#[derive(Debug, PartialEq)]
struct PubSubTrace {
    events: u64,
    delivered: u64,
    /// `(publishes fanned out as root, delivered, unknown_topic)` per member.
    counters: Vec<(u64, u64, u64)>,
    /// `(fanout_sent, delivered, relayed, salvaged)` per member.
    relay: Vec<(u64, u64, u64, u64)>,
    /// Every topic message each member drained, in arrival order.
    messages: Vec<Vec<(Address, u64, Vec<u8>)>>,
}

/// A 16-node overlay carrying mixed pub/sub traffic on two topics: half the
/// nodes subscribe to "alpha", a third to "beta" (two nodes to both), then
/// three publishers emit interleaved messages on each. Subscriptions,
/// publishes, relay-tree fan-out and the delivered payload stream must all
/// replay byte-identically under the same seed.
fn run_pubsub_mesh(seed: u64) -> PubSubTrace {
    use ipop_netsim::planetlab;
    const N: usize = 16;
    let mut net = Network::new(seed);
    let plab = planetlab(&mut net, N, 1.0, seed);
    let members = plab
        .nodes
        .iter()
        .enumerate()
        .map(|(i, &h)| IpopMember::router(h, Ipv4Addr::new(172, 16, 3, (i + 1) as u8)))
        .collect();
    ipop::deploy_ipop(&mut net, members, DeployOptions::udp());
    let mut sim = NetworkSim::new(net);
    sim.run_for(Duration::from_secs(30));

    // Subscriptions: evens on "alpha", multiples of three on "beta" —
    // indices 0, 6 and 12 land on both topics.
    for i in 0..N {
        let now = sim.now();
        let agent = sim
            .net_mut()
            .agent_as_mut::<IpopHostAgent>(plab.nodes[i])
            .unwrap();
        if i % 2 == 0 {
            agent.pubsub_subscribe(now, topic_key("alpha"));
        }
        if i % 3 == 0 {
            agent.pubsub_subscribe(now, topic_key("beta"));
        }
    }
    sim.run_for(Duration::from_secs(5));

    // Interleaved publishes from three distinct publishers.
    for round in 0..4u8 {
        for (pb, topic) in [(1usize, "alpha"), (5, "beta"), (7, "alpha")] {
            let now = sim.now();
            let payload = ipop_packet::Bytes::from(vec![round, pb as u8, 0xA5]);
            sim.net_mut()
                .agent_as_mut::<IpopHostAgent>(plab.nodes[pb])
                .unwrap()
                .pubsub_publish(now, topic_key(topic), payload);
        }
        sim.run_for(Duration::from_secs(2));
    }
    sim.run_for(Duration::from_secs(5));

    let mut counters = Vec::with_capacity(N);
    let mut relay = Vec::with_capacity(N);
    let mut messages = Vec::with_capacity(N);
    for &h in &plab.nodes {
        let agent = sim
            .net_mut()
            .agent_as_mut::<IpopHostAgent>(h)
            .expect("member alive");
        let s = agent.overlay_stats();
        counters.push((
            s.pubsub_publishes,
            s.pubsub_delivered,
            s.pubsub_unknown_topic,
        ));
        relay.push((
            s.pubsub_fanout_sent,
            s.pubsub_delivered,
            s.pubsub_relayed,
            s.pubsub_salvaged,
        ));
        messages.push(
            agent
                .take_pubsub_delivered()
                .into_iter()
                .map(|(topic, msg_id, payload)| (topic, msg_id, payload.as_slice().to_vec()))
                .collect(),
        );
    }
    PubSubTrace {
        events: sim.events_executed(),
        delivered: sim.net().counters().delivered,
        counters,
        relay,
        messages,
    }
}

#[test]
fn pubsub_mesh_runs_are_byte_identical() {
    let a = run_pubsub_mesh(0x90B_50B5);
    let b = run_pubsub_mesh(0x90B_50B5);
    // The workload actually flowed: 8 "alpha" publishes to 8 subscribers and
    // 4 "beta" publishes to 6 subscribers, every copy delivered.
    assert_eq!(
        a.counters.iter().map(|c| c.0).sum::<u64>(),
        12,
        "publishes fanned out"
    );
    for (i, msgs) in a.messages.iter().enumerate() {
        let alpha = msgs
            .iter()
            .filter(|(t, _, _)| *t == topic_key("alpha"))
            .count();
        let beta = msgs
            .iter()
            .filter(|(t, _, _)| *t == topic_key("beta"))
            .count();
        assert_eq!(alpha, if i % 2 == 0 { 8 } else { 0 }, "node {i} alpha");
        assert_eq!(beta, if i % 3 == 0 { 4 } else { 0 }, "node {i} beta");
    }
    // The bounded relay tree delegated (16 subscribers > fan-out 4)...
    assert!(
        a.relay.iter().map(|r| r.2).sum::<u64>() > 0,
        "fan-out delegated chunks"
    );
    // ...nothing landed on an unknown topic, and the two same-seed runs are
    // indistinguishable down to every delivered payload byte.
    assert_eq!(a.counters.iter().map(|c| c.2).sum::<u64>(), 0);
    assert_eq!(a, b);
}

/// Per-member stream counters: `(opened, accepted, data_sent, data_received,
/// retransmits, failed, closed, orphan_frames)`.
type StreamCounters = (u64, u64, u64, u64, u64, u64, u64, u64);

/// Outcome of a mixed stream + pub/sub run, in byte-comparable form. The
/// `streams` tuple carries every stream counter the overlay keeps (opened,
/// accepted, data segments sent/received, retransmits, failed, closed,
/// orphan frames), so the stream engine's timers, ACK clocking and teardown
/// are part of the byte-identical contract.
#[derive(Debug, PartialEq)]
struct StreamMeshTrace {
    events: u64,
    delivered: u64,
    /// `(opened, accepted, data_sent, data_received, retransmits, failed,
    /// closed, orphan_frames)` per member.
    streams: Vec<StreamCounters>,
    /// The exact byte stream each receiver drained, per stream.
    received: Vec<Vec<u8>>,
    /// Terminal fates harvested at the four endpoints (true = clean close).
    fates: Vec<bool>,
    /// `(publishes fanned out as root, delivered, unknown_topic)` per member.
    pubsub: Vec<(u64, u64, u64)>,
}

/// A 16-node overlay carrying two concurrent virtual streams (1→9 and 4→12)
/// interleaved with pub/sub traffic on one topic. Chunked sends, the
/// handshakes, ACK clocking, FIN teardown and the fan-out all share the
/// fabric, and the whole mix must replay byte-identically under the same
/// seed.
fn run_stream_mesh(seed: u64) -> StreamMeshTrace {
    use ipop_netsim::planetlab;
    const N: usize = 16;
    let mut net = Network::new(seed);
    let plab = planetlab(&mut net, N, 1.0, seed);
    let vip_of = |i: usize| Ipv4Addr::new(172, 16, 4, (i + 1) as u8);
    let members = plab
        .nodes
        .iter()
        .enumerate()
        .map(|(i, &h)| IpopMember::router(h, vip_of(i)))
        .collect();
    ipop::deploy_ipop(&mut net, members, DeployOptions::udp());
    let mut sim = NetworkSim::new(net);
    sim.run_for(Duration::from_secs(30));

    // Static members: the stream targets' overlay addresses are the SHA-1 of
    // their virtual IPs.
    use ipop_overlay::StreamEvent;
    let pairs = [(1usize, 9usize), (4usize, 12usize)];
    let now = sim.now();
    sim.net_mut()
        .agent_as_mut::<IpopHostAgent>(plab.nodes[2])
        .unwrap()
        .pubsub_subscribe(now, topic_key("mixed"));
    let mut opened = Vec::new();
    for &(src, dst) in &pairs {
        let now = sim.now();
        let agent = sim
            .net_mut()
            .agent_as_mut::<IpopHostAgent>(plab.nodes[src])
            .unwrap();
        let remote = Address::from_ip(vip_of(dst));
        opened.push((remote, agent.stream_connect(now, remote)));
    }

    // Three interleaved rounds: a chunk on each stream plus a publish.
    for round in 0..3u8 {
        for (k, &(src, _)) in pairs.iter().enumerate() {
            let now = sim.now();
            let chunk = vec![0xA0 + (k as u8) * 0x10 + round; 4096];
            let agent = sim
                .net_mut()
                .agent_as_mut::<IpopHostAgent>(plab.nodes[src])
                .unwrap();
            let (remote, id) = opened[k];
            assert!(agent.stream_send(now, remote, id, chunk));
        }
        let now = sim.now();
        sim.net_mut()
            .agent_as_mut::<IpopHostAgent>(plab.nodes[3])
            .unwrap()
            .pubsub_publish(now, topic_key("mixed"), vec![round, 0x5E]);
        sim.run_for(Duration::from_secs(2));
    }
    for (k, &(src, _)) in pairs.iter().enumerate() {
        let now = sim.now();
        let (remote, id) = opened[k];
        sim.net_mut()
            .agent_as_mut::<IpopHostAgent>(plab.nodes[src])
            .unwrap()
            .stream_close(now, remote, id);
    }
    sim.run_for(Duration::from_secs(15));

    // Harvest: received bytes and fates at the receivers, fates at the
    // senders, counters everywhere. The receivers' data waited undrained in
    // the overlay since the first round.
    let mut received = Vec::new();
    let mut fates = Vec::new();
    // A terminal event is a fate: true for a clean close.
    let fate = |event: StreamEvent| match event {
        StreamEvent::Established { .. } => None,
        StreamEvent::Closed { .. } | StreamEvent::RemoteClosed { .. } => Some(true),
        StreamEvent::Failed { .. } => Some(false),
    };
    for (&(src, dst), &(_, id)) in pairs.iter().zip(&opened) {
        let from = Address::from_ip(vip_of(src));
        let receiver = sim
            .net_mut()
            .agent_as_mut::<IpopHostAgent>(plab.nodes[dst])
            .unwrap();
        assert_eq!(receiver.take_stream_accepted(), vec![(from, id)]);
        let mut bytes = Vec::new();
        for (remote, stream_id, chunk) in receiver.take_stream_data() {
            assert_eq!((remote, stream_id), (from, id));
            bytes.extend_from_slice(&chunk);
        }
        received.push(bytes);
        fates.extend(receiver.take_stream_events().into_iter().filter_map(fate));
        let sender = sim
            .net_mut()
            .agent_as_mut::<IpopHostAgent>(plab.nodes[src])
            .unwrap();
        fates.extend(sender.take_stream_events().into_iter().filter_map(fate));
    }
    let mut streams = Vec::with_capacity(N);
    let mut pubsub = Vec::with_capacity(N);
    for &h in &plab.nodes {
        let agent = sim
            .net_mut()
            .agent_as_mut::<IpopHostAgent>(h)
            .expect("member alive");
        let s = agent.overlay_stats();
        streams.push((
            s.stream_opened,
            s.stream_accepted,
            s.stream_data_sent,
            s.stream_data_received,
            s.stream_retransmits,
            s.stream_failed,
            s.stream_closed,
            s.stream_orphan_frames,
        ));
        pubsub.push((
            s.pubsub_publishes,
            s.pubsub_delivered,
            s.pubsub_unknown_topic,
        ));
    }
    StreamMeshTrace {
        events: sim.events_executed(),
        delivered: sim.net().counters().delivered,
        streams,
        received,
        fates,
        pubsub,
    }
}

#[test]
fn concurrent_stream_runs_are_byte_identical() {
    let a = run_stream_mesh(0x57E4_77A0);
    let b = run_stream_mesh(0x57E4_77A0);
    // Both streams delivered their exact chunk sequence, in order...
    assert_eq!(a.received.len(), 2);
    for (k, bytes) in a.received.iter().enumerate() {
        let want: Vec<u8> = (0..3u8)
            .flat_map(|round| vec![0xA0 + (k as u8) * 0x10 + round; 4096])
            .collect();
        assert_eq!(bytes, &want, "stream {k} delivered byte-exact in order");
    }
    // ...every endpoint tore down cleanly (two fates per stream)...
    assert_eq!(a.fates.len(), 4, "four terminal fates: {:?}", a.fates);
    assert!(a.fates.iter().all(|&clean| clean), "all closes were clean");
    let failed: u64 = a.streams.iter().map(|s| s.5).sum();
    assert_eq!(failed, 0, "no stream hit its retransmit budget");
    // ...the engine's counters balance: both opens accepted, every data
    // segment sent was received...
    assert_eq!(a.streams.iter().map(|s| s.0).sum::<u64>(), 2);
    assert_eq!(a.streams.iter().map(|s| s.1).sum::<u64>(), 2);
    // ...the interleaved pub/sub flowed too...
    assert_eq!(a.pubsub.iter().map(|c| c.1).sum::<u64>(), 3);
    // ...and the whole mix — handshakes, ACK clocks, FIN teardown, fan-out —
    // replays byte-identically, stream counters included.
    assert_eq!(a, b);
}

#[test]
fn identical_seeds_replay_identically() {
    let a = run_fig4_ping(0x5EED);
    let b = run_fig4_ping(0x5EED);
    assert!(a.rtts_ms.len() >= 8, "pings answered: {}", a.rtts_ms.len());
    assert_eq!(a, b);
}

#[test]
fn different_seeds_change_the_trace() {
    let a = run_fig4_ping(3);
    let b = run_fig4_ping(4);
    // Jitter and maintenance randomness differ, so the traces must diverge
    // (while both still deliver the workload).
    assert!(a.rtts_ms.len() >= 8 && b.rtts_ms.len() >= 8);
    assert_ne!((a.events, &a.rtts_ms), (b.events, &b.rtts_ms));
}
