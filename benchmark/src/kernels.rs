//! Replay kernels: each times one public function of one layer on inputs
//! shaped like the workloads' (1400-byte tunnelled TCP, 56-byte echoes,
//! µs–ms and 500 ms event deadlines, 8- and 64-edge tables, …) and reports
//! ns per op and allocations per op. They say what a layer's unit of work
//! costs in isolation; counts from the workloads say how often it is paid.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration as WallDuration, Instant};

use ipop_netsim::{Direction, Firewall, Link, LinkParams, NatBox, NatType, ScaleNet};
use ipop_netstack::{NetStack, StackConfig};
use ipop_overlay::dht::{sync_compare, sync_digest_entry};
use ipop_overlay::packets::{
    ConnectionKind, DeliveryMode, LinkMessage, RoutedPacket, RoutedPayload,
};
use ipop_overlay::pubsub::topic_key;
use ipop_overlay::{
    Address, Connection, ConnectionState, ConnectionTable, DhtRecord, DhtStore, OverlayConfig,
    OverlayNode, SoftStateStore, VStreams,
};
use ipop_packet::icmp::IcmpPacket;
use ipop_packet::ipv4::{Ipv4Packet, Ipv4Payload};
use ipop_packet::tcp::TcpSegment;
use ipop_packet::Bytes;
use ipop_simcore::{Duration, EventQueue, SimTime, StreamRng};

use crate::calib::{Reference, NOMINAL_S};
use crate::proc;
use crate::stats;

/// Wall time spent timing one kernel.
const BUDGET: WallDuration = WallDuration::from_millis(20);

/// Run every kernel; returns `metric name → value` for both the `*_ns` and
/// the `*_allocs` metric of each. Like every time this program reports, the
/// `*_ns` are at reference speed (see `calib`).
pub fn run_all() -> BTreeMap<String, f64> {
    let reference = Reference::new();
    let ref_before = reference.measure();
    let (segment_ns, segment_allocs, acks_per_segment) = vstream_segment();
    let timings = timings((segment_ns, segment_allocs));
    let speed_factor = NOMINAL_S / ((ref_before + reference.measure()) / 2.0);
    let mut out = BTreeMap::new();
    for t in timings {
        out.insert(t.ns_name, t.ns * speed_factor);
        out.insert(t.allocs_name, t.allocs);
    }
    out.insert("overlay.vstream.acks_per_segment".into(), acks_per_segment);
    out
}

/// One kernel's result under the two metric names it reports as.
struct Timing {
    ns_name: String,
    allocs_name: String,
    ns: f64,
    allocs: f64,
}

/// Every kernel's timing; the stream kernel's is passed in because it also
/// counts acks.
fn timings(vstream_segment: (f64, f64)) -> Vec<Timing> {
    let named = |ns_name: String, allocs_name: String, (ns, allocs): (f64, f64)| Timing {
        ns_name,
        allocs_name,
        ns,
        allocs,
    };
    let of =
        |prefix: &str, timing| named(format!("{prefix}_ns"), format!("{prefix}_allocs"), timing);
    vec![
        of("simcore.queue.push_pop", queue_push_pop()),
        of("simcore.queue.cancel", queue_cancel()),
        of("netsim.link.transmit", link_transmit()),
        of("netsim.nat.translate", nat_translate()),
        of("netsim.firewall.permit", firewall_permit()),
        of("netsim.scale.latency", scale_latency()),
        of("packet.ipv4_tcp.encode", ipv4_tcp_encode()),
        of("packet.ipv4_tcp.decode", ipv4_tcp_decode()),
        of("packet.ipv4_icmp.codec", ipv4_icmp_codec()),
        of("packet.sha1.addr", sha1_addr()),
        of("netstack.tcp.segment", tcp_segment()),
        of("overlay.packets.encode", link_encode()),
        of("overlay.packets.decode", link_decode()),
        of("overlay.packets.ping_codec", link_ping_codec()),
        of("overlay.table.closest8", table_closest(8)),
        of("overlay.table.closest64", table_closest(64)),
        of("overlay.dht.store_put", dht_store_put()),
        of("overlay.dht.store_get", dht_store_get()),
        of("overlay.dht.sync_compare", dht_sync_compare()),
        of("overlay.vstream.segment", vstream_segment),
        of("core.encapsulate", encapsulate()),
        named(
            "overlay.pubsub.fanout_ns_per_recipient".into(),
            "overlay.pubsub.fanout_allocs_per_recipient".into(),
            pubsub_fanout(),
        ),
    ]
}

/// Time `batch`, which performs the returned number of ops per call:
/// median ns/op over as many calls as fit the budget (at least three), and
/// allocations per op from one further counted call.
fn time(mut batch: impl FnMut() -> u64) -> (f64, f64) {
    batch(); // warm caches and lazily grown buffers
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed() < BUDGET {
        let t = Instant::now();
        let ops = batch();
        samples.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    let (a0, _) = proc::alloc_counters();
    proc::count_allocs(true);
    let ops = batch();
    proc::count_allocs(false);
    let (a1, _) = proc::alloc_counters();
    (stats::median(&samples), (a1 - a0) as f64 / ops as f64)
}

const SRC: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 2);
const DST: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 18);

fn tcp_packet() -> Ipv4Packet {
    Ipv4Packet::new(
        SRC,
        DST,
        Ipv4Payload::Tcp(TcpSegment::data(5001, 5201, 1, 1, vec![0x54; 1360])),
    )
}

fn echo_packet() -> Ipv4Packet {
    Ipv4Packet::new(
        SRC,
        DST,
        Ipv4Payload::Icmp(IcmpPacket::echo_request(7, 1, vec![0x5A; 56])),
    )
}

// ------------------------------------------------------------------ simcore

/// Deadline mix of the full-stack workloads: mostly link and CPU delays of
/// µs to ms, one in eight a 500 ms maintenance tick.
fn deadline(rng: &mut StreamRng, i: u64) -> Duration {
    if i.is_multiple_of(8) {
        Duration::from_millis(500)
    } else {
        Duration::from_micros(rng.range_u64(10, 20_000))
    }
}

fn queue_push_pop() -> (f64, f64) {
    const PENDING: u64 = 4096;
    let mut rng = StreamRng::new(1, "kernel.queue");
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..PENDING {
        q.push(SimTime::ZERO + deadline(&mut rng, i), i);
    }
    time(|| {
        for i in 0..PENDING {
            let ev = q.pop().expect("queue stays full");
            q.push(ev.at + deadline(&mut rng, i), black_box(ev.payload));
        }
        PENDING
    })
}

/// Arm a retransmit-style timer and cancel it before it fires, with the
/// queue holding a steady backlog.
fn queue_cancel() -> (f64, f64) {
    const N: u64 = 4096;
    let mut rng = StreamRng::new(2, "kernel.cancel");
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut now = SimTime::ZERO;
    for i in 0..N {
        q.push(now + deadline(&mut rng, i), i);
    }
    time(|| {
        for i in 0..N {
            let id = q.push(now + Duration::from_millis(200), i);
            black_box(q.cancel(id));
        }
        // Let the cancelled entries' slots be reclaimed as time moves on.
        let ev = q.pop().expect("backlog");
        now = ev.at;
        q.push(now + Duration::from_millis(500), ev.payload);
        N
    })
}

// ------------------------------------------------------------------- netsim

fn link_transmit() -> (f64, f64) {
    const N: u64 = 4096;
    let mut link = Link::new(LinkParams::wan(Duration::from_millis(12), 10.0));
    let mut rng = StreamRng::new(3, "kernel.link");
    let mut now = SimTime::ZERO;
    time(|| {
        for _ in 0..N {
            // Offered at 80 % of line rate, so a short queue forms and drains.
            now += link.params.serialization(1478).mul_f64(1.25);
            black_box(link.transmit(now, now, 1478, &mut rng));
        }
        N
    })
}

fn nat_translate() -> (f64, f64) {
    const N: u64 = 4096;
    let mut nat = NatBox::new(NatType::PortRestrictedCone, Ipv4Addr::new(128, 227, 56, 1));
    let peers: Vec<_> = (0..16u8)
        .map(|i| (Ipv4Addr::new(139, 70, 24, 10 + i), 4001))
        .collect();
    let inside = (Ipv4Addr::new(192, 168, 0, 2), 4001);
    for &p in &peers {
        nat.outbound(inside, p);
    }
    time(|| {
        for i in 0..N {
            let peer = peers[i as usize % peers.len()];
            let ext = nat.outbound(inside, peer);
            black_box(nat.inbound(ext.1, peer));
        }
        N
    })
}

fn firewall_permit() -> (f64, f64) {
    const N: u64 = 4096;
    let mut fw = Firewall::default_deny_inbound();
    let out_pkt = tcp_packet();
    let back = Ipv4Packet::new(
        DST,
        SRC,
        Ipv4Payload::Tcp(TcpSegment::ack(5201, 5001, 1, 1, 65_535)),
    );
    time(|| {
        for _ in 0..N {
            black_box(fw.permit(Direction::Outbound, &out_pkt));
            black_box(fw.permit(Direction::Inbound, &back));
        }
        N
    })
}

fn scale_latency() -> (f64, f64) {
    const N: u64 = 4096;
    let net = ScaleNet::new(
        3_000,
        8,
        4,
        Duration::from_millis(1),
        Duration::from_millis(9),
    );
    let mut rng = StreamRng::new(4, "kernel.scale");
    let pairs: Vec<(u32, u32)> = (0..N)
        .map(|_| (rng.index(3_000) as u32, rng.index(3_000) as u32))
        .collect();
    time(|| {
        for &(a, b) in &pairs {
            let dst = net.node_of(&net.endpoint(b)).expect("interned endpoint");
            black_box(net.latency(a, dst));
        }
        N
    })
}

// ------------------------------------------------------------------- packet

fn ipv4_tcp_encode() -> (f64, f64) {
    let pkt = tcp_packet();
    time(|| {
        for _ in 0..512 {
            black_box(black_box(&pkt).to_bytes());
        }
        512
    })
}

fn ipv4_tcp_decode() -> (f64, f64) {
    let bytes = tcp_packet().to_bytes();
    time(|| {
        for _ in 0..512 {
            black_box(Ipv4Packet::from_bytes(black_box(&bytes)).expect("valid packet"));
        }
        512
    })
}

fn ipv4_icmp_codec() -> (f64, f64) {
    let pkt = echo_packet();
    time(|| {
        for _ in 0..1024 {
            let bytes = black_box(&pkt).to_bytes();
            black_box(Ipv4Packet::from_bytes(&bytes).expect("valid packet"));
        }
        1024
    })
}

fn sha1_addr() -> (f64, f64) {
    time(|| {
        for i in 0..1024u32 {
            black_box(Address::from_ip(Ipv4Addr::from(0xAC10_0000 | black_box(i))));
        }
        1024
    })
}

// ----------------------------------------------------------------- netstack

/// Two stacks back to back, 1 MiB through one TCP connection, 200 µs apart:
/// ns per data segment for send, segment, receive, ack and reassembly.
fn tcp_segment() -> (f64, f64) {
    const TOTAL: usize = 1 << 20;
    let a_addr = Ipv4Addr::new(10, 0, 0, 1);
    let b_addr = Ipv4Addr::new(10, 0, 0, 2);
    let chunk = vec![0x54u8; 8192];
    time(|| {
        let mut a = NetStack::new(StackConfig::new(a_addr).with_mtu(1400));
        let mut b = NetStack::new(StackConfig::new(b_addr).with_mtu(1400));
        let listener = b.tcp_listen(5201).expect("listen");
        let client = a.tcp_connect(b_addr, 5201, SimTime::ZERO).expect("connect");
        let mut server = None;
        let mut now = SimTime::ZERO;
        let (mut sent, mut received) = (0usize, 0usize);
        while received < TOTAL {
            if sent < TOTAL && a.tcp_is_established(client) {
                let want = chunk.len().min(TOTAL - sent);
                sent += a.tcp_send(client, &chunk[..want]).unwrap_or(0);
            }
            a.poll(now);
            b.poll(now);
            now += Duration::from_micros(200);
            for p in a.take_packets() {
                b.handle_packet(now, p);
            }
            for p in b.take_packets() {
                a.handle_packet(now, p);
            }
            if server.is_none() {
                server = b.tcp_accept(listener).expect("listener");
            }
            if let Some(s) = server {
                received += b.tcp_recv(s, usize::MAX).map_or(0, |d| d.len());
            }
            assert!(
                now < SimTime::ZERO + Duration::from_secs(600),
                "transfer stalled"
            );
        }
        (TOTAL as u64).div_ceil(1360)
    })
}

// ---------------------------------------------------------- overlay.packets

fn tunnel_message() -> LinkMessage {
    LinkMessage::Routed(RoutedPacket::new(
        Address::from_ip(SRC),
        Address::from_ip(DST),
        DeliveryMode::Exact,
        RoutedPayload::IpTunnel(tcp_packet().to_bytes().into()),
    ))
}

fn link_encode() -> (f64, f64) {
    let msg = tunnel_message();
    time(|| {
        for _ in 0..512 {
            black_box(black_box(&msg).to_wire());
        }
        512
    })
}

fn link_decode() -> (f64, f64) {
    let wire = tunnel_message().to_wire();
    time(|| {
        for _ in 0..512 {
            black_box(LinkMessage::from_wire(black_box(&wire)).expect("valid message"));
        }
        512
    })
}

fn link_ping_codec() -> (f64, f64) {
    let msg = LinkMessage::Ping {
        from: Address::from_ip(SRC),
        nonce: 0x1234_5678_9abc_def0,
    };
    time(|| {
        for _ in 0..1024 {
            let wire = black_box(&msg).to_wire();
            black_box(LinkMessage::from_wire(&wire).expect("valid message"));
        }
        1024
    })
}

// ------------------------------------------------------------ overlay.table

fn table_closest(edges: usize) -> (f64, f64) {
    let mut table = ConnectionTable::new();
    for i in 0..edges {
        table.upsert(Connection {
            peer: Address::from_key(format!("node-{i}").as_bytes()),
            endpoint: (Ipv4Addr::new(10, 0, (i / 250) as u8, (i % 250) as u8), 4001),
            kind: ConnectionKind::Near,
            state: ConnectionState::Established,
            last_heard: SimTime::ZERO,
            last_ping_sent: SimTime::ZERO,
        });
    }
    let targets: Vec<Address> = (0..256u32)
        .map(|i| Address::from_ip(Ipv4Addr::from(0xAC10_0000 | i)))
        .collect();
    time(|| {
        for t in &targets {
            black_box(table.closest_to(black_box(t)).map(|c| c.peer));
        }
        targets.len() as u64
    })
}

// -------------------------------------------------------------- overlay.dht

/// Lease-sized records (a 20-byte overlay address), as `selfconfig` stores.
fn lease_record(i: u64, now: SimTime) -> DhtRecord {
    DhtRecord {
        value: Bytes::from(Address::from_key(&i.to_le_bytes()).0.to_vec()),
        expires_at: now + Duration::from_secs(120),
        version: i,
        replica: !i.is_multiple_of(3),
        replicated_to: Vec::new(),
    }
}

fn lease_keys() -> Vec<Address> {
    (0..1024u32)
        .map(|i| Address::from_ip(Ipv4Addr::from(0xAC10_0900 | (i & 0xFF) | (i >> 8) << 16)))
        .collect()
}

fn dht_store_put() -> (f64, f64) {
    let keys = lease_keys();
    let mut store = SoftStateStore::new();
    time(|| {
        for (i, k) in keys.iter().enumerate() {
            store.insert(*k, lease_record(i as u64, SimTime::ZERO));
        }
        keys.len() as u64
    })
}

fn dht_store_get() -> (f64, f64) {
    let keys = lease_keys();
    let mut store = SoftStateStore::new();
    for (i, k) in keys.iter().enumerate() {
        store.insert(*k, lease_record(i as u64, SimTime::ZERO));
    }
    time(|| {
        for k in &keys {
            black_box(store.get(black_box(k)).map(|r| r.version));
        }
        keys.len() as u64
    })
}

fn dht_sync_compare() -> (f64, f64) {
    let keys = lease_keys();
    let now = SimTime::ZERO + Duration::from_secs(10);
    let mut store = SoftStateStore::new();
    for (i, k) in keys.iter().enumerate() {
        store.insert(*k, lease_record(i as u64, SimTime::ZERO));
    }
    // The digest a replica would send: mostly in sync, every eighth stale.
    let digest: Vec<_> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let mut rec = lease_record(i as u64, SimTime::ZERO);
            if i.is_multiple_of(8) {
                rec.version += 1;
            }
            sync_digest_entry(*k, &rec, now)
        })
        .collect();
    time(|| {
        for e in &digest {
            black_box(sync_compare(e, store.get(&e.key), now));
        }
        digest.len() as u64
    })
}

// ----------------------------------------------------------- overlay.pubsub

/// One topic root with eight edges and 1000 subscribers in its record: a
/// publish goes through `pubsub_publish` → local root handling → bounded
/// fan-out with delegated relay lists → `take_outbox`.
fn pubsub_fanout() -> (f64, f64) {
    const SUBSCRIBERS: u64 = 1000;
    let topic = topic_key("bench");
    let me = ([10, 9, 0, 1].into(), 4001);
    let mut node = OverlayNode::new(
        OverlayConfig::new(topic, me)
            .without_link_monitor()
            .without_anti_entropy(),
        StreamRng::new(5, "kernel.pubsub"),
    );
    let now = SimTime::ZERO;
    let mut rng = StreamRng::new(5, "kernel.pubsub.peers");
    let mut peer_ep = me;
    for i in 0..8u8 {
        peer_ep = ([10, 9, 1, i].into(), 4001);
        node.seed_connection(now, Address::random(&mut rng), peer_ep, ConnectionKind::Far);
    }
    for _ in 0..SUBSCRIBERS {
        let subscriber = Address::random(&mut rng);
        let pkt = RoutedPacket::new(
            subscriber,
            topic,
            DeliveryMode::Closest,
            RoutedPayload::PubSubSubscribe {
                topic,
                subscriber,
                ttl_ms: 3_600_000,
            },
        );
        node.on_message(now, peer_ep, LinkMessage::Routed(pkt));
    }
    node.take_outbox();
    assert_eq!(
        node.stats().pubsub_subscriptions,
        SUBSCRIBERS,
        "the root merged every subscribe"
    );
    let body = Bytes::from(vec![0xB0u8; 64]);
    time(|| {
        for _ in 0..8 {
            node.pubsub_publish(now, topic, body.clone());
            black_box(node.take_outbox());
        }
        8 * SUBSCRIBERS
    })
}

// ---------------------------------------------------------- overlay.vstream

/// Two stream engines back to back: 1 MiB through `send` → `take_outgoing`
/// → `on_payload` → ack. Returns `(ns, allocs, acks)` per data segment.
fn vstream_segment() -> (f64, f64, f64) {
    const TOTAL: usize = 1 << 20;
    let (a_addr, b_addr) = (Address::from_ip(SRC), Address::from_ip(DST));
    let body = Bytes::from(vec![0x54u8; TOTAL]);
    let (mut segments, mut acks) = (0u64, 0u64);
    let (ns, allocs) = time(|| {
        let mut a = VStreams::new();
        let mut b = VStreams::new();
        let now = SimTime::ZERO;
        a.connect(now, b_addr, 1);
        assert!(a.send(now, b_addr, 1, body.clone()));
        let mut received = 0;
        (segments, acks) = (0, 0);
        while received < TOTAL {
            let from_a = a.take_outgoing();
            assert!(!from_a.is_empty(), "stream stalled");
            for (_, p) in from_a {
                segments += u64::from(matches!(p, RoutedPayload::StreamData { .. }));
                b.on_payload(now, a_addr, &p);
            }
            for (_, p) in b.take_outgoing() {
                acks += u64::from(matches!(p, RoutedPayload::StreamAck { .. }));
                a.on_payload(now, b_addr, &p);
            }
            received += b.take_recv().iter().map(|(_, _, c)| c.len()).sum::<usize>();
        }
        segments
    });
    (ns, allocs, acks as f64 / segments as f64)
}

// --------------------------------------------------------------------- core

/// The Fig. 3 path at 1400 bytes: virtual IP packet → bytes → routed overlay
/// packet → link message on the wire.
fn encapsulate() -> (f64, f64) {
    let vpkt = tcp_packet();
    time(|| {
        for _ in 0..512 {
            let routed = RoutedPacket::new(
                Address::from_ip(SRC),
                Address::from_ip(DST),
                DeliveryMode::Exact,
                RoutedPayload::IpTunnel(black_box(&vpkt).to_bytes().into()),
            );
            black_box(LinkMessage::Routed(routed).to_wire());
        }
        512
    })
}
