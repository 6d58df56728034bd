//! Criterion micro-benchmarks for the hot per-packet code paths: SHA-1 address
//! mapping, packet serialization, checksums and overlay routing-table lookups —
//! and for the one per-node path that runs when no packet does, the overlay
//! maintenance tick.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::net::Ipv4Addr;

use ipop_overlay::packets::{
    ConnectionKind, DeliveryMode, LinkMessage, RoutedPacket, RoutedPayload,
};
use ipop_overlay::table::{Connection, ConnectionState, ConnectionTable};
use ipop_overlay::{Address, OverlayConfig, OverlayNode};
use ipop_packet::icmp::IcmpPacket;
use ipop_packet::ipv4::{Ipv4Packet, Ipv4Payload};
use ipop_packet::sha1::Sha1;
use ipop_packet::tcp::TcpSegment;
use ipop_simcore::{SimTime, StreamRng};

fn bench_sha1(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha1");
    for size in [4usize, 64, 1400] {
        let data = vec![0xABu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("digest_{size}B"), |b| {
            b.iter(|| Sha1::digest(&data))
        });
    }
    group.finish();
}

/// The SHA-1 mapping, and the two 160-bit kernels every greedy routing
/// decision is made of (`connection_table/closest_to_*` below is both, after
/// one binary search of the address-sorted edge `Vec`). The pair shares its
/// first five bytes, so
/// `cmp` is decided in the low word.
fn bench_address(c: &mut Criterion) {
    use std::hint::black_box;
    c.bench_function("address/from_ip", |b| {
        b.iter(|| Address::from_ip(black_box(Ipv4Addr::new(172, 16, 0, 2))))
    });
    let x = Address::from_ip(Ipv4Addr::new(172, 16, 0, 2));
    let mut y = Address::from_ip(Ipv4Addr::new(172, 16, 0, 18));
    y.0[..5].copy_from_slice(&x.0[..5]);
    c.bench_function("address/ring_distance", |b| {
        b.iter(|| black_box(&x).ring_distance(black_box(&y)))
    });
    c.bench_function("address/cmp", |b| {
        b.iter(|| black_box(&x).cmp(black_box(&y)))
    });
}

fn bench_packet_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("packet_codec");
    let src = Ipv4Addr::new(172, 16, 0, 2);
    let dst = Ipv4Addr::new(172, 16, 0, 18);
    let icmp = Ipv4Packet::new(
        src,
        dst,
        Ipv4Payload::Icmp(IcmpPacket::echo_request(7, 1, vec![0; 56])),
    );
    let tcp = Ipv4Packet::new(
        src,
        dst,
        Ipv4Payload::Tcp(TcpSegment::data(5001, 5201, 1, 1, vec![0; 1400])),
    );
    group.throughput(Throughput::Bytes(tcp.wire_len() as u64));
    group.bench_function("serialize_icmp", |b| b.iter(|| icmp.to_bytes()));
    group.bench_function("serialize_tcp_1400B", |b| b.iter(|| tcp.to_bytes()));
    let tcp_bytes = tcp.to_bytes();
    group.bench_function("parse_tcp_1400B", |b| {
        b.iter(|| Ipv4Packet::from_bytes(&tcp_bytes).unwrap())
    });
    group.finish();
}

fn bench_encapsulation(c: &mut Criterion) {
    // The full IPOP encapsulation of Fig. 3: virtual IP packet -> bytes -> routed
    // overlay packet -> link message bytes.
    let src = Ipv4Addr::new(172, 16, 0, 2);
    let dst = Ipv4Addr::new(172, 16, 0, 18);
    let vpkt = Ipv4Packet::new(
        src,
        dst,
        Ipv4Payload::Tcp(TcpSegment::data(5001, 5201, 1, 1, vec![0; 1400])),
    );
    c.bench_function("ipop/encapsulate_1400B", |b| {
        b.iter(|| {
            let routed = RoutedPacket::new(
                Address::from_ip(src),
                Address::from_ip(dst),
                DeliveryMode::Exact,
                RoutedPayload::IpTunnel(vpkt.to_bytes().into()),
            );
            LinkMessage::Routed(routed).to_bytes()
        })
    });
}

fn bench_connection_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("connection_table");
    for n in [8usize, 64, 256] {
        let mut table = ConnectionTable::new();
        for i in 0..n {
            let peer = Address::from_key(format!("node-{i}").as_bytes());
            table.upsert(Connection {
                peer,
                endpoint: (Ipv4Addr::new(10, 0, (i / 250) as u8, (i % 250) as u8), 4001),
                kind: ConnectionKind::Near,
                state: ConnectionState::Established,
                last_heard: SimTime::ZERO,
                last_ping_sent: SimTime::ZERO,
            });
        }
        let target = Address::from_ip(Ipv4Addr::new(172, 16, 0, 77));
        group.bench_function(format!("closest_to_{n}_edges"), |b| {
            b.iter_batched(
                || target,
                |t| table.closest_to(&t).map(|c| c.peer),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// The local home of the benchmark ledger's `overlay.node.on_tick_ns`: one
/// maintenance tick of a converged node. Its near set is full (two `Near`
/// edges per side, adjacent to it on the ring), its shortcut budget is spent
/// (four `Far` edges), two `Leaf` edges remain from joining, and the gossip
/// backlog holds 64 candidates — the ten peers plus 54 strangers, none nearer
/// than a ring neighbour, so no tick consumes one. `now` stands still: the
/// peers are neither heard from nor timed out, and what is timed is ring
/// repair's candidate scan, the near-edge reclassification, the idle
/// keep-alive / link-monitor / DHT / pub-sub / stream sweeps and gossip's
/// "any news?" check — with one `Neighbors` message per established peer on
/// every eighth tick, the refresh.
fn bench_overlay_tick(c: &mut Criterion) {
    let now = SimTime::ZERO;
    let at = |top: u8, low: u8| {
        let mut b = [if top == 0x7F { 0xFF } else { 0 }; 20];
        b[0] = top;
        b[19] = low;
        Address(b)
    };
    let me = at(0x80, 0);
    let cfg = OverlayConfig::new(me, (Ipv4Addr::new(10, 0, 0, 1), 4001));
    let mut node = OverlayNode::new(cfg, StreamRng::new(1, "micro"));
    let edges = [
        (at(0x80, 1), ConnectionKind::Near),
        (at(0x80, 2), ConnectionKind::Near),
        (at(0x7F, 0xFF), ConnectionKind::Near),
        (at(0x7F, 0xFE), ConnectionKind::Near),
        (at(0x10, 0), ConnectionKind::Far),
        (at(0x40, 0), ConnectionKind::Far),
        (at(0xB0, 0), ConnectionKind::Far),
        (at(0xE0, 0), ConnectionKind::Far),
        (at(0x20, 0), ConnectionKind::Leaf),
        (at(0xD0, 0), ConnectionKind::Leaf),
    ];
    for (i, (peer, kind)) in edges.into_iter().enumerate() {
        node.seed_connection(now, peer, (Ipv4Addr::new(10, 0, 1, i as u8), 4001), kind);
    }
    for i in 0..54u8 {
        let stranger = Address::from_key(format!("candidate-{i}").as_bytes());
        node.add_candidate(stranger, (Ipv4Addr::new(10, 0, 2, i), 4001));
    }
    c.bench_function("overlay/on_tick_steady_state", |b| {
        b.iter(|| {
            node.on_tick(now);
            node.take_outbox()
        })
    });
    assert_eq!(
        node.connections().len(),
        10,
        "the bench must not erode its own state"
    );
}

criterion_group!(
    benches,
    bench_sha1,
    bench_address,
    bench_packet_codec,
    bench_encapsulation,
    bench_connection_table,
    bench_overlay_tick
);
criterion_main!(benches);
