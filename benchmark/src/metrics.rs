//! The metric names this program may print — the same lists, in the same
//! order, as `BENCHMARK.json` (a unit test holds the two together).

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse. The
    /// time bounds are as wide as they are because of the host's noise; see
    /// `calib` and the README.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer ledger. Kernel timings (`*_ns` with a matching `*_allocs`) come
/// from `kernels`, `*_share` / `*_per_*` ratios from counters or spans,
/// `virt.*` are the simulated results of the workload itself.
pub const PER_LAYER: &[PerLayer] = &[
    // The workload's own virtual results (simulated time; repeat exactly).
    m("virt.op_ms_p50", "ms", "lower"),
    m("virt.op_ms_tail", "ms", "lower"),
    m("virt.op_tail_percentile", "ratio", "higher"),
    m("virt.goodput_kbps", "KB/s", "higher"),
    m("virt.hops_mean", "hops", "lower"),
    m("virt.outage_s", "s", "lower"),
    m("virt.lost_in_repair", "count", "lower"),
    m("virt.all_bound_s", "s", "lower"),
    // simcore
    m("simcore.events_per_op", "1/op", "lower"),
    m("simcore.events_per_wall_s", "1/s", "higher"),
    m("simcore.queue.push_pop_ns", "ns", "lower"),
    m("simcore.queue.push_pop_allocs", "1/op", "lower"),
    m("simcore.queue.cancel_ns", "ns", "lower"),
    m("simcore.queue.cancel_allocs", "1/op", "lower"),
    m("simcore.shard.self_share", "ratio", "lower"),
    m("simcore.shard.par_over_seq", "ratio", "lower"),
    // netsim
    m("netsim.pkts_per_op", "1/op", "lower"),
    m("netsim.drop_share", "ratio", "lower"),
    m("netsim.dispatch_self_share", "ratio", "lower"),
    m("netsim.link.transmit_ns", "ns", "lower"),
    m("netsim.link.transmit_allocs", "1/op", "lower"),
    m("netsim.nat.translate_ns", "ns", "lower"),
    m("netsim.nat.translate_allocs", "1/op", "lower"),
    m("netsim.firewall.permit_ns", "ns", "lower"),
    m("netsim.firewall.permit_allocs", "1/op", "lower"),
    m("netsim.scale.latency_ns", "ns", "lower"),
    m("netsim.scale.latency_allocs", "1/op", "lower"),
    // packet
    m("packet.ipv4_tcp.encode_ns", "ns", "lower"),
    m("packet.ipv4_tcp.encode_allocs", "1/op", "lower"),
    m("packet.ipv4_tcp.decode_ns", "ns", "lower"),
    m("packet.ipv4_tcp.decode_allocs", "1/op", "lower"),
    m("packet.ipv4_icmp.codec_ns", "ns", "lower"),
    m("packet.ipv4_icmp.codec_allocs", "1/op", "lower"),
    m("packet.sha1.addr_ns", "ns", "lower"),
    m("packet.sha1.addr_allocs", "1/op", "lower"),
    // netstack
    m("netstack.tcp.segment_ns", "ns", "lower"),
    m("netstack.tcp.segment_allocs", "1/op", "lower"),
    m("netstack.tcp.retransmit_share", "ratio", "lower"),
    // overlay.packets / overlay.table
    m("overlay.packets.encode_ns", "ns", "lower"),
    m("overlay.packets.encode_allocs", "1/op", "lower"),
    m("overlay.packets.decode_ns", "ns", "lower"),
    m("overlay.packets.decode_allocs", "1/op", "lower"),
    m("overlay.packets.ping_codec_ns", "ns", "lower"),
    m("overlay.packets.ping_codec_allocs", "1/op", "lower"),
    m("overlay.table.closest8_ns", "ns", "lower"),
    m("overlay.table.closest8_allocs", "1/op", "lower"),
    m("overlay.table.closest64_ns", "ns", "lower"),
    m("overlay.table.closest64_allocs", "1/op", "lower"),
    // overlay.node
    m("overlay.node.on_routed_ns", "ns", "lower"),
    m("overlay.node.on_link_ns", "ns", "lower"),
    m("overlay.node.on_tick_ns", "ns", "lower"),
    m("overlay.node.take_outbox_ns", "ns", "lower"),
    m("overlay.node.busy_share", "ratio", "lower"),
    m("overlay.node.idle_tick_share", "ratio", "lower"),
    m("overlay.route.hops_mean", "hops", "lower"),
    m("overlay.route.hops_p99", "hops", "lower"),
    m("overlay.route.stretch", "ratio", "lower"),
    m("overlay.maint.msgs_per_node_s", "1/s", "lower"),
    // overlay.monitor
    m("overlay.monitor.probe_timeout_share", "ratio", "lower"),
    m("overlay.monitor.dead_edges", "count", "lower"),
    // overlay.dht
    m("overlay.dht.create_virt_ms_p50", "ms", "lower"),
    m("overlay.dht.get_virt_ms_p50", "ms", "lower"),
    m("overlay.dht.quorum_timeout_share", "ratio", "lower"),
    m("overlay.dht.replicas_per_record", "ratio", "higher"),
    m("overlay.dht.store_put_ns", "ns", "lower"),
    m("overlay.dht.store_put_allocs", "1/op", "lower"),
    m("overlay.dht.store_get_ns", "ns", "lower"),
    m("overlay.dht.store_get_allocs", "1/op", "lower"),
    m("overlay.dht.sync_compare_ns", "ns", "lower"),
    m("overlay.dht.sync_compare_allocs", "1/op", "lower"),
    // overlay.pubsub
    m("overlay.pubsub.relay_share", "ratio", "lower"),
    m("overlay.pubsub.msgs_per_delivery", "ratio", "lower"),
    m("overlay.pubsub.fanout_ns_per_recipient", "ns", "lower"),
    m(
        "overlay.pubsub.fanout_allocs_per_recipient",
        "1/op",
        "lower",
    ),
    // overlay.vstream
    m("overlay.vstream.segment_ns", "ns", "lower"),
    m("overlay.vstream.segment_allocs", "1/op", "lower"),
    m("overlay.vstream.retransmit_share", "ratio", "lower"),
    m("overlay.vstream.acks_per_segment", "ratio", "lower"),
    // services / core
    m("services.dhcp.collisions_per_alloc", "ratio", "lower"),
    m("core.brunet_arp.resolve_virt_ms_p50", "ms", "lower"),
    m("core.node.on_packet_ns", "ns", "lower"),
    m("core.node.on_timer_ns", "ns", "lower"),
    m("core.node.busy_share", "ratio", "lower"),
    m("core.node.wakeups_per_op", "1/op", "lower"),
    m("core.encapsulate_ns", "ns", "lower"),
    m("core.encapsulate_allocs", "1/op", "lower"),
    // proc / trace
    m("proc.allocs_per_op", "1/op", "lower"),
    m("proc.alloc_bytes_per_op", "B/op", "lower"),
    m("proc.raw_wall_s", "s", "lower"),
    m("proc.speed_factor", "ratio", "higher"),
    m("trace.overhead_share", "ratio", "lower"),
    m("trace.unattributed_share", "ratio", "lower"),
    m("trace.faithful", "bool", "higher"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads;

    /// `BENCHMARK.json` at the repository root is what the driver reads; it
    /// must name exactly the metrics and workloads this program prints.
    #[test]
    fn benchmark_json_names_what_this_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let text = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();

        let listed: Vec<_> = doc.get("end_to_end").unwrap().as_arr().iter().collect();
        assert_eq!(listed.len(), END_TO_END.len());
        for (j, m) in listed.iter().zip(&END_TO_END) {
            assert_eq!(
                (text(j, "name"), text(j, "unit"), text(j, "better")),
                (m.name.into(), m.unit.into(), m.better.into())
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        let listed: Vec<_> = doc.get("per_layer").unwrap().as_arr().iter().collect();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (j, m) in listed.iter().zip(PER_LAYER) {
            assert_eq!(
                (text(j, "name"), text(j, "unit"), text(j, "better")),
                (m.name.into(), m.unit.into(), m.better.into())
            );
        }
        let names: Vec<String> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(names, workloads::NAMES);
        assert_eq!(
            doc.get("paths").unwrap().as_arr(),
            [Json::str("benchmark")].as_slice()
        );
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        assert!(names.iter().all(|n| ok(n, "_.-", 64)), "bad metric name");
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        assert!(units.clone().all(|u| ok(u, "_/%.-", 16)), "bad unit");
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name");
    }
}
