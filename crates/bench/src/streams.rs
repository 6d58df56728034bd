//! Virtual-stream workloads: ttcp-shaped bulk transfer and 1k-stream fairness.
//!
//! Two experiments over `ipop_overlay::vstream`, reported together in
//! `BENCH_streams.json`:
//!
//! * **ttcp-over-stream** — one bulk transfer between two overlay nodes over
//!   a WAN-shaped link (25 ms each way, the paper's Table III setting). The
//!   reference point is the raw-tunnel `wan_ttcp` goodput the paper measures
//!   for IPOP-TCP (673 KB/s): the stream layer adds handshake, ACK clocking
//!   and window flow control on top of the same routed fabric, and the gate
//!   is staying within 2× of that reference in either direction.
//! * **stream fairness** — 1 000 concurrent streams between uniformly spaced
//!   node pairs, all opened within a few milliseconds: a workload on the
//!   [`crate::scale`] ring driver (this module holds only the open-send-close
//!   operation and the harvest). Every stream must complete, and per-stream goodput
//!   must stay flat (max/min ≤ 3): with a uniform substrate (zero link
//!   jitter) the only spread left is path length, so a skewed ratio means
//!   the engine itself starves streams. The run is bit-deterministic
//!   ([`FairnessReport::trace_hash`]), like every sharded workload.

use std::collections::BTreeMap;
use std::sync::Arc;

use ipop_overlay::address::Address;
use ipop_overlay::node::{OverlayConfig, OverlayNode};
use ipop_overlay::packets::{Endpoint, LinkMessage};
use ipop_overlay::vstream::StreamEvent;
use ipop_packet::Bytes;
use ipop_simcore::{stats, Duration, EventQueue, SimTime, StreamRng};

use crate::json::Json;
use crate::scale::{build_warm_ring, run_ring, workload_start, RingWorkload, ScaleConfig};
use crate::{ensure, mode, Outcome};

/// The paper's Table III IPOP-TCP WAN goodput (KB/s) — the raw-tunnel
/// `wan_ttcp` reference the stream transfer is gated against.
pub const REFERENCE_WAN_KBPS: f64 = 673.0;

// ---------------------------------------------------------------- ttcp shape

/// Parameters of the two-node bulk transfer.
#[derive(Clone, Debug)]
pub struct TtcpStreamConfig {
    /// Bytes pushed through the stream.
    pub transfer_bytes: usize,
}

/// One-way link latency (25 ms ≈ the paper's WAN RTT of 50 ms).
const ONE_WAY: Duration = Duration::from_millis(25);

impl TtcpStreamConfig {
    /// Full run: 4 MiB, like a ttcp bulk test.
    pub fn full() -> Self {
        TtcpStreamConfig {
            transfer_bytes: 4 * 1024 * 1024,
        }
    }

    /// CI-sized: 256 KiB over the same link.
    pub fn quick() -> Self {
        TtcpStreamConfig {
            transfer_bytes: 256 * 1024,
        }
    }
}

/// Outcome of the two-node transfer.
#[derive(Clone, Debug)]
pub struct TtcpStreamReport {
    pub transfer_bytes: usize,
    /// Virtual seconds from stream open to the receiver's `RemoteClosed`.
    pub elapsed_s: f64,
    /// Transfer goodput in KB/s (KB = 1000 bytes, matching the paper's
    /// tables).
    pub kbps: f64,
    /// DATA segments sent / retransmitted by the sender.
    pub data_sent: u64,
    pub retransmits: u64,
    /// Bytes delivered in order at the receiver (must equal the transfer).
    pub bytes_received: u64,
}

impl TtcpStreamReport {
    /// Goodput over the paper's raw-tunnel WAN reference.
    pub fn vs_reference(&self) -> f64 {
        self.kbps / REFERENCE_WAN_KBPS
    }
}

/// Run the ttcp-shaped transfer: two overlay nodes joined by one WAN link,
/// one stream, `transfer_bytes` pushed end to end. Messages cross the link
/// in FIFO order with the configured one-way latency; both nodes run their
/// 500 ms maintenance tick (which drives the stream RTO sweep).
pub fn run_ttcp_stream(cfg: &TtcpStreamConfig) -> TtcpStreamReport {
    let eps: [Endpoint; 2] = [([10, 9, 0, 1].into(), 4001), ([10, 9, 0, 2].into(), 4001)];
    let mut rng = StreamRng::new(0x77C9, "ttcp-stream");
    let mut nodes: Vec<OverlayNode> = (0..2)
        .map(|i| {
            let mut cfg = OverlayConfig::new(Address::random(&mut rng), eps[i]);
            cfg.bootstrap = if i == 0 { vec![] } else { vec![eps[0]] };
            OverlayNode::new(cfg, StreamRng::new(0x77C9, &format!("ttcp-node-{i}")))
        })
        .collect();

    // The WAN link: a latency-ordered in-flight queue, FIFO per instant.
    let mut queue: EventQueue<(usize, LinkMessage)> = EventQueue::new();
    let mut now = SimTime::ZERO;
    let flush = |nodes: &mut Vec<OverlayNode>,
                 queue: &mut EventQueue<(usize, LinkMessage)>,
                 now: SimTime| {
        for (i, node) in nodes.iter_mut().enumerate() {
            for (_ep, msg) in node.take_outbox() {
                queue.push(now + ONE_WAY, (1 - i, msg));
            }
        }
    };

    for n in nodes.iter_mut() {
        n.start(now);
    }
    flush(&mut nodes, &mut queue, now);

    let tick_interval = Duration::from_millis(500);
    let mut next_tick = now + tick_interval;
    let step = |nodes: &mut Vec<OverlayNode>,
                queue: &mut EventQueue<(usize, LinkMessage)>,
                now: &mut SimTime,
                next_tick: &mut SimTime| {
        match queue.next_time() {
            Some(at) if at <= *next_tick => {
                let ev = queue.pop().expect("next_time saw a message");
                *now = ev.at;
                let (dst, msg) = ev.payload;
                nodes[dst].on_message(*now, eps[1 - dst], msg);
            }
            _ => {
                *now = *next_tick;
                *next_tick = *now + tick_interval;
                for n in nodes.iter_mut() {
                    n.on_tick(*now);
                }
            }
        }
        flush(nodes, queue, *now);
    };

    // Let the two nodes link up.
    for _ in 0..64 {
        step(&mut nodes, &mut queue, &mut now, &mut next_tick);
        if nodes[0].is_connected() && nodes[1].is_connected() && queue.is_empty() {
            break;
        }
    }
    assert!(nodes[1].is_connected(), "bootstrap failed");

    // Open, push the whole payload, close — the receiver's RemoteClosed
    // marks every byte delivered.
    let mut payload = vec![0u8; cfg.transfer_bytes];
    StreamRng::new(0x77C9, "ttcp-body").fill_bytes(&mut payload);
    let dst_addr = nodes[0].address();
    let opened_at = now;
    let sid = nodes[1].stream_connect(now, dst_addr);
    assert!(nodes[1].stream_send(now, dst_addr, sid, payload));
    nodes[1].stream_close(now, dst_addr, sid);
    flush(&mut nodes, &mut queue, now);

    let mut bytes_received = 0u64;
    let mut done_at = None;
    let limit = now + Duration::from_secs(600);
    while done_at.is_none() && now < limit {
        step(&mut nodes, &mut queue, &mut now, &mut next_tick);
        for (_, _, chunk) in nodes[0].take_stream_data() {
            bytes_received += chunk.len() as u64;
        }
        for ev in nodes[0].take_stream_events() {
            if matches!(ev, StreamEvent::RemoteClosed { stream_id, .. } if stream_id == sid) {
                done_at = Some(now);
            }
        }
    }
    let done_at = done_at.expect("transfer did not complete");
    let elapsed_s = done_at.saturating_since(opened_at).as_secs_f64();
    let sender = nodes[1].stats();
    TtcpStreamReport {
        transfer_bytes: cfg.transfer_bytes,
        elapsed_s,
        kbps: cfg.transfer_bytes as f64 / 1000.0 / elapsed_s,
        data_sent: sender.stream_data_sent,
        retransmits: sender.stream_retransmits,
        bytes_received,
    }
}

// ------------------------------------------------------------- 1k fairness

/// Parameters of the many-streams fairness run.
#[derive(Clone, Debug)]
pub struct FairnessConfig {
    /// Ring substrate. Zero `link_jitter` so every link costs exactly the
    /// base slice — fairness then measures the engine, not the dice.
    pub scale: ScaleConfig,
    /// Concurrent streams; stream `i` runs node `i % nodes` → `+STRIDE`.
    pub streams: u32,
    /// Bytes per stream (≤ the receive window, so one window covers it).
    pub transfer_bytes: usize,
}

/// Ring distance between each pair. Kept within the warm ring's near set
/// (`ipop_overlay::NEAR_PER_SIDE`), so every pair has a direct edge and even a trimmed edge
/// falls back to the ±1 ring invariant: paths are 1–2 hops by construction,
/// and the fairness ratio measures the engine rather than topology luck.
const STRIDE: u32 = 2;
/// Gap between consecutive opens (near-simultaneous).
const OPEN_SPACING: Duration = Duration::from_micros(10);

impl FairnessConfig {
    /// Full run: 1k streams on a 2 048-node ring, 64 KiB each.
    pub fn full() -> Self {
        FairnessConfig {
            scale: ScaleConfig {
                maintenance_ticks: 4,
                probes: 0,
                link_jitter: Duration::ZERO,
                ..ScaleConfig::ring(2_048)
            },
            streams: 1_000,
            transfer_bytes: 64 * 1024,
        }
    }

    /// CI-sized: the same 1k streams on a 1 024-node ring, 8 KiB each.
    pub fn quick() -> Self {
        FairnessConfig {
            scale: ScaleConfig {
                shards: 4,
                maintenance_ticks: 4,
                probes: 0,
                link_jitter: Duration::ZERO,
                ..ScaleConfig::ring(1_024)
            },
            transfer_bytes: 8 * 1024,
            ..Self::full()
        }
    }
}

/// Outcome of the fairness run.
#[derive(Clone, Debug)]
pub struct FairnessReport {
    pub nodes: u32,
    pub shards: u32,
    pub streams: u32,
    /// Streams whose receiver saw `RemoteClosed` (all bytes delivered).
    pub completed: u32,
    /// Per-stream goodput in KB/s, one entry per completed stream.
    pub goodput_kbps: Vec<f64>,
    /// Bytes delivered in order across all streams.
    pub bytes_received: u64,
    /// DATA segments retransmitted anywhere (0 on the lossless substrate).
    pub retransmits: u64,
    /// Streams that failed (retransmit budget) — must be 0.
    pub failed: u64,
    /// Simulator events executed.
    pub events: u64,
    /// Virtual seconds simulated.
    pub virtual_s: f64,
    /// FNV digest of the full execution history (determinism witness).
    pub trace_hash: u64,
    /// Whether the event queues drained before the time limit.
    pub drained: bool,
}

impl FairnessReport {
    pub fn completion_rate(&self) -> f64 {
        if self.streams == 0 {
            return f64::NAN;
        }
        self.completed as f64 / self.streams as f64
    }

    pub fn min_kbps(&self) -> f64 {
        self.goodput_kbps
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
    }

    pub fn mean_kbps(&self) -> f64 {
        stats::mean(&self.goodput_kbps)
    }

    pub fn max_kbps(&self) -> f64 {
        stats::fmax(&self.goodput_kbps)
    }

    /// Max/min per-stream goodput — the fairness gate (≤ 3).
    pub fn fairness_ratio(&self) -> f64 {
        let min = self.min_kbps();
        if min <= 0.0 || min.is_nan() {
            return f64::NAN;
        }
        self.max_kbps() / min
    }
}

/// The fairness scenario's workload: open a stream to a destination node,
/// push the payload and close; completions harvested at the receivers.
struct Fairness {
    /// The transferred body, shared across every stream.
    payload: Bytes,
    /// Global node id → overlay address (for open targets).
    addrs: Arc<Vec<Address>>,
    /// `(sender address, stream id, open instant)` of opens in this shard.
    opens: Vec<(Address, u64, SimTime)>,
    /// `(sender address, stream id, completion instant)` of streams fully
    /// delivered (RemoteClosed) at receivers in this shard.
    completions: Vec<(Address, u64, SimTime)>,
    /// In-order bytes delivered in this shard.
    bytes_received: u64,
}

impl RingWorkload for Fairness {
    /// Destination node id.
    type Op = u32;

    fn inject(&mut self, now: SimTime, node: &mut OverlayNode, dst: u32) {
        let remote = self.addrs[dst as usize];
        let sid = node.stream_connect(now, remote);
        assert!(node.stream_send(now, remote, sid, self.payload.clone()));
        node.stream_close(now, remote, sid);
        self.opens.push((node.address(), sid, now));
    }

    fn harvest(&mut self, now: SimTime, node: &mut OverlayNode) {
        for (_, _, chunk) in node.take_stream_data() {
            self.bytes_received += chunk.len() as u64;
        }
        for ev in node.take_stream_events() {
            if let StreamEvent::RemoteClosed { remote, stream_id } = ev {
                self.completions.push((remote, stream_id, now));
            }
        }
        node.take_stream_accepted(); // acceptance is implicit in this workload
    }
}

/// Run the many-streams fairness experiment.
pub fn run_fairness(cfg: &FairnessConfig) -> FairnessReport {
    let scfg = &cfg.scale;
    assert!(
        cfg.transfer_bytes <= ipop_overlay::vstream::DEFAULT_WINDOW as usize,
        "one receive window must cover the transfer"
    );
    let ring = build_warm_ring(scfg);
    let addrs = Arc::clone(&ring.addrs);
    let mut payload = vec![0u8; cfg.transfer_bytes];
    StreamRng::new(scfg.seed, "stream-body").fill_bytes(&mut payload);
    let payload = Bytes::from(payload);

    // Open every stream near-simultaneously after maintenance settles (the
    // maintenance ticks drive the RTO sweeps).
    let open_start = workload_start(scfg);
    let opens = (0..cfg.streams).map(|i| {
        let src = i % scfg.nodes;
        // Streams beyond one lap shift their target so repeat sources still
        // spread over distinct pairs.
        let dst = (src + STRIDE + i / scfg.nodes) % scfg.nodes;
        (open_start + OPEN_SPACING * i as u64, src, dst)
    });
    let run = run_ring(
        scfg,
        ring,
        || Fairness {
            payload: payload.clone(),
            addrs: Arc::clone(&addrs),
            opens: Vec::new(),
            completions: Vec::new(),
            bytes_received: 0,
        },
        opens,
        open_start + OPEN_SPACING * cfg.streams as u64,
    );

    // Fold: match completions (at receivers) back to opens (at senders) by
    // (sender address, stream id).
    let mut opened_at: BTreeMap<(Address, u64), SimTime> = BTreeMap::new();
    for shard in run.shards() {
        for &(src, sid, at) in &shard.workload.opens {
            opened_at.insert((src, sid), at);
        }
    }
    let mut goodput_kbps = Vec::new();
    let mut completed = 0u32;
    let mut bytes_received = 0u64;
    let mut retransmits = 0u64;
    let mut failed = 0u64;
    for shard in run.shards() {
        for &(src, sid, at) in &shard.workload.completions {
            if let Some(&open) = opened_at.get(&(src, sid)) {
                completed += 1;
                let secs = at.saturating_since(open).as_secs_f64();
                if secs > 0.0 {
                    goodput_kbps.push(cfg.transfer_bytes as f64 / 1000.0 / secs);
                }
            }
        }
        bytes_received += shard.workload.bytes_received;
        for node in &shard.nodes {
            let s = node.stats();
            retransmits += s.stream_retransmits;
            failed += s.stream_failed;
        }
    }

    FairnessReport {
        nodes: scfg.nodes,
        shards: run.shard_count,
        streams: cfg.streams,
        completed,
        goodput_kbps,
        bytes_received,
        retransmits,
        failed,
        events: run.events,
        virtual_s: run.virtual_s,
        trace_hash: run.trace_hash,
        drained: run.drained,
    }
}

/// The `streams` scenario (`BENCH_streams.json`): the ttcp-shaped transfer,
/// then the fairness run, whose `events` / `virtual_s` / `trace_hash` the
/// artefact reports. Gate: every byte and every stream arrives, ttcp goodput
/// within 2× of [`REFERENCE_WAN_KBPS`] either way, max/min goodput ≤ 3.
pub fn scenario(quick: bool) -> Outcome {
    let (tcfg, fcfg) = if quick {
        (TtcpStreamConfig::quick(), FairnessConfig::quick())
    } else {
        (TtcpStreamConfig::full(), FairnessConfig::full())
    };
    eprintln!(
        "streams ({} mode): ttcp {} KiB over {} ms one-way, then {} streams x {} KiB on {} nodes / {} shards",
        mode(quick),
        tcfg.transfer_bytes / 1024,
        ONE_WAY.as_nanos() / 1_000_000,
        fcfg.streams,
        fcfg.transfer_bytes / 1024,
        fcfg.scale.nodes,
        fcfg.scale.shards
    );
    let t = run_ttcp_stream(&tcfg);
    let f = run_fairness(&fcfg);
    let json = Json::obj([
        ("bench", "streams".into()),
        ("mode", mode(quick).into()),
        (
            "ttcp",
            Json::obj([
                ("transfer_bytes", t.transfer_bytes.into()),
                ("elapsed_s", Json::Fixed(t.elapsed_s, 3)),
                ("kbps", Json::Fixed(t.kbps, 1)),
                ("reference_kbps", Json::Fixed(REFERENCE_WAN_KBPS, 0)),
                ("vs_reference", Json::Fixed(t.vs_reference(), 3)),
                ("data_sent", t.data_sent.into()),
                ("retransmits", t.retransmits.into()),
            ]),
        ),
        (
            "fairness",
            Json::obj([
                ("nodes", f.nodes.into()),
                ("shards", f.shards.into()),
                ("streams", f.streams.into()),
                ("completed", f.completed.into()),
                ("completion_rate", Json::Fixed(f.completion_rate(), 6)),
                ("transfer_bytes", fcfg.transfer_bytes.into()),
                (
                    "goodput_kbps",
                    Json::obj([
                        ("min", Json::Fixed(f.min_kbps(), 1)),
                        ("mean", Json::Fixed(f.mean_kbps(), 1)),
                        ("max", Json::Fixed(f.max_kbps(), 1)),
                        ("ratio", Json::Fixed(f.fairness_ratio(), 3)),
                    ]),
                ),
                ("bytes_received", f.bytes_received.into()),
                ("retransmits", f.retransmits.into()),
                ("failed", f.failed.into()),
            ]),
        ),
        ("events", f.events.into()),
        ("virtual_s", Json::Fixed(f.virtual_s, 1)),
        (
            "determinism",
            Json::obj([
                ("drained", f.drained.into()),
                ("trace_hash", Json::hash(f.trace_hash)),
            ]),
        ),
    ]);
    let check = (|| {
        ensure(
            t.bytes_received == t.transfer_bytes as u64,
            "ttcp transfer must deliver every byte",
        )?;
        ensure(
            t.vs_reference() >= 0.5 && t.vs_reference() <= 2.0,
            format!(
                "ttcp goodput {:.1} KB/s outside 2x of the wan_ttcp reference",
                t.kbps
            ),
        )?;
        ensure(f.drained, "fairness run failed to drain")?;
        ensure(
            f.completed == f.streams,
            "every stream must complete on the lossless substrate",
        )?;
        ensure(f.failed == 0, "no stream may exhaust its retransmit budget")?;
        ensure(
            f.fairness_ratio() <= 3.0,
            format!(
                "max/min goodput ratio {:.2} exceeds the fairness gate",
                f.fairness_ratio()
            ),
        )
    })();
    Outcome::artefact(json, check)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ttcp_stream_goodput_is_within_2x_of_the_wan_reference() {
        let r = run_ttcp_stream(&TtcpStreamConfig::quick());
        assert_eq!(r.bytes_received, r.transfer_bytes as u64);
        assert_eq!(r.retransmits, 0, "lossless link: no RTO should fire");
        assert!(
            r.vs_reference() >= 0.5 && r.vs_reference() <= 2.0,
            "goodput {:.1} KB/s outside 2x of the {REFERENCE_WAN_KBPS} KB/s reference",
            r.kbps
        );
    }

    fn tiny() -> FairnessConfig {
        FairnessConfig {
            scale: ScaleConfig {
                shards: 4,
                maintenance_ticks: 3,
                probes: 0,
                link_jitter: Duration::ZERO,
                ..ScaleConfig::ring(96)
            },
            streams: 64,
            transfer_bytes: 4 * 1024,
        }
    }

    #[test]
    fn every_stream_completes_with_flat_goodput() {
        let r = run_fairness(&tiny());
        assert!(r.drained, "run must drain");
        assert_eq!(r.completed, r.streams, "every stream must complete");
        assert_eq!(r.bytes_received, 64 * 4 * 1024);
        assert_eq!(r.failed, 0);
        assert!(
            r.fairness_ratio() <= 3.0,
            "max/min goodput ratio {:.2} exceeds the fairness gate",
            r.fairness_ratio()
        );
    }

    #[test]
    fn fairness_runs_are_deterministic_and_mode_independent() {
        let mut seq = tiny();
        seq.scale.parallel = false;
        let a = run_fairness(&seq);
        let b = run_fairness(&tiny());
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.completed, b.completed);
    }
}
