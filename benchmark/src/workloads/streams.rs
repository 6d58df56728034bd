//! `streams` — the only workload where `overlay::vstream` dominates, in two
//! legs: `run_ttcp_stream`, one bulk transfer over a 25 ms one-way link
//! (window cycling, acks, the RTO timer; gives goodput), then
//! `run_fairness`, thousands of short streams opened 10 µs apart on a ring
//! (handshakes and per-stream state). Both are window-limited closed loops.
//!
//! Op = one completed stream. The seed drives the fairness ring and body;
//! the bulk leg's inputs are fixed inside `run_ttcp_stream`.

use ipop_bench::scale::ScaleConfig;
use ipop_bench::streams::{
    run_fairness, run_ttcp_stream, FairnessConfig, FairnessReport, TtcpStreamConfig,
    TtcpStreamReport,
};
use ipop_simcore::Duration;

use super::{Fingerprint, Outcome, Size, Workload};
use crate::fullstack::share;

fn config(seed: u64, size: Size) -> (TtcpStreamConfig, FairnessConfig) {
    let (bulk_bytes, nodes, streams, bytes_each) = match size {
        Size::Full => (32 << 20, 2_048, 2_000, 64 << 10),
        Size::Smoke => (1 << 20, 512, 256, 8 << 10),
    };
    (
        TtcpStreamConfig {
            transfer_bytes: bulk_bytes,
            ..TtcpStreamConfig::full()
        },
        FairnessConfig {
            scale: ScaleConfig {
                seed,
                parallel: false,
                maintenance_ticks: 4,
                probes: 0,
                link_jitter: Duration::ZERO,
                ..ScaleConfig::ring(nodes)
            },
            streams,
            transfer_bytes: bytes_each,
            ..FairnessConfig::full()
        },
    )
}

pub fn sizes(size: Size) -> String {
    let (bulk, fair) = config(0, size);
    format!(
        "{} MiB bulk stream over 25 ms one-way, then {} streams x {} KiB on a {}-node ring",
        bulk.transfer_bytes >> 20,
        fair.streams,
        fair.transfer_bytes >> 10,
        fair.scale.nodes
    )
}

pub struct Streams {
    bulk_cfg: TtcpStreamConfig,
    fair_cfg: FairnessConfig,
    bulk: Option<TtcpStreamReport>,
    fair: Option<FairnessReport>,
}

pub fn prepare(seed: u64, size: Size) -> Streams {
    let (bulk_cfg, fair_cfg) = config(seed, size);
    Streams {
        bulk_cfg,
        fair_cfg,
        bulk: None,
        fair: None,
    }
}

impl Workload for Streams {
    fn run(&mut self) {
        self.bulk = Some(run_ttcp_stream(&self.bulk_cfg));
        self.fair = Some(run_fairness(&self.fair_cfg));
    }

    fn finish(self: Box<Self>) -> Outcome {
        let bulk = self.bulk.expect("finish follows run");
        let fair = self.fair.expect("finish follows run");
        let mut out = Outcome::default();
        let bulk_ok = bulk.bytes_received == bulk.transfer_bytes as u64;
        out.ops = 1 + u64::from(fair.streams);
        out.failed =
            u64::from(!bulk_ok) + u64::from(fair.streams - fair.completed.min(fair.streams));
        out.check(bulk_ok, || {
            format!(
                "bulk stream delivered {} of {} bytes",
                bulk.bytes_received, bulk.transfer_bytes
            )
        });
        out.check(fair.completed == fair.streams, || {
            format!("{} of {} streams completed", fair.completed, fair.streams)
        });
        let want = u64::from(fair.streams) * self.fair_cfg.transfer_bytes as u64;
        out.check(fair.bytes_received == want, || {
            format!("streams delivered {} of {want} bytes", fair.bytes_received)
        });
        out.check(fair.failed == 0, || {
            format!("{} streams failed", fair.failed)
        });
        out.check(fair.drained, || "event queues did not drain".into());
        // Completion time of every short stream, from its goodput.
        out.latencies_ms = fair
            .goodput_kbps
            .iter()
            .map(|kbps| self.fair_cfg.transfer_bytes as f64 / kbps)
            .collect();
        out.set("events", fair.events as f64);
        out.set("virt.goodput_kbps", bulk.kbps);
        out.set(
            "overlay.vstream.retransmit_share",
            share(
                bulk.retransmits + fair.retransmits,
                bulk.data_sent + bulk.retransmits + fair.retransmits,
            ),
        );
        out.fingerprint = Fingerprint::new()
            .add(fair.events)
            .add(fair.trace_hash)
            .add(fair.bytes_received)
            .add_f64(bulk.elapsed_s)
            .add(bulk.data_sent)
            .finish();
        out
    }
}
