//! Hot-path benchmark: wall-clock seconds (plus events/sec and packets/sec)
//! for three fixed-seed scenarios, tracked across PRs in `BENCH_hotpath.json`.
//!
//! The three scenarios stress the three legs of the simulator hot path:
//!
//! * **lan_ttcp** — an IPOP-UDP bulk transfer between two hosts on one LAN
//!   (Table II shape): dominated by the virtual TCP stack and the tap path.
//! * **wan_ttcp** — the same transfer across the wide-area core (Table III
//!   shape, F4 → V1): the paper-calibrated scenario (~638 KB/s), dominated by
//!   per-packet event scheduling and tunnel encode/decode.
//! * **ring_churn** — a 64-node overlay ring that loses nodes mid-run:
//!   dominated by maintenance traffic, routed forwarding and timer churn.
//!
//! Usage: `hotpath_bench [--quick] [--out PATH]`
//!
//! Every run rewrites `BENCH_hotpath.json` at the repo root with the frozen
//! baseline wall time next to the current numbers, so the perf trajectory of
//! every later PR stays visible. The speed-up is a ratio of wall times for a
//! fixed simulation: events/sec is reported too, but a change that deletes
//! no-op events lowers it while making the run faster.

use std::net::Ipv4Addr;
use std::time::Instant;

use ipop::prelude::*;
use ipop_apps::ttcp::TtcpApp;
use ipop_netsim::fig4_testbed;
use ipop_simcore::SimTime;

/// Outcome of one scenario run.
struct ScenarioResult {
    name: &'static str,
    /// Simulator events executed.
    events: u64,
    /// Packets delivered to agents on the physical network.
    packets: u64,
    /// Wall-clock seconds the run took.
    wall_s: f64,
    /// Virtual seconds simulated.
    virtual_s: f64,
    /// Application-level throughput in KB/s, where the scenario measures one.
    kbps: Option<f64>,
}

impl ScenarioResult {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s
    }
    fn packets_per_sec(&self) -> f64 {
        self.packets as f64 / self.wall_s
    }
    /// Baseline wall time ÷ this run's wall time.
    fn speedup(&self, quick: bool) -> Option<f64> {
        baseline_wall_s(self.name, quick).map(|b| b / self.wall_s)
    }
}

/// Frozen baseline wall seconds, `(scenario, quick, full)`, each written as
/// events ÷ events/sec. The events/sec were measured on the pre-refactor tree
/// (commit 44500e1: closure-based scheduler, deep-copied packet payloads,
/// binary event heap) as the best of several runs interleaved with its
/// successor on one machine. The event counts are what this binary executed
/// up to commit 0397be5 — the last tree on which every wake-up an earlier
/// deadline superseded still fired, as it did at 44500e1.
const BASELINE_WALL_S: [(&str, f64, f64); 3] = [
    (
        "lan_ttcp",
        149_315.0 / 1_931_000.0,
        8_737_285.0 / 3_253_000.0,
    ),
    (
        "wan_ttcp",
        1_105_526.0 / 3_286_000.0,
        1_105_526.0 / 3_385_000.0,
    ),
    (
        "ring_churn",
        896_529.0 / 729_000.0,
        3_959_591.0 / 1_100_000.0,
    ),
];

/// The frozen baseline wall time of a scenario in the given mode.
fn baseline_wall_s(name: &str, quick: bool) -> Option<f64> {
    BASELINE_WALL_S
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, q, f)| if quick { q } else { f })
}

const VIPS: [Ipv4Addr; 6] = [
    Ipv4Addr::new(172, 16, 0, 3),  // F1
    Ipv4Addr::new(172, 16, 0, 4),  // F2
    Ipv4Addr::new(172, 16, 0, 51), // F3
    Ipv4Addr::new(172, 16, 0, 2),  // F4
    Ipv4Addr::new(172, 16, 0, 18), // V1
    Ipv4Addr::new(172, 16, 0, 20), // L1
];

/// Overlay warm-up before the measured transfer starts.
const WARMUP: Duration = Duration::from_secs(20);

/// An IPOP-UDP ttcp transfer between two Fig. 4 testbed hosts.
fn fig4_ttcp_scenario(
    name: &'static str,
    src: usize,
    dst: usize,
    bytes: u64,
    seed: u64,
) -> ScenarioResult {
    let mut net = Network::new(seed);
    let tb = fig4_testbed(&mut net);
    let hosts = tb.all();
    const PORT: u16 = 5201;
    let members = VIPS
        .iter()
        .enumerate()
        .map(|(i, &vip)| {
            if i == src {
                IpopMember::new(
                    hosts[i],
                    vip,
                    Box::new(TtcpApp::sender(VIPS[dst], PORT, bytes).with_start_delay(WARMUP)),
                )
            } else if i == dst {
                IpopMember::new(hosts[i], vip, Box::new(TtcpApp::receiver(PORT)))
            } else {
                IpopMember::router(hosts[i], vip)
            }
        })
        .collect();
    deploy_ipop(&mut net, members, DeployOptions::udp());
    let src_host = hosts[src];

    let mut sim = NetworkSim::new(net);
    let started = Instant::now();
    let deadline = SimTime::ZERO + Duration::from_secs(1200);
    loop {
        let finished = sim
            .agent_as::<IpopHostAgent>(src_host)
            .and_then(|a| a.app_as::<TtcpApp>())
            .is_some_and(|t| t.finished());
        if finished || sim.now() >= deadline {
            break;
        }
        let before = sim.events_executed();
        sim.run_for(Duration::from_secs(1).min(deadline - sim.now()));
        if sim.events_executed() == before {
            break; // queue drained early
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    if std::env::var("HOTPATH_DEBUG").is_ok() {
        eprintln!(
            "  [debug] {name}: pending events at end = {}",
            sim.pending()
        );
    }
    let report = sim
        .agent_as::<IpopHostAgent>(src_host)
        .and_then(|a| a.app_as::<TtcpApp>())
        .map(|t| t.report())
        .unwrap_or_default();
    ScenarioResult {
        name,
        events: sim.events_executed(),
        packets: sim.net().counters().delivered,
        wall_s,
        virtual_s: sim.now().saturating_since(SimTime::ZERO).as_secs_f64(),
        kbps: Some(report.kbps),
    }
}

/// A 64-node overlay ring that loses `churn` nodes mid-run and has to repair
/// itself around them while a ping workload keeps crossing the ring.
fn ring_churn_scenario(nodes: usize, churn: usize, run_secs: u64, seed: u64) -> ScenarioResult {
    let mut net = Network::new(seed);
    let plab = ipop_netsim::planetlab(&mut net, nodes, 1.0, seed);
    let vip_of = |i: usize| Ipv4Addr::new(172, 16, 2 + (i / 200) as u8, (i % 200 + 1) as u8);
    let src_idx = 1;
    let dst_idx = nodes / 2;
    let mut members = Vec::new();
    for (i, &h) in plab.nodes.iter().enumerate() {
        if i == src_idx {
            members.push(IpopMember::new(
                h,
                vip_of(i),
                Box::new(
                    ipop_apps::ping::PingApp::new(
                        vip_of(dst_idx),
                        u32::MAX,
                        Duration::from_millis(200),
                    )
                    .with_start_delay(Duration::from_secs(30))
                    .with_timeout(Duration::from_secs(5)),
                ),
            ));
        } else {
            members.push(IpopMember::router(h, vip_of(i)));
        }
    }
    deploy_ipop(&mut net, members, DeployOptions::udp());

    let mut sim = NetworkSim::new(net);
    let started = Instant::now();
    let half = run_secs / 2;
    sim.run_for(Duration::from_secs(half));
    // Kill `churn` routers spread around the ring: their agents are replaced by
    // dead weight, so their edges time out and the ring must re-converge.
    for k in 0..churn {
        let idx = 2 + k * (nodes - 2) / churn.max(1);
        if idx == src_idx || idx == dst_idx {
            continue;
        }
        deploy_plain(sim.net_mut(), plab.nodes[idx], Box::new(NullApp));
    }
    sim.run_for(Duration::from_secs(run_secs - half));
    let wall_s = started.elapsed().as_secs_f64();
    ScenarioResult {
        name: "ring_churn",
        events: sim.events_executed(),
        packets: sim.net().counters().delivered,
        wall_s,
        virtual_s: sim.now().saturating_since(SimTime::ZERO).as_secs_f64(),
        kbps: None,
    }
}

/// A JSON number with `decimals` places, `null` when absent or not finite.
fn json_num(v: Option<f64>, decimals: usize) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v:.decimals$}"),
        _ => "null".to_string(),
    }
}

fn render_json(mode: &str, results: &[ScenarioResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"hotpath\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str("  \"baseline\": {\n");
    out.push_str("    \"commit\": \"44500e1\",\n");
    out.push_str("    \"note\": \"closure-based scheduler, deep-copied packet payloads (pre typed-event refactor); wall_s = events executed up to 0397be5 / events per second measured at 44500e1\",\n");
    out.push_str("    \"wall_s\": {\n");
    let quick = mode == "quick";
    for (i, (name, _, _)) in BASELINE_WALL_S.iter().enumerate() {
        let comma = if i + 1 < BASELINE_WALL_S.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!(
            "      \"{name}\": {}{comma}\n",
            json_num(baseline_wall_s(name, quick), 3)
        ));
    }
    out.push_str("    }\n  },\n");
    out.push_str("  \"current\": {\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        out.push_str(&format!(
            "    \"{}\": {{ \"events\": {}, \"packets\": {}, \"wall_s\": {:.3}, \"virtual_s\": {:.1}, \"speedup_vs_baseline\": {}, \"events_per_sec\": {}, \"packets_per_sec\": {}, \"kbps\": {} }}{comma}\n",
            r.name,
            r.events,
            r.packets,
            r.wall_s,
            r.virtual_s,
            json_num(r.speedup(quick), 2),
            json_num(Some(r.events_per_sec()), 1),
            json_num(Some(r.packets_per_sec()), 1),
            json_num(r.kbps, 1),
        ));
    }
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let only = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| format!("{}/../../BENCH_hotpath.json", env!("CARGO_MANIFEST_DIR")));
    let mode = if quick { "quick" } else { "full" };
    let (ttcp_bytes, churn_secs, mut iters) = if quick {
        (8_000_000u64, 120u64, 2u32)
    } else {
        (32_000_000u64, 300u64, 3u32)
    };
    // Override for profiling sessions (denser samples from a longer run).
    if let Some(n) = std::env::var("HOTPATH_ITERS")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
    {
        iters = n;
    }

    eprintln!("hotpath_bench ({mode} mode)");
    // Runs are deterministic, so repeated runs execute the identical event
    // trace; keep the one with the best wall time (least scheduler noise).
    let fastest = |run: &dyn Fn() -> ScenarioResult| {
        (0..iters)
            .map(|_| run())
            .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
            .expect("at least one iteration")
    };
    let want = |name: &str| only.as_deref().is_none_or(|o| o == name);
    let mut results = Vec::new();
    // LAN: F2 -> F4 (Table II shape). WAN: F4 -> V1 (Table III shape).
    if want("lan_ttcp") {
        results.push(fastest(&|| {
            fig4_ttcp_scenario("lan_ttcp", 1, 3, ttcp_bytes, 0x407b47)
        }));
    }
    // The WAN leg always transfers the paper's calibrated 13.09 MB with the
    // Table III seed, so the reported KB/s stays comparable with the paper's
    // 638 KB/s target (and with `table3_wan_throughput`).
    if want("wan_ttcp") {
        results.push(fastest(&|| {
            fig4_ttcp_scenario("wan_ttcp", 3, 4, 13_090_000, 0x7ab1e3)
        }));
    }
    if want("ring_churn") {
        results.push(fastest(&|| {
            ring_churn_scenario(64, 6, churn_secs, 0x407b47)
        }));
    }

    for r in &results {
        let speedup = r
            .speedup(quick)
            .map(|x| format!(" ({x:.2}x baseline)"))
            .unwrap_or_default();
        eprintln!(
            "  {:<11} {:>9} events in {:>6.3}s wall{} / {:>6.1}s virtual -> {:>9.0} ev/s, {:>7.0} pkt/s{}",
            r.name,
            r.events,
            r.wall_s,
            speedup,
            r.virtual_s,
            r.events_per_sec(),
            r.packets_per_sec(),
            r.kbps
                .map(|k| format!(", {k:.0} KB/s"))
                .unwrap_or_default(),
        );
    }

    let json = render_json(mode, &results);
    std::fs::write(&out_path, &json).expect("write BENCH_hotpath.json");
    eprintln!("wrote {out_path}");
}
