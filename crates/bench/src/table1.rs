//! Table I — ping round-trip latency on LAN and WAN, physical vs IPOP-TCP vs
//! IPOP-UDP.

use rayon::prelude::*;

use crate::report::{f, Table};
use crate::scenarios::{fig4_ping, Mode};
use crate::Outcome;

/// One row of Table I.
#[derive(Clone, Debug)]
pub struct LatencyRow {
    /// `"LAN"` or `"WAN"`.
    pub scope: &'static str,
    /// Scenario label (`physical`, `IPOP-TCP`, `IPOP-UDP`).
    pub scenario: &'static str,
    /// Mean RTT in milliseconds.
    pub mean_ms: f64,
    /// Standard deviation in milliseconds.
    pub std_ms: f64,
    /// Replies received.
    pub replies: usize,
    /// The paper's reported mean, for side-by-side comparison.
    pub paper_mean_ms: f64,
}

/// Paper reference means (Table I).
const PAPER: [(&str, &str, f64); 6] = [
    ("LAN", "physical", 0.76), // 0.898 (TCP run) and 0.625 (UDP run) averaged
    ("LAN", "IPOP-TCP", 7.832),
    ("LAN", "IPOP-UDP", 6.859),
    ("WAN", "physical", 36.6), // 38.801 and 34.492 averaged
    ("WAN", "IPOP-TCP", 48.539),
    ("WAN", "IPOP-UDP", 45.896),
];

/// Run the Table I measurement with `count` pings per scenario.
///
/// LAN = F2 ⇄ F4, WAN = F4 ⇄ V1, exactly as in the paper's Section IV-B.
pub fn run(count: u32) -> Vec<LatencyRow> {
    let scenarios: Vec<(&'static str, Mode, usize, usize)> = vec![
        ("LAN", Mode::Physical, 1, 3),
        ("LAN", Mode::IpopTcp, 1, 3),
        ("LAN", Mode::IpopUdp, 1, 3),
        ("WAN", Mode::Physical, 3, 4),
        ("WAN", Mode::IpopTcp, 3, 4),
        ("WAN", Mode::IpopUdp, 3, 4),
    ];
    scenarios
        .into_par_iter()
        .map(|(scope, mode, src, dst)| {
            let report = fig4_ping(mode, src, dst, count, 0x7ab1e1);
            let summary = report.summary();
            let paper_mean_ms = PAPER
                .iter()
                .find(|(s, m, _)| *s == scope && *m == mode.label())
                .map(|(_, _, v)| *v)
                .unwrap_or(0.0);
            LatencyRow {
                scope,
                scenario: mode.label(),
                mean_ms: summary.mean,
                std_ms: summary.std_dev,
                replies: report.rtts_ms.len(),
                paper_mean_ms,
            }
        })
        .collect()
}

/// Render rows as the printed table.
pub fn render(rows: &[LatencyRow]) -> Table {
    let mut table = Table::new(
        "Table I - ping RTT (ms): physical vs IPOP-TCP vs IPOP-UDP",
        &[
            "scope",
            "scenario",
            "mean (ms)",
            "std dev (ms)",
            "replies",
            "paper mean (ms)",
        ],
    );
    for row in rows {
        table.row(&[
            row.scope.to_string(),
            row.scenario.to_string(),
            f(row.mean_ms, 3),
            f(row.std_ms, 3),
            row.replies.to_string(),
            f(row.paper_mean_ms, 3),
        ]);
    }
    table
}

/// The `table1` scenario: 1000 pings per cell, 50 when `quick`.
pub fn scenario(quick: bool) -> Outcome {
    let count = if quick { 50 } else { 1000 };
    println!(
        "Table I: {count} pings per scenario (Fig. 4 testbed; LAN = F2<->F4, WAN = F4<->V1)\n"
    );
    render(&run(count)).print();
    Outcome::printed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table1_preserves_the_paper_ordering() {
        // A reduced ping count keeps the test fast while still checking the shape:
        // IPOP adds milliseconds of overhead on the LAN and a ~25-35% penalty on the WAN.
        let rows = run(8);
        let get = |scope: &str, scen: &str| {
            rows.iter()
                .find(|r| r.scope == scope && r.scenario == scen)
                .unwrap()
                .mean_ms
        };
        let lan_phys = get("LAN", "physical");
        let lan_udp = get("LAN", "IPOP-UDP");
        let wan_phys = get("WAN", "physical");
        let wan_udp = get("WAN", "IPOP-UDP");
        assert!(lan_phys < 2.5, "lan physical {lan_phys}");
        assert!(
            lan_udp > lan_phys + 3.0,
            "IPOP overhead visible: {lan_udp} vs {lan_phys}"
        );
        assert!(lan_udp < 20.0, "IPOP LAN latency within range: {lan_udp}");
        assert!(
            wan_phys > 25.0 && wan_phys < 50.0,
            "wan physical {wan_phys}"
        );
        assert!(
            wan_udp > wan_phys,
            "wan IPOP {wan_udp} vs physical {wan_phys}"
        );
        assert!(wan_udp < wan_phys * 2.0, "wan overhead bounded: {wan_udp}");
    }
}
