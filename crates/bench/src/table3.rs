//! Table III — ttcp throughput of a single overlay link across the WAN (F4 → V1)
//! for two transfer sizes, compared with the physical network.

use rayon::prelude::*;

use crate::report::{f, pct, Table};
use crate::scenarios::{fig4_ttcp, Mode};
use crate::Outcome;

/// One measured configuration at one transfer size.
#[derive(Clone, Debug)]
pub struct WanThroughputRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// Transfer size in bytes.
    pub bytes: u64,
    /// Measured throughput in KB/s.
    pub kbps: f64,
    /// The matching physical baseline at the same size.
    pub physical_kbps: f64,
    /// Paper-reported throughput in KB/s.
    pub paper_kbps: f64,
}

/// Paper values (Table III): (mode label, size index 0=small,1=large, KBps).
const PAPER: [(&str, usize, f64); 6] = [
    ("physical", 0, 1478.0), // 1419 / 1538 across runs
    ("physical", 1, 1475.0),
    ("IPOP-TCP", 0, 673.0),
    ("IPOP-TCP", 1, 688.0),
    ("IPOP-UDP", 0, 1239.0),
    ("IPOP-UDP", 1, 1150.0),
];

/// Run Table III with the two given transfer sizes (paper: 13.09 MB and 92.97 MB).
pub fn run(sizes: [u64; 2]) -> Vec<WanThroughputRow> {
    let mut scenarios = Vec::new();
    for (si, &bytes) in sizes.iter().enumerate() {
        for mode in [Mode::Physical, Mode::IpopTcp, Mode::IpopUdp] {
            scenarios.push((si, bytes, mode));
        }
    }
    let results: Vec<(usize, u64, Mode, f64)> = scenarios
        .into_par_iter()
        .map(|(si, bytes, mode)| (si, bytes, mode, fig4_ttcp(mode, 3, 4, bytes, 0x7ab1e3).kbps))
        .collect();
    results
        .iter()
        .map(|&(si, bytes, mode, kbps)| {
            let physical_kbps = results
                .iter()
                .find(|&&(s, _, m, _)| s == si && m == Mode::Physical)
                .map(|&(_, _, _, k)| k)
                .unwrap_or(0.0);
            let paper_kbps = PAPER
                .iter()
                .find(|(m, s, _)| *m == mode.label() && *s == si)
                .map(|(_, _, v)| *v)
                .unwrap_or(0.0);
            WanThroughputRow {
                scenario: mode.label(),
                bytes,
                kbps,
                physical_kbps,
                paper_kbps,
            }
        })
        .collect()
}

/// Render rows as the printed table.
pub fn render(rows: &[WanThroughputRow]) -> Table {
    let mut table = Table::new(
        "Table III - WAN ttcp throughput (F4 -> V1)",
        &[
            "scenario",
            "size (MB)",
            "throughput (KB/s)",
            "rel. to physical",
            "paper (KB/s)",
        ],
    );
    for row in rows {
        table.row(&[
            row.scenario.to_string(),
            f(row.bytes as f64 / 1e6, 2),
            f(row.kbps, 0),
            pct(row.kbps, row.physical_kbps),
            f(row.paper_kbps, 0),
        ]);
    }
    table
}

/// The `table3` scenario: the paper's two transfer sizes, 2 MB and 6 MB
/// when `quick`.
pub fn scenario(quick: bool) -> Outcome {
    let sizes = if quick {
        [2_000_000, 6_000_000]
    } else {
        [ipop_apps::ttcp::sizes::SMALL, ipop_apps::ttcp::sizes::LARGE]
    };
    render(&run(sizes)).print();
    Outcome::printed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table3_shape_udp_beats_tcp_over_wan() {
        // Scaled-down sizes; the crossover that matters: on the WAN, IPOP-UDP
        // recovers a much larger fraction of the physical bandwidth than IPOP-TCP.
        let rows = run([1_500_000, 3_000_000]);
        let get = |s: &str, size: u64| {
            rows.iter()
                .find(|r| r.scenario == s && r.bytes == size)
                .unwrap()
                .kbps
        };
        let phys = get("physical", 3_000_000);
        let udp = get("IPOP-UDP", 3_000_000);
        let tcp = get("IPOP-TCP", 3_000_000);
        assert!(phys > 700.0 && phys < 1_800.0, "physical WAN {phys} KB/s");
        assert!(
            udp > tcp,
            "IPOP-UDP ({udp}) should beat IPOP-TCP ({tcp}) over the WAN"
        );
        assert!(
            udp > 0.45 * phys,
            "IPOP-UDP recovers much of the WAN bandwidth: {udp} vs {phys}"
        );
    }
}
