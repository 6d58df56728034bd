//! Table II — ttcp throughput of a single overlay link on the LAN (F2 → F4)
//! compared with the physical network.

use rayon::prelude::*;

use crate::report::{f, pct, Table};
use crate::scenarios::{fig4_ttcp, Mode};
use crate::Outcome;

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct ThroughputRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// Measured throughput in KB/s.
    pub kbps: f64,
    /// The matching physical baseline in KB/s (for the relative column).
    pub physical_kbps: f64,
    /// Paper-reported throughput in KB/s.
    pub paper_kbps: f64,
    /// Paper-reported relative bandwidth (IPOP / physical).
    pub paper_rel: &'static str,
}

/// Run Table II: a `bytes`-sized transfer over the LAN for each configuration.
pub fn run(bytes: u64) -> Vec<ThroughputRow> {
    let modes = [Mode::Physical, Mode::IpopTcp, Mode::IpopUdp];
    let results: Vec<(Mode, f64)> = modes
        .into_par_iter()
        .map(|mode| (mode, fig4_ttcp(mode, 1, 3, bytes, 0x7ab1e2).kbps))
        .collect();
    let physical = results
        .iter()
        .find(|(m, _)| *m == Mode::Physical)
        .map(|(_, k)| *k)
        .unwrap_or(0.0);
    results
        .into_iter()
        .map(|(mode, kbps)| {
            let (paper_kbps, paper_rel) = match mode {
                Mode::Physical => (8835.0, "100%"), // 8255 / 9416 across the two runs
                Mode::IpopTcp => (2389.0, "29%"),
                Mode::IpopUdp => (1905.0, "20%"),
            };
            ThroughputRow {
                scenario: mode.label(),
                kbps,
                physical_kbps: physical,
                paper_kbps,
                paper_rel,
            }
        })
        .collect()
}

/// Render rows as the printed table.
pub fn render(rows: &[ThroughputRow], bytes: u64) -> Table {
    let mut table = Table::new(
        &format!(
            "Table II - LAN ttcp throughput, transfer size {:.2} MB",
            bytes as f64 / 1e6
        ),
        &[
            "scenario",
            "throughput (KB/s)",
            "rel. to physical",
            "paper (KB/s)",
            "paper rel.",
        ],
    );
    for row in rows {
        table.row(&[
            row.scenario.to_string(),
            f(row.kbps, 0),
            pct(row.kbps, row.physical_kbps),
            f(row.paper_kbps, 0),
            row.paper_rel.to_string(),
        ]);
    }
    table
}

/// The `table2` scenario: the paper's 92.97 MB transfer, 8 MB when `quick`.
pub fn scenario(quick: bool) -> Outcome {
    let bytes = if quick {
        8_000_000
    } else {
        ipop_apps::ttcp::sizes::LARGE
    };
    render(&run(bytes), bytes).print();
    Outcome::printed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table2_shape_physical_beats_ipop_on_lan() {
        // 3 MB transfers keep the test quick; the ordering physical >> IPOP and the
        // rough factor (IPOP delivers 15-60% of physical on a LAN) must hold.
        let rows = run(3_000_000);
        let get = |s: &str| rows.iter().find(|r| r.scenario == s).unwrap().kbps;
        let phys = get("physical");
        let udp = get("IPOP-UDP");
        let tcp = get("IPOP-TCP");
        assert!(phys > 4_000.0, "physical LAN {phys} KB/s");
        assert!(
            udp > 200.0 && tcp > 200.0,
            "IPOP transfers completed: {udp} / {tcp}"
        );
        assert!(
            udp < 0.65 * phys,
            "IPOP-UDP well below physical: {udp} vs {phys}"
        );
        assert!(
            tcp < 0.65 * phys,
            "IPOP-TCP well below physical: {tcp} vs {phys}"
        );
    }
}
