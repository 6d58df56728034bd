//! Tables II and III — ttcp throughput of a single overlay link on the LAN
//! (F2 → F4, Table II) and across the WAN (F4 → V1, Table III, two transfer
//! sizes), compared with the physical network.

use ipop_apps::ttcp::sizes::{LARGE, SMALL};

use crate::paper::{self, Measured};
use crate::scenarios::{fig4_ttcp, Mode};
use crate::{par_map, Outcome};

/// Where the transfer runs, and so which table it fills.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Table II: F2 → F4.
    Lan,
    /// Table III: F4 → V1.
    Wan,
}

/// One transfer: the paper column it stands for, the column of its share of
/// physical at the same size, and the bytes it moves.
pub type Size = (&'static str, &'static str, u64);

impl Scope {
    /// The transfers a full (or `quick`) run makes.
    pub(crate) fn sizes(self, quick: bool) -> Vec<Size> {
        let bytes = |full, scaled| if quick { scaled } else { full };
        let large = |scaled| ("92.97 MB", "92.97 MB rel.", bytes(LARGE, scaled));
        match self {
            Scope::Lan => vec![large(8_000_000)],
            Scope::Wan => vec![
                ("13.09 MB", "13.09 MB rel.", bytes(SMALL, 2_000_000)),
                large(6_000_000),
            ],
        }
    }
}

/// Run one table: physical, IPOP-TCP and IPOP-UDP at each of `sizes`; per
/// row the throughput in KB/s and its share of physical.
pub fn run(scope: Scope, sizes: &[Size]) -> Vec<Measured> {
    let (table, src, dst, seed) = match scope {
        Scope::Lan => ("Table II", 1, 3, 0x7ab1e2),
        Scope::Wan => ("Table III", 3, 4, 0x7ab1e3),
    };
    let runs: Vec<(Size, Mode)> = sizes
        .iter()
        .flat_map(|&size| [Mode::Physical, Mode::IpopTcp, Mode::IpopUdp].map(|mode| (size, mode)))
        .collect();
    let results = par_map(runs, |((column, rel, bytes), mode)| {
        let (report, history) = fig4_ttcp(mode, src, dst, bytes, seed);
        (column, rel, mode, report.kbps, history)
    });
    let mut cells = Vec::new();
    for &(column, rel, mode, kbps, history) in &results {
        let physical = results
            .iter()
            .find(|r| r.0 == column && r.2 == Mode::Physical);
        let share = kbps / physical.map_or(0.0, |r| r.3);
        for (column, value) in [(column, kbps), (rel, share)] {
            let key = (table, mode.label(), column);
            cells.push(Measured {
                key,
                value,
                history,
            });
        }
    }
    cells
}

fn scenario(scope: Scope, quick: bool, title: &str) -> Outcome {
    let sizes = scope.sizes(quick);
    let mb: Vec<String> = sizes
        .iter()
        .map(|s| format!("{:.2}", s.2 as f64 / 1e6))
        .collect();
    let title = format!(
        "{title}: KB/s, and the share of physical, of {} MB transfers",
        mb.join(" and ")
    );
    paper::print(&title, &run(scope, &sizes))
}

/// The `table2` scenario: the paper's 92.97 MB LAN transfer, 8 MB when `quick`.
pub fn table2(quick: bool) -> Outcome {
    scenario(Scope::Lan, quick, "Table II - LAN ttcp F2 -> F4")
}

/// The `table3` scenario: the paper's two WAN transfer sizes, 2 MB and 6 MB
/// when `quick`.
pub fn table3(quick: bool) -> Outcome {
    scenario(Scope::Wan, quick, "Table III - WAN ttcp F4 -> V1")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every cell inside its paper band, at test size.
    fn in_band(cells: &[Measured]) {
        for cell in cells {
            cell.check().unwrap();
        }
    }

    #[test]
    fn quick_table2_shape_physical_beats_ipop_on_lan() {
        // 3 MB transfers keep the test quick; the ordering physical >> IPOP and the
        // rough factor (IPOP delivers 15-60% of physical on a LAN) must hold.
        let cells = run(Scope::Lan, &[("92.97 MB", "92.97 MB rel.", 3_000_000)]);
        in_band(&cells);
        let get = |s: &str| paper::get(&cells, s, "92.97 MB");
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

    #[test]
    fn quick_table3_shape_udp_beats_tcp_over_wan() {
        // Quick mode's sizes; the crossover that matters: on the WAN, IPOP-UDP
        // recovers a much larger fraction of the physical bandwidth than IPOP-TCP.
        let cells = run(Scope::Wan, &Scope::Wan.sizes(true));
        in_band(&cells);
        let get = |s: &str| paper::get(&cells, s, "92.97 MB");
        let phys = get("physical");
        let udp = get("IPOP-UDP");
        let tcp = get("IPOP-TCP");
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
