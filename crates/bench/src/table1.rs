//! Table I — ping round-trip latency on LAN and WAN, physical vs IPOP-TCP vs
//! IPOP-UDP.

use ipop_simcore::stats;

use crate::paper::{self, Measured};
use crate::scenarios::{fig4_ping, Mode};
use crate::{par_map, Outcome};

/// Run the Table I measurement with `count` pings per row: mean, standard
/// deviation and replies of each.
///
/// LAN = F2 ⇄ F4, WAN = F4 ⇄ V1, exactly as in the paper's Section IV-B.
pub fn run(count: u32) -> Vec<Measured> {
    let rows: Vec<(&'static str, Mode, usize, usize)> = vec![
        ("LAN physical", Mode::Physical, 1, 3),
        ("LAN IPOP-TCP", Mode::IpopTcp, 1, 3),
        ("LAN IPOP-UDP", Mode::IpopUdp, 1, 3),
        ("WAN physical", Mode::Physical, 3, 4),
        ("WAN IPOP-TCP", Mode::IpopTcp, 3, 4),
        ("WAN IPOP-UDP", Mode::IpopUdp, 3, 4),
    ];
    par_map(rows, |(row, mode, src, dst)| {
        let (report, history) = fig4_ping(mode, src, dst, count, 0x7ab1e1);
        let at = |column, value| Measured {
            key: ("Table I", row, column),
            value,
            history,
        };
        [
            at("mean (ms)", stats::mean(&report.rtts_ms)),
            at("std dev (ms)", stats::std_dev(&report.rtts_ms)),
            at("replies", report.rtts_ms.len() as f64),
        ]
    })
    .concat()
}

/// Pings per row: 1000, 50 when `quick`.
pub(crate) fn pings(quick: bool) -> u32 {
    if quick {
        50
    } else {
        1000
    }
}

/// The `table1` scenario: [`pings`] per row.
pub fn scenario(quick: bool) -> Outcome {
    let count = pings(quick);
    let title = format!(
        "Table I - ping RTT, {count} pings per row (Fig. 4 testbed; LAN = F2<->F4, WAN = F4<->V1)"
    );
    paper::print(&title, &run(count))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table1_preserves_the_paper_ordering() {
        // 8 pings keep it fast. Every cell is inside its paper band (ratios
        // 0.87 LAN physical .. 1.14 LAN IPOP-UDP), and IPOP costs more than physical.
        let cells = run(8);
        for cell in &cells {
            cell.check().unwrap();
        }
        for scope in ["LAN", "WAN"] {
            let phys = paper::get(&cells, &format!("{scope} physical"), "mean (ms)");
            for ipop in ["IPOP-TCP", "IPOP-UDP"] {
                let ms = paper::get(&cells, &format!("{scope} {ipop}"), "mean (ms)");
                assert!(ms > phys, "{scope} {ipop} {ms} vs physical {phys}");
            }
        }
    }
}
