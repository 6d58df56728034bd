//! The paper's numbers in one table, and the `paper` scenario that measures
//! every cell against them.
//!
//! Each [`Cell`] names the table, row and column it stands for. The printing
//! scenarios (`table1` … `table4`, `fig5`, the two ablations) measure
//! [`Measured`] cells under the same names and print them with [`print`],
//! the paper's value beside each one it reports. The `paper` scenario runs
//! them all and writes `BENCH_paper.json`: per cell the measured value, the
//! paper's, their ratio, and the events and history digest of the run behind
//! it. Cells the paper gives no number for are recorded with `paper: null`.
//!
//! `band` bounds measured / paper: in full mode for every cell, and in the
//! tier-1 tests, at test size, for Tables I–III. Where the reproduction
//! agrees with the paper the band is the tolerance. Where it does not, the
//! band is an expected failure drawn around today's value, so a change that
//! moves the cell fails until its band is edited. A band may only tighten.

use crate::json::Json;
use crate::report::Table;
use crate::scenarios::History;
use crate::{ablations, ensure, fig5, table1, table4, ttcp, Outcome};

/// Where a number stands: table, row, column.
pub type Key = (&'static str, &'static str, &'static str);

/// One number the paper reports.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub key: Key,
    pub value: f64,
    /// Accepted measured / paper ratio, inclusive.
    pub band: (f64, f64),
}

const fn cell(key: Key, value: f64, band: (f64, f64)) -> Cell {
    Cell { key, value, band }
}

/// ±20 %: Table I's latencies.
const LATENCY: (f64, f64) = (0.8, 1.2);

/// Every number the paper reports, Tables I–IV and Fig. 5. Units: ms, KB/s,
/// a fraction of physical (`rel.`), seconds, hops, replies.
pub const PAPER: &[Cell] = &[
    // Table I: ping RTT, LAN = F2 <-> F4, WAN = F4 <-> V1. Physical: the
    // paper's two runs averaged (0.898 / 0.625 and 38.801 / 34.492 ms).
    cell(("Table I", "LAN physical", "mean (ms)"), 0.76, LATENCY),
    cell(("Table I", "LAN IPOP-TCP", "mean (ms)"), 7.832, LATENCY),
    cell(("Table I", "LAN IPOP-UDP", "mean (ms)"), 6.859, LATENCY),
    cell(("Table I", "WAN physical", "mean (ms)"), 36.6, LATENCY),
    cell(("Table I", "WAN IPOP-TCP", "mean (ms)"), 48.539, LATENCY),
    cell(("Table I", "WAN IPOP-UDP", "mean (ms)"), 45.896, LATENCY),
    // Table II: LAN ttcp F2 -> F4, physical 8255 / 9416 across two runs.
    // Expected failures: the physical LAN runs at 5.8 MB/s, and IPOP 2.8-4.4x
    // below the paper with TCP and UDP in the wrong order.
    cell(("Table II", "physical", "92.97 MB"), 8835.0, (0.6, 0.72)),
    cell(("Table II", "physical", "92.97 MB rel."), 1.0, (1.0, 1.0)),
    cell(("Table II", "IPOP-TCP", "92.97 MB"), 2389.0, (0.2, 0.25)),
    cell(
        ("Table II", "IPOP-TCP", "92.97 MB rel."),
        0.29,
        (0.28, 0.36),
    ),
    cell(("Table II", "IPOP-UDP", "92.97 MB"), 1905.0, (0.32, 0.39)),
    cell(("Table II", "IPOP-UDP", "92.97 MB rel."), 0.20, (0.5, 0.65)),
    // Table III: WAN ttcp F4 -> V1, physical 1419 / 1538 across runs; within
    // 15 %. Expected failures: IPOP-UDP 1.7-1.9x and IPOP-TCP 1.2-1.4x low.
    cell(("Table III", "physical", "13.09 MB"), 1478.0, (0.85, 1.15)),
    cell(("Table III", "physical", "92.97 MB"), 1475.0, (0.85, 1.15)),
    cell(("Table III", "IPOP-TCP", "13.09 MB"), 673.0, (0.7, 0.85)),
    cell(("Table III", "IPOP-TCP", "92.97 MB"), 688.0, (0.68, 0.85)),
    cell(("Table III", "IPOP-UDP", "13.09 MB"), 1239.0, (0.48, 0.6)),
    cell(("Table III", "IPOP-UDP", "92.97 MB"), 1150.0, (0.52, 0.64)),
    // Table IV: LSS over IPOP-UDP. Expected failures: the cold first image
    // (2.2x fast on one node, 1.3x slow on four) and the totals it carries.
    cell(("Table IV", "1 node", "image 1 (s)"), 811.0, (0.4, 0.5)),
    cell(("Table IV", "1 node", "images 2-N (s)"), 834.0, (0.9, 1.1)),
    cell(("Table IV", "1 node", "total (s)"), 1645.0, (0.68, 0.78)),
    cell(("Table IV", "4 nodes", "image 1 (s)"), 378.0, (1.25, 1.45)),
    cell(("Table IV", "4 nodes", "images 2-N (s)"), 217.0, (0.9, 1.1)),
    cell(("Table IV", "4 nodes", "total (s)"), 595.0, (1.1, 1.3)),
    cell(("Table IV", "speed-up", "images 2-N (s)"), 3.8, (0.9, 1.1)),
    // Fig. 5: 10,000 pings over 118 loaded Planet-Lab nodes, "in excess of
    // 1.6 s", 2 hops. Expected failures: the mean is 2.7x low, and at 118
    // nodes the measured pair is one hop apart.
    cell(("Fig. 5", "Planet-Lab", "mean (ms)"), 1600.0, (0.33, 0.42)),
    cell(("Fig. 5", "Planet-Lab", "replies"), 10_000.0, (1.0, 1.0)),
    cell(("Fig. 5", "Planet-Lab", "hops"), 2.0, (0.5, 0.5)),
];

/// The paper's cell at `key`, if it reports one.
pub(crate) fn lookup(key: Key) -> Option<&'static Cell> {
    PAPER.iter().find(|c| c.key == key)
}

/// One measured cell: where it stands, its value, and the run(s) behind it.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    pub key: Key,
    pub value: f64,
    pub history: History,
}

impl Measured {
    /// measured / paper, with the paper's cell; `None` where it has none.
    pub fn ratio(&self) -> Option<(f64, &'static Cell)> {
        lookup(self.key).map(|c| (self.value / c.value, c))
    }

    /// `Err` naming the cell when its ratio leaves the paper cell's band.
    pub fn check(&self) -> Result<(), String> {
        let Some((ratio, c)) = self.ratio() else {
            return Ok(());
        };
        let ((table, row, column), (lo, hi)) = (self.key, c.band);
        ensure(
            (lo - 1e-9..=hi + 1e-9).contains(&ratio),
            format!(
                "{table} / {row} / {column}: {:.3} is {ratio:.3}x the paper's {}, outside {lo:.2}..{hi:.2}",
                self.value, c.value
            ),
        )
    }
}

/// The value of the cell at `row` / `column`; panics if none was measured.
#[cfg(test)]
pub(crate) fn get(cells: &[Measured], row: &str, column: &str) -> f64 {
    let m = cells.iter().find(|m| m.key.1 == row && m.key.2 == column);
    m.unwrap_or_else(|| panic!("no cell {row} / {column}"))
        .value
}

/// Print `cells` as a grid, rows and columns in the order they first appear;
/// a cell the paper reports shows the paper's value beside the measured one.
pub(crate) fn render(title: &str, cells: &[Measured]) -> Table {
    let (mut rows, mut columns) = (Vec::new(), Vec::new());
    for &Measured {
        key: (_, row, column),
        ..
    } in cells
    {
        if !rows.contains(&row) {
            rows.push(row);
        }
        if !columns.contains(&column) {
            columns.push(column);
        }
    }
    let header: Vec<&str> = std::iter::once("").chain(columns.iter().copied()).collect();
    let mut table = Table::new(title, &header);
    let show = |v: f64| ((v * 1e3).round() / 1e3).to_string();
    for row in rows {
        let mut line = vec![row.to_string()];
        for &column in &columns {
            let m = cells.iter().find(|m| m.key.1 == row && m.key.2 == column);
            line.push(match m.map(|m| (m.value, m.ratio())) {
                None => String::new(),
                Some((value, None)) => show(value),
                Some((value, Some((_, c)))) => format!("{} (paper {})", show(value), show(c.value)),
            });
        }
        table.row(&line);
    }
    table
}

/// Print [`render`] and hand back a printing scenario's outcome.
pub(crate) fn print(title: &str, cells: &[Measured]) -> Outcome {
    render(title, cells).print();
    Outcome::printed()
}

/// The artefact: the count of cells inside and outside their bands, and one
/// object per cell keyed `table / row / column`. Cells of one run share its
/// history, so the artefact has no total of events.
pub(crate) fn ledger(quick: bool, cells: &[Measured]) -> Json {
    let mut rows = Json::obj([]);
    let (mut inside, mut outside) = (0u64, 0u64);
    for m in cells {
        let ratio = m.ratio();
        let ok = m.check().is_ok();
        if ratio.is_some() {
            *if ok { &mut inside } else { &mut outside } += 1;
        }
        let fixed = |v: Option<f64>| v.map_or(Json::Null, |v| Json::Fixed(v, 3));
        let (table, row, column) = m.key;
        rows.push(
            &format!("{table} / {row} / {column}"),
            Json::obj([
                ("measured", Json::Fixed(m.value, 3)),
                ("paper", fixed(ratio.map(|(_, c)| c.value))),
                ("ratio", fixed(ratio.map(|(r, _)| r))),
                ("in_band", ratio.map_or(Json::Null, |_| ok.into())),
                ("events", m.history.events.into()),
                ("trace_hash", Json::hash(m.history.trace_hash)),
            ]),
        );
    }
    Json::obj([
        ("scenario", "paper".into()),
        ("mode", crate::mode(quick).into()),
        ("in_band", inside.into()),
        ("out_of_band", outside.into()),
        ("cells", rows),
    ])
}

/// The `paper` scenario: every table, Fig. 5 and both ablations at the size
/// their own scenarios run (`quick` or full), as one measured-vs-paper
/// ledger. Full mode gates every cell on its band.
pub fn scenario(quick: bool) -> Outcome {
    let mut cells = table1::run(table1::pings(quick));
    for scope in [ttcp::Scope::Lan, ttcp::Scope::Wan] {
        cells.extend(ttcp::run(scope, &scope.sizes(quick)));
    }
    cells.extend(table4::run(table4::params(quick)));
    cells.extend(fig5::cells(&fig5::run(&fig5::Fig5Params::new(quick))));
    let (nodes, pings) = ablations::shortcut_size(quick);
    cells.extend(ablations::shortcuts(nodes, pings));
    cells.extend(ablations::brunet_arp());
    let failed: Vec<String> = cells.iter().filter_map(|m| m.check().err()).collect();
    let check = ensure(quick || failed.is_empty(), failed.join("; "));
    Outcome::artefact(ledger(quick, &cells), check)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_paper_cell_is_named_once_and_its_band_is_a_range() {
        for (i, c) in PAPER.iter().enumerate() {
            assert!(c.band.0 <= c.band.1, "{c:?}");
            let first = PAPER.iter().position(|d| d.key == c.key);
            assert_eq!(first, Some(i), "{c:?} named twice");
        }
    }

    #[test]
    fn the_ledger_rates_cells_against_their_bands_and_prints_a_grid() {
        let at = |key, value| Measured {
            key,
            value,
            history: History::default(),
        };
        let cells = [
            at(("Table I", "LAN physical", "mean (ms)"), 0.76),
            at(("Table I", "LAN physical", "replies"), 8.0),
            at(("Table I", "WAN physical", "mean (ms)"), 36.6 * 1.3),
        ];
        let ledger = ledger(true, &cells);
        assert_eq!(ledger.get("in_band"), Some(&Json::Int(1)));
        assert_eq!(ledger.get("out_of_band"), Some(&Json::Int(1)));
        let rows = ledger.get("cells").unwrap();
        let wan = rows.get("Table I / WAN physical / mean (ms)").unwrap();
        assert_eq!(wan.get("ratio").unwrap().pretty(), "1.300\n");
        assert_eq!(wan.get("in_band"), Some(&Json::Bool(false)));
        let replies = rows.get("Table I / LAN physical / replies").unwrap();
        assert_eq!(replies.get("paper"), Some(&Json::Null));
        assert!(cells[2].check().unwrap_err().contains("outside 0.80..1.20"));
        let grid = render("T", &cells).render();
        let lines: Vec<&str> = grid.lines().map(str::trim_end).collect();
        assert_eq!(
            lines[1].split_whitespace().collect::<Vec<_>>(),
            ["mean", "(ms)", "replies"]
        );
        assert_eq!(lines[3], "LAN physical  0.76 (paper 0.76)   8", "{grid}");
        assert_eq!(lines[4], "WAN physical  47.58 (paper 36.6)", "{grid}");
    }
}
