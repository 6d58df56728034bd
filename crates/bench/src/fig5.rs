//! Fig. 5 — distribution of ping round-trip times across a 118-node Planet-Lab
//! overlay whose nodes are heavily CPU-loaded.

use ipop_simcore::stats;

use crate::paper::{self, Measured};
use crate::scenarios::{planetlab_ping, PlanetLabResult};
use crate::Outcome;

/// Parameters of the Fig. 5 experiment.
#[derive(Clone, Debug)]
pub struct Fig5Params {
    /// Number of Planet-Lab nodes in the overlay (118 in the paper).
    pub nodes: usize,
    /// CPU load factor of the Planet-Lab nodes (the paper observed loads > 10).
    pub load: f64,
    /// Number of echo requests (10 000 in the paper).
    pub pings: u32,
}

impl Fig5Params {
    /// The paper's 118 nodes and 10,000 pings; 40 and 300 when `quick`.
    pub(crate) fn new(quick: bool) -> Self {
        let (nodes, pings) = if quick { (40, 300) } else { (118, 10_000) };
        Fig5Params {
            nodes,
            load: 10.0,
            pings,
        }
    }
}

/// Run the Fig. 5 experiment.
pub fn run(params: &Fig5Params) -> PlanetLabResult {
    planetlab_ping(params.nodes, params.load, params.pings, 0x7ab1e5)
}

/// The run as cells: the paper reports the mean, the replies (all of its
/// 10,000 pings) and the hops.
pub fn cells(r: &PlanetLabResult) -> Vec<Measured> {
    [
        ("mean (ms)", stats::mean(&r.rtts_ms)),
        ("median (ms)", stats::quantile(&r.rtts_ms, 0.5)),
        ("p95 (ms)", stats::quantile(&r.rtts_ms, 0.95)),
        ("replies", r.rtts_ms.len() as f64),
        ("lost", f64::from(r.lost)),
        ("hops", r.mean_hops),
    ]
    .map(|(column, value)| Measured {
        key: ("Fig. 5", "Planet-Lab", column),
        value,
        history: r.history,
    })
    .to_vec()
}

/// The figure itself as one row: the RTT at p5, p25, p50, p75, p95, p99 and
/// the maximum.
pub fn distribution(rtts_ms: &[f64]) -> [(&'static str, f64); 7] {
    [
        ("p5", 0.05),
        ("p25", 0.25),
        ("p50", 0.5),
        ("p75", 0.75),
        ("p95", 0.95),
        ("p99", 0.99),
        ("max", 1.0),
    ]
    .map(|(label, q)| (label, stats::quantile(rtts_ms, q)))
}

/// Print the run's cells as one grid, then [`distribution`] as one row.
pub fn print(r: &PlanetLabResult, params: &Fig5Params) {
    let title = format!(
        "Fig. 5 - ping RTT over a {}-node Planet-Lab overlay (CPU load {}), hops per delivery",
        params.nodes, params.load
    );
    paper::render(&title, &cells(r)).print();
    let row: Vec<String> = distribution(&r.rtts_ms)
        .iter()
        .map(|(label, ms)| format!("{label} {ms:.3}"))
        .collect();
    println!("RTT distribution (ms): {}", row.join("  "));
}

/// The `fig5` scenario at [`Fig5Params::new`].
pub fn scenario(quick: bool) -> Outcome {
    let params = Fig5Params::new(quick);
    println!(
        "Fig. 5: {} pings across a {}-node overlay at CPU load {}\n",
        params.pings, params.nodes, params.load
    );
    print(&run(&params), &params);
    Outcome::printed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig5_shows_load_dominated_latency() {
        let params = Fig5Params {
            nodes: 24,
            load: 10.0,
            pings: 40,
        };
        let r = run(&params);
        assert!(
            r.rtts_ms.len() >= 20,
            "most pings answered: {}",
            r.rtts_ms.len()
        );
        let mean = stats::mean(&r.rtts_ms);
        // Physical RTTs in this topology are well under 200 ms; the loaded
        // user-level routers must push the overlay RTT far beyond that.
        assert!(
            mean > 250.0,
            "loaded overlay mean RTT {mean} ms should be dominated by CPU load"
        );
    }

    #[test]
    fn lightly_loaded_overlay_is_much_faster() {
        let mean_rtt = |load| {
            let r = run(&Fig5Params {
                nodes: 24,
                load,
                pings: 30,
            });
            stats::mean(&r.rtts_ms)
        };
        let (loaded, idle) = (mean_rtt(10.0), mean_rtt(1.0));
        assert!(
            idle * 2.0 < loaded,
            "CPU load is the dominant cost: idle {idle} ms vs loaded {loaded} ms"
        );
    }

    #[test]
    fn distribution_row_is_ordered_and_ends_at_the_largest_rtt() {
        let r = run(&Fig5Params {
            nodes: 16,
            load: 10.0,
            pings: 20,
        });
        assert!(!r.rtts_ms.is_empty());
        let row = distribution(&r.rtts_ms);
        assert!(row.windows(2).all(|w| w[0].1 <= w[1].1), "{row:?}");
        let largest = r.rtts_ms.iter().copied().fold(f64::MIN, f64::max);
        assert_eq!(row[6], ("max", largest));
    }
}
