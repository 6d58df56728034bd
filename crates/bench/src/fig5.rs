//! Fig. 5 — distribution of ping round-trip times across a 118-node Planet-Lab
//! overlay whose nodes are heavily CPU-loaded.

use ipop_simcore::Histogram;

use crate::report::{f, Table};
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

impl Default for Fig5Params {
    fn default() -> Self {
        Fig5Params {
            nodes: 118,
            load: 10.0,
            pings: 10_000,
        }
    }
}

impl Fig5Params {
    /// A scaled-down variant for `--quick` runs and tests.
    pub fn quick() -> Self {
        Fig5Params {
            nodes: 40,
            load: 10.0,
            pings: 300,
        }
    }
}

/// The experiment output: raw result plus the latency histogram of Fig. 5.
pub struct Fig5Output {
    /// Raw RTTs and hop statistics.
    pub result: PlanetLabResult,
    /// Histogram over RTT (milliseconds).
    pub histogram: Histogram,
}

/// Run the Fig. 5 experiment.
pub fn run(params: &Fig5Params) -> Fig5Output {
    let result = planetlab_ping(params.nodes, params.load, params.pings, 0x7ab1e5);
    let max_ms = result
        .rtts_ms
        .iter()
        .copied()
        .fold(0.0f64, f64::max)
        .max(100.0);
    let mut histogram = Histogram::new(0.0, max_ms * 1.05, 30);
    for &rtt in &result.rtts_ms {
        histogram.add(rtt);
    }
    Fig5Output { result, histogram }
}

/// Render the summary statistics table (the figure itself is printed as an ASCII
/// histogram by the binary).
pub fn render_summary(out: &Fig5Output, params: &Fig5Params) -> Table {
    let mut table = Table::new(
        &format!(
            "Fig. 5 - ping RTT over a {}-node Planet-Lab overlay (CPU load {})",
            params.nodes, params.load
        ),
        &["metric", "measured", "paper"],
    );
    table.row(&[
        "mean RTT (ms)".into(),
        f(out.histogram.mean(), 1),
        "~1600 (reported \"in excess of 1.6 s\")".into(),
    ]);
    table.row(&[
        "median RTT (ms)".into(),
        f(out.histogram.percentile(0.5), 1),
        "-".into(),
    ]);
    table.row(&[
        "95th percentile (ms)".into(),
        f(out.histogram.percentile(0.95), 1),
        "-".into(),
    ]);
    table.row(&[
        "replies".into(),
        out.result.rtts_ms.len().to_string(),
        "10000".into(),
    ]);
    table.row(&["lost".into(), out.result.lost.to_string(), "-".into()]);
    table.row(&[
        "avg overlay forwards per delivery".into(),
        f(out.result.avg_forwards, 2),
        "2 hops between source and destination".into(),
    ]);
    table
}

/// The `fig5` scenario: the paper's 118-node overlay, or [`Fig5Params::quick`].
pub fn scenario(quick: bool) -> Outcome {
    let params = if quick {
        Fig5Params::quick()
    } else {
        Fig5Params::default()
    };
    println!(
        "Fig. 5: {} pings across a {}-node overlay at CPU load {}\n",
        params.pings, params.nodes, params.load
    );
    let out = run(&params);
    render_summary(&out, &params).print();
    println!("RTT distribution (ms):\n{}", out.histogram.ascii_chart(60));
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
        let out = run(&params);
        assert!(
            out.result.rtts_ms.len() >= 20,
            "most pings answered: {}",
            out.result.rtts_ms.len()
        );
        let mean = out.histogram.mean();
        // Physical RTTs in this topology are well under 200 ms; the loaded
        // user-level routers must push the overlay RTT far beyond that.
        assert!(
            mean > 250.0,
            "loaded overlay mean RTT {mean} ms should be dominated by CPU load"
        );
        assert!(out.histogram.count() as usize == out.result.rtts_ms.len());
    }

    #[test]
    fn lightly_loaded_overlay_is_much_faster() {
        let loaded = run(&Fig5Params {
            nodes: 24,
            load: 10.0,
            pings: 30,
        });
        let idle = run(&Fig5Params {
            nodes: 24,
            load: 1.0,
            pings: 30,
        });
        assert!(
            idle.histogram.mean() * 2.0 < loaded.histogram.mean(),
            "CPU load is the dominant cost: idle {} ms vs loaded {} ms",
            idle.histogram.mean(),
            loaded.histogram.mean()
        );
    }
}
