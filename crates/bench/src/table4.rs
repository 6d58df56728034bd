//! Table IV — execution time of the LSS parallel application over IPOP, sequential
//! (1 compute node) vs parallel (4 compute nodes), with cold and warm NFS caches.

use ipop_apps::lss::LssParams;

use crate::paper::{self, Measured};
use crate::{par_map, Outcome};

/// Run Table IV with the given workload parameters: per node count the cold
/// first image, the warm rest and the total, in seconds, and the warm
/// speed-up of four nodes over one.
pub fn run(params: LssParams) -> Vec<Measured> {
    let rows = par_map(vec![("1 node", 1usize), ("4 nodes", 4)], |(row, nodes)| {
        let (report, history) = crate::scenarios::fig4_lss(nodes, params.clone(), 0x7ab1e4);
        let at = |column, value| Measured {
            key: ("Table IV", row, column),
            value,
            history,
        };
        [
            at("image 1 (s)", report.first_image()),
            at("images 2-N (s)", report.remaining_images()),
            at("total (s)", report.total()),
        ]
    });
    // Images 2-N on one node and on four.
    let (seq, par) = (&rows[0][1], &rows[1][1]);
    let speed_up = Measured {
        key: ("Table IV", "speed-up", "images 2-N (s)"),
        value: seq.value / par.value,
        history: seq.history.and(par.history),
    };
    [rows.concat(), vec![speed_up]].concat()
}

/// The paper's workload, or a scaled-down one when `quick` (smaller
/// databases, shorter per-record compute) that keeps the cold/warm and
/// sequential/parallel structure while finishing in seconds.
pub(crate) fn params(quick: bool) -> LssParams {
    if quick {
        LssParams {
            images: 6,
            databases: 4,
            database_size: 2 * 1024 * 1024,
            compute_per_mb: ipop_simcore::Duration::from_secs(10),
        }
    } else {
        LssParams::default()
    }
}

/// The `table4` scenario on [`params`].
pub fn scenario(quick: bool) -> Outcome {
    let params = params(quick);
    let title = format!(
        "Table IV - LSS execution times ({} images, {} x {} MB databases)",
        params.images,
        params.databases,
        params.database_size / (1024 * 1024)
    );
    paper::print(&title, &run(params))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_lss_shows_cold_cache_penalty_and_parallel_speedup() {
        // A drastically scaled-down workload (small databases, short compute) that
        // still exhibits both effects Table IV reports.
        let params = LssParams {
            images: 3,
            databases: 4,
            database_size: 256 * 1024,
            compute_per_mb: ipop_simcore::Duration::from_secs(8),
        };
        let cells = run(params);
        let get = |row, column| paper::get(&cells, row, column);
        assert!(
            get("1 node", "total (s)") > 0.0 && get("4 nodes", "total (s)") > 0.0,
            "both runs completed"
        );
        // Cold first image is slower than a warm one in the sequential run.
        let seq_warm_per_image = get("1 node", "images 2-N (s)") / 2.0;
        assert!(
            get("1 node", "image 1 (s)") > seq_warm_per_image,
            "cold image ({}) slower than warm ({seq_warm_per_image})",
            get("1 node", "image 1 (s)"),
        );
        // Parallel warm-cache phase shows a clear speed-up (>2x with 4 nodes).
        let speed_up = get("speed-up", "images 2-N (s)");
        assert!(speed_up > 2.0, "warm speed-up {speed_up} too small");
    }
}
