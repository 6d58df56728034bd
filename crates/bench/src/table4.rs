//! Table IV — execution time of the LSS parallel application over IPOP, sequential
//! (1 compute node) vs parallel (4 compute nodes), with cold and warm NFS caches.

use rayon::prelude::*;

use ipop_apps::lss::LssParams;

use crate::report::{f, Table};
use crate::Outcome;

/// One row (one node count).
#[derive(Clone, Debug)]
pub struct LssRow {
    /// Number of compute nodes.
    pub nodes: usize,
    /// Time for the first image (cold caches), seconds.
    pub image1_s: f64,
    /// Total time for the remaining images (warm caches), seconds.
    pub rest_s: f64,
    /// Total run time, seconds.
    pub total_s: f64,
    /// Paper values for the same row, seconds (image1, rest, total).
    pub paper: (f64, f64, f64),
}

/// Run Table IV with the given workload parameters.
pub fn run(params: LssParams) -> Vec<LssRow> {
    [1usize, 4usize]
        .into_par_iter()
        .map(|nodes| {
            let report = crate::scenarios::fig4_lss(nodes, params.clone(), 0x7ab1e4);
            let paper = if nodes == 1 {
                (811.0, 834.0, 1645.0)
            } else {
                (378.0, 217.0, 595.0)
            };
            LssRow {
                nodes,
                image1_s: report.first_image(),
                rest_s: report.remaining_images(),
                total_s: report.total(),
                paper,
            }
        })
        .collect()
}

/// Render rows as the printed table, including the warm-cache speed-up.
pub fn render(rows: &[LssRow], params: &LssParams) -> Table {
    let mut table = Table::new(
        &format!(
            "Table IV - LSS execution times ({} images, {} x {} MB databases)",
            params.images,
            params.databases,
            params.database_size / (1024 * 1024)
        ),
        &[
            "# nodes",
            "image 1 (s)",
            "images 2-N (s)",
            "total (s)",
            "paper img1/rest/total (s)",
        ],
    );
    for row in rows {
        table.row(&[
            row.nodes.to_string(),
            f(row.image1_s, 0),
            f(row.rest_s, 0),
            f(row.total_s, 0),
            format!(
                "{:.0} / {:.0} / {:.0}",
                row.paper.0, row.paper.1, row.paper.2
            ),
        ]);
    }
    if let (Some(seq), Some(par)) = (
        rows.iter().find(|r| r.nodes == 1),
        rows.iter().find(|r| r.nodes == 4),
    ) {
        if par.rest_s > 0.0 {
            table.row(&[
                "speed-up (warm)".to_string(),
                String::new(),
                f(seq.rest_s / par.rest_s, 2),
                String::new(),
                "paper: 3.8".to_string(),
            ]);
        }
    }
    table
}

/// The `table4` scenario. `quick` scales the workload down (smaller
/// databases, shorter per-record compute), which preserves the cold/warm and
/// sequential/parallel structure while finishing in seconds.
pub fn scenario(quick: bool) -> Outcome {
    let params = if quick {
        LssParams {
            images: 6,
            databases: 4,
            database_size: 2 * 1024 * 1024,
            compute_per_mb: ipop_simcore::Duration::from_secs(10),
        }
    } else {
        LssParams::default()
    };
    render(&run(params.clone()), &params).print();
    Outcome::printed()
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
        let rows = run(params);
        let seq = rows.iter().find(|r| r.nodes == 1).unwrap();
        let par = rows.iter().find(|r| r.nodes == 4).unwrap();
        assert!(
            seq.total_s > 0.0 && par.total_s > 0.0,
            "both runs completed"
        );
        // Cold first image is slower than a warm one in the sequential run.
        let seq_warm_per_image = seq.rest_s / 2.0;
        assert!(
            seq.image1_s > seq_warm_per_image,
            "cold image ({}) slower than warm ({})",
            seq.image1_s,
            seq_warm_per_image
        );
        // Parallel warm-cache phase shows a clear speed-up (>2x with 4 nodes).
        assert!(
            seq.rest_s / par.rest_s > 2.0,
            "warm speed-up {} too small",
            seq.rest_s / par.rest_s
        );
    }
}
