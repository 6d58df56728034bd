//! The paper's headline case study (Section IV-C): an unmodified MPI application
//! (LSS) using message passing and NFS-mounted volumes across three firewalled
//! wide-area domains, aggregated into one virtual cluster by IPOP. (The paper
//! also starts the LAM daemons over SSH; that session setup is not modelled.)
//!
//! Run with `cargo run -p ipop-examples --bin grid_mpi_cluster --release`.

use ipop_apps::lss::LssParams;
use ipop_bench::scenarios::fig4_lss;
use ipop_simcore::Duration;

fn main() {
    // A scaled-down LSS workload (2 MB databases) so the example finishes quickly;
    // the full Table IV run lives in `cargo run --release -p ipop-bench -- table4`.
    // `--quick` shrinks it further for smoke tests.
    let params = if ipop_bench::quick_mode() {
        LssParams {
            images: 2,
            databases: 2,
            database_size: 512 * 1024,
            compute_per_mb: Duration::from_secs(5),
        }
    } else {
        LssParams {
            images: 4,
            databases: 4,
            database_size: 2 * 1024 * 1024,
            compute_per_mb: Duration::from_secs(15),
        }
    };

    for workers in [1usize, 4] {
        let (report, _) = fig4_lss(workers, params.clone(), 2026);
        println!("--- {workers} compute node(s) ---");
        println!(
            "  image 1 (cold NFS caches): {:>7.1} s",
            report.first_image()
        );
        println!(
            "  images 2-{} (warm caches):  {:>7.1} s",
            params.images,
            report.remaining_images()
        );
        println!("  total:                     {:>7.1} s", report.total());
    }
}
