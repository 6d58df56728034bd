//! The paper's headline case study (Section IV-C): an unmodified MPI application
//! (LSS) using SSH, message passing and NFS-mounted volumes across three
//! firewalled wide-area domains, aggregated into one virtual cluster by IPOP.
//!
//! Run with `cargo run -p ipop-examples --bin grid_mpi_cluster --release`.

use ipop::prelude::*;
use ipop::IpopHostAgent;
use ipop_apps::lss::{LssMaster, LssParams, LssWorker};
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
        let report = ipop_bench_like_lss(workers, params.clone());
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

/// Build the Fig. 4 testbed, deploy the LSS roles over IPOP and run to completion.
fn ipop_bench_like_lss(workers: usize, params: LssParams) -> ipop_apps::lss::LssReport {
    use ipop_apps::lss::LssFileServer;
    use std::net::Ipv4Addr;

    let mut net = Network::new(2026);
    let tb = ipop_netsim::fig4_testbed(&mut net);
    let vips = [
        Ipv4Addr::new(172, 16, 0, 3),
        Ipv4Addr::new(172, 16, 0, 4),
        Ipv4Addr::new(172, 16, 0, 51),
        Ipv4Addr::new(172, 16, 0, 2),
        Ipv4Addr::new(172, 16, 0, 18),
        Ipv4Addr::new(172, 16, 0, 20),
    ];
    let nfs_vip = vips[3];
    let master_vip = vips[2];
    let worker_hosts = [tb.f1, tb.f2, tb.v1, tb.l1];
    let worker_vips = [vips[0], vips[1], vips[4], vips[5]];
    let mut members = vec![
        IpopMember::new(tb.f4, nfs_vip, Box::new(LssFileServer::new(params.clone()))),
        IpopMember::new(
            tb.f3,
            master_vip,
            Box::new(LssMaster::new(params.clone(), workers)),
        ),
    ];
    for i in 0..4 {
        if i < workers {
            members.push(IpopMember::new(
                worker_hosts[i],
                worker_vips[i],
                Box::new(LssWorker::new(params.clone(), master_vip, nfs_vip)),
            ));
        } else {
            members.push(IpopMember::router(worker_hosts[i], worker_vips[i]));
        }
    }
    deploy_ipop(&mut net, members, DeployOptions::udp());
    let mut sim = NetworkSim::new(net);
    // Run until the master reports completion (bounded).
    for _ in 0..4000 {
        sim.run_for(Duration::from_secs(1));
        let done = sim
            .agent_as::<IpopHostAgent>(tb.f3)
            .and_then(|a| a.app_as::<LssMaster>())
            .is_some_and(|m| m.finished());
        if done {
            break;
        }
    }
    sim.agent_as::<IpopHostAgent>(tb.f3)
        .and_then(|a| a.app_as::<LssMaster>())
        .map(|m| m.report().clone())
        .unwrap_or_default()
}
