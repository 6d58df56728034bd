//! A wide-area overlay at Planet-Lab scale: dozens of self-configuring IPOP nodes
//! on heavily loaded machines, with virtual-network pings routed across multiple
//! overlay hops (the Fig. 5 scenario at reduced size).
//!
//! Run with `cargo run -p ipop-examples --bin planetlab_overlay --release`
//! (`--quick` for a smaller overlay and fewer pings).

use ipop_bench::fig5::{self, Fig5Params};

fn main() {
    let params = if ipop_bench::quick_mode() {
        Fig5Params {
            nodes: 16,
            load: 10.0,
            pings: 20,
        }
    } else {
        Fig5Params {
            nodes: 40,
            load: 10.0,
            pings: 200,
        }
    };
    println!(
        "deploying a {}-node overlay on CPU-loaded hosts and sending {} pings...",
        params.nodes, params.pings
    );
    fig5::print(&fig5::run(&params), &params);
}
