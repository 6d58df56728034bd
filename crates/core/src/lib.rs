//! # IPOP — IP over P2P
//!
//! A from-scratch Rust reproduction of *"IP over P2P: Enabling Self-configuring
//! Virtual IP Networks for Grid Computing"* (Ganguly, Agrawal, Boykin, Figueiredo —
//! IPDPS 2006).
//!
//! IPOP aggregates machines spread across multiple administrative domains — behind
//! NATs and firewalls — into one flat virtual IP network. Each host exposes a
//! virtual ("tap") interface; the user-level IPOP node captures the Ethernet frames
//! the kernel writes to it, extracts the IPv4 packets, and tunnels them through a
//! self-configuring structured P2P overlay (Brunet) to the node that owns the
//! destination virtual IP, where they are re-injected. Unmodified applications
//! (ping, ttcp, SSH, MPI, NFS) then work across wide-area, NATed, firewalled
//! resources exactly as they would on a LAN.
//!
//! ## Crate layout
//!
//! * [`config`] — per-node configuration (virtual IP, transport mode, Brunet-ARP).
//! * [`node`] — [`IpopHostAgent`]: the full IPOP node (physical stack + overlay +
//!   tap + virtual stack + application) as a simulation host agent.
//! * [`plain`] — [`PlainHostAgent`]: the same application run directly on the
//!   physical network (the "physical" baseline rows of the paper's tables).
//! * [`app`] — the [`VirtualApp`] trait the workloads in `ipop-apps` implement.
//! * [`brunet_arp`] — the DHT-based IP→overlay-address mapper of Section III-E.
//! * [`builder`] — one-call deployment of an IPOP virtual network over a simulated
//!   physical topology.
//!
//! ## Quick start
//!
//! ```
//! use ipop::prelude::*;
//! use std::net::Ipv4Addr;
//!
//! // A physical network: two hosts on one LAN.
//! let mut net = Network::new(42);
//! let (a, b, _, _) = ipop_netsim::lan_pair(&mut net);
//!
//! // Join both hosts to a virtual 172.16.0.0/16 network.
//! deploy_ipop(
//!     &mut net,
//!     vec![
//!         IpopMember::router(a, Ipv4Addr::new(172, 16, 0, 1)),
//!         IpopMember::router(b, Ipv4Addr::new(172, 16, 0, 2)),
//!     ],
//!     DeployOptions::udp(),
//! );
//!
//! // Run the simulation until the overlay has self-configured.
//! let mut sim = NetworkSim::new(net);
//! sim.run_for(ipop_simcore::Duration::from_secs(10));
//! let node = sim.agent_as::<IpopHostAgent>(b).unwrap();
//! assert!(node.is_connected());
//! ```

pub mod app;
pub mod brunet_arp;
pub mod builder;
pub mod config;
pub mod node;
pub mod plain;
mod wakeup;

pub use app::{AppEnv, NullApp, VirtualApp};
pub use brunet_arp::{BrunetArp, Resolution};
pub use builder::{deploy_ipop, deploy_plain, DeployOptions, IpopMember};
pub use config::IpopConfig;
pub use ipop_services::vstream::{StreamFate, VirtualStream};
pub use node::{IpopHostAgent, IpopMetrics};
pub use plain::PlainHostAgent;

/// Convenient re-exports for examples and experiment harnesses.
pub mod prelude {
    pub use crate::app::{AppEnv, NullApp, VirtualApp};
    pub use crate::builder::{deploy_ipop, deploy_plain, DeployOptions, IpopMember};
    pub use crate::config::IpopConfig;
    pub use crate::node::IpopHostAgent;
    pub use crate::plain::PlainHostAgent;
    pub use ipop_netsim::{fig4_testbed, lan_pair, planetlab, wan_pair, Network, NetworkSim};
    pub use ipop_overlay::transport::TransportMode;
    pub use ipop_simcore::{Duration, SimTime};
}
