//! Physical-network simulator for the IPOP reproduction.
//!
//! The paper evaluates IPOP on real testbeds (a University of Florida LAN, a
//! three-site wide-area deployment and a 118-node Planet-Lab slice). This crate is
//! the substitute substrate: a deterministic discrete-event model of hosts, sites,
//! links, NAT boxes, firewalls and CPU contention that exercises the same code
//! paths — user-level packet processing, double kernel-stack traversal,
//! NAT/firewall reachability — that produce the paper's measurements.
//!
//! The crate deliberately knows nothing about IPOP or Brunet: it moves IPv4 packets
//! between [`host::HostAgent`]s. The overlay, the IPOP node and the applications
//! are all implemented as agents in the higher crates.

pub mod calibration;
pub mod firewall;
pub mod host;
pub mod impair;
pub mod link;
pub mod nat;
pub mod network;
pub mod scale;
pub mod site;
pub mod topology;

pub use calibration::Calibration;
pub use firewall::{Direction, Firewall, HostMatch, ProtoMatch, Rule};
pub use host::{Host, HostAgent, HostCounters, HostCtx, HostId, TimerId};
pub use impair::{ImpairmentCounters, LinkImpairment};
pub use link::{Link, LinkOutcome, LinkParams, LinkState};
pub use nat::{Endpoint, NatBox, NatType};
pub use network::{CoreParams, NetCounters, NetEvent, Network, NetworkSim, SiteId};
pub use scale::ScaleNet;
pub use site::{Prefix, Site, SiteSpec};
pub use topology::{fig4_testbed, lan_pair, planetlab, wan_pair, Fig4Testbed, PlanetLab};
