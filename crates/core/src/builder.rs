//! Deployment helpers: turn a physical topology plus a list of virtual addresses
//! into a running IPOP virtual network.
//!
//! Adding a resource to an IPOP network is deliberately trivial in the paper — set
//! up a tap device, pick a free virtual IP and start the node — and this builder
//! mirrors that: give it the hosts and their virtual IPs, and it installs one
//! [`IpopHostAgent`] per host, all bootstrapping off the first one listed.

use std::net::Ipv4Addr;

use ipop_netsim::{HostId, Network};
use ipop_overlay::transport::TransportMode;
use ipop_simcore::Duration;

use crate::app::{NullApp, VirtualApp};
use crate::config::IpopConfig;
use crate::node::IpopHostAgent;
use crate::plain::PlainHostAgent;

/// A host to be joined to the virtual network.
pub struct IpopMember {
    /// The physical host.
    pub host: HostId,
    /// The virtual IP to assign to its tap interface, or `None` to allocate
    /// one dynamically from [`DeployOptions::dynamic_subnet`] through the
    /// DHCP-over-DHT allocator.
    pub virtual_ip: Option<Ipv4Addr>,
    /// Hostname to register in the overlay name service, if any.
    pub hostname: Option<String>,
    /// The application to run on the virtual network.
    pub app: Box<dyn VirtualApp>,
}

impl IpopMember {
    /// A member running the given application.
    pub fn new(host: HostId, virtual_ip: Ipv4Addr, app: Box<dyn VirtualApp>) -> Self {
        IpopMember {
            host,
            virtual_ip: Some(virtual_ip),
            hostname: None,
            app,
        }
    }

    /// A member that only routes (no application).
    pub fn router(host: HostId, virtual_ip: Ipv4Addr) -> Self {
        Self::new(host, virtual_ip, Box::new(NullApp))
    }

    /// A member that joins with no address and allocates one dynamically.
    pub fn dynamic(host: HostId, app: Box<dyn VirtualApp>) -> Self {
        IpopMember {
            host,
            virtual_ip: None,
            hostname: None,
            app,
        }
    }

    /// A dynamically addressed member that only routes.
    pub fn dynamic_router(host: HostId) -> Self {
        Self::dynamic(host, Box::new(NullApp))
    }

    /// Builder: register `hostname` in the overlay name service.
    pub fn with_hostname(mut self, hostname: &str) -> Self {
        self.hostname = Some(hostname.to_string());
        self
    }
}

/// Options shared by every member of a deployment.
#[derive(Clone, Debug)]
pub struct DeployOptions {
    /// Overlay transport mode (the IPOP-TCP vs IPOP-UDP axis of Tables I–III).
    pub transport: TransportMode,
    /// Enable the Brunet-ARP DHT mapper on every node (dynamic members enable
    /// it regardless — they cannot work without it).
    pub brunet_arp: bool,
    /// Enable shortcut connections.
    pub shortcuts: bool,
    /// Subnet dynamic members allocate their addresses from.
    pub dynamic_subnet: (Ipv4Addr, u8),
    /// Lease TTL for DHT registrations (address leases, mappings, names).
    pub lease_ttl: Duration,
    /// Sender-side Brunet-ARP cache TTL; `None` keeps the per-node default.
    /// Migration workloads shorten it — it bounds the blackout window of a
    /// migrating guest IP.
    pub arp_cache_ttl: Option<Duration>,
    /// Virtual addresses dynamic members must never claim (guest-VM IPs a
    /// workload assigns by hand), besides the gateway.
    pub reserved_ips: Vec<Ipv4Addr>,
    /// Idle interval before the overlay link monitor probes an edge; `None`
    /// keeps the per-node default. Bounds how long packets keep being
    /// forwarded into a crashed hop.
    pub link_probe_interval: Option<Duration>,
    /// Interval between DHT anti-entropy sweeps; `None` keeps the per-node
    /// default. Bounds the post-crash window in which a lost put stays
    /// unresolvable.
    pub dht_sweep_interval: Option<Duration>,
    /// Phi-accrual edge suspicion (loss-rate-weighted probe misses); false
    /// restores the fixed consecutive-miss verdict (ablation switch).
    pub phi_accrual: bool,
    /// Phi threshold at which an edge is declared dead; `None` keeps the
    /// per-node default.
    pub phi_threshold: Option<f64>,
    /// Maximum out-degree of the pub/sub relay tree; `None` keeps the
    /// per-node default.
    pub pubsub_fanout: Option<usize>,
    /// Topic subscription TTL; `None` keeps the per-node default.
    pub pubsub_ttl: Option<Duration>,
    /// Require the FNV-64 link integrity tag on every member (all-or-nothing:
    /// tagged and untagged nodes cannot interoperate).
    pub link_integrity_tag: bool,
}

impl Default for DeployOptions {
    fn default() -> Self {
        DeployOptions {
            transport: TransportMode::Udp,
            brunet_arp: false,
            shortcuts: true,
            dynamic_subnet: (Ipv4Addr::new(172, 16, 0, 0), 16),
            lease_ttl: Duration::from_secs(120),
            arp_cache_ttl: None,
            reserved_ips: Vec::new(),
            link_probe_interval: None,
            dht_sweep_interval: None,
            phi_accrual: true,
            phi_threshold: None,
            pubsub_fanout: None,
            pubsub_ttl: None,
            link_integrity_tag: false,
        }
    }
}

impl DeployOptions {
    /// UDP-mode deployment (the paper's best-performing configuration).
    pub fn udp() -> Self {
        Self::default()
    }

    /// TCP-mode deployment.
    pub fn tcp() -> Self {
        DeployOptions {
            transport: TransportMode::Tcp,
            ..Self::default()
        }
    }

    /// Builder: set the subnet dynamic members allocate from.
    pub fn with_dynamic_subnet(mut self, net: Ipv4Addr, prefix: u8) -> Self {
        self.dynamic_subnet = (net, prefix);
        self
    }
}

/// Install an [`IpopHostAgent`] on every member host. The first *publicly
/// reachable* member acts as the bootstrap node for all the others (any node
/// already in the overlay would do, but one behind a NAT or a
/// deny-inbound firewall cannot accept the initial unsolicited Hello — the
/// paper's deployments likewise bootstrap off public Brunet nodes). Falls back
/// to the first member when nobody is publicly reachable. Returns the member
/// hosts in the same order.
pub fn deploy_ipop(
    net: &mut Network,
    members: Vec<IpopMember>,
    options: DeployOptions,
) -> Vec<HostId> {
    assert!(
        !members.is_empty(),
        "a deployment needs at least one member"
    );
    let bootstrap_host = members
        .iter()
        .map(|m| m.host)
        .find(|&h| net.publicly_reachable(h))
        .unwrap_or(members[0].host);
    let bootstrap_addr = net.host(bootstrap_host).addr;
    let mut hosts = Vec::with_capacity(members.len());
    for member in members {
        let phys_addr = net.host(member.host).addr;
        let mut cfg = match member.virtual_ip {
            Some(ip) => IpopConfig::new(ip),
            None => IpopConfig::dynamic(options.dynamic_subnet),
        };
        cfg.transport = options.transport;
        cfg.lease_ttl = options.lease_ttl;
        cfg.hostname = member.hostname;
        cfg.brunet_arp |= options.brunet_arp;
        cfg.reserved_ips = options.reserved_ips.clone();
        cfg.link_integrity_tag = options.link_integrity_tag;
        if !options.shortcuts {
            cfg.overlay.max_shortcuts = 0;
        }
        cfg.overlay.phi_accrual = options.phi_accrual;
        // `None` keeps the default of the tier that owns the knob.
        if let Some(ttl) = options.arp_cache_ttl {
            cfg.brunet_arp_cache_ttl = ttl;
        }
        if let Some(ttl) = options.pubsub_ttl {
            cfg.pubsub_ttl = ttl;
        }
        if let Some(interval) = options.link_probe_interval {
            cfg.overlay.probe_interval = interval;
        }
        if let Some(interval) = options.dht_sweep_interval {
            cfg.overlay.dht.sweep_interval = Some(interval);
        }
        if let Some(threshold) = options.phi_threshold {
            cfg.overlay.phi_threshold = threshold;
        }
        if let Some(fanout) = options.pubsub_fanout {
            cfg.overlay.pubsub_fanout = fanout;
        }
        if member.host != bootstrap_host {
            cfg.overlay.bootstrap = vec![(bootstrap_addr, cfg.overlay.local_endpoint.1)];
        }
        let agent = IpopHostAgent::new(cfg, phys_addr, member.app);
        net.set_agent(member.host, Box::new(agent));
        hosts.push(member.host);
    }
    hosts
}

/// Install a baseline [`PlainHostAgent`] (no IPOP) running `app` on `host`.
pub fn deploy_plain(net: &mut Network, host: HostId, app: Box<dyn VirtualApp>) -> HostId {
    let addr = net.host(host).addr;
    net.set_agent(host, Box::new(PlainHostAgent::new(addr, app)));
    host
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipop_netsim::lan_pair;

    #[test]
    fn deploy_installs_agents_with_bootstrap_chain() {
        let mut net = Network::new(1);
        let (a, b, _, _) = lan_pair(&mut net);
        let hosts = deploy_ipop(
            &mut net,
            vec![
                IpopMember::router(a, Ipv4Addr::new(172, 16, 0, 1)),
                IpopMember::router(b, Ipv4Addr::new(172, 16, 0, 2)),
            ],
            DeployOptions::udp(),
        );
        assert_eq!(hosts, vec![a, b]);
        assert!(net.agent_as::<IpopHostAgent>(a).is_some());
        assert!(net.agent_as::<IpopHostAgent>(b).is_some());
        assert_eq!(
            net.agent_as::<IpopHostAgent>(b).unwrap().virtual_ip(),
            Ipv4Addr::new(172, 16, 0, 2)
        );
    }

    #[test]
    fn deploy_plain_installs_baseline_agent() {
        let mut net = Network::new(2);
        let (a, _, _, _) = lan_pair(&mut net);
        deploy_plain(&mut net, a, Box::new(NullApp));
        assert!(net.agent_as::<PlainHostAgent>(a).is_some());
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_deployment_is_rejected() {
        let mut net = Network::new(3);
        deploy_ipop(&mut net, vec![], DeployOptions::udp());
    }
}
