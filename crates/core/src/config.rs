//! IPOP node configuration.

use std::net::Ipv4Addr;

use ipop_overlay::packets::Endpoint;
use ipop_overlay::transport::TransportMode;
use ipop_overlay::{Address, OverlayConfig};
use ipop_simcore::Duration;

/// Configuration of one IPOP node (paper Section III).
#[derive(Clone, Debug)]
pub struct IpopConfig {
    /// The virtual IP address assigned to this host's tap interface. Must be unique
    /// within the virtual address space; the node's overlay address is its SHA-1
    /// hash. `0.0.0.0` (unspecified) when the node allocates its address
    /// dynamically — see [`IpopConfig::dynamic`].
    pub virtual_ip: Ipv4Addr,
    /// When set, the node joins with no address and allocates one from this
    /// subnet through the DHCP-over-DHT allocator (`ipop-services`). Implies
    /// Brunet-ARP: with a dynamic address the overlay address cannot be the
    /// hash of the virtual IP, so mappings must live in the DHT.
    pub dynamic_subnet: Option<(Ipv4Addr, u8)>,
    /// Hostname registered in (and resolvable through) the overlay name
    /// service once the node has an address.
    pub hostname: Option<String>,
    /// Lifetime of this node's DHT registrations (address lease, Brunet-ARP
    /// mappings, name records). Renewed at half this interval; after a crash
    /// the records age out one TTL later.
    pub lease_ttl: Duration,
    /// The virtual address space (used only to sanity-check destinations).
    pub virtual_prefix: (Ipv4Addr, u8),
    /// The fabricated gateway IP for the static-ARP trick (must not collide with a
    /// real virtual IP).
    pub gateway_ip: Ipv4Addr,
    /// MTU of the virtual interface. Kept below the physical MTU so an encapsulated
    /// virtual packet still fits in a single physical datagram.
    pub virtual_mtu: usize,
    /// Whether Brunet runs over UDP or TCP (the two modes compared in Tables I-III).
    pub transport: TransportMode,
    /// The overlay node's own configuration, with the overlay's own defaults:
    /// bootstrap endpoints, maintenance tick, shortcuts, link monitor, DHT
    /// sweep, pub/sub fan-out. The port of `local_endpoint` (4001) is the
    /// one the transport binds; its host and `address` are placeholders
    /// [`crate::IpopHostAgent::new`] fills in — only it knows them.
    pub overlay: OverlayConfig,
    /// Virtual addresses the dynamic allocator must never draw, *besides* the
    /// fabricated gateway (e.g. guest-VM IPs a workload assigns by hand).
    pub reserved_ips: Vec<Ipv4Addr>,
    /// Enable the Brunet-ARP mapper (paper Section III-E): IP→overlay-address
    /// mappings are registered in and resolved from the DHT instead of being
    /// derived directly from the destination IP. Required for hosts that route for
    /// multiple virtual IPs or for migrating VMs.
    pub brunet_arp: bool,
    /// Lifetime of Brunet-ARP cache entries at senders.
    pub brunet_arp_cache_ttl: Duration,
    /// Lifetime of this node's topic subscriptions; renewed at half this
    /// interval while subscribed, aged out one TTL after a crash.
    pub pubsub_ttl: Duration,
    /// Append (and require) an FNV-64 integrity tag on every overlay link
    /// message, so corrupted-but-parseable datagrams are dropped at the
    /// transport instead of minting phantom peers. Every node in a deployment
    /// must agree on this switch.
    pub link_integrity_tag: bool,
}

impl IpopConfig {
    /// A node with virtual address `virtual_ip` and defaults matching the paper's
    /// prototype (UDP transport, 172.16.0.0/16 virtual space, port 4001).
    pub fn new(virtual_ip: Ipv4Addr) -> Self {
        IpopConfig {
            virtual_ip,
            dynamic_subnet: None,
            hostname: None,
            lease_ttl: Duration::from_secs(120),
            virtual_prefix: (Ipv4Addr::new(172, 16, 0, 0), 16),
            gateway_ip: Ipv4Addr::new(172, 16, 255, 254),
            virtual_mtu: 1400,
            transport: TransportMode::Udp,
            overlay: OverlayConfig::new(Address::ZERO, (Ipv4Addr::UNSPECIFIED, 4001)),
            reserved_ips: Vec::new(),
            brunet_arp: false,
            brunet_arp_cache_ttl: Duration::from_secs(300),
            pubsub_ttl: Duration::from_secs(120),
            link_integrity_tag: false,
        }
    }

    /// A node that joins knowing only the virtual subnet: its address is drawn
    /// and claimed through the DHCP-over-DHT allocator, its overlay address is
    /// random, and Brunet-ARP resolves IPs to overlay addresses. The
    /// fabricated gateway is the subnet's second-highest host address (the
    /// allocator never draws it).
    pub fn dynamic(subnet: (Ipv4Addr, u8)) -> Self {
        let (net, len) = subnet;
        assert!(len <= 30, "subnet too small for dynamic allocation");
        let mask = u32::MAX << (32 - len);
        let net = u32::from(net) & mask;
        let gateway = Ipv4Addr::from(net | (!mask - 1));
        let mut cfg = Self::new(Ipv4Addr::UNSPECIFIED);
        cfg.dynamic_subnet = Some((Ipv4Addr::from(net), len));
        cfg.virtual_prefix = (Ipv4Addr::from(net), len);
        cfg.gateway_ip = gateway;
        cfg.brunet_arp = true;
        cfg
    }

    /// Builder: register `hostname` in the overlay name service.
    pub fn with_hostname(mut self, hostname: &str) -> Self {
        self.hostname = Some(hostname.to_string());
        self
    }

    /// Builder: set the lease TTL for this node's DHT registrations.
    pub fn with_lease_ttl(mut self, ttl: Duration) -> Self {
        self.lease_ttl = ttl;
        self
    }

    /// Builder: set bootstrap endpoints.
    pub fn with_bootstrap(mut self, bootstrap: Vec<Endpoint>) -> Self {
        self.overlay.bootstrap = bootstrap;
        self
    }

    /// Builder: select the overlay transport mode.
    pub fn with_transport(mut self, mode: TransportMode) -> Self {
        self.transport = mode;
        self
    }

    /// Builder: enable the Brunet-ARP DHT mapper.
    pub fn with_brunet_arp(mut self) -> Self {
        self.brunet_arp = true;
        self
    }

    /// Is `ip` inside the virtual address space?
    pub fn in_virtual_space(&self, ip: Ipv4Addr) -> bool {
        let (net, len) = self.virtual_prefix;
        if len == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - len);
        (u32::from(ip) & mask) == (u32::from(net) & mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = IpopConfig::new(Ipv4Addr::new(172, 16, 0, 2));
        assert!(cfg.in_virtual_space(cfg.virtual_ip));
        assert!(cfg.in_virtual_space(cfg.gateway_ip));
        assert!(!cfg.in_virtual_space(Ipv4Addr::new(10, 0, 0, 1)));
        assert!(cfg.virtual_mtu < 1500);
        assert!(!cfg.brunet_arp);
    }

    /// The overlay's knobs are the overlay's: neither constructor restates
    /// (or overrides) a default.
    #[test]
    fn overlay_defaults_are_the_overlays_own() {
        let stat = IpopConfig::new(Ipv4Addr::new(172, 16, 0, 2)).overlay;
        let dynamic = IpopConfig::dynamic((Ipv4Addr::new(172, 16, 9, 0), 24)).overlay;
        assert_eq!(stat, OverlayConfig::new(stat.address, stat.local_endpoint));
        assert_eq!(dynamic, stat);
    }

    #[test]
    fn dynamic_config_derives_subnet_fields() {
        let cfg = IpopConfig::dynamic((Ipv4Addr::new(172, 16, 9, 77), 24)).with_hostname("w1");
        assert!(cfg.virtual_ip.is_unspecified());
        assert_eq!(
            cfg.dynamic_subnet,
            Some((Ipv4Addr::new(172, 16, 9, 0), 24)),
            "host bits are masked off"
        );
        assert_eq!(cfg.gateway_ip, Ipv4Addr::new(172, 16, 9, 254));
        assert!(cfg.brunet_arp, "dynamic addressing requires Brunet-ARP");
        assert!(cfg.in_virtual_space(Ipv4Addr::new(172, 16, 9, 3)));
        assert!(!cfg.in_virtual_space(Ipv4Addr::new(172, 16, 10, 3)));
        assert_eq!(cfg.hostname.as_deref(), Some("w1"));
    }

    #[test]
    fn builders_compose() {
        let cfg = IpopConfig::new(Ipv4Addr::new(172, 16, 0, 3))
            .with_transport(TransportMode::Tcp)
            .with_bootstrap(vec![(Ipv4Addr::new(128, 227, 56, 83), 4001)])
            .with_brunet_arp()
            .with_lease_ttl(Duration::from_secs(30));
        assert_eq!(cfg.transport, TransportMode::Tcp);
        assert_eq!(cfg.overlay.bootstrap.len(), 1);
        assert!(cfg.brunet_arp);
        assert_eq!(cfg.lease_ttl, Duration::from_secs(30));
    }
}
