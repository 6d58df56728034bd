//! Stateful site firewalls.
//!
//! The paper's testbed (Fig. 4) places V1 behind the VIMS firewall and L1 behind
//! the LSU firewall: neither accepts unsolicited inbound connections (except SSH
//! from one specific host), and LFW even restricts *outbound* TCP to a single
//! destination. IPOP still achieves bidirectional virtual connectivity because the
//! overlay only ever needs outbound-initiated flows plus the reply traffic a
//! stateful firewall always admits. The model here is a standard first-match rule
//! list plus a connection-tracking table for established flows.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use ipop_packet::ipv4::{Ipv4Packet, Protocol};

/// Direction of a packet relative to the protected site.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Leaving the site.
    Outbound,
    /// Entering the site.
    Inbound,
}

/// Which hosts a rule applies to.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum HostMatch {
    /// Any address.
    Any,
    /// Exactly this address.
    Addr(Ipv4Addr),
}

impl HostMatch {
    fn matches(&self, addr: Ipv4Addr) -> bool {
        match self {
            HostMatch::Any => true,
            HostMatch::Addr(a) => *a == addr,
        }
    }
}

/// Which protocols a rule applies to.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ProtoMatch {
    /// Any protocol.
    Any,
    /// TCP only.
    Tcp,
    /// UDP only.
    Udp,
    /// ICMP only.
    Icmp,
}

impl ProtoMatch {
    fn matches(&self, p: Protocol) -> bool {
        match self {
            ProtoMatch::Any => true,
            ProtoMatch::Tcp => p == Protocol::Tcp,
            ProtoMatch::Udp => p == Protocol::Udp,
            ProtoMatch::Icmp => p == Protocol::Icmp,
        }
    }
}

/// A single filtering rule.
#[derive(Copy, Clone, Debug)]
pub struct Rule {
    /// Direction this rule applies to.
    pub direction: Direction,
    /// Protocol filter.
    pub proto: ProtoMatch,
    /// Remote (off-site) host filter.
    pub remote: HostMatch,
    /// Destination-port filter (`None` = any). For inbound rules this is the port
    /// on the protected host; for outbound rules the port on the remote host.
    pub dst_port: Option<u16>,
    /// Permit or deny.
    pub allow: bool,
}

impl Rule {
    /// Allow inbound traffic to `dst_port` from `remote`.
    pub fn allow_inbound(proto: ProtoMatch, remote: HostMatch, dst_port: Option<u16>) -> Self {
        Rule {
            direction: Direction::Inbound,
            proto,
            remote,
            dst_port,
            allow: true,
        }
    }

    /// Allow outbound traffic to `remote` (any port unless given).
    pub fn allow_outbound(proto: ProtoMatch, remote: HostMatch, dst_port: Option<u16>) -> Self {
        Rule {
            direction: Direction::Outbound,
            proto,
            remote,
            dst_port,
            allow: true,
        }
    }
}

/// Identity of a flow for connection tracking: (internal endpoint, remote endpoint,
/// protocol number). Ports are zero for ICMP, where the echo identifier is used.
type FlowKey = (Ipv4Addr, u16, Ipv4Addr, u16, u8);

/// A stateful firewall guarding one site.
#[derive(Debug)]
pub struct Firewall {
    rules: Vec<Rule>,
    default_outbound_allow: bool,
    default_inbound_allow: bool,
    established: BTreeSet<FlowKey>,
    /// Packets dropped, for diagnostics.
    pub dropped: u64,
}

impl Firewall {
    /// A firewall with the common policy: all outbound allowed, all unsolicited
    /// inbound denied, reply traffic of established flows allowed.
    pub fn default_deny_inbound() -> Self {
        Firewall {
            rules: Vec::new(),
            default_outbound_allow: true,
            default_inbound_allow: false,
            established: BTreeSet::new(),
            dropped: 0,
        }
    }

    /// A fully open firewall (used for sites that have none).
    pub fn open() -> Self {
        Firewall {
            rules: Vec::new(),
            default_outbound_allow: true,
            default_inbound_allow: true,
            established: BTreeSet::new(),
            dropped: 0,
        }
    }

    /// Restrict the default outbound policy to deny (LFW-style).
    pub fn with_default_outbound_deny(mut self) -> Self {
        self.default_outbound_allow = false;
        self
    }

    /// Append a rule (first match wins).
    pub fn add_rule(&mut self, rule: Rule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Number of tracked established flows.
    pub fn established_flows(&self) -> usize {
        self.established.len()
    }

    /// Does the default policy admit unsolicited inbound traffic? (Used to judge
    /// whether a host behind this firewall can serve as an overlay bootstrap.)
    pub fn accepts_unsolicited_inbound(&self) -> bool {
        self.default_inbound_allow
    }

    fn flow_key(internal: (Ipv4Addr, u16), remote: (Ipv4Addr, u16), proto: Protocol) -> FlowKey {
        (internal.0, internal.1, remote.0, remote.1, proto.value())
    }

    fn packet_ports(pkt: &Ipv4Packet) -> (u16, u16) {
        match pkt.ports() {
            Some(p) => p,
            None => match &pkt.payload {
                ipop_packet::ipv4::Ipv4Payload::Icmp(icmp) => (icmp.identifier, icmp.identifier),
                _ => (0, 0),
            },
        }
    }

    /// Filter a packet crossing the firewall. `internal_side_src` tells the
    /// firewall whether the packet originates inside the site (outbound) or outside
    /// (inbound). Returns `true` if the packet may pass.
    pub fn permit(&mut self, direction: Direction, pkt: &Ipv4Packet) -> bool {
        let proto = pkt.protocol();
        let (src_port, dst_port) = Self::packet_ports(pkt);
        let verdict = match direction {
            Direction::Outbound => {
                let remote = pkt.dst();
                let decision = self
                    .rules
                    .iter()
                    .find(|r| {
                        r.direction == Direction::Outbound
                            && r.proto.matches(proto)
                            && r.remote.matches(remote)
                            && r.dst_port.is_none_or(|p| p == dst_port)
                    })
                    .map(|r| r.allow)
                    .unwrap_or(self.default_outbound_allow);
                if decision {
                    // Track the flow so replies are admitted.
                    self.established.insert(Self::flow_key(
                        (pkt.src(), src_port),
                        (remote, dst_port),
                        proto,
                    ));
                }
                decision
            }
            Direction::Inbound => {
                let remote = pkt.src();
                // 1. Reply traffic of an established outbound flow.
                let key = Self::flow_key((pkt.dst(), dst_port), (remote, src_port), proto);
                if self.established.contains(&key) {
                    return true;
                }
                // 2. Explicit rules.
                self.rules
                    .iter()
                    .find(|r| {
                        r.direction == Direction::Inbound
                            && r.proto.matches(proto)
                            && r.remote.matches(remote)
                            && r.dst_port.is_none_or(|p| p == dst_port)
                    })
                    .map(|r| r.allow)
                    .unwrap_or(self.default_inbound_allow)
            }
        };
        if !verdict {
            self.dropped += 1;
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipop_packet::icmp::IcmpPacket;
    use ipop_packet::ipv4::Ipv4Payload;
    use ipop_packet::tcp::TcpSegment;
    use ipop_packet::udp::UdpDatagram;

    const INSIDE: Ipv4Addr = Ipv4Addr::new(10, 5, 0, 2);
    const OUTSIDE: Ipv4Addr = Ipv4Addr::new(128, 227, 1, 1);
    const OTHER: Ipv4Addr = Ipv4Addr::new(192, 5, 5, 5);

    fn udp_packet(src: Ipv4Addr, sp: u16, dst: Ipv4Addr, dp: u16) -> Ipv4Packet {
        Ipv4Packet::new(
            src,
            dst,
            Ipv4Payload::Udp(UdpDatagram::new(sp, dp, vec![1])),
        )
    }

    fn tcp_syn(src: Ipv4Addr, sp: u16, dst: Ipv4Addr, dp: u16) -> Ipv4Packet {
        Ipv4Packet::new(
            src,
            dst,
            Ipv4Payload::Tcp(TcpSegment::syn(sp, dp, 1, 1000, 1400)),
        )
    }

    #[test]
    fn unsolicited_inbound_denied_but_replies_allowed() {
        let mut fw = Firewall::default_deny_inbound();
        // Unsolicited inbound UDP: dropped.
        assert!(!fw.permit(Direction::Inbound, &udp_packet(OUTSIDE, 7000, INSIDE, 4000)));
        // Outbound first...
        assert!(fw.permit(
            Direction::Outbound,
            &udp_packet(INSIDE, 4000, OUTSIDE, 7000)
        ));
        assert_eq!(fw.established_flows(), 1);
        // ...then the reply is admitted.
        assert!(fw.permit(Direction::Inbound, &udp_packet(OUTSIDE, 7000, INSIDE, 4000)));
        // But a different remote port is still blocked.
        assert!(!fw.permit(Direction::Inbound, &udp_packet(OUTSIDE, 7001, INSIDE, 4000)));
        assert_eq!(fw.dropped, 2);
    }

    #[test]
    fn ssh_style_inbound_exception() {
        // VFW/LFW: only F3 may open inbound connections, and only to port 22.
        let mut fw = Firewall::default_deny_inbound();
        fw.add_rule(Rule::allow_inbound(
            ProtoMatch::Tcp,
            HostMatch::Addr(OUTSIDE),
            Some(22),
        ));
        assert!(fw.permit(Direction::Inbound, &tcp_syn(OUTSIDE, 5555, INSIDE, 22)));
        assert!(!fw.permit(Direction::Inbound, &tcp_syn(OUTSIDE, 5555, INSIDE, 80)));
        assert!(!fw.permit(Direction::Inbound, &tcp_syn(OTHER, 5555, INSIDE, 22)));
    }

    #[test]
    fn outbound_default_deny_with_exception() {
        // LFW only allows outgoing TCP connections to one machine.
        let mut fw = Firewall::default_deny_inbound().with_default_outbound_deny();
        fw.add_rule(Rule::allow_outbound(
            ProtoMatch::Tcp,
            HostMatch::Addr(OUTSIDE),
            None,
        ));
        fw.add_rule(Rule::allow_outbound(ProtoMatch::Udp, HostMatch::Any, None));
        assert!(fw.permit(Direction::Outbound, &tcp_syn(INSIDE, 1000, OUTSIDE, 4001)));
        assert!(!fw.permit(Direction::Outbound, &tcp_syn(INSIDE, 1000, OTHER, 4001)));
        // UDP anywhere is fine under the exception rule.
        assert!(fw.permit(Direction::Outbound, &udp_packet(INSIDE, 1000, OTHER, 4001)));
    }

    #[test]
    fn icmp_echo_uses_identifier_for_state() {
        let mut fw = Firewall::default_deny_inbound();
        let request = Ipv4Packet::new(
            INSIDE,
            OUTSIDE,
            Ipv4Payload::Icmp(IcmpPacket::echo_request(42, 1, vec![0; 8])),
        );
        let reply = Ipv4Packet::new(
            OUTSIDE,
            INSIDE,
            Ipv4Payload::Icmp(IcmpPacket::echo_reply(&IcmpPacket::echo_request(
                42,
                1,
                vec![0; 8],
            ))),
        );
        assert!(fw.permit(Direction::Outbound, &request));
        assert!(fw.permit(Direction::Inbound, &reply));
        // A reply with a different identifier is unsolicited.
        let stray = Ipv4Packet::new(
            OUTSIDE,
            INSIDE,
            Ipv4Payload::Icmp(IcmpPacket::echo_reply(&IcmpPacket::echo_request(
                43,
                1,
                vec![0; 8],
            ))),
        );
        assert!(!fw.permit(Direction::Inbound, &stray));
    }

    #[test]
    fn open_firewall_permits_everything() {
        let mut fw = Firewall::open();
        assert!(fw.permit(Direction::Inbound, &tcp_syn(OUTSIDE, 1, INSIDE, 80)));
        assert!(fw.permit(Direction::Outbound, &udp_packet(INSIDE, 1, OTHER, 2)));
        assert_eq!(fw.dropped, 0);
    }
}
