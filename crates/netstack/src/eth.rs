//! The Ethernet/ARP adaptation layer between a [`crate::stack::NetStack`] and a
//! frame-level device (the tap interface).
//!
//! IPOP's host configuration (paper Section III-A) gives every virtual interface a
//! route for the whole virtual address space via a *non-existent gateway* plus a
//! static ARP entry mapping that gateway to a fabricated MAC address. The effect is
//! that the kernel emits only IP frames addressed to the gateway MAC — ARP never
//! needs to leave the host — and IPOP can treat every frame read from the tap as
//! "an IP packet for the overlay". This module reproduces exactly that behaviour
//! and also implements ordinary dynamic ARP so tests can show the containment is a
//! configuration choice, not a simulator shortcut.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use ipop_packet::arp::{ArpOperation, ArpPacket};
use ipop_packet::ether::{EthernetFrame, FramePayload, MacAddr};
use ipop_packet::ipv4::Ipv4Packet;

/// An ARP cache with optional static entries.
#[derive(Debug, Default)]
pub struct ArpTable {
    entries: BTreeMap<Ipv4Addr, MacAddr>,
}

impl ArpTable {
    /// An empty table.
    pub fn new() -> Self {
        ArpTable {
            entries: BTreeMap::new(),
        }
    }

    /// Insert or replace an entry.
    pub fn insert(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        self.entries.insert(ip, mac);
    }

    /// Look up the MAC for an IP.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.entries.get(&ip).copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Counters for the adapter.
#[derive(Clone, Copy, Debug, Default)]
pub struct EthCounters {
    /// ARP requests emitted by this host.
    pub arp_requests_sent: u64,
    /// ARP replies emitted by this host.
    pub arp_replies_sent: u64,
    /// ARP packets received.
    pub arp_received: u64,
    /// IPv4 packets delivered up to the stack.
    pub ipv4_delivered: u64,
    /// Frames ignored (wrong destination MAC, unknown EtherType).
    pub ignored: u64,
}

/// Glue between an IP stack and an Ethernet device.
#[derive(Debug)]
pub struct EthAdapter {
    mac: MacAddr,
    ip: Ipv4Addr,
    /// Next-hop gateway for every destination ("via gateway" route). `None` means
    /// destinations are resolved on-link.
    gateway: Option<Ipv4Addr>,
    arp: ArpTable,
    /// Packets waiting for ARP resolution, keyed by next-hop.
    pending: Vec<(Ipv4Addr, Ipv4Packet)>,
    counters: EthCounters,
}

impl EthAdapter {
    /// An adapter for interface `mac`/`ip` resolving destinations on-link.
    pub fn new(mac: MacAddr, ip: Ipv4Addr) -> Self {
        EthAdapter {
            mac,
            ip,
            gateway: None,
            arp: ArpTable::new(),
            pending: Vec::new(),
            counters: EthCounters::default(),
        }
    }

    /// IPOP-style configuration: route everything via `gateway_ip` and install a
    /// static ARP entry for it, so no ARP request ever leaves the host.
    pub fn with_static_gateway(
        mac: MacAddr,
        ip: Ipv4Addr,
        gateway_ip: Ipv4Addr,
        gateway_mac: MacAddr,
    ) -> Self {
        let mut a = Self::new(mac, ip);
        a.gateway = Some(gateway_ip);
        a.arp.insert(gateway_ip, gateway_mac);
        a
    }

    /// The interface MAC.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// The interface IP.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// Counter snapshot.
    pub fn counters(&self) -> EthCounters {
        self.counters
    }

    /// Read-only view of the ARP table.
    pub fn arp_table(&self) -> &ArpTable {
        &self.arp
    }

    fn next_hop(&self, dst: Ipv4Addr) -> Ipv4Addr {
        self.gateway.unwrap_or(dst)
    }

    /// Encapsulate an outgoing IP packet into frames. If the next hop's MAC is
    /// unknown, an ARP request frame is produced instead and the packet is parked
    /// until the reply arrives.
    pub fn encapsulate(&mut self, pkt: Ipv4Packet) -> Vec<EthernetFrame> {
        let hop = self.next_hop(pkt.dst());
        match self.arp.lookup(hop) {
            Some(mac) => vec![EthernetFrame::ipv4(self.mac, mac, pkt)],
            None => {
                self.pending.push((hop, pkt));
                self.counters.arp_requests_sent += 1;
                vec![EthernetFrame::arp(
                    self.mac,
                    MacAddr::BROADCAST,
                    ArpPacket::request(self.mac, self.ip, hop),
                )]
            }
        }
    }

    /// Process a frame received from the device. Returns the IP packets to hand to
    /// the stack and any frames to transmit in response (ARP replies, packets that
    /// were waiting for resolution).
    pub fn process_frame(&mut self, frame: EthernetFrame) -> (Vec<Ipv4Packet>, Vec<EthernetFrame>) {
        let mut up = Vec::new();
        let mut out = Vec::new();
        let for_us = frame.dst == self.mac || frame.dst.is_broadcast();
        if !for_us {
            self.counters.ignored += 1;
            return (up, out);
        }
        match frame.payload {
            FramePayload::Ipv4(pkt) => {
                self.counters.ipv4_delivered += 1;
                up.push(pkt);
            }
            FramePayload::Arp(arp) => {
                self.counters.arp_received += 1;
                match arp.operation {
                    ArpOperation::Request => {
                        // Learn the asker and answer if they want us.
                        self.arp.insert(arp.sender_ip, arp.sender_mac);
                        if arp.target_ip == self.ip {
                            self.counters.arp_replies_sent += 1;
                            out.push(EthernetFrame::arp(
                                self.mac,
                                arp.sender_mac,
                                ArpPacket::reply_to(&arp, self.mac, self.ip),
                            ));
                        }
                    }
                    ArpOperation::Reply => {
                        self.arp.insert(arp.sender_ip, arp.sender_mac);
                        // Flush packets that were waiting for this resolution.
                        let resolved = arp.sender_ip;
                        let mac = arp.sender_mac;
                        let mut still_waiting = Vec::new();
                        for (hop, pkt) in self.pending.drain(..) {
                            if hop == resolved {
                                out.push(EthernetFrame::ipv4(self.mac, mac, pkt));
                            } else {
                                still_waiting.push((hop, pkt));
                            }
                        }
                        self.pending = still_waiting;
                    }
                }
            }
            FramePayload::Other(..) => {
                self.counters.ignored += 1;
            }
        }
        (up, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipop_packet::ipv4::Ipv4Payload;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    fn pkt(src: Ipv4Addr, dst: Ipv4Addr) -> Ipv4Packet {
        Ipv4Packet::new(src, dst, Ipv4Payload::Raw(99, vec![1, 2, 3].into()))
    }

    #[test]
    fn static_gateway_never_emits_arp() {
        let gw_mac = MacAddr::local(200);
        let mut eth = EthAdapter::with_static_gateway(
            MacAddr::local(1),
            ip(172, 16, 0, 2),
            ip(172, 16, 0, 254),
            gw_mac,
        );
        for host in 3..20u8 {
            let frames = eth.encapsulate(pkt(ip(172, 16, 0, 2), ip(172, 16, 0, host)));
            assert_eq!(frames.len(), 1);
            assert!(matches!(frames[0].payload, FramePayload::Ipv4(_)));
            assert_eq!(frames[0].dst, gw_mac);
        }
        assert_eq!(eth.counters().arp_requests_sent, 0);
    }

    #[test]
    fn dynamic_arp_resolution_flow() {
        let mut a = EthAdapter::new(MacAddr::local(1), ip(10, 0, 0, 1));
        let mut b = EthAdapter::new(MacAddr::local(2), ip(10, 0, 0, 2));

        // A wants to send to B but has no ARP entry: emits a request, parks the packet.
        let frames = a.encapsulate(pkt(ip(10, 0, 0, 1), ip(10, 0, 0, 2)));
        assert_eq!(frames.len(), 1);
        assert!(matches!(frames[0].payload, FramePayload::Arp(_)));

        // B receives the request and answers.
        let (up_b, replies) = b.process_frame(frames.into_iter().next().unwrap());
        assert!(up_b.is_empty());
        assert_eq!(replies.len(), 1);
        assert_eq!(b.counters().arp_replies_sent, 1);
        // B also learned A's mapping from the request.
        assert_eq!(
            b.arp_table().lookup(ip(10, 0, 0, 1)),
            Some(MacAddr::local(1))
        );

        // A receives the reply and releases the parked packet.
        let (up_a, out_a) = a.process_frame(replies.into_iter().next().unwrap());
        assert!(up_a.is_empty());
        assert_eq!(out_a.len(), 1);
        assert_eq!(out_a[0].dst, MacAddr::local(2));

        // B finally receives the data frame.
        let (up_b2, _) = b.process_frame(out_a.into_iter().next().unwrap());
        assert_eq!(up_b2.len(), 1);
        assert_eq!(up_b2[0].dst(), ip(10, 0, 0, 2));
    }

    #[test]
    fn frames_for_other_macs_are_ignored() {
        let mut a = EthAdapter::new(MacAddr::local(1), ip(10, 0, 0, 1));
        let foreign = EthernetFrame::ipv4(
            MacAddr::local(5),
            MacAddr::local(6),
            pkt(ip(1, 1, 1, 1), ip(2, 2, 2, 2)),
        );
        let (up, out) = a.process_frame(foreign);
        assert!(up.is_empty() && out.is_empty());
        assert_eq!(a.counters().ignored, 1);
    }

    #[test]
    fn arp_request_for_other_ip_learns_but_does_not_reply() {
        let mut a = EthAdapter::new(MacAddr::local(1), ip(10, 0, 0, 1));
        let req = EthernetFrame::arp(
            MacAddr::local(9),
            MacAddr::BROADCAST,
            ArpPacket::request(MacAddr::local(9), ip(10, 0, 0, 9), ip(10, 0, 0, 77)),
        );
        let (_, out) = a.process_frame(req);
        assert!(out.is_empty());
        assert_eq!(
            a.arp_table().lookup(ip(10, 0, 0, 9)),
            Some(MacAddr::local(9))
        );
    }
}
