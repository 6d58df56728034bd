//! `selfconfig` — the title claim: nodes join a Planet-Lab-like overlay
//! knowing only a /24 and one bootstrap endpoint. Each draws an address,
//! claims it with a quorum `DhtCreate`, confirms it and registers a hostname
//! (DHT *writes*); then every bound node resolves eight seeded-random peers
//! (DHT *reads*): six IP → overlay-address mappings through Brunet-ARP and
//! two hostnames through the name service. The only workload where
//! `overlay::dht`, `services::{dhcp,name}` and `core::brunet_arp` do most of
//! the work, and it uses the DHT both ways, so a read win that costs writes
//! shows.
//!
//! Op = one allocation or one resolve. Reads are open loop: read `r` is due
//! at a fixed virtual instant, 10 ms after read `r - 1`, whatever has
//! completed. Completions are observed on a 5 ms polling grid, so read
//! latencies are quantised to 5 ms.
//!
//! The seed drives the topology, the network's random streams (address
//! draws among them) and who resolves whom.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use ipop::{DeployOptions, IpopHostAgent, IpopMember};
use ipop_netsim::{planetlab, HostId, Network, NetworkSim};
use ipop_overlay::Address;
use ipop_simcore::{Duration, SimTime, StreamRng};

use super::{Fingerprint, Mode, Outcome, Size, Workload};
use crate::fullstack::{self, share};
use crate::stats;

const READS_PER_NODE: usize = 8;
/// Of which this many are hostname lookups (the rest are Brunet-ARP).
const NAME_READS_PER_NODE: usize = 2;
const READ_SPACING: Duration = Duration::from_millis(10);
const POLL: Duration = Duration::from_millis(5);
const JOIN_DEADLINE: Duration = Duration::from_secs(180);
/// Quiet time between the last binding and the first read, for mappings and
/// names (and their replicas) to land.
const SETTLE: Duration = Duration::from_secs(10);
/// How long after the last read was issued a reply may still arrive.
const READ_DRAIN: Duration = Duration::from_secs(15);

fn nodes(size: Size) -> usize {
    match size {
        Size::Full => 72,
        Size::Smoke => 32,
    }
}

pub fn sizes(size: Size) -> String {
    format!(
        "{} planetlab nodes join a /24, {READS_PER_NODE} reads per node ({NAME_READS_PER_NODE} hostnames)",
        nodes(size)
    )
}

#[derive(Clone)]
enum Target {
    /// Resolve this IP; expect that overlay address.
    Arp(Ipv4Addr, Address),
    /// Resolve this hostname; expect that IP.
    Name(String, Ipv4Addr),
}

struct Read {
    node: usize,
    target: Target,
    issued_at: SimTime,
    /// `Some(correct?)` once answered.
    answer: Option<bool>,
    latency_ms: f64,
}

pub struct SelfConfig {
    sim: NetworkSim,
    nodes: Vec<HostId>,
    seed: u64,
    traced: bool,
    all_bound_at: Option<SimTime>,
    reads: Vec<Read>,
}

pub fn prepare(seed: u64, size: Size, mode: Mode) -> SelfConfig {
    let n = nodes(size);
    let mut net = Network::new(seed);
    let plab = planetlab(&mut net, n, 1.0, seed);
    let mut members = vec![IpopMember::router(
        plab.nodes[0],
        Ipv4Addr::new(172, 16, 0, 1),
    )];
    for (i, &h) in plab.nodes.iter().enumerate().skip(1) {
        members.push(IpopMember::dynamic_router(h).with_hostname(&format!("grid-{i}")));
    }
    let options = DeployOptions {
        brunet_arp: true,
        ..DeployOptions::udp()
    }
    .with_dynamic_subnet(Ipv4Addr::new(172, 16, 9, 0), 24);
    let traced = mode == Mode::Traced;
    fullstack::deploy(&mut net, members, options, traced);
    SelfConfig {
        sim: NetworkSim::new(net),
        nodes: plab.nodes,
        seed,
        traced,
        all_bound_at: None,
        reads: Vec::new(),
    }
}

impl SelfConfig {
    fn agent(&self, i: usize) -> &IpopHostAgent {
        self.sim
            .agent_as::<IpopHostAgent>(self.nodes[i])
            .expect("every node runs an IPOP agent")
    }

    fn agent_mut(&mut self, i: usize) -> &mut IpopHostAgent {
        let host = self.nodes[i];
        self.sim
            .net_mut()
            .agent_as_mut::<IpopHostAgent>(host)
            .expect("every node runs an IPOP agent")
    }

    fn all_bound(&self) -> bool {
        (1..self.nodes.len()).all(|i| self.agent(i).has_address())
    }

    /// Phase 1: join until every dynamic node holds a confirmed address.
    fn join(&mut self) {
        let deadline = SimTime::ZERO + JOIN_DEADLINE;
        while !self.all_bound() && self.sim.now() < deadline {
            self.sim.run_for(Duration::from_secs(1));
        }
        if self.all_bound() {
            self.all_bound_at = Some(self.sim.now());
        }
    }

    /// The read schedule: every bound node reads `READS_PER_NODE` distinct
    /// peers, reads of all nodes interleaved round-robin.
    fn plan_reads(&mut self) {
        let n = self.nodes.len();
        let bound: Vec<usize> = (1..n).filter(|&i| self.agent(i).has_address()).collect();
        let mut rng = StreamRng::new(self.seed, "selfconfig.reads");
        let mut per_node: Vec<Vec<usize>> = Vec::new();
        for &i in &bound {
            let mut peers: Vec<usize> = bound.iter().copied().filter(|&j| j != i).collect();
            rng.shuffle(&mut peers);
            peers.truncate(READS_PER_NODE);
            per_node.push(peers);
        }
        for k in 0..READS_PER_NODE {
            for (slot, &i) in bound.iter().enumerate() {
                let Some(&j) = per_node[slot].get(k) else {
                    continue;
                };
                let peer = self.agent(j);
                let target = if k < NAME_READS_PER_NODE {
                    Target::Name(format!("grid-{j}"), peer.virtual_ip())
                } else {
                    Target::Arp(peer.virtual_ip(), peer.overlay_address())
                };
                self.reads.push(Read {
                    node: i,
                    target,
                    issued_at: SimTime::MAX,
                    answer: None,
                    latency_ms: f64::NAN,
                });
            }
        }
    }

    /// Phase 2: issue the reads on schedule and collect the answers.
    fn read(&mut self) {
        self.plan_reads();
        let t0 = self.sim.now();
        let last_due = t0 + READ_SPACING * self.reads.len() as u64;
        let mut next = 0;
        // Outstanding reads by (node, ARP token) and (node, hostname).
        let mut by_token: BTreeMap<(usize, u64), usize> = BTreeMap::new();
        let mut by_name: BTreeMap<(usize, String), usize> = BTreeMap::new();
        while next < self.reads.len() || !(by_token.is_empty() && by_name.is_empty()) {
            let now = self.sim.now();
            if now > last_due + READ_DRAIN {
                break;
            }
            while next < self.reads.len() && t0 + READ_SPACING * next as u64 <= now {
                let (node, target) = (self.reads[next].node, self.reads[next].target.clone());
                self.reads[next].issued_at = now;
                match target {
                    Target::Arp(ip, _) => {
                        let token = self.agent_mut(node).resolve_ip(now, ip);
                        by_token.insert((node, token), next);
                    }
                    Target::Name(name, want) => {
                        // A fresh cache entry answers on the spot.
                        match self.agent_mut(node).lookup_name(now, &name) {
                            Some(ip) => {
                                self.reads[next].answer = Some(ip == want);
                                self.reads[next].latency_ms = 0.0;
                            }
                            None => {
                                by_name.insert((node, name), next);
                            }
                        }
                    }
                }
                next += 1;
            }
            self.sim.run_for(POLL);
            let now = self.sim.now();
            let waiting: Vec<usize> = by_token
                .keys()
                .map(|k| k.0)
                .chain(by_name.keys().map(|k| k.0))
                .collect();
            for node in waiting {
                for (token, got) in self.agent_mut(node).take_probe_results() {
                    if let Some(r) = by_token.remove(&(node, token)) {
                        let Target::Arp(_, want) = self.reads[r].target else {
                            continue;
                        };
                        self.reads[r].answer = Some(got == Some(want));
                        self.reads[r].latency_ms = now
                            .saturating_since(self.reads[r].issued_at)
                            .as_millis_f64();
                    }
                }
                for (name, got) in self.agent_mut(node).take_name_results() {
                    if let Some(r) = by_name.remove(&(node, name)) {
                        let Target::Name(_, want) = self.reads[r].target else {
                            continue;
                        };
                        self.reads[r].answer = Some(got == Some(want));
                        self.reads[r].latency_ms = now
                            .saturating_since(self.reads[r].issued_at)
                            .as_millis_f64();
                    }
                }
            }
        }
    }
}

impl Workload for SelfConfig {
    fn run(&mut self) {
        let traced = self.traced;
        fullstack::simulate(traced, || {
            self.join();
            self.sim.run_for(SETTLE);
            self.read();
        });
    }

    fn finish(self: Box<Self>) -> Outcome {
        let mut out = Outcome::default();
        let n = self.nodes.len();
        let mut fp = Fingerprint::new();
        let mut ips = BTreeMap::new();
        let mut collisions = 0u64;
        let mut unbound = 0u64;
        for i in 1..n {
            let a = self.agent(i);
            collisions += a.allocation_collisions().unwrap_or(0);
            if a.has_address() {
                *ips.entry(a.virtual_ip()).or_insert(0u32) += 1;
                fp.add(u64::from(u32::from(a.virtual_ip())));
                if let Some(l) = a.allocation_latency() {
                    out.latencies_ms.push(l.as_millis_f64());
                }
            } else {
                unbound += 1;
            }
        }
        let duplicates = ips.values().filter(|&&c| c > 1).count();
        let wrong = self.reads.iter().filter(|r| r.answer != Some(true)).count() as u64;
        out.ops = (n as u64 - 1) + self.reads.len() as u64;
        out.failed = unbound + wrong;
        out.check(unbound == 0, || {
            format!("{unbound} of {} nodes never bound an address", n - 1)
        });
        out.check(duplicates == 0, || {
            format!("{duplicates} addresses allocated twice")
        });
        out.check(wrong == 0, || {
            format!(
                "{wrong} of {} resolves wrong or unanswered",
                self.reads.len()
            )
        });

        let latency_of = |arp_only: bool| -> Vec<f64> {
            self.reads
                .iter()
                .filter(|r| r.answer.is_some())
                .filter(|r| !arp_only || matches!(r.target, Target::Arp(..)))
                .map(|r| r.latency_ms)
                .collect()
        };
        fullstack::record_stack_counters(&mut out, &self.sim, &self.nodes);
        out.set(
            "overlay.dht.create_virt_ms_p50",
            stats::median(&out.latencies_ms),
        );
        out.set(
            "overlay.dht.get_virt_ms_p50",
            stats::median(&latency_of(false)),
        );
        out.set(
            "core.brunet_arp.resolve_virt_ms_p50",
            stats::median(&latency_of(true)),
        );
        out.set(
            "services.dhcp.collisions_per_alloc",
            share(collisions, n as u64 - 1 - unbound),
        );
        out.set(
            "virt.all_bound_s",
            self.all_bound_at.map_or(f64::NAN, SimTime::as_secs_f64),
        );
        for r in &self.reads {
            fp.add_f64(r.latency_ms)
                .add(u64::from(r.answer == Some(true)));
        }
        out.fingerprint = fp
            .add_all(&out.latencies_ms)
            .add(self.sim.events_executed())
            .finish();
        out
    }
}
