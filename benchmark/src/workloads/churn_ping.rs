//! `churn_ping` — the Fig. 5 shape plus robustness: pings across a
//! Planet-Lab-like overlay while a tenth of its routers crash.
//!
//! Pinger `k` sends a 56-byte ICMP echo every 200 ms (open loop: on a fixed
//! virtual schedule, whether or not earlier echoes were answered) to the node
//! diametrically opposite in join order. At `crash_s` a spread of routers
//! that are neither pingers nor targets is replaced by dead agents, so routes
//! through them black-hole until the link monitor declares the edges dead
//! and the ring repairs. The smallest packets, multi-hop routing,
//! maintenance, the link monitor and repair dominate; netstack TCP does
//! nothing.
//!
//! Op = one echo request. The crash is an injected fault with a stated
//! repair budget: echoes lost inside `[crash - 1 s, crash + REPAIR_BUDGET]`
//! are the measured outage (`virt.outage_s`, `virt.lost_in_repair`), echoes
//! lost at any other time are failed ops.
//!
//! The seed drives the topology (access latencies and bandwidths), the
//! network's random streams and which routers crash.

use std::any::Any;
use std::net::Ipv4Addr;

use ipop::{AppEnv, DeployOptions, IpopHostAgent, IpopMember, NullApp, VirtualApp};
use ipop_netsim::{planetlab, HostId, Network, NetworkSim};
use ipop_netstack::SocketHandle;
use ipop_simcore::{Duration, SimTime, StreamRng};

use super::{Fingerprint, Mode, Outcome, Size, Workload};
use crate::fullstack;

const INTERVAL: Duration = Duration::from_millis(200);
const TIMEOUT: Duration = Duration::from_secs(5);
const FIRST_PING: Duration = Duration::from_secs(30);
/// How long after the crash lost echoes count as outage, not as failures.
const REPAIR_BUDGET: Duration = Duration::from_secs(40);
/// The tail of the run in which every echo must be answered.
const SETTLED_TAIL: Duration = Duration::from_secs(20);

struct Cfg {
    nodes: usize,
    pairs: usize,
    crashed: usize,
    crash_s: u64,
    end_s: u64,
}

fn cfg(size: Size) -> Cfg {
    match size {
        Size::Full => Cfg {
            nodes: 48,
            pairs: 8,
            crashed: 5,
            crash_s: 60,
            end_s: 125,
        },
        Size::Smoke => Cfg {
            nodes: 32,
            pairs: 4,
            crashed: 3,
            crash_s: 60,
            end_s: 125,
        },
    }
}

pub fn sizes(size: Size) -> String {
    let c = cfg(size);
    format!(
        "{} planetlab nodes, {} ping pairs every 200 ms from 30 s, {} routers crashed at {} s, {} virtual s",
        c.nodes, c.pairs, c.crashed, c.crash_s, c.end_s
    )
}

/// ICMP echo sender that keeps the fate of every request (the stock
/// `PingApp` keeps only the RTTs that arrived and a loss count, which cannot
/// say *when* connectivity was lost or for how long).
pub struct ProbeApp {
    target: Ipv4Addr,
    first_at: SimTime,
    last_at: SimTime,
    socket: Option<SocketHandle>,
    /// Send instant of request `seq`.
    sent: Vec<SimTime>,
    /// RTT of request `seq` once (and if) answered within the timeout.
    rtt_ms: Vec<Option<f64>>,
}

impl ProbeApp {
    fn new(target: Ipv4Addr, first_at: SimTime, last_at: SimTime) -> Self {
        ProbeApp {
            target,
            first_at,
            last_at,
            socket: None,
            sent: Vec::new(),
            rtt_ms: Vec::new(),
        }
    }

    fn next_send_at(&self) -> SimTime {
        self.first_at + INTERVAL * self.sent.len() as u64
    }
}

impl VirtualApp for ProbeApp {
    fn on_start(&mut self, env: &mut AppEnv<'_>) {
        self.socket = Some(env.stack.ping_open());
    }

    fn poll(&mut self, env: &mut AppEnv<'_>) -> Option<SimTime> {
        let socket = self.socket?;
        while let Ok(Some(reply)) = env.stack.ping_recv(socket) {
            let seq = reply.sequence as usize;
            if let Some(&sent_at) = self.sent.get(seq) {
                let rtt = env.now.saturating_since(sent_at);
                if rtt <= TIMEOUT && self.rtt_ms[seq].is_none() {
                    self.rtt_ms[seq] = Some(rtt.as_millis_f64());
                }
            }
        }
        while self.next_send_at() <= self.last_at && env.now >= self.next_send_at() {
            let seq = self.sent.len() as u16;
            // The schedule advances even if the stack refuses the send: the
            // request then simply counts as lost.
            let _ = env.stack.ping_send(socket, self.target, seq, 56);
            self.sent.push(env.now);
            self.rtt_ms.push(None);
        }
        (self.next_send_at() <= self.last_at).then(|| self.next_send_at())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

pub struct ChurnPing {
    sim: NetworkSim,
    nodes: Vec<HostId>,
    pingers: Vec<usize>,
    victims: Vec<usize>,
    crash_at: SimTime,
    end_at: SimTime,
    traced: bool,
}

fn vip_of(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(172, 16, 2 + (i / 200) as u8, (i % 200 + 1) as u8)
}

pub fn prepare(seed: u64, size: Size, mode: Mode) -> ChurnPing {
    let c = cfg(size);
    assert!(
        c.end_s * 5 < u64::from(u16::MAX),
        "echo sequence would wrap"
    );
    let n = c.nodes;
    let mut net = Network::new(seed);
    let plab = planetlab(&mut net, n, 1.0, seed);
    let crash_at = SimTime::ZERO + Duration::from_secs(c.crash_s);
    let end_at = SimTime::ZERO + Duration::from_secs(c.end_s);

    // Pingers evenly spaced over the first half of the join order (node 0 is
    // everyone's bootstrap and stays a router); each targets the node
    // opposite it, so targets fill the second half.
    let pingers: Vec<usize> = (0..c.pairs)
        .map(|k| 1 + k * (n / 2 - 1) / c.pairs)
        .collect();
    let target_of = |p: usize| (p + n / 2) % n;
    let busy = |i: usize| i == 0 || pingers.iter().any(|&p| p == i || target_of(p) == i);
    let mut routers: Vec<usize> = (0..n).filter(|&i| !busy(i)).collect();
    StreamRng::new(seed, "churn_ping.victims").shuffle(&mut routers);
    let victims = routers[..c.crashed].to_vec();

    let members = plab
        .nodes
        .iter()
        .enumerate()
        .map(|(i, &h)| {
            if pingers.contains(&i) {
                let app = ProbeApp::new(
                    vip_of(target_of(i)),
                    SimTime::ZERO + FIRST_PING,
                    end_at - TIMEOUT,
                );
                IpopMember::new(h, vip_of(i), Box::new(app))
            } else {
                IpopMember::router(h, vip_of(i))
            }
        })
        .collect();
    let traced = mode == Mode::Traced;
    fullstack::deploy(&mut net, members, DeployOptions::udp(), traced);
    ChurnPing {
        sim: NetworkSim::new(net),
        nodes: plab.nodes,
        pingers,
        victims,
        crash_at,
        end_at,
        traced,
    }
}

impl Workload for ChurnPing {
    fn run(&mut self) {
        let traced = self.traced;
        fullstack::simulate(traced, || {
            self.sim.run_until(self.crash_at);
            // Crash: the agents are replaced outright, no goodbye.
            for &v in &self.victims {
                ipop::deploy_plain(self.sim.net_mut(), self.nodes[v], Box::new(NullApp));
            }
            self.sim.run_until(self.end_at);
        });
    }

    fn finish(self: Box<Self>) -> Outcome {
        let mut out = Outcome::default();
        let repair_from = self.crash_at - Duration::from_secs(1);
        let repair_to = self.crash_at + REPAIR_BUDGET;
        let settled_from = self.end_at - TIMEOUT - SETTLED_TAIL;
        let mut lost_in_repair = 0u64;
        let mut lost_settled = 0u64;
        let mut longest_gap = 0u64;
        let mut fp = Fingerprint::new();
        for &p in &self.pingers {
            let Some(app) = self
                .sim
                .agent_as::<IpopHostAgent>(self.nodes[p])
                .and_then(|a| a.app_as::<ProbeApp>())
            else {
                out.checks.push(format!("pinger {p} has no probe app"));
                continue;
            };
            let mut gap = 0u64;
            for (&sent_at, rtt) in app.sent.iter().zip(&app.rtt_ms) {
                out.ops += 1;
                match rtt {
                    Some(ms) => {
                        out.latencies_ms.push(*ms);
                        fp.add_f64(*ms);
                        gap = 0;
                    }
                    None => {
                        fp.add(u64::MAX);
                        gap += 1;
                        longest_gap = longest_gap.max(gap);
                        if (repair_from..=repair_to).contains(&sent_at) {
                            lost_in_repair += 1;
                        } else {
                            out.failed += 1;
                        }
                        if sent_at >= settled_from {
                            lost_settled += 1;
                        }
                    }
                }
            }
        }
        out.check(lost_settled == 0, || {
            format!("{lost_settled} echoes unanswered in the last 20 virtual s")
        });
        let disconnected = (0..self.nodes.len())
            .filter(|i| !self.victims.contains(i))
            .filter(|&i| {
                !self
                    .sim
                    .agent_as::<IpopHostAgent>(self.nodes[i])
                    .is_some_and(|a| a.is_connected())
            })
            .count();
        out.check(disconnected == 0, || {
            format!("{disconnected} live nodes not connected at the end")
        });
        fullstack::record_stack_counters(&mut out, &self.sim, &self.nodes);
        out.set("virt.outage_s", longest_gap as f64 * INTERVAL.as_secs_f64());
        out.set("virt.lost_in_repair", lost_in_repair as f64);
        out.fingerprint = fp.add(self.sim.events_executed()).finish();
        out
    }
}
