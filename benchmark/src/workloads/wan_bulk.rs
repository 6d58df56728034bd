//! `wan_bulk` — the paper's Table III transfer: one ttcp stream F4 → V1
//! across the wide-area core of the Fig. 4 testbed, over IPOP in UDP mode.
//! Large packets through the whole stack (apps → netstack TCP → tap → core
//! pump → overlay encapsulation → netsim NAT/firewall/links → simcore
//! `Simulator`); overlay routing is idle (6 nodes, one hop). Closed loop:
//! the sender is limited by the TCP window.
//!
//! Op = one virtual IP packet tunnelled end to end (receiver `tunneled_rx`).
//! The seed drives the network's random streams (jitter, loss, ports).

use ipop::{DeployOptions, IpopHostAgent, IpopMember};
use ipop_apps::ttcp::TtcpApp;
use ipop_bench::scenarios::{fig4_virtual_ips, WARMUP};
use ipop_netsim::{fig4_testbed, HostId, Network, NetworkSim};
use ipop_simcore::{Duration, SimTime};

use super::{Fingerprint, Mode, Outcome, Size, Workload};
use crate::fullstack::{self, share};

// Testbed hosts are indexed in the order F1, F2, F3, F4, V1, L1.
const SRC: usize = 3; // F4
const DST: usize = 4; // V1
const PORT: u16 = 5201;
/// TCP payload per full-size virtual packet: the 1400-byte virtual MTU less
/// IPv4 and TCP headers.
const MSS: u64 = 1360;

fn bytes(size: Size) -> u64 {
    match size {
        // Twice the paper's small transfer (13.09 MB): long enough that the
        // super-linear event growth of long transfers is in the measurement,
        // short enough for eight repetitions in a run.
        Size::Full => 26_180_000,
        Size::Smoke => 1_000_000,
    }
}

pub fn sizes(size: Size) -> String {
    format!("{} bytes ttcp F4->V1, IPOP-UDP, fig4_testbed", bytes(size))
}

pub struct WanBulk {
    sim: NetworkSim,
    hosts: [HostId; 6],
    bytes: u64,
    traced: bool,
}

pub fn prepare(seed: u64, size: Size, mode: Mode) -> WanBulk {
    let bytes = bytes(size);
    let mut net = Network::new(seed);
    let hosts = fig4_testbed(&mut net).all();
    let vips = fig4_virtual_ips();
    let members = vips
        .iter()
        .map(|&(i, vip)| match i {
            SRC => IpopMember::new(
                hosts[i],
                vip,
                Box::new(TtcpApp::sender(vips[DST].1, PORT, bytes).with_start_delay(WARMUP)),
            ),
            DST => IpopMember::new(hosts[i], vip, Box::new(TtcpApp::receiver(PORT))),
            _ => IpopMember::router(hosts[i], vip),
        })
        .collect();
    let traced = mode == Mode::Traced;
    fullstack::deploy(&mut net, members, DeployOptions::udp(), traced);
    WanBulk {
        sim: NetworkSim::new(net),
        hosts,
        bytes,
        traced,
    }
}

impl WanBulk {
    fn app(&self, host: usize) -> Option<&TtcpApp> {
        self.sim
            .agent_as::<IpopHostAgent>(self.hosts[host])
            .and_then(|a| a.app_as::<TtcpApp>())
    }
}

impl Workload for WanBulk {
    fn run(&mut self) {
        let deadline = SimTime::ZERO + Duration::from_secs(1200);
        let traced = self.traced;
        fullstack::simulate(traced, || loop {
            use ipop::VirtualApp;
            if self.app(SRC).is_some_and(|t| t.finished()) || self.sim.now() >= deadline {
                break;
            }
            let before = self.sim.events_executed();
            self.sim.run_for(Duration::from_secs(1));
            if self.sim.events_executed() == before {
                break; // queue drained: nothing more will happen
            }
        });
    }

    fn finish(self: Box<Self>) -> Outcome {
        use ipop::VirtualApp;
        let mut out = Outcome::default();
        let report = self.app(SRC).map(|t| t.report()).unwrap_or_default();
        let received = self.app(DST).map_or(0, |t| t.received());
        let metrics = |h: usize| {
            self.sim
                .agent_as::<IpopHostAgent>(self.hosts[h])
                .map(|a| a.metrics())
                .unwrap_or_default()
        };
        out.ops = metrics(DST).tunneled_rx;
        out.failed = (self.bytes - received.min(self.bytes)).div_ceil(MSS);
        out.check(self.app(SRC).is_some_and(|t| t.finished()), || {
            "sender did not finish within 1200 virtual s".into()
        });
        out.check(received == self.bytes, || {
            format!("receiver got {received} of {} bytes", self.bytes)
        });
        fullstack::record_stack_counters(&mut out, &self.sim, &self.hosts);
        out.set("virt.goodput_kbps", report.kbps);
        // The stack keeps no retransmit counter, so from outside: data
        // packets the sender tunnelled beyond what the payload needs.
        let sent = metrics(SRC).tunneled_tx;
        let needed = self.bytes.div_ceil(MSS);
        out.set(
            "netstack.tcp.retransmit_share",
            share(sent.saturating_sub(needed + 2), sent),
        );
        out.fingerprint = Fingerprint::new()
            .add(self.sim.events_executed())
            .add(received)
            .add(out.ops)
            .add_f64(report.seconds)
            .add(self.sim.net().counters().delivered)
            .finish();
        out
    }
}
