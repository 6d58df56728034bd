//! The `ping` workload: ICMP echo round-trip-time measurement.
//!
//! Table I of the paper reports the mean and standard deviation of 1000 ping RTTs
//! between testbed machines, on the physical network and over IPOP (TCP and UDP
//! modes); Fig. 5 is the distribution of 10 000 RTTs across the Planet-Lab overlay.
//! This application reproduces the measurement procedure: send an echo request
//! every `interval`, match replies by sequence number, record the RTT.

use std::any::Any;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use ipop::app::{AppEnv, VirtualApp};
use ipop_netstack::SocketHandle;
use ipop_simcore::{Duration, OnlineStats, SimTime, Summary};

/// Results of a ping run.
#[derive(Clone, Debug, Default)]
pub struct PingReport {
    /// Round-trip times, in the order replies arrived.
    pub rtts_ms: Vec<f64>,
    /// Requests that never got a reply within the timeout.
    pub lost: u32,
}

impl PingReport {
    /// Mean/std-dev summary in milliseconds (what Table I reports).
    pub fn summary(&self) -> Summary {
        let mut stats = OnlineStats::new();
        for &ms in &self.rtts_ms {
            stats.add(ms);
        }
        stats.summary()
    }
}

/// ICMP echo measurement application.
pub struct PingApp {
    target: Ipv4Addr,
    count: u32,
    interval: Duration,
    payload_len: usize,
    timeout: Duration,

    start_delay: Duration,
    socket: Option<SocketHandle>,
    next_seq: u32,
    next_send_at: SimTime,
    in_flight: BTreeMap<u16, SimTime>,
    report: PingReport,
}

impl PingApp {
    /// Ping `target` `count` times, one request every `interval`.
    pub fn new(target: Ipv4Addr, count: u32, interval: Duration) -> Self {
        PingApp {
            target,
            count,
            interval,
            payload_len: 56,
            timeout: Duration::from_secs(5),
            start_delay: Duration::ZERO,
            socket: None,
            next_seq: 0,
            next_send_at: SimTime::ZERO,
            in_flight: BTreeMap::new(),
            report: PingReport::default(),
        }
    }

    /// Builder: set the echo payload size (default 56 bytes, like `ping`).
    pub fn with_payload(mut self, len: usize) -> Self {
        self.payload_len = len;
        self
    }

    /// Builder: set the per-request timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Builder: wait this long before the first request (lets an IPOP overlay
    /// self-configure so the measurement reflects steady state, as in the paper).
    pub fn with_start_delay(mut self, delay: Duration) -> Self {
        self.start_delay = delay;
        self
    }

    /// The measurement report (valid once [`VirtualApp::finished`] is true).
    pub fn report(&self) -> &PingReport {
        &self.report
    }

    fn completed(&self) -> u32 {
        self.report.rtts_ms.len() as u32 + self.report.lost
    }
}

impl VirtualApp for PingApp {
    fn on_start(&mut self, env: &mut AppEnv<'_>) {
        self.socket = Some(env.stack.ping_open());
        self.next_send_at = env.now + self.start_delay;
    }

    fn poll(&mut self, env: &mut AppEnv<'_>) -> Option<SimTime> {
        let socket = self.socket?;
        let now = env.now;

        // Collect replies.
        while let Ok(Some(reply)) = env.stack.ping_recv(socket) {
            if let Some(sent_at) = self.in_flight.remove(&reply.sequence) {
                self.report
                    .rtts_ms
                    .push(now.saturating_since(sent_at).as_millis_f64());
            }
        }

        // Expire requests that timed out.
        let timeout = self.timeout;
        let mut lost = 0;
        self.in_flight.retain(|_, sent_at| {
            if now.saturating_since(*sent_at) > timeout {
                lost += 1;
                false
            } else {
                true
            }
        });
        self.report.lost += lost;

        // Send the next requests that are due.
        while self.next_seq < self.count && now >= self.next_send_at {
            let seq = self.next_seq as u16;
            if env
                .stack
                .ping_send(socket, self.target, seq, self.payload_len)
                .is_ok()
            {
                self.in_flight.insert(seq, now);
            }
            self.next_seq += 1;
            self.next_send_at += self.interval;
        }

        if self.finished() {
            None
        } else if self.next_seq < self.count {
            Some(self.next_send_at)
        } else {
            // All sent: wake when the oldest outstanding request would time out.
            self.in_flight.values().min().map(|t| *t + self.timeout)
        }
    }

    fn finished(&self) -> bool {
        self.socket.is_some() && self.completed() >= self.count
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipop::plain::PlainHostAgent;
    use ipop::NullApp;
    use ipop_netsim::{lan_pair, Network, NetworkSim};

    #[test]
    fn ping_over_physical_lan_measures_sub_millisecond_rtts() {
        let mut net = Network::new(11);
        let (a, b, _, b_addr) = lan_pair(&mut net);
        net.set_agent(
            a,
            Box::new(PlainHostAgent::new(
                net.host(a).addr,
                Box::new(PingApp::new(b_addr, 20, Duration::from_millis(10))),
            )),
        );
        net.set_agent(
            b,
            Box::new(PlainHostAgent::new(net.host(b).addr, Box::new(NullApp))),
        );
        let mut sim = NetworkSim::new(net);
        sim.run_for(Duration::from_secs(5));
        let agent = sim.agent_as::<PlainHostAgent>(a).unwrap();
        let app = agent.app_as::<PingApp>().unwrap();
        assert!(app.finished());
        let report = app.report();
        assert_eq!(report.rtts_ms.len(), 20);
        assert_eq!(report.lost, 0);
        let summary = report.summary();
        assert!(
            summary.mean < 2.0,
            "LAN physical RTT should be sub-2ms, got {}",
            summary.mean
        );
        assert!(summary.mean > 0.0);
    }

    #[test]
    fn ping_to_unreachable_host_reports_losses() {
        let mut net = Network::new(12);
        let (a, _b, _, _) = lan_pair(&mut net);
        let app = PingApp::new(Ipv4Addr::new(99, 99, 99, 99), 3, Duration::from_millis(5))
            .with_timeout(Duration::from_millis(100));
        net.set_agent(
            a,
            Box::new(PlainHostAgent::new(net.host(a).addr, Box::new(app))),
        );
        let mut sim = NetworkSim::new(net);
        sim.run_for(Duration::from_secs(2));
        let agent = sim.agent_as::<PlainHostAgent>(a).unwrap();
        let app = agent.app_as::<PingApp>().unwrap();
        assert!(app.finished());
        assert_eq!(app.report().lost, 3);
        assert!(app.report().rtts_ms.is_empty());
    }
}
