//! Hosts and the agent interface.
//!
//! A host is a machine attached to a site's network segment: it has one physical
//! IPv4 address, a CPU-load figure, and a single [`HostAgent`] — the software stack
//! running on it (for IPOP experiments that agent owns the physical network stack,
//! the Brunet node, the tap device, the virtual stack and the application; for
//! baseline experiments it owns just a stack and an application).
//!
//! Agents are plain state machines: the network calls [`HostAgent::on_start`] once,
//! then [`HostAgent::on_packet`] for every delivered packet and
//! [`HostAgent::on_timer`] for every timer the agent armed and did not cancel. All
//! interaction with the outside world goes through the [`HostCtx`] handle passed
//! into those calls.
//!
//! Timers are owned by the agent that armed them: [`HostCtx::set_timer`] returns a
//! [`TimerId`], [`HostCtx::cancel_timer`] retires it before it fires, and a timer
//! still pending when its agent is replaced ([`crate::Network::set_agent`], which
//! is how experiments crash a host) is dropped without reaching the successor.

use std::any::Any;
use std::net::Ipv4Addr;

use ipop_packet::ipv4::Ipv4Packet;
use ipop_simcore::{Duration, EventId, SimTime, StreamRng, TimerToken};

use crate::network::{NetEvent, SiteId};

/// Identifier of a host in the network.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct HostId(pub usize);

/// Handle of a pending timer, returned by [`HostCtx::set_timer`] and accepted
/// by [`HostCtx::cancel_timer`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TimerId(EventId);

/// Per-host traffic counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostCounters {
    /// Packets handed to the network by this host.
    pub tx_packets: u64,
    /// Bytes handed to the network by this host.
    pub tx_bytes: u64,
    /// Packets delivered to this host's agent.
    pub rx_packets: u64,
    /// Bytes delivered to this host's agent.
    pub rx_bytes: u64,
}

/// A machine in the simulated physical network.
pub struct Host {
    /// Identifier.
    pub id: HostId,
    /// Human-readable name (e.g. `"F2"`, `"V1"`, `"planetlab-042"`).
    pub name: String,
    /// The site whose network segment this host sits on.
    pub site: SiteId,
    /// The host's physical IPv4 address (private if the site NATs it).
    pub addr: Ipv4Addr,
    /// CPU load factor: 1.0 for an idle machine, ≈10 for a contended Planet-Lab
    /// node. Scales the user-level processing costs.
    pub load: f64,
    /// The instant until which the host CPU is busy processing earlier packets.
    pub cpu_busy_until: SimTime,
    /// Traffic counters.
    pub counters: HostCounters,
    pub(crate) agent: Option<Box<dyn HostAgent>>,
    /// Bumped every time an agent is installed; a timer fires only while the
    /// epoch it was armed in is current.
    pub(crate) agent_epoch: u32,
    pub(crate) rng: StreamRng,
}

impl Host {
    pub(crate) fn new(
        id: HostId,
        name: String,
        site: SiteId,
        addr: Ipv4Addr,
        load: f64,
        rng: StreamRng,
    ) -> Self {
        Host {
            id,
            name,
            site,
            addr,
            load,
            cpu_busy_until: SimTime::ZERO,
            counters: HostCounters::default(),
            agent: None,
            agent_epoch: 0,
            rng,
        }
    }

    /// Occupy the host CPU for `work` starting no earlier than `now`; returns the
    /// completion instant. Models a FIFO per-host processing queue.
    pub fn occupy_cpu(&mut self, now: SimTime, work: Duration) -> SimTime {
        let start = now.max(self.cpu_busy_until);
        let done = start + work;
        self.cpu_busy_until = done;
        done
    }
}

/// The software running on a host.
///
/// Implementations live in higher crates (`ipop`, `ipop-apps`); the network only
/// ever talks to this trait.
pub trait HostAgent: Any {
    /// Called once when the simulation starts.
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>);
    /// Called for every packet delivered to this host.
    fn on_packet(&mut self, ctx: &mut HostCtx<'_, '_>, pkt: Ipv4Packet);
    /// Called when a timer armed via [`HostCtx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, token: TimerToken);
    /// Downcasting support so experiments can extract results after a run.
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// What an agent is allowed to do while handling an event.
pub struct HostCtx<'a, 'q> {
    pub(crate) net: &'a mut crate::network::Network,
    pub(crate) ctl: &'a mut crate::network::Control<'q>,
    pub(crate) host: HostId,
}

impl HostCtx<'_, '_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.ctl.now()
    }

    /// This host's physical address.
    pub fn addr(&self) -> Ipv4Addr {
        self.net.host(self.host).addr
    }

    /// This host's name.
    pub fn name(&self) -> &str {
        &self.net.host(self.host).name
    }

    /// This host's CPU load factor.
    pub fn load(&self) -> f64 {
        self.net.host(self.host).load
    }

    /// The calibration constants in effect.
    pub fn calibration(&self) -> crate::calibration::Calibration {
        self.net.calibration
    }

    /// The host's private random stream.
    pub fn rng(&mut self) -> &mut StreamRng {
        &mut self.net.host_mut(self.host).rng
    }

    /// Transmit a packet on the physical network, charging only the kernel
    /// stack-traversal cost.
    pub fn send(&mut self, pkt: Ipv4Packet) {
        self.send_with_processing(pkt, Duration::ZERO);
    }

    /// Transmit a packet, charging `extra_processing` of host CPU time on top of
    /// the kernel stack-traversal cost (used by IPOP for its user-level work).
    pub fn send_with_processing(&mut self, pkt: Ipv4Packet, extra_processing: Duration) {
        let host = self.host;
        self.net.transmit(self.ctl, host, pkt, extra_processing);
    }

    /// Occupy the host CPU for `work` without sending anything (used to account for
    /// receive-side user-level processing). Returns the completion instant.
    pub fn consume_cpu(&mut self, work: Duration) -> SimTime {
        let now = self.ctl.now();
        self.net.host_mut(self.host).occupy_cpu(now, work)
    }

    /// Arm a timer that will call [`HostAgent::on_timer`] with `token` after
    /// `delay`, unless it is cancelled or this agent is replaced first.
    pub fn set_timer(&mut self, delay: Duration, token: TimerToken) -> TimerId {
        let host = self.host;
        let epoch = self.net.host(host).agent_epoch;
        let at = self.ctl.now() + delay;
        TimerId(
            self.ctl
                .schedule_at(at, NetEvent::Timer { host, token, epoch }),
        )
    }

    /// Cancel a pending timer so it never reaches [`HostAgent::on_timer`].
    /// Returns false — and does nothing — when the timer already fired or was
    /// already cancelled.
    pub fn cancel_timer(&mut self, id: TimerId) -> bool {
        self.ctl.cancel(id.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_queue_is_fifo() {
        let rng = StreamRng::new(1, "host");
        let mut h = Host::new(
            HostId(0),
            "test".into(),
            SiteId(0),
            Ipv4Addr::new(10, 0, 0, 1),
            1.0,
            rng,
        );
        let t0 = SimTime::ZERO;
        let done1 = h.occupy_cpu(t0, Duration::from_millis(2));
        assert_eq!(done1, t0 + Duration::from_millis(2));
        // Second job queued behind the first even though it "arrives" at t0.
        let done2 = h.occupy_cpu(t0, Duration::from_millis(3));
        assert_eq!(done2, t0 + Duration::from_millis(5));
        // A job arriving after the queue drained starts immediately.
        let late = t0 + Duration::from_millis(50);
        let done3 = h.occupy_cpu(late, Duration::from_millis(1));
        assert_eq!(done3, late + Duration::from_millis(1));
    }
}
