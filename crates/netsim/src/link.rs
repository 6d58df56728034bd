//! Link model: propagation latency, serialization (bandwidth), jitter and a
//! drop-tail queue expressed as a "busy until" horizon. Random loss is not a
//! link property: it is a [`crate::LinkImpairment`] between two hosts.
//!
//! Every physical path in the simulator is assembled from link segments (a LAN
//! segment, site access links, a wide-area core segment). The transfer-time model
//! is the classic store-and-forward one: a packet of `b` bytes leaving at time `t`
//! on a link that is busy until `u` begins serialization at `max(t, u)`, occupies
//! the link for `b / bandwidth`, then propagates for `latency (+ jitter)`.

use ipop_simcore::{Duration, SimTime, StreamRng};

/// Static parameters of a link segment.
#[derive(Clone, Copy, Debug)]
pub struct LinkParams {
    /// One-way propagation latency.
    pub latency: Duration,
    /// Bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// Standard deviation of per-packet jitter (normal, truncated at zero).
    pub jitter: Duration,
    /// Maximum queueing backlog; packets that would have to wait longer than this
    /// for serialization are dropped (drop-tail).
    pub max_queue_delay: Duration,
}

impl LinkParams {
    /// A typical switched 100 Mbit/s laboratory LAN segment.
    pub fn lan_100mbit() -> Self {
        LinkParams {
            latency: Duration::from_micros(80),
            bandwidth_bps: 100e6 / 8.0,
            jitter: Duration::from_micros(15),
            max_queue_delay: Duration::from_millis(200),
        }
    }

    /// A wide-area path segment with the given one-way latency and bandwidth.
    pub fn wan(latency: Duration, bandwidth_mbps: f64) -> Self {
        LinkParams {
            latency,
            bandwidth_bps: bandwidth_mbps * 1e6 / 8.0,
            jitter: Duration::from_micros(200),
            max_queue_delay: Duration::from_millis(500),
        }
    }

    /// Time to serialize `bytes` onto this link.
    pub fn serialization(&self, bytes: usize) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }
}

/// Per-direction dynamic state of a link segment.
#[derive(Clone, Debug, Default)]
pub struct LinkState {
    /// The end of the latest serialization window (diagnostics; the scheduler
    /// below is work-conserving, so this is *not* a blocking horizon).
    pub busy_until: SimTime,
    /// Outstanding serialization windows `(start, end)`, sorted by start. A
    /// packet can reach this link at a future instant (its flight time through
    /// upstream segments is already known), so the transmitter keeps a schedule
    /// instead of a single horizon: a reservation in the future must not block
    /// a packet that wants the wire *now*.
    reservations: Vec<(SimTime, SimTime)>,
    /// `(depart, start)` of the most recent offer, used to keep the schedule
    /// FIFO for monotone offers: a packet offered after another with an equal
    /// or earlier depart must not gap-fit ahead of it (a real transmitter
    /// cannot reorder its own queue). Offers with *earlier* departs — packets
    /// that were already in flight upstream — may still use idle gaps.
    last_offer: Option<(SimTime, SimTime)>,
    /// Packets transmitted.
    pub tx_packets: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// Packets dropped (full queue).
    pub dropped: u64,
}

/// The outcome of offering a packet to a link segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkOutcome {
    /// The packet will arrive at the far end of the segment at the given time.
    Delivered(SimTime),
    /// The packet was dropped (queue overflow).
    Dropped,
}

/// A link segment: static parameters plus per-direction state.
#[derive(Clone, Debug)]
pub struct Link {
    /// Static parameters.
    pub params: LinkParams,
    /// Dynamic state.
    pub state: LinkState,
}

impl Link {
    /// A new idle link.
    pub fn new(params: LinkParams) -> Self {
        Link {
            params,
            state: LinkState::default(),
        }
    }

    /// Offer a packet of `bytes` bytes to the link at time `depart` (which may
    /// lie in the future when the packet is still in flight through upstream
    /// segments). `now` is the current simulation time, used to prune the
    /// reservation schedule — no future offer can start before `now`.
    ///
    /// The transmitter is a work-conserving single server: the packet is placed
    /// into the earliest idle gap at or after `depart` that fits its
    /// serialization time, so a reservation in the future never delays a packet
    /// that wants the (currently idle) wire earlier.
    pub fn transmit(
        &mut self,
        now: SimTime,
        depart: SimTime,
        bytes: usize,
        rng: &mut StreamRng,
    ) -> LinkOutcome {
        self.state.reservations.retain(|&(_, end)| end > now);
        let ser = self.params.serialization(bytes);
        // Earliest gap-fit at or after `depart` — but never ahead of a
        // previous offer whose depart was not later than ours (same-sender
        // FIFO; see `LinkState::last_offer`).
        let mut start = depart;
        if let Some((prev_depart, prev_start)) = self.state.last_offer {
            if depart >= prev_depart {
                start = start.max(prev_start);
            }
        }
        for &(s, e) in &self.state.reservations {
            if start + ser <= s {
                break;
            }
            if e > start {
                start = e;
            }
        }
        let queue_delay = start.saturating_since(depart);
        if queue_delay > self.params.max_queue_delay {
            self.state.dropped += 1;
            return LinkOutcome::Dropped;
        }
        let end = start + ser;
        let pos = self
            .state
            .reservations
            .partition_point(|&(s, _)| s <= start);
        self.state.reservations.insert(pos, (start, end));
        self.state.last_offer = Some((depart, start));
        self.state.busy_until = self.state.busy_until.max(end);
        let jitter = if self.params.jitter.is_zero() {
            Duration::ZERO
        } else {
            rng.normal(Duration::ZERO, self.params.jitter)
        };
        let arrival = end + self.params.latency + jitter;
        self.state.tx_packets += 1;
        self.state.tx_bytes += bytes as u64;
        LinkOutcome::Delivered(arrival)
    }

    /// Observed utilisation: bytes transmitted so far.
    pub fn tx_bytes(&self) -> u64 {
        self.state.tx_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StreamRng {
        StreamRng::new(1, "link-test")
    }

    #[test]
    fn serialization_time_scales_with_size() {
        let p = LinkParams::wan(Duration::from_millis(10), 8.0); // 1 MB/s
        assert_eq!(p.serialization(1_000_000), Duration::from_secs(1));
        assert_eq!(p.serialization(1_000), Duration::from_millis(1));
    }

    #[test]
    fn idle_link_delivers_after_latency_plus_serialization() {
        let mut link = Link::new(LinkParams {
            latency: Duration::from_millis(5),
            bandwidth_bps: 1e6,
            jitter: Duration::ZERO,
            max_queue_delay: Duration::from_secs(1),
        });
        let out = link.transmit(SimTime::ZERO, SimTime::ZERO, 1_000, &mut rng());
        // 1000 bytes at 1 MB/s = 1 ms serialization + 5 ms latency.
        assert_eq!(
            out,
            LinkOutcome::Delivered(SimTime::ZERO + Duration::from_millis(6))
        );
    }

    #[test]
    fn back_to_back_packets_queue_behind_each_other() {
        let mut link = Link::new(LinkParams {
            latency: Duration::from_millis(1),
            bandwidth_bps: 1e6,
            jitter: Duration::ZERO,
            max_queue_delay: Duration::from_secs(1),
        });
        let mut r = rng();
        let a = link.transmit(SimTime::ZERO, SimTime::ZERO, 1_000, &mut r);
        let b = link.transmit(SimTime::ZERO, SimTime::ZERO, 1_000, &mut r);
        let (LinkOutcome::Delivered(ta), LinkOutcome::Delivered(tb)) = (a, b) else {
            panic!("both delivered")
        };
        assert_eq!(tb.saturating_since(ta), Duration::from_millis(1));
        assert_eq!(link.state.tx_packets, 2);
        assert_eq!(link.tx_bytes(), 2_000);
    }

    #[test]
    fn bandwidth_bounds_throughput() {
        // Push 100 packets of 10 kB through a 1 MB/s link: the last arrival must be
        // no earlier than 1 second after the first departure.
        let mut link = Link::new(LinkParams {
            latency: Duration::from_micros(10),
            bandwidth_bps: 1e6,
            jitter: Duration::ZERO,
            max_queue_delay: Duration::from_secs(60),
        });
        let mut r = rng();
        let mut last = SimTime::ZERO;
        for _ in 0..100 {
            if let LinkOutcome::Delivered(t) =
                link.transmit(SimTime::ZERO, SimTime::ZERO, 10_000, &mut r)
            {
                last = last.max(t);
            }
        }
        assert!(last.saturating_since(SimTime::ZERO) >= Duration::from_secs(1));
    }

    #[test]
    fn future_reservation_does_not_block_earlier_packets() {
        // A packet still in flight upstream reserves the wire 15 ms from now; a
        // packet wanting the wire immediately must pass through the idle gap
        // (this exact head-of-line inversion made synchronized overlay ticks
        // inflate same-site latency by two orders of magnitude).
        let mut link = Link::new(LinkParams {
            latency: Duration::from_micros(80),
            bandwidth_bps: 12.5e6,
            jitter: Duration::ZERO,
            max_queue_delay: Duration::from_millis(200),
        });
        let mut r = rng();
        let now = SimTime::ZERO;
        let future = now + Duration::from_millis(15);
        let LinkOutcome::Delivered(far) = link.transmit(now, future, 1_000, &mut r) else {
            panic!("delivered");
        };
        assert!(far >= future);
        // An immediate packet is not queued behind the future reservation.
        let LinkOutcome::Delivered(near) = link.transmit(now, now, 1_000, &mut r) else {
            panic!("delivered");
        };
        assert!(
            near.saturating_since(now) < Duration::from_millis(1),
            "near packet delayed to {near}"
        );
    }

    #[test]
    fn monotone_offers_stay_fifo_despite_gaps() {
        // A big packet pushed past a cross-traffic window must not be overtaken
        // by a small later-offered packet that would fit the gap: a real
        // transmitter serves its own queue in order.
        let mut link = Link::new(LinkParams {
            latency: Duration::ZERO,
            bandwidth_bps: 1e6, // 1 ms per 1000 B
            jitter: Duration::ZERO,
            max_queue_delay: Duration::from_secs(1),
        });
        let mut r = rng();
        let now = SimTime::ZERO;
        // Cross-traffic window [0.5 ms, 1.5 ms).
        let cross = now + Duration::from_micros(500);
        assert!(matches!(
            link.transmit(now, cross, 1_000, &mut r),
            LinkOutcome::Delivered(_)
        ));
        // Big packet at t=0 does not fit the 0.5 ms gap -> starts at 1.5 ms.
        let LinkOutcome::Delivered(big) = link.transmit(now, now, 1_000, &mut r) else {
            panic!("delivered");
        };
        // Smaller later packet must queue behind it, not slip into the gap.
        let later = now + Duration::from_micros(100);
        let LinkOutcome::Delivered(small) = link.transmit(now, later, 100, &mut r) else {
            panic!("delivered");
        };
        assert!(small > big, "small packet overtook: {small} vs {big}");
    }

    #[test]
    fn reservations_prune_against_sim_time() {
        let mut link = Link::new(LinkParams {
            latency: Duration::ZERO,
            bandwidth_bps: 1e6,
            jitter: Duration::ZERO,
            max_queue_delay: Duration::from_secs(10),
        });
        let mut r = rng();
        for i in 0..1_000u64 {
            let t = SimTime::ZERO + Duration::from_millis(i);
            assert!(matches!(
                link.transmit(t, t, 100, &mut r),
                LinkOutcome::Delivered(_)
            ));
        }
        // Old windows are discarded; the schedule stays small.
        assert!(
            link.state.reservations.len() <= 2,
            "len {}",
            link.state.reservations.len()
        );
    }

    #[test]
    fn full_queue_drops() {
        let mut link = Link::new(LinkParams {
            latency: Duration::ZERO,
            bandwidth_bps: 1e3, // 1 kB/s: 1 packet of 1 kB = 1 s serialization
            jitter: Duration::ZERO,
            max_queue_delay: Duration::from_millis(1500),
        });
        let mut r = rng();
        assert!(matches!(
            link.transmit(SimTime::ZERO, SimTime::ZERO, 1_000, &mut r),
            LinkOutcome::Delivered(_)
        ));
        assert!(matches!(
            link.transmit(SimTime::ZERO, SimTime::ZERO, 1_000, &mut r),
            LinkOutcome::Delivered(_)
        ));
        // Third packet would wait 2 s > 1.5 s limit.
        assert_eq!(
            link.transmit(SimTime::ZERO, SimTime::ZERO, 1_000, &mut r),
            LinkOutcome::Dropped
        );
        assert_eq!(link.state.dropped, 1);
    }
}
