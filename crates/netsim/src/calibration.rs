//! Calibration constants for host processing costs.
//!
//! The paper's latency numbers are dominated not by the physical links but by what
//! happens inside the hosts: every packet sent on the virtual network traverses a
//! kernel TCP/IP stack twice (once on the virtual interface, once on the physical
//! one) and is handled in between by the user-level IPOP process, a C#/Mono program
//! reading and writing a character device. These constants are the simulator's
//! stand-ins for those costs. They were chosen so that the *physical* baselines land
//! in the ranges Table I/II report for the 2006-era testbed, and the IPOP overhead
//! falls in the 6–10 ms band the paper highlights; the paper's values are the
//! `PAPER` table in `crates/bench/src/paper.rs`, which `ipop-bench paper` checks
//! the measured ones against (writing `BENCH_paper.json`).
//!
//! The user-level cost scales with the host's CPU load (Section IV-D attributes the
//! 1.4 s Planet-Lab overhead to CPU loads in excess of 10), which is how the Fig. 5
//! experiment is reproduced.

use ipop_simcore::Duration;

/// Per-host processing-cost model.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Cost of one traversal of the kernel TCP/IP stack (per packet).
    pub kernel_stack_cost: Duration,
    /// Cost of the kernel⇄tap character-device crossing (per frame).
    pub tap_crossing_cost: Duration,
    /// User-level IPOP processing *latency* per packet at CPU load 1 (read frame,
    /// extract IP, hash lookup, encapsulate, route decision, write to transport).
    /// This is how long one packet spends inside the user-level router.
    pub ipop_processing_cost: Duration,
    /// User-level IPOP *occupancy* per packet at CPU load 1: the CPU time one
    /// packet exclusively consumes in steady state. Smaller than the latency
    /// cost because the router pipelines (reads, processing and writes of
    /// consecutive packets overlap; syscall batching amortises context
    /// switches). This is what bounds sustained throughput: the paper's Table II
    /// shows the user-level router saturating around 2 MB/s on a LAN (~1500
    /// packets/s each way), an order of magnitude more than 1/latency would
    /// allow.
    pub ipop_pipeline_cost: Duration,
    /// User-level overlay routing cost per packet when merely forwarding on behalf
    /// of other nodes (no tap crossing involved).
    pub overlay_forward_cost: Duration,
    /// Fixed scheduling quantum added per user-level wakeup when the host is
    /// heavily loaded (models timeslice waits on contended Planet-Lab nodes).
    pub load_scheduling_quantum: Duration,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            kernel_stack_cost: Duration::from_micros(120),
            tap_crossing_cost: Duration::from_micros(180),
            ipop_processing_cost: Duration::from_micros(1250),
            ipop_pipeline_cost: Duration::from_micros(330),
            overlay_forward_cost: Duration::from_micros(700),
            load_scheduling_quantum: Duration::from_millis(60),
        }
    }
}

impl Calibration {
    /// The user-level IPOP cost on a host with the given CPU load factor.
    ///
    /// Load 1.0 means an otherwise idle machine. The cost grows linearly with load
    /// (the process gets 1/load of the CPU) plus, beyond load ≈ 2, a scheduling
    /// quantum term: on a heavily contended node the user-level router must first
    /// wait to be scheduled at all.
    pub fn ipop_cost_at_load(&self, load: f64) -> Duration {
        self.scaled(self.ipop_processing_cost, load)
    }

    /// The overlay forwarding cost on a host with the given CPU load factor.
    pub fn forward_cost_at_load(&self, load: f64) -> Duration {
        self.scaled(self.overlay_forward_cost, load)
    }

    /// The per-packet CPU *occupancy* of the user-level router at the given
    /// load. Scales with the CPU share only — the scheduling quantum is a wait,
    /// not work, so it contributes to latency but not to occupancy.
    pub fn pipeline_cost_at_load(&self, load: f64) -> Duration {
        self.ipop_pipeline_cost.mul_f64(load.max(1.0))
    }

    fn scaled(&self, base: Duration, load: f64) -> Duration {
        let load = load.max(1.0);
        let cpu_share = base.mul_f64(load);
        let scheduling = if load > 2.0 {
            self.load_scheduling_quantum.mul_f64((load - 2.0) / 10.0)
        } else {
            Duration::ZERO
        };
        cpu_share + scheduling
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_host_pays_the_base_cost() {
        let c = Calibration::default();
        assert_eq!(c.ipop_cost_at_load(1.0), c.ipop_processing_cost);
        assert_eq!(
            c.ipop_cost_at_load(0.0),
            c.ipop_processing_cost,
            "load clamps to 1"
        );
    }

    #[test]
    fn cost_grows_with_load() {
        let c = Calibration::default();
        assert!(c.ipop_cost_at_load(2.0) > c.ipop_cost_at_load(1.0));
        assert!(c.ipop_cost_at_load(10.0) > c.ipop_cost_at_load(2.0));
    }

    #[test]
    fn planet_lab_load_costs_hundreds_of_milliseconds() {
        // At load ≈ 10 the per-packet user-level cost must be large enough that a
        // 2-hop overlay path accumulates RTTs over a second (paper Fig. 5).
        let c = Calibration::default();
        let cost = c.forward_cost_at_load(10.0);
        assert!(cost >= Duration::from_millis(50), "cost {cost}");
        assert!(cost <= Duration::from_millis(500), "cost {cost}");
    }

    #[test]
    fn pipeline_occupancy_is_well_below_latency() {
        let c = Calibration::default();
        assert!(c.pipeline_cost_at_load(1.0) < c.ipop_cost_at_load(1.0) / 2);
        // Sustained per-host packet rate (data + ACK both directions) must allow
        // the paper's ~2 MB/s LAN ttcp ceiling: ≥ 1400 B packets at ≥ 1400/s.
        let per_packet = c.pipeline_cost_at_load(1.0) + c.tap_crossing_cost;
        assert!(
            per_packet <= Duration::from_micros(700),
            "occupancy {per_packet}"
        );
    }

    #[test]
    fn ipop_lan_overhead_band() {
        // Two endpoints, each adding tap crossing + ipop processing + an extra
        // kernel stack traversal per direction, must land in the paper's 6-10 ms
        // round-trip overhead band at load 1.
        let c = Calibration::default();
        let per_direction = (c.tap_crossing_cost
            + c.ipop_cost_at_load(1.0)
            + c.kernel_stack_cost) // extra stack traversal on the virtual interface
            * 2; // both endpoints process the packet
        let rtt_overhead = per_direction * 2;
        let ms = rtt_overhead.as_millis_f64();
        assert!((5.0..=11.0).contains(&ms), "overhead {ms} ms");
    }
}
