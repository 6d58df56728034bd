//! RTT estimation and retransmission timeout (RFC 6298).

use ipop_simcore::Duration;

/// The RFC 6298 §2 smoothing step — the one piece every RTT estimator in the
/// workspace shares: [`RttEstimator`] below, the overlay's virtual streams
/// and its link monitor. It holds `srtt` / `rttvar` and nothing else; turning
/// them into a timeout (pre-sample default, clamps, backoff) is each user's
/// own policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Smoothed {
    srtt: Option<Duration>,
    rttvar: Duration,
}

impl Smoothed {
    /// Incorporate one RTT sample: the first sets `srtt = r`, `rttvar = r/2`;
    /// later ones `rttvar = ¾·rttvar + ¼·|srtt − r|`, `srtt = ⅞·srtt + ⅛·r`.
    pub fn sample(&mut self, rtt: Duration) {
        let r = rtt.as_nanos();
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let s = srtt.as_nanos();
                let err = s.abs_diff(r);
                self.rttvar = Duration::from_nanos((3 * self.rttvar.as_nanos() + err) / 4);
                self.srtt = Some(Duration::from_nanos((7 * s + r) / 8));
            }
        }
    }

    /// Smoothed RTT, `None` before the first sample.
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt
    }

    /// RTT variance estimate (zero before the first sample).
    pub fn rttvar(&self) -> Duration {
        self.rttvar
    }

    /// The unclamped RFC 6298 timeout `srtt + 4·rttvar` (clock granularity
    /// taken as zero), `None` before the first sample.
    pub fn rto(&self) -> Option<Duration> {
        self.srtt.map(|srtt| srtt + self.rttvar * 4)
    }
}

/// Smoothed RTT estimator producing the retransmission timeout.
#[derive(Clone, Debug)]
pub struct RttEstimator {
    smoothed: Smoothed,
    rto: Duration,
    min_rto: Duration,
    max_rto: Duration,
}

impl Default for RttEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl RttEstimator {
    /// A fresh estimator with the conventional 1 s initial RTO, clamped to
    /// [200 ms, 60 s].
    pub fn new() -> Self {
        RttEstimator {
            smoothed: Smoothed::default(),
            rto: Duration::from_secs(1),
            min_rto: Duration::from_millis(200),
            max_rto: Duration::from_secs(60),
        }
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> Duration {
        self.rto
    }

    /// Smoothed RTT, if at least one sample has been taken.
    pub fn srtt(&self) -> Option<Duration> {
        self.smoothed.srtt()
    }

    /// Incorporate a new RTT sample (from a segment that was not retransmitted).
    pub fn sample(&mut self, rtt: Duration) {
        self.smoothed.sample(rtt);
        let var_term = self.smoothed.rttvar() * 4;
        let srtt = self.smoothed.srtt().unwrap_or(rtt);
        let candidate = srtt + var_term.max(Duration::from_millis(10));
        self.rto = candidate.max(self.min_rto).min(self.max_rto);
    }

    /// Exponential backoff after a retransmission timeout fires.
    pub fn backoff(&mut self) {
        self.rto = (self.rto * 2).min(self.max_rto);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::new();
        assert_eq!(e.rto(), Duration::from_secs(1));
        e.sample(Duration::from_millis(100));
        assert_eq!(e.srtt(), Some(Duration::from_millis(100)));
        // RTO = srtt + 4*rttvar = 100 + 200 = 300ms
        assert_eq!(e.rto(), Duration::from_millis(300));
    }

    #[test]
    fn smooths_towards_samples() {
        let mut e = RttEstimator::new();
        e.sample(Duration::from_millis(100));
        for _ in 0..50 {
            e.sample(Duration::from_millis(10));
        }
        let srtt = e.srtt().unwrap();
        assert!(srtt < Duration::from_millis(15), "srtt {srtt}");
        assert!(e.rto() >= Duration::from_millis(200), "min RTO clamp");
    }

    #[test]
    fn stable_rtt_gives_tight_rto() {
        let mut e = RttEstimator::new();
        for _ in 0..100 {
            e.sample(Duration::from_millis(40));
        }
        // Variance decays towards zero, RTO approaches srtt + max(4*var, 10ms) >= 200ms floor
        assert_eq!(e.srtt(), Some(Duration::from_millis(40)));
        assert!(e.rto() <= Duration::from_millis(250));
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let mut e = RttEstimator::new();
        e.sample(Duration::from_millis(100));
        let r0 = e.rto();
        e.backoff();
        assert_eq!(e.rto(), r0 * 2);
        for _ in 0..20 {
            e.backoff();
        }
        assert_eq!(e.rto(), Duration::from_secs(60));
    }
}
