//! D5 fixture: `StreamStats::bad_acks` is copied out into the flat
//! `OverlayStats` but nothing ever increments it; `MonitorStats::probes_sent`
//! is copied out the same way and does have an increment site.

#[derive(Default)]
pub struct OverlayStats {
    pub stream_bad_acks: u64,
    pub link_probes_sent: u64,
}

#[derive(Default)]
pub struct StreamStats {
    pub bad_acks: u64,
}

#[derive(Default)]
pub struct MonitorStats {
    pub probes_sent: u64,
}

impl LinkMonitor {
    fn arm(&mut self) {
        self.stats.probes_sent += 1;
    }
}

impl OverlayNode {
    fn stats(&self) -> OverlayStats {
        let mut s = self.stats;
        s.stream_bad_acks = self.vstreams.stats.bad_acks;
        s.link_probes_sent = self.monitor.stats.probes_sent;
        s
    }
}
