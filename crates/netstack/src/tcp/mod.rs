//! TCP connection state machine (RFC 793) with slow start / AIMD congestion
//! control, fast retransmit and RTO-based recovery.
//!
//! The socket is poll-driven: the owning [`crate::stack::NetStack`] feeds it
//! incoming segments via [`TcpSocket::on_segment`] and periodically calls
//! [`TcpSocket::poll`] to collect segments to transmit. All timing comes from the
//! simulation clock passed in by the caller; the socket never consults wall-clock
//! time.

pub mod congestion;
pub mod rtt;
pub mod seq;

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

use ipop_packet::tcp::{TcpFlags, TcpSegment};
use ipop_simcore::{Duration, SimTime};

use congestion::Congestion;
use rtt::RttEstimator;

/// Connection states (RFC 793 section 3.2).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Active open sent a SYN.
    SynSent,
    /// Passive open received a SYN and replied SYN-ACK.
    SynReceived,
    /// Three-way handshake complete.
    Established,
    /// We closed first; FIN sent, awaiting ACK.
    FinWait1,
    /// Our FIN was acknowledged; awaiting the peer's FIN.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Both sides closed; our FIN sent after theirs, awaiting its ACK.
    LastAck,
    /// Simultaneous close.
    Closing,
    /// Waiting out 2·MSL before releasing the port.
    TimeWait,
}

/// Largest segment payload a stack offers; a smaller interface MTU lowers it
/// (`NetStack::mss`).
pub(crate) const MSS_CEILING: usize = 1400;
/// Receive buffer capacity in bytes (also the advertised window bound).
const RECV_BUFFER: usize = 65_535;
/// Send buffer capacity in bytes.
const SEND_BUFFER: usize = 262_144;
/// How long to linger in TIME-WAIT.
const TIME_WAIT: Duration = Duration::from_secs(1);
/// Give up a connection attempt / retransmission after this many RTOs.
const MAX_RETRIES: u32 = 12;

/// A single TCP connection endpoint.
#[derive(Debug)]
pub struct TcpSocket {
    /// Maximum segment size (payload bytes per segment), lowered to the
    /// peer's advertised MSS during the handshake.
    mss: usize,
    state: TcpState,
    local_addr: Ipv4Addr,
    local_port: u16,
    remote_addr: Ipv4Addr,
    remote_port: u16,

    // --- send side ---
    iss: u32,
    snd_una: u32,
    snd_nxt: u32,
    /// The highest sequence ever sent: a go-back-N rewinds `snd_nxt`, and
    /// the peer may still ack anything below this.
    snd_max: u32,
    snd_wnd: u32,
    /// Bytes from `snd_una` onwards: in-flight first, then unsent.
    send_buf: VecDeque<u8>,
    fin_queued: bool,
    fin_sent: bool,
    fin_seq: u32,
    cong: Congestion,
    rtt: RttEstimator,
    rtx_deadline: Option<SimTime>,
    rtx_count: u32,
    rtt_probe: Option<(u32, SimTime)>,
    dup_acks: u32,
    syn_sent_at: Option<SimTime>,

    // --- receive side ---
    irs: u32,
    rcv_nxt: u32,
    recv_buf: VecDeque<u8>,
    ooo: BTreeMap<u32, Vec<u8>>,
    peer_fin: bool,
    pending_acks: u32,

    time_wait_until: Option<SimTime>,
    reset_by_peer: bool,
}

impl TcpSocket {
    /// An active open towards `remote`, using `iss` as the initial sequence number.
    pub fn connect(
        local_addr: Ipv4Addr,
        local_port: u16,
        remote_addr: Ipv4Addr,
        remote_port: u16,
        iss: u32,
        now: SimTime,
        mss: usize,
    ) -> Self {
        let mut s = Self::raw(local_addr, local_port, remote_addr, remote_port, iss, mss);
        s.state = TcpState::SynSent;
        s.syn_sent_at = Some(now);
        s
    }

    /// A passive open: the listener on `local_addr:local_port`, offering
    /// `mss`, has just received `syn`.
    pub fn accept(
        local_addr: Ipv4Addr,
        local_port: u16,
        mss: usize,
        peer_addr: Ipv4Addr,
        syn: &TcpSegment,
        iss: u32,
        now: SimTime,
    ) -> Self {
        debug_assert!(syn.flags.syn && !syn.flags.ack);
        let mss = syn.mss.map_or(mss, |peer| mss.min(peer as usize));
        let mut s = Self::raw(local_addr, local_port, peer_addr, syn.src_port, iss, mss);
        s.state = TcpState::SynReceived;
        s.irs = syn.seq;
        s.rcv_nxt = syn.seq.wrapping_add(1);
        s.snd_wnd = u32::from(syn.window);
        s.pending_acks = 1;
        s.syn_sent_at = Some(now);
        s
    }

    fn raw(
        local_addr: Ipv4Addr,
        local_port: u16,
        remote_addr: Ipv4Addr,
        remote_port: u16,
        iss: u32,
        mss: usize,
    ) -> Self {
        TcpSocket {
            state: TcpState::Closed,
            local_addr,
            local_port,
            remote_addr,
            remote_port,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_max: iss,
            snd_wnd: u32::from(u16::MAX),
            send_buf: VecDeque::new(),
            fin_queued: false,
            fin_sent: false,
            fin_seq: 0,
            cong: Congestion::new(mss),
            rtt: RttEstimator::new(),
            rtx_deadline: None,
            rtx_count: 0,
            rtt_probe: None,
            dup_acks: 0,
            syn_sent_at: None,
            irs: 0,
            rcv_nxt: 0,
            recv_buf: VecDeque::new(),
            ooo: BTreeMap::new(),
            peer_fin: false,
            pending_acks: 0,
            time_wait_until: None,
            reset_by_peer: false,
            mss,
        }
    }

    // ----------------------------------------------------------------- accessors

    /// Current connection state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Local (address, port).
    pub fn local(&self) -> (Ipv4Addr, u16) {
        (self.local_addr, self.local_port)
    }

    /// Remote (address, port).
    pub fn remote(&self) -> (Ipv4Addr, u16) {
        (self.remote_addr, self.remote_port)
    }

    /// True once the three-way handshake has completed and the connection has not
    /// yet fully closed.
    pub fn is_established(&self) -> bool {
        matches!(
            self.state,
            TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2 | TcpState::CloseWait
        )
    }

    /// True when the connection is finished (closed, reset or timed out).
    pub fn is_closed(&self) -> bool {
        self.state == TcpState::Closed
    }

    /// True when the peer reset the connection.
    pub fn was_reset(&self) -> bool {
        self.reset_by_peer
    }

    /// Does this segment belong to this connection?
    pub fn matches(&self, peer_addr: Ipv4Addr, seg: &TcpSegment) -> bool {
        self.local_port == seg.dst_port
            && self.remote_port == seg.src_port
            && self.remote_addr == peer_addr
    }

    /// Application-writable space in the send buffer.
    pub fn send_capacity(&self) -> usize {
        if !self.can_send() {
            return 0;
        }
        SEND_BUFFER.saturating_sub(self.send_buf.len())
    }

    /// True while the application may still queue data for sending.
    pub fn can_send(&self) -> bool {
        matches!(self.state, TcpState::Established | TcpState::CloseWait) && !self.fin_queued
    }

    /// Bytes queued in the send buffer that have not yet been acknowledged.
    pub fn unacked(&self) -> usize {
        self.send_buf.len()
    }

    /// Bytes available for the application to read.
    pub fn recv_available(&self) -> usize {
        self.recv_buf.len()
    }

    /// True when the peer has closed its direction and everything has been read.
    pub fn recv_finished(&self) -> bool {
        self.peer_fin && self.recv_buf.is_empty() && self.ooo.is_empty()
    }

    /// Queue application data; returns how many bytes were accepted.
    pub fn send(&mut self, data: &[u8]) -> usize {
        let n = self.send_capacity().min(data.len());
        self.send_buf.extend(&data[..n]);
        n
    }

    /// Read up to `max` bytes of in-order received data.
    pub fn recv(&mut self, max: usize) -> Vec<u8> {
        let before = self.recv_window();
        let n = max.min(self.recv_buf.len());
        // Copy out via the deque's slices instead of draining through the
        // byte iterator (this is the ttcp receive hot path).
        let mut data = Vec::with_capacity(n);
        let (a, b) = self.recv_buf.as_slices();
        if n <= a.len() {
            data.extend_from_slice(&a[..n]);
        } else {
            data.extend_from_slice(a);
            data.extend_from_slice(&b[..n - a.len()]);
        }
        self.recv_buf.drain(..n);
        // Reading may reopen a closed (or nearly closed) receive window; advertise
        // it so the peer does not stall waiting for a window update we never send
        // (we implement no persist timer on the sender side).
        if before < self.mss && self.recv_window() >= self.mss && self.is_established() {
            self.pending_acks = self.pending_acks.max(1);
        }
        data
    }

    /// Graceful close: a FIN is sent once all queued data has been transmitted.
    pub fn close(&mut self) {
        match self.state {
            TcpState::Closed | TcpState::SynSent => self.state = TcpState::Closed,
            _ => self.fin_queued = true,
        }
    }

    // ------------------------------------------------------------ segment intake

    /// Process an incoming segment addressed to this connection.
    pub fn on_segment(&mut self, now: SimTime, seg: &TcpSegment) {
        if seg.flags.rst {
            if self.state != TcpState::Closed {
                self.reset_by_peer = true;
                self.state = TcpState::Closed;
            }
            return;
        }
        match self.state {
            TcpState::Closed => {}
            TcpState::SynSent => self.on_segment_syn_sent(now, seg),
            _ => self.on_segment_synchronized(now, seg),
        }
    }

    fn on_segment_syn_sent(&mut self, now: SimTime, seg: &TcpSegment) {
        if !(seg.flags.syn && seg.flags.ack) {
            return;
        }
        if seg.ack != self.iss.wrapping_add(1) {
            return; // not acknowledging our SYN
        }
        if let Some(mss) = seg.mss {
            self.mss = self.mss.min(mss as usize);
            self.cong = Congestion::new(self.mss);
        }
        self.irs = seg.seq;
        self.rcv_nxt = seg.seq.wrapping_add(1);
        self.snd_una = seg.ack;
        self.snd_nxt = seg.ack;
        self.snd_max = seg.ack;
        self.snd_wnd = u32::from(seg.window);
        self.state = TcpState::Established;
        self.pending_acks = 1;
        self.rtx_deadline = None;
        self.rtx_count = 0;
        if let Some(sent) = self.syn_sent_at {
            self.rtt.sample(now.saturating_since(sent));
        }
    }

    fn on_segment_synchronized(&mut self, now: SimTime, seg: &TcpSegment) {
        // --- ACK processing ---
        if seg.flags.ack {
            self.process_ack(now, seg);
        }
        // --- data ---
        if !seg.payload.is_empty() {
            self.process_data(seg.seq, &seg.payload);
        }
        // --- FIN ---
        if seg.flags.fin {
            let fin_seq = seg.seq.wrapping_add(seg.payload.len() as u32);
            if fin_seq == self.rcv_nxt && !self.peer_fin {
                self.peer_fin = true;
                self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                self.pending_acks += 1;
                self.state = match self.state {
                    TcpState::Established => TcpState::CloseWait,
                    TcpState::FinWait1 => TcpState::Closing,
                    TcpState::FinWait2 => {
                        self.time_wait_until = Some(now + TIME_WAIT);
                        TcpState::TimeWait
                    }
                    other => other,
                };
            } else if seq::lt(fin_seq, self.rcv_nxt) {
                // Retransmitted FIN we already processed; just re-ACK it.
                self.pending_acks += 1;
            }
        }
    }

    fn process_ack(&mut self, now: SimTime, seg: &TcpSegment) {
        let ack = seg.ack;
        self.snd_wnd = u32::from(seg.window);
        if self.state == TcpState::SynReceived && seq::ge(ack, self.iss.wrapping_add(1)) {
            self.state = TcpState::Established;
            self.snd_una = self.iss.wrapping_add(1);
            self.snd_nxt = self.snd_una;
            self.snd_max = self.snd_una;
            self.rtx_deadline = None;
            self.rtx_count = 0;
            if let Some(sent) = self.syn_sent_at {
                self.rtt.sample(now.saturating_since(sent));
            }
        }
        // Acks up to `snd_max`, not `snd_nxt`: after a go-back-N the peer
        // acks data it already holds (the BSD rule, `tcp_input`).
        if seq::gt(ack, self.snd_una) && seq::le(ack, self.snd_max) {
            let newly_acked_seq = seq::distance(self.snd_una, ack);
            // The FIN's only position is right after the buffered data; a
            // rewind clears `fin_sent` although the peer may ack the FIN.
            let fin_acked = newly_acked_seq as usize == self.send_buf.len() + 1;
            let data_acked = newly_acked_seq - u32::from(fin_acked);
            // Drop acknowledged bytes from the front of the send buffer.
            let drop = (data_acked as usize).min(self.send_buf.len());
            self.send_buf.drain(..drop);
            self.snd_una = ack;
            if seq::gt(ack, self.snd_nxt) {
                self.snd_nxt = ack;
            }
            self.dup_acks = 0;
            self.cong.on_ack(data_acked as usize, self.snd_una);
            // RTT sample.
            if let Some((probe_seq, sent_at)) = self.rtt_probe {
                if seq::ge(ack, probe_seq) {
                    self.rtt.sample(now.saturating_since(sent_at));
                    self.rtt_probe = None;
                }
            }
            // Restart or stop the retransmission timer.
            self.rtx_count = 0;
            let fin_outstanding = self.fin_sent && !fin_acked;
            if self.bytes_in_flight() == 0 && !fin_outstanding {
                self.rtx_deadline = None;
            } else {
                self.rtx_deadline = Some(now + self.rtt.rto());
            }
            if fin_acked {
                self.state = match self.state {
                    TcpState::FinWait1 => TcpState::FinWait2,
                    TcpState::Closing => {
                        self.time_wait_until = Some(now + TIME_WAIT);
                        TcpState::TimeWait
                    }
                    TcpState::LastAck => TcpState::Closed,
                    other => other,
                };
            }
        } else if ack == self.snd_una
            && seg.payload.is_empty()
            && !seg.flags.syn
            && !seg.flags.fin
            && self.bytes_in_flight() > 0
        {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == 3 && self.cong.on_fast_retransmit(self.snd_nxt) {
                // Go back to the lost segment: rewind snd_nxt so poll() resends it.
                self.snd_nxt = self.snd_una;
                if self.fin_sent {
                    self.fin_sent = false;
                }
                self.rtt_probe = None;
            }
        }
    }

    fn process_data(&mut self, seq_no: u32, payload: &[u8]) {
        // One ACK per received data segment: cumulative when in order, duplicate
        // when out of order (this is what drives the peer's fast retransmit).
        self.pending_acks = (self.pending_acks + 1).min(64);
        let window_end = self.rcv_nxt.wrapping_add(self.recv_window() as u32);
        // Drop data entirely outside the window.
        let seg_end = seq_no.wrapping_add(payload.len() as u32);
        if seq::le(seg_end, self.rcv_nxt) || seq::ge(seq_no, window_end) {
            return;
        }
        // Trim any portion below rcv_nxt (partial retransmission overlap).
        let (start_seq, data) = if seq::lt(seq_no, self.rcv_nxt) {
            let skip = seq::distance(seq_no, self.rcv_nxt) as usize;
            (self.rcv_nxt, &payload[skip.min(payload.len())..])
        } else {
            (seq_no, payload)
        };
        if data.is_empty() {
            return;
        }
        if start_seq == self.rcv_nxt {
            let room = self.recv_window();
            let take = room.min(data.len());
            self.recv_buf.extend(&data[..take]);
            self.rcv_nxt = self.rcv_nxt.wrapping_add(take as u32);
            self.drain_out_of_order();
        } else {
            // Out of order: stash for later (bounded by window, coarse-grained).
            self.ooo.entry(start_seq).or_insert_with(|| data.to_vec());
        }
    }

    fn drain_out_of_order(&mut self) {
        while let Some((&seq_no, _)) = self.ooo.iter().next() {
            if seq::gt(seq_no, self.rcv_nxt) {
                break;
            }
            let (_, data) = self.ooo.remove_entry(&seq_no).unwrap();
            if seq::lt(seq_no, self.rcv_nxt) {
                let skip = seq::distance(seq_no, self.rcv_nxt) as usize;
                if skip >= data.len() {
                    continue;
                }
                let take = (data.len() - skip).min(self.recv_window());
                self.recv_buf.extend(&data[skip..skip + take]);
                self.rcv_nxt = self.rcv_nxt.wrapping_add(take as u32);
            } else {
                let take = data.len().min(self.recv_window());
                self.recv_buf.extend(&data[..take]);
                self.rcv_nxt = self.rcv_nxt.wrapping_add(take as u32);
            }
        }
    }

    // ------------------------------------------------------------------ polling

    /// Collect segments this socket wants to transmit at `now`.
    pub fn poll(&mut self, now: SimTime) -> Vec<TcpSegment> {
        let mut out = Vec::new();
        // TIME-WAIT expiry.
        if self.state == TcpState::TimeWait {
            if let Some(t) = self.time_wait_until {
                if now >= t {
                    self.state = TcpState::Closed;
                    self.time_wait_until = None;
                    self.rtx_deadline = None;
                }
            }
        }
        // Retransmission timeout.
        if let Some(deadline) = self.rtx_deadline {
            if now >= deadline {
                self.on_rto(now);
            }
        }
        match self.state {
            TcpState::SynSent if self.rtx_deadline.is_none() => {
                out.push(self.make_syn(false));
                self.arm_rtx(now);
            }
            TcpState::SynReceived if self.rtx_deadline.is_none() => {
                out.push(self.make_syn(true));
                self.arm_rtx(now);
            }
            TcpState::Established
            | TcpState::CloseWait
            | TcpState::FinWait1
            | TcpState::Closing
            | TcpState::LastAck => {
                self.emit_data(now, &mut out);
                self.maybe_emit_fin(now, &mut out);
            }
            _ => {}
        }
        if self.pending_acks > 0 && out.is_empty() && self.state != TcpState::Closed {
            for _ in 0..self.pending_acks {
                out.push(self.make_ack());
            }
        }
        if !out.is_empty() {
            self.pending_acks = 0;
        }
        out
    }

    /// The earliest virtual time at which this socket needs to be polled again for
    /// timer processing, if any.
    pub fn next_timeout(&self) -> Option<SimTime> {
        // A finished socket has no future work: reporting a stale deadline here
        // would make the owning agent re-arm an immediate wakeup forever.
        if self.state == TcpState::Closed {
            return None;
        }
        let mut t = self.rtx_deadline;
        if let Some(tw) = self.time_wait_until {
            t = Some(t.map_or(tw, |x| x.min(tw)));
        }
        t
    }

    /// True if the socket has segments it could emit right now (data within the
    /// window, pending ACK or pending SYN/FIN).
    pub fn wants_poll(&self) -> bool {
        if self.pending_acks > 0 {
            return true;
        }
        match self.state {
            TcpState::SynSent | TcpState::SynReceived => self.rtx_deadline.is_none(),
            TcpState::Established
            | TcpState::CloseWait
            | TcpState::FinWait1
            | TcpState::Closing
            | TcpState::LastAck => self.sendable_bytes() > 0 || (self.fin_queued && !self.fin_sent),
            _ => false,
        }
    }

    fn bytes_in_flight(&self) -> usize {
        // The FIN occupies sequence space until it is acknowledged; once snd_una has
        // advanced past it, the distance no longer includes it.
        let fin_unacked = self.fin_sent && seq::le(self.snd_una, self.fin_seq);
        (seq::distance(self.snd_una, self.snd_nxt) as usize)
            .saturating_sub(usize::from(fin_unacked))
    }

    fn sendable_bytes(&self) -> usize {
        let in_flight = self.bytes_in_flight();
        let unsent = self.send_buf.len().saturating_sub(in_flight);
        let window = self.effective_window().saturating_sub(in_flight);
        unsent.min(window)
    }

    fn effective_window(&self) -> usize {
        (self.snd_wnd as usize).min(self.cong.window())
    }

    fn recv_window(&self) -> usize {
        RECV_BUFFER.saturating_sub(self.recv_buf.len())
    }

    fn emit_data(&mut self, now: SimTime, out: &mut Vec<TcpSegment>) {
        loop {
            let in_flight = self.bytes_in_flight();
            let window = self.effective_window();
            if in_flight >= window {
                break;
            }
            let unsent_offset = in_flight;
            let available = self.send_buf.len().saturating_sub(unsent_offset);
            if available == 0 {
                break;
            }
            let len = available.min(self.mss).min(window - in_flight);
            if len == 0 {
                break;
            }
            // VecDeque::range gives O(1) access to the unsent region; an
            // iterator-skip here would rescan the buffer and make large transfers
            // quadratic in the send-buffer size.
            let payload: Vec<u8> = self
                .send_buf
                .range(unsent_offset..unsent_offset + len)
                .copied()
                .collect();
            let seg = TcpSegment {
                src_port: self.local_port,
                dst_port: self.remote_port,
                seq: self.snd_nxt,
                ack: self.rcv_nxt,
                flags: TcpFlags::ACK,
                window: self.recv_window().min(u16::MAX as usize) as u16,
                mss: None,
                payload,
            };
            if self.rtt_probe.is_none() {
                self.rtt_probe = Some((self.snd_nxt.wrapping_add(len as u32), now));
            }
            self.advance_snd_nxt(len as u32);
            out.push(seg);
            if self.rtx_deadline.is_none() {
                self.arm_rtx(now);
            }
        }
    }

    fn maybe_emit_fin(&mut self, now: SimTime, out: &mut Vec<TcpSegment>) {
        let all_data_sent = self.bytes_in_flight() >= self.send_buf.len();
        if self.fin_queued && !self.fin_sent && all_data_sent {
            let seg = TcpSegment {
                src_port: self.local_port,
                dst_port: self.remote_port,
                seq: self.snd_nxt,
                ack: self.rcv_nxt,
                flags: TcpFlags::FIN_ACK,
                window: self.recv_window().min(u16::MAX as usize) as u16,
                mss: None,
                payload: Vec::new(),
            };
            self.fin_seq = self.snd_nxt;
            self.advance_snd_nxt(1);
            self.fin_sent = true;
            out.push(seg);
            if self.rtx_deadline.is_none() {
                self.arm_rtx(now);
            }
            self.state = match self.state {
                TcpState::Established => TcpState::FinWait1,
                TcpState::CloseWait => TcpState::LastAck,
                other => other,
            };
        }
    }

    fn make_syn(&self, ack: bool) -> TcpSegment {
        TcpSegment {
            src_port: self.local_port,
            dst_port: self.remote_port,
            seq: self.iss,
            ack: if ack { self.rcv_nxt } else { 0 },
            flags: if ack {
                TcpFlags::SYN_ACK
            } else {
                TcpFlags::SYN
            },
            window: self.recv_window().min(u16::MAX as usize) as u16,
            mss: Some(self.mss as u16),
            payload: Vec::new(),
        }
    }

    fn make_ack(&self) -> TcpSegment {
        TcpSegment::ack(
            self.local_port,
            self.remote_port,
            self.snd_nxt,
            self.rcv_nxt,
            self.recv_window().min(u16::MAX as usize) as u16,
        )
    }

    /// Move `snd_nxt` past `len` sequence numbers just sent.
    fn advance_snd_nxt(&mut self, len: u32) {
        self.snd_nxt = self.snd_nxt.wrapping_add(len);
        if seq::gt(self.snd_nxt, self.snd_max) {
            self.snd_max = self.snd_nxt;
        }
    }

    fn arm_rtx(&mut self, now: SimTime) {
        self.rtx_deadline = Some(now + self.rtt.rto());
    }

    fn on_rto(&mut self, now: SimTime) {
        self.rtx_deadline = None;
        match self.state {
            TcpState::SynSent | TcpState::SynReceived => {
                self.rtx_count += 1;
                if self.rtx_count > MAX_RETRIES {
                    self.state = TcpState::Closed;
                    return;
                }
                self.rtt.backoff();
                // poll() will resend the SYN because rtx_deadline is now None.
            }
            TcpState::Established
            | TcpState::CloseWait
            | TcpState::FinWait1
            | TcpState::Closing
            | TcpState::LastAck => {
                if self.bytes_in_flight() == 0 && !self.fin_sent {
                    return;
                }
                self.rtx_count += 1;
                if self.rtx_count > MAX_RETRIES {
                    self.state = TcpState::Closed;
                    return;
                }
                self.rtt.backoff();
                self.cong.on_timeout();
                // Go-back-N: rewind to the first unacknowledged byte.
                self.snd_nxt = self.snd_una;
                if self.fin_sent {
                    self.fin_sent = false;
                }
                self.rtt_probe = None;
                let _ = now;
            }
            _ => {}
        }
    }

    /// Build a RST segment answering an unexpected segment (stack-level helper).
    pub fn rst_for(local_port: u16, seg: &TcpSegment) -> TcpSegment {
        TcpSegment {
            src_port: local_port,
            dst_port: seg.src_port,
            seq: if seg.flags.ack { seg.ack } else { 0 },
            ack: seg.seq.wrapping_add(seg.seq_len()),
            flags: TcpFlags::RST,
            window: 0,
            mss: None,
            payload: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    /// Shuttle segments between two sockets until neither has anything to say,
    /// advancing a fake clock by `step` per exchange.
    fn pump(a: &mut TcpSocket, b: &mut TcpSocket, now: &mut SimTime, step: Duration) {
        for _ in 0..10_000 {
            let from_a = a.poll(*now);
            let from_b = b.poll(*now);
            if from_a.is_empty() && from_b.is_empty() {
                break;
            }
            *now += step;
            for seg in from_a {
                b.on_segment(*now, &seg);
            }
            for seg in from_b {
                a.on_segment(*now, &seg);
            }
        }
    }

    fn established_pair(now: &mut SimTime) -> (TcpSocket, TcpSocket) {
        let mut client = TcpSocket::connect(A, 40_000, B, 80, 1_000, *now, MSS_CEILING);
        // Client emits SYN.
        let syn = client.poll(*now).pop().expect("syn");
        assert!(syn.flags.syn && !syn.flags.ack);
        let mut server = TcpSocket::accept(B, 80, MSS_CEILING, A, &syn, 9_000, *now);
        pump(&mut client, &mut server, now, Duration::from_millis(1));
        assert_eq!(client.state(), TcpState::Established);
        assert_eq!(server.state(), TcpState::Established);
        (client, server)
    }

    #[test]
    fn three_way_handshake() {
        let mut now = SimTime::ZERO;
        let (c, s) = established_pair(&mut now);
        assert!(c.is_established());
        assert!(s.is_established());
    }

    #[test]
    fn data_transfer_both_directions() {
        let mut now = SimTime::ZERO;
        let (mut c, mut s) = established_pair(&mut now);
        let msg = vec![0x41u8; 10_000];
        assert_eq!(c.send(&msg), msg.len());
        let reply = b"pong".to_vec();
        assert_eq!(s.send(&reply), 4);
        pump(&mut c, &mut s, &mut now, Duration::from_millis(1));
        assert_eq!(s.recv_available(), 10_000);
        assert_eq!(s.recv(20_000), msg);
        assert_eq!(c.recv(100), reply);
    }

    #[test]
    fn large_transfer_respects_mss_and_delivers_in_order() {
        let mut now = SimTime::ZERO;
        let (mut c, mut s) = established_pair(&mut now);
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let mut sent = 0;
        let mut received = Vec::new();
        while received.len() < data.len() {
            if sent < data.len() {
                sent += c.send(&data[sent..]);
            }
            pump(&mut c, &mut s, &mut now, Duration::from_micros(100));
            received.extend(s.recv(usize::MAX));
        }
        assert_eq!(received, data);
    }

    #[test]
    fn graceful_close_reaches_closed_on_both_sides() {
        let mut now = SimTime::ZERO;
        let (mut c, mut s) = established_pair(&mut now);
        c.send(b"bye");
        c.close();
        pump(&mut c, &mut s, &mut now, Duration::from_millis(1));
        assert_eq!(s.recv(10), b"bye");
        assert!(s.recv_finished());
        s.close();
        pump(&mut c, &mut s, &mut now, Duration::from_millis(1));
        // Client is in TIME-WAIT; let it expire.
        now += Duration::from_secs(2);
        c.poll(now);
        assert_eq!(s.state(), TcpState::Closed);
        assert_eq!(c.state(), TcpState::Closed);
    }

    #[test]
    fn retransmission_recovers_from_loss() {
        let mut now = SimTime::ZERO;
        let (mut c, mut s) = established_pair(&mut now);
        c.send(&vec![7u8; 5_000]);
        // Drop everything the client sends the first time round.
        let lost = c.poll(now);
        assert!(!lost.is_empty());
        // Let the RTO fire.
        now += Duration::from_secs(2);
        pump(&mut c, &mut s, &mut now, Duration::from_millis(1));
        assert_eq!(s.recv(10_000).len(), 5_000);
    }

    #[test]
    fn out_of_order_segments_are_reassembled() {
        let mut now = SimTime::ZERO;
        let (mut c, mut s) = established_pair(&mut now);
        c.send(&(0..4200u32).map(|i| (i % 256) as u8).collect::<Vec<_>>());
        let segs = c.poll(now);
        assert!(segs.len() >= 3, "expected multiple MSS-sized segments");
        // Deliver in reverse order.
        for seg in segs.iter().rev() {
            s.on_segment(now, seg);
        }
        pump(&mut c, &mut s, &mut now, Duration::from_millis(1));
        let got = s.recv(usize::MAX);
        assert_eq!(
            got,
            (0..4200u32).map(|i| (i % 256) as u8).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reset_closes_connection() {
        let mut now = SimTime::ZERO;
        let (mut c, s) = established_pair(&mut now);
        let rst = TcpSegment {
            src_port: 80,
            dst_port: 40_000,
            seq: 0,
            ack: 0,
            flags: TcpFlags::RST,
            window: 0,
            mss: None,
            payload: vec![],
        };
        c.on_segment(now, &rst);
        assert!(c.is_closed());
        assert!(c.was_reset());
        assert!(!s.is_closed());
    }

    #[test]
    fn connect_times_out_without_peer() {
        let mut now = SimTime::ZERO;
        let mut c = TcpSocket::connect(A, 1, B, 2, 55, now, MSS_CEILING);
        // The first poll sends the SYN; each later RTO expiry resends it.
        c.poll(now);
        let mut expire_rto = |c: &mut TcpSocket| {
            now = c.next_timeout().expect("retransmission timer armed");
            c.poll(now);
        };
        for _ in 0..MAX_RETRIES {
            expire_rto(&mut c);
        }
        assert!(!c.is_closed(), "still trying after MAX_RETRIES expiries");
        expire_rto(&mut c);
        assert!(c.is_closed(), "gives up on the next one");
    }

    #[test]
    fn send_respects_buffer_capacity() {
        let mut now = SimTime::ZERO;
        let (mut c, _s) = established_pair(&mut now);
        let huge = vec![0u8; 10_000_000];
        let accepted = c.send(&huge);
        assert!(accepted <= SEND_BUFFER);
        assert_eq!(c.send_capacity(), SEND_BUFFER - accepted);
    }

    #[test]
    fn fast_retransmit_on_dup_acks() {
        let mut now = SimTime::ZERO;
        let (mut c, mut s) = established_pair(&mut now);
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 256) as u8).collect();
        c.send(&data);
        let mut segs = c.poll(now);
        assert!(segs.len() >= 4);
        // Lose the first segment; deliver the rest, generating dup ACKs.
        segs.remove(0);
        for seg in &segs {
            s.on_segment(now, seg);
        }
        // Server acks (all duplicates of rcv_nxt), client should fast-retransmit
        // without waiting for a full RTO.
        pump(&mut c, &mut s, &mut now, Duration::from_millis(1));
        assert!(
            now.saturating_since(SimTime::ZERO) < Duration::from_millis(900),
            "recovered via fast retransmit, not RTO (took {now})"
        );
        let got = s.recv(usize::MAX);
        assert_eq!(got.len(), 20_000.min(data.len()));
    }

    /// Open the client's congestion window: six 10 kB chunks, each read by
    /// the server as soon as it arrives, so its advertised window stays wide.
    fn warmed_pair(now: &mut SimTime) -> (TcpSocket, TcpSocket) {
        let (mut c, mut s) = established_pair(now);
        for _ in 0..6 {
            c.send(&[0x5A; 10_000]);
            pump(&mut c, &mut s, now, Duration::from_millis(1));
            assert_eq!(s.recv(usize::MAX).len(), 10_000);
        }
        (c, s)
    }

    /// Pump the pair, firing the client's retransmission timer whenever the
    /// exchange goes quiet, until the client holds nothing unacknowledged or
    /// has given up.
    fn pump_until_acked(c: &mut TcpSocket, s: &mut TcpSocket, now: &mut SimTime) {
        for _ in 0..2 * MAX_RETRIES {
            pump(c, s, now, Duration::from_millis(1));
            match c.next_timeout() {
                Some(deadline) if c.unacked() > 0 => *now = deadline.max(*now),
                _ => return,
            }
        }
    }

    #[test]
    fn an_ack_past_a_fast_retransmit_is_taken() {
        let mut now = SimTime::ZERO;
        let (mut c, mut s) = warmed_pair(&mut now);
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 253) as u8).collect();
        c.send(&data);
        let mut segs = c.poll(now);
        assert!(segs.len() > 8, "a wide window: {} segments", segs.len());
        // The first segment is lost and the rest are buffered out of order:
        // the retransmission that fills the hole is acked far past the
        // rewound `snd_nxt`.
        segs.remove(0);
        for seg in &segs {
            s.on_segment(now, seg);
        }
        pump_until_acked(&mut c, &mut s, &mut now);
        assert!(!c.is_closed(), "the sender gave up");
        assert_eq!(c.unacked(), 0);
        assert_eq!(s.recv(usize::MAX), data);
    }

    #[test]
    fn a_delayed_ack_after_a_spurious_rto_is_taken() {
        let mut now = SimTime::ZERO;
        let (mut c, mut s) = warmed_pair(&mut now);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 241) as u8).collect();
        c.send(&data);
        for seg in c.poll(now) {
            s.on_segment(now, &seg);
        }
        // Every segment arrived, but the acks are held past the RTO: the
        // client goes back to `snd_una` before they land.
        let acks = s.poll(now);
        now = c.next_timeout().expect("retransmission timer armed");
        let resent = c.poll(now);
        assert!(!resent.is_empty(), "the RTO resent data");
        for ack in &acks {
            c.on_segment(now, ack);
        }
        for seg in &resent {
            s.on_segment(now, seg);
        }
        pump_until_acked(&mut c, &mut s, &mut now);
        assert!(!c.is_closed(), "the sender gave up");
        assert_eq!(c.unacked(), 0);
        assert_eq!(s.recv(usize::MAX), data);
    }
}
