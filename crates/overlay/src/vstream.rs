//! Connection-oriented virtual streams multiplexed over routed overlay frames.
//!
//! The paper's IPOP vision is arbitrary IP traffic between self-configured
//! endpoints; this module gives applications the piece the raw tunnel does
//! not — ordered, reliable byte streams between overlay *addresses* — without
//! each app hand-rolling reliability on top of `IpTunnel` frames. One engine
//! per node multiplexes any number of streams over the routed fabric:
//!
//! * **Frames** — `StreamSyn`/`StreamSynAck` open, `StreamData`/`StreamAck`
//!   carry, `StreamFin` closes (see [`crate::packets::RoutedPayload`]). DATA
//!   payloads ride the same zero-copy [`Bytes`] path as the IP tunnel: app
//!   chunks are sliced, never copied, and forwarders patch the cached wire
//!   image instead of re-encoding.
//! * **Reliability** — byte sequence numbers, cumulative ACKs, a bounded
//!   retransmit queue, and an RFC 6298-style RTO (the same estimator shape as
//!   the link monitor's probe deadline: `srtt + 4·rttvar`, doubled per
//!   consecutive miss, clamped). One timer per stream, restarted on progress;
//!   [`MAX_RETRIES`] consecutive timeouts fail the stream.
//! * **Flow control** — every DATA/ACK advertises the sender's receive
//!   window; a sender keeps at most that many unacknowledged bytes in
//!   flight. The advertised window shrinks by whatever sits in the reorder
//!   buffer, so a lossy path cannot balloon receiver memory.
//! * **Determinism** — no wall clock, no randomness: state lives in
//!   `BTreeMap`s, timers derive from [`SimTime`], and stream ids come from
//!   the embedding node's token counter. Identical inputs replay identical
//!   frame sequences, which is what lets the sharded simulator run thousands
//!   of streams bit-reproducibly.
//!
//! Teardown is whole-stream, not half-close: a FIN (sent after the local
//! send buffer drains) tears down both directions, and the receiving side
//! drops its own unsent data. Frames for unknown streams are counted and
//! dropped — the peer's retransmit budget bounds how long the other end
//! lingers.

use std::collections::{BTreeMap, VecDeque};

use ipop_netstack::tcp::rtt::Smoothed;
use ipop_packet::Bytes;
use ipop_simcore::{Duration, SimTime};

use crate::address::Address;
use crate::packets::RoutedPayload;

/// Receive window advertised by a fresh stream, in bytes.
pub const DEFAULT_WINDOW: u32 = 64 * 1024;

/// Largest DATA payload carved from the send buffer — roughly tunnel-MTU
/// sized, so a stream segment and a tunnelled IP packet cost the fabric the
/// same.
pub const MAX_SEGMENT: usize = 1200;

/// Consecutive RTO expiries (on the same oldest outstanding frame) after
/// which the stream is declared failed and torn down.
pub const MAX_RETRIES: u32 = 8;

/// RTO clamp bounds and pre-sample default — the link monitor's probe
/// deadline constants, reused deliberately: both timers watch the same links.
const RTO_MIN: Duration = Duration::from_millis(250);
const RTO_MAX: Duration = Duration::from_secs(3);
const RTO_INITIAL: Duration = Duration::from_secs(1);

/// Lifecycle notifications surfaced to the embedding agent, in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamEvent {
    /// The three-way exchange completed; [`VStreams::send`] will flow.
    Established { remote: Address, stream_id: u64 },
    /// The peer closed: all of its data has been delivered. The local state
    /// is already gone — no further send/close is needed (or possible).
    RemoteClosed { remote: Address, stream_id: u64 },
    /// The retransmit budget ran out (peer crashed, left, or unreachable).
    /// Undelivered data is dropped with the state.
    Failed { remote: Address, stream_id: u64 },
    /// Our FIN was acknowledged; the close completed cleanly.
    Closed { remote: Address, stream_id: u64 },
}

/// Engine-wide counters, merged into [`crate::node::OverlayStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Streams opened from this node (`connect`).
    pub opened: u64,
    /// Streams accepted from remote SYNs.
    pub accepted: u64,
    /// DATA segments sent (first transmissions).
    pub data_sent: u64,
    /// DATA segments received in order and delivered.
    pub data_received: u64,
    /// Frames re-sent on RTO expiry (SYN, DATA and FIN alike).
    pub retransmits: u64,
    /// DATA segments that were duplicates of already-delivered bytes.
    pub duplicates: u64,
    /// Streams that exhausted their retransmit budget.
    pub failed: u64,
    /// Streams closed cleanly (local FIN acknowledged or remote FIN drained).
    pub closed: u64,
    /// Frames for streams this node no longer (or never) tracked.
    pub orphan_frames: u64,
    /// ACKs rejected for acknowledging bytes that were never sent
    /// (`ack > snd_nxt`): corrupted or forged frames.
    pub bad_acks: u64,
    /// DATA segments dropped for a sequence range no conforming sender
    /// produces: `seq + len` overflows, ends beyond the receive window, starts
    /// inside delivered bytes without being a duplicate, or would grow the
    /// reorder buffer past the window.
    pub bad_seqs: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// SYN sent, waiting for the SYN-ACK.
    SynSent,
    /// Open in both directions.
    Established,
    /// Local FIN sent, waiting for its cumulative ACK.
    FinSent,
}

/// One DATA segment awaiting its cumulative ACK.
struct InFlight {
    payload: Bytes,
    sent_at: SimTime,
    /// Karn's rule: a segment that was ever retransmitted contributes no RTT
    /// sample (the ACK cannot be attributed to one transmission).
    retransmitted: bool,
}

/// Per-stream state. Sequence numbers count bytes; the FIN consumes one
/// extra sequence slot so its ACK is unambiguous.
struct Stream {
    state: State,
    // ---- send side
    /// Oldest unacknowledged byte.
    snd_una: u64,
    /// Next byte to send.
    snd_nxt: u64,
    /// Peer's most recently advertised receive window.
    peer_window: u32,
    /// Application bytes accepted but not yet carved into segments. Chunks
    /// are [`Bytes`] views — carving slices, never copies.
    send_buf: VecDeque<Bytes>,
    /// Sent-but-unacked segments, keyed by first sequence number.
    retx: BTreeMap<u64, InFlight>,
    /// `close` was requested; the FIN goes out once `send_buf` and `retx`
    /// drain.
    fin_queued: bool,
    /// Sequence number our FIN consumed, once sent.
    fin_seq: Option<u64>,
    // ---- receive side
    /// Next expected byte.
    rcv_nxt: u64,
    /// Out-of-order segments waiting for the gap to fill.
    reorder: BTreeMap<u64, Bytes>,
    reorder_bytes: usize,
    /// Sequence number of the peer's FIN, once seen.
    remote_fin: Option<u64>,
    // ---- timers (RFC 6298 estimator + one restart-on-progress timer)
    rtt: Smoothed,
    /// Consecutive RTO expiries on the current oldest outstanding frame.
    retries: u32,
    /// When the oldest outstanding frame was last (re)sent — the RTO
    /// deadline base. Restarted when the ACK clock makes progress.
    timer_epoch: SimTime,
}

impl Stream {
    fn new(state: State, now: SimTime, peer_window: u32) -> Self {
        Stream {
            state,
            snd_una: 0,
            snd_nxt: 0,
            peer_window,
            send_buf: VecDeque::new(),
            retx: BTreeMap::new(),
            fin_queued: false,
            fin_seq: None,
            rcv_nxt: 0,
            reorder: BTreeMap::new(),
            reorder_bytes: 0,
            remote_fin: None,
            rtt: Smoothed::default(),
            retries: 0,
            timer_epoch: now,
        }
    }

    /// Receive window to advertise: the default minus what the reorder
    /// buffer already holds (delivered bytes are the application's problem).
    fn recv_window(&self) -> u32 {
        DEFAULT_WINDOW.saturating_sub(self.reorder_bytes.min(u32::MAX as usize) as u32)
    }

    /// Unacknowledged bytes in flight.
    fn in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Current retransmission timeout: `srtt + 4·rttvar` clamped into
    /// `[RTO_MIN, RTO_MAX]`, doubled per consecutive expiry (capped so the
    /// backoff cannot overflow), then clamped again.
    fn rto(&self) -> Duration {
        let base = self
            .rtt
            .rto()
            .unwrap_or(RTO_INITIAL)
            .clamp(RTO_MIN, RTO_MAX);
        Duration::from_nanos(base.as_nanos() << self.retries.min(4)).min(RTO_MAX)
    }

    /// Does any frame await an ACK (SYN, DATA or FIN)?
    fn outstanding(&self) -> bool {
        self.state == State::SynSent || !self.retx.is_empty() || self.fin_unacked()
    }

    fn fin_unacked(&self) -> bool {
        self.fin_seq.is_some_and(|f| self.snd_una <= f)
    }
}

/// The per-node virtual-stream engine: a table of streams keyed by
/// `(remote address, stream id)`, inbound frame handlers, the send path and
/// the RTO sweep. The embedding [`crate::node::OverlayNode`] feeds it
/// delivered frames, routes what [`VStreams::take_outgoing`] drains, and
/// calls [`VStreams::tick`] from its maintenance alarm.
pub struct VStreams {
    streams: BTreeMap<(Address, u64), Stream>,
    /// Streams accepted from remote SYNs, for `take_accepted`.
    accepted: VecDeque<(Address, u64)>,
    /// In-order payload delivered to the application.
    recv: VecDeque<(Address, u64, Bytes)>,
    events: VecDeque<StreamEvent>,
    /// Frames awaiting routing: `(destination overlay address, payload)`.
    out: Vec<(Address, RoutedPayload)>,
    pub stats: StreamStats,
}

impl Default for VStreams {
    fn default() -> Self {
        Self::new()
    }
}

impl VStreams {
    pub fn new() -> Self {
        VStreams {
            streams: BTreeMap::new(),
            accepted: VecDeque::new(),
            recv: VecDeque::new(),
            events: VecDeque::new(),
            out: Vec::new(),
            stats: StreamStats::default(),
        }
    }

    /// Number of live streams (diagnostics).
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    // ------------------------------------------------------------------- API

    /// Open a stream to `remote` under the caller-supplied id (the node
    /// derives it from its token counter plus an address-order parity bit so
    /// simultaneous opens in both directions can never collide). Data may be
    /// queued immediately; it flows once the SYN-ACK arrives.
    pub fn connect(&mut self, now: SimTime, remote: Address, stream_id: u64) {
        let stream = Stream::new(State::SynSent, now, 0);
        self.streams.insert((remote, stream_id), stream);
        self.stats.opened += 1;
        self.out.push((
            remote,
            RoutedPayload::StreamSyn {
                stream_id,
                window: DEFAULT_WINDOW,
            },
        ));
    }

    /// Queue `data` for ordered delivery. Returns false when the stream is
    /// unknown or already closing.
    pub fn send(&mut self, now: SimTime, remote: Address, stream_id: u64, data: Bytes) -> bool {
        let key = (remote, stream_id);
        let Some(s) = self.streams.get_mut(&key) else {
            return false;
        };
        if s.fin_queued || data.is_empty() {
            return false;
        }
        s.send_buf.push_back(data);
        self.push_data(now, key);
        true
    }

    /// Close the stream: remaining buffered data is still delivered, then a
    /// FIN tears the stream down in both directions.
    pub fn close(&mut self, now: SimTime, remote: Address, stream_id: u64) {
        let key = (remote, stream_id);
        let Some(s) = self.streams.get_mut(&key) else {
            return;
        };
        if s.state == State::SynSent && s.send_buf.is_empty() {
            // Nothing committed yet: abort silently. The peer (if the SYN
            // arrived) fails its half through the retransmit budget.
            self.streams.remove(&key);
            return;
        }
        s.fin_queued = true;
        self.maybe_send_fin(now, key);
    }

    // ---------------------------------------------------------------- drains

    /// Frames to route, in emission order: `(remote address, payload)`.
    pub fn take_outgoing(&mut self) -> Vec<(Address, RoutedPayload)> {
        std::mem::take(&mut self.out)
    }

    /// Streams accepted from remote SYNs since the last call.
    pub fn take_accepted(&mut self) -> Vec<(Address, u64)> {
        self.accepted.drain(..).collect()
    }

    /// In-order stream data: `(remote, stream id, chunk)`. Chunks are views
    /// of the received wire payloads — no copy on the way up either.
    pub fn take_recv(&mut self) -> Vec<(Address, u64, Bytes)> {
        self.recv.drain(..).collect()
    }

    /// Lifecycle events since the last call.
    pub fn take_events(&mut self) -> Vec<StreamEvent> {
        self.events.drain(..).collect()
    }

    // ---------------------------------------------------------------- intake

    /// Handle one delivered stream frame from `src`. Non-stream payloads are
    /// ignored (the node's dispatch already matched the variant).
    pub fn on_payload(&mut self, now: SimTime, src: Address, payload: &RoutedPayload) {
        match payload {
            RoutedPayload::StreamSyn { stream_id, window } => {
                self.on_syn(now, src, *stream_id, *window);
            }
            RoutedPayload::StreamSynAck { stream_id, window } => {
                self.on_syn_ack(now, src, *stream_id, *window);
            }
            RoutedPayload::StreamData {
                stream_id,
                seq,
                window,
                payload,
            } => {
                self.on_data(now, src, *stream_id, *seq, *window, payload.clone());
            }
            RoutedPayload::StreamAck {
                stream_id,
                ack,
                window,
            } => {
                self.on_ack(now, src, *stream_id, *ack, *window);
            }
            RoutedPayload::StreamFin { stream_id, seq } => {
                self.on_fin(now, src, *stream_id, *seq);
            }
            _ => {}
        }
    }

    fn on_syn(&mut self, now: SimTime, src: Address, stream_id: u64, window: u32) {
        let key = (src, stream_id);
        match self.streams.get(&key) {
            Some(s) if s.state == State::SynSent => {
                // Id collision with our own outgoing stream — impossible by
                // construction (parity bit), dropped defensively.
                self.stats.orphan_frames += 1;
            }
            Some(_) => {
                // Duplicate SYN: the SYN-ACK was lost. Re-answer.
                self.out.push((
                    src,
                    RoutedPayload::StreamSynAck {
                        stream_id,
                        window: self.streams[&key].recv_window(),
                    },
                ));
            }
            None => {
                let stream = Stream::new(State::Established, now, window);
                self.streams.insert(key, stream);
                self.accepted.push_back(key);
                self.stats.accepted += 1;
                self.out.push((
                    src,
                    RoutedPayload::StreamSynAck {
                        stream_id,
                        window: DEFAULT_WINDOW,
                    },
                ));
            }
        }
    }

    fn on_syn_ack(&mut self, now: SimTime, src: Address, stream_id: u64, window: u32) {
        let key = (src, stream_id);
        let Some(s) = self.streams.get_mut(&key) else {
            self.stats.orphan_frames += 1;
            return;
        };
        if s.state != State::SynSent {
            return; // duplicate SYN-ACK
        }
        s.state = State::Established;
        s.peer_window = window;
        s.retries = 0;
        s.timer_epoch = now;
        self.events.push_back(StreamEvent::Established {
            remote: src,
            stream_id,
        });
        // Data queued while connecting flows now.
        self.push_data(now, key);
        self.maybe_send_fin(now, key);
    }

    fn on_data(
        &mut self,
        now: SimTime,
        src: Address,
        stream_id: u64,
        seq: u64,
        window: u32,
        payload: Bytes,
    ) {
        let key = (src, stream_id);
        let Some(s) = self.streams.get_mut(&key) else {
            self.stats.orphan_frames += 1;
            return;
        };
        // `seq` is the peer's word. A conforming sender keeps at most the
        // advertised window (never above `DEFAULT_WINDOW`) in flight beyond
        // what we acknowledged and never re-splits a segment, so a segment
        // is either a duplicate (entirely old, or already buffered) or new:
        // starting at or after `rcv_nxt`, ending inside the window, and
        // leaving the reorder buffer within one window. Anything else —
        // including an end that does not fit in a `u64` — is corrupted or
        // forged, and parking it would let one peer pin memory without
        // bound: nothing in the frame is believed, window included.
        let window_end = s.rcv_nxt.saturating_add(u64::from(DEFAULT_WINDOW));
        let end = seq
            .checked_add(payload.len() as u64)
            .filter(|&end| end <= window_end);
        let duplicate = end.is_some_and(|end| end <= s.rcv_nxt) || s.reorder.contains_key(&seq);
        let fits = seq >= s.rcv_nxt && s.reorder_bytes + payload.len() <= DEFAULT_WINDOW as usize;
        if end.is_none() || !(duplicate || fits) {
            self.stats.bad_seqs += 1;
            return;
        }
        s.peer_window = window;
        if s.state == State::SynSent {
            // Our SYN-ACK never existed — we are the connector and the peer's
            // SYN-ACK was lost yet it is already sending? Cannot happen (only
            // the acceptor sends before Established when its SYN-ACK is
            // lost), but promote defensively rather than wedge.
            s.state = State::Established;
            self.events.push_back(StreamEvent::Established {
                remote: src,
                stream_id,
            });
        }
        if duplicate {
            // Entirely old (or already buffered): the ACK was lost. Re-ack.
            self.stats.duplicates += 1;
        } else {
            // Segments are never re-split, so a non-duplicate is entirely
            // new: buffer it and drain whatever became contiguous.
            s.reorder_bytes += payload.len();
            s.reorder.insert(seq, payload);
            while let Some(chunk) = s.reorder.remove(&s.rcv_nxt) {
                s.reorder_bytes -= chunk.len();
                s.rcv_nxt += chunk.len() as u64;
                self.stats.data_received += 1;
                self.recv.push_back((src, stream_id, chunk));
            }
        }
        self.ack_and_maybe_finish(now, key);
    }

    fn on_ack(&mut self, now: SimTime, src: Address, stream_id: u64, ack: u64, window: u32) {
        let key = (src, stream_id);
        let Some(s) = self.streams.get_mut(&key) else {
            self.stats.orphan_frames += 1;
            return;
        };
        if ack > s.snd_nxt {
            // Acknowledges bytes never sent. Trusting it would move `snd_una`
            // past `snd_nxt`; nothing in the frame is believed, window included.
            self.stats.bad_acks += 1;
            return;
        }
        s.peer_window = window;
        if ack <= s.snd_una {
            return; // stale or duplicate ACK
        }
        // Cumulative trim; the newest fully-acked untouched segment yields
        // the RTT sample (Karn's rule skips retransmitted ones).
        let mut sample: Option<Duration> = None;
        while let Some((&seq, seg)) = s.retx.iter().next() {
            if seq + seg.payload.len() as u64 > ack {
                break;
            }
            if !seg.retransmitted {
                sample = Some(now.saturating_since(seg.sent_at));
            }
            s.retx.remove(&seq);
        }
        if let Some(rtt) = sample {
            s.rtt.sample(rtt);
        }
        s.snd_una = ack;
        s.retries = 0;
        s.timer_epoch = now;
        if s.fin_seq.is_some_and(|f| ack > f) {
            // Our FIN is acknowledged: the stream is fully closed.
            self.streams.remove(&key);
            self.stats.closed += 1;
            self.events.push_back(StreamEvent::Closed {
                remote: src,
                stream_id,
            });
            return;
        }
        // The window opened (or moved): keep the pipe full.
        self.push_data(now, key);
        self.maybe_send_fin(now, key);
    }

    fn on_fin(&mut self, now: SimTime, src: Address, stream_id: u64, seq: u64) {
        let key = (src, stream_id);
        let Some(s) = self.streams.get_mut(&key) else {
            // Our side is already gone (our own teardown completed); ack the
            // retransmitted FIN statelessly so the peer can finish too.
            self.out.push((
                src,
                RoutedPayload::StreamAck {
                    stream_id,
                    // `seq` is the peer's word: a forged `u64::MAX` must
                    // not overflow the reply.
                    ack: seq.saturating_add(1),
                    window: 0,
                },
            ));
            return;
        };
        s.remote_fin = Some(seq);
        self.ack_and_maybe_finish(now, key);
    }

    // -------------------------------------------------------------- timers

    /// RTO sweep, run from the node's maintenance alarm: retransmit the
    /// oldest outstanding frame of every stream whose timer expired; fail
    /// streams that exhausted [`MAX_RETRIES`].
    pub fn tick(&mut self, now: SimTime) {
        let keys: Vec<(Address, u64)> = self
            .streams
            .iter()
            .filter(|(_, s)| s.outstanding())
            .map(|(k, _)| *k)
            .collect();
        for key in keys {
            let Some(s) = self.streams.get_mut(&key) else {
                continue;
            };
            if now.saturating_since(s.timer_epoch) < s.rto() {
                continue;
            }
            if s.retries >= MAX_RETRIES {
                self.streams.remove(&key);
                self.stats.failed += 1;
                self.events.push_back(StreamEvent::Failed {
                    remote: key.0,
                    stream_id: key.1,
                });
                continue;
            }
            s.retries += 1;
            s.timer_epoch = now;
            self.stats.retransmits += 1;
            let (remote, stream_id) = key;
            let window = s.recv_window();
            let frame = match s.state {
                State::SynSent => RoutedPayload::StreamSyn {
                    stream_id,
                    window: DEFAULT_WINDOW,
                },
                _ => match s.retx.iter_mut().next() {
                    Some((&seq, seg)) => {
                        seg.retransmitted = true;
                        RoutedPayload::StreamData {
                            stream_id,
                            seq,
                            window,
                            payload: seg.payload.clone(),
                        }
                    }
                    // outstanding() without data in flight: the unacked FIN.
                    None => RoutedPayload::StreamFin {
                        stream_id,
                        seq: s.fin_seq.unwrap_or(s.snd_nxt),
                    },
                },
            };
            self.out.push((remote, frame));
        }
    }

    // ------------------------------------------------------------ send path

    /// Carve segments from the send buffer while the peer's window has room.
    fn push_data(&mut self, now: SimTime, key: (Address, u64)) {
        let Some(s) = self.streams.get_mut(&key) else {
            return;
        };
        if s.state == State::SynSent {
            return; // queued until the SYN-ACK brings the peer's window
        }
        while !s.send_buf.is_empty() && s.in_flight() < u64::from(s.peer_window) {
            let room = (u64::from(s.peer_window) - s.in_flight()) as usize;
            let chunk = s.send_buf.front().cloned().unwrap_or_default();
            let take = chunk.len().min(MAX_SEGMENT).min(room);
            let payload = chunk.slice(..take);
            if take == chunk.len() {
                s.send_buf.pop_front();
            } else if let Some(front) = s.send_buf.front_mut() {
                *front = chunk.slice(take..);
            }
            let seq = s.snd_nxt;
            let had_outstanding = s.outstanding();
            s.snd_nxt += take as u64;
            s.retx.insert(
                seq,
                InFlight {
                    payload: payload.clone(),
                    sent_at: now,
                    retransmitted: false,
                },
            );
            if !had_outstanding {
                s.timer_epoch = now;
            }
            self.stats.data_sent += 1;
            self.out.push((
                key.0,
                RoutedPayload::StreamData {
                    stream_id: key.1,
                    seq,
                    window: s.recv_window(),
                    payload,
                },
            ));
        }
    }

    /// Send the FIN once a requested close has drained the send side.
    fn maybe_send_fin(&mut self, now: SimTime, key: (Address, u64)) {
        let Some(s) = self.streams.get_mut(&key) else {
            return;
        };
        if !s.fin_queued
            || s.fin_seq.is_some()
            || s.state == State::SynSent
            || !s.send_buf.is_empty()
            || !s.retx.is_empty()
        {
            return;
        }
        let seq = s.snd_nxt;
        s.fin_seq = Some(seq);
        s.snd_nxt = seq + 1;
        s.state = State::FinSent;
        s.timer_epoch = now;
        s.retries = 0;
        self.out.push((
            key.0,
            RoutedPayload::StreamFin {
                stream_id: key.1,
                seq,
            },
        ));
    }

    /// Acknowledge the receive side's current edge; when the peer's FIN is
    /// reached, complete the remote close and drop the stream.
    fn ack_and_maybe_finish(&mut self, _now: SimTime, key: (Address, u64)) {
        let Some(s) = self.streams.get_mut(&key) else {
            return;
        };
        let (remote, stream_id) = key;
        if let Some(fin) = s.remote_fin {
            if s.rcv_nxt >= fin {
                // Every byte before the FIN has been delivered. Ack past the
                // FIN and tear down — whole-stream close, both directions.
                self.out.push((
                    remote,
                    RoutedPayload::StreamAck {
                        stream_id,
                        ack: fin.saturating_add(1),
                        window: 0,
                    },
                ));
                self.streams.remove(&key);
                self.stats.closed += 1;
                self.events
                    .push_back(StreamEvent::RemoteClosed { remote, stream_id });
                return;
            }
        }
        let (ack, window) = (s.rcv_nxt, s.recv_window());
        self.out.push((
            remote,
            RoutedPayload::StreamAck {
                stream_id,
                ack,
                window,
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u8) -> Address {
        Address::from_key(&[n])
    }

    /// Deliver every queued frame from `from` into `to`, returning how many
    /// frames moved. Loss is simulated by dropping from the returned list
    /// before calling this.
    fn relay(now: SimTime, from: &mut VStreams, from_addr: Address, to: &mut VStreams) -> usize {
        let frames = from.take_outgoing();
        let n = frames.len();
        for (_, payload) in frames {
            to.on_payload(now, from_addr, &payload);
        }
        n
    }

    /// Pump frames both ways until quiescent.
    fn settle(now: SimTime, a: &mut VStreams, aa: Address, b: &mut VStreams, ba: Address) {
        for _ in 0..64 {
            let moved = relay(now, a, aa, b) + relay(now, b, ba, a);
            if moved == 0 {
                return;
            }
        }
        panic!("frame exchange did not quiesce");
    }

    #[test]
    fn handshake_transfer_and_close() {
        let (aa, ba) = (addr(1), addr(2));
        let mut a = VStreams::new();
        let mut b = VStreams::new();
        let t = SimTime::ZERO;
        a.connect(t, ba, 4);
        assert!(a.send(t, ba, 4, Bytes::from(vec![7u8; 5000])));
        settle(t, &mut a, aa, &mut b, ba);

        assert_eq!(b.take_accepted(), vec![(aa, 4)]);
        let chunks = b.take_recv();
        let total: usize = chunks.iter().map(|(_, _, c)| c.len()).sum();
        assert_eq!(total, 5000);
        assert!(chunks.iter().all(|(r, id, _)| (*r, *id) == (aa, 4)));
        // Chunks arrive in order and are views, segment-sized.
        assert!(chunks.iter().all(|(_, _, c)| c.len() <= MAX_SEGMENT));
        assert!(a.take_events().contains(&StreamEvent::Established {
            remote: ba,
            stream_id: 4
        }));

        a.close(t, ba, 4);
        settle(t, &mut a, aa, &mut b, ba);
        assert!(b.take_events().contains(&StreamEvent::RemoteClosed {
            remote: aa,
            stream_id: 4
        }));
        assert!(a.take_events().contains(&StreamEvent::Closed {
            remote: ba,
            stream_id: 4
        }));
        assert!(a.is_empty() && b.is_empty(), "state fully torn down");
        assert_eq!(a.stats.data_sent, b.stats.data_received);
        assert_eq!(a.stats.retransmits, 0);
    }

    #[test]
    fn window_bounds_inflight_bytes() {
        let (_aa, ba) = (addr(1), addr(2));
        let mut a = VStreams::new();
        let mut b = VStreams::new();
        let t = SimTime::ZERO;
        a.connect(t, ba, 2);
        // Complete the handshake but swallow everything afterwards.
        relay(t, &mut a, addr(1), &mut b);
        relay(t, &mut b, ba, &mut a);
        let big = (DEFAULT_WINDOW as usize) * 3;
        assert!(a.send(t, ba, 2, Bytes::from(vec![1u8; big])));
        let frames = a.take_outgoing();
        let sent: usize = frames
            .iter()
            .map(|(_, p)| match p {
                RoutedPayload::StreamData { payload, .. } => payload.len(),
                _ => 0,
            })
            .sum();
        assert!(
            sent <= DEFAULT_WINDOW as usize,
            "sender must respect the peer window: {sent} in flight"
        );
        assert!(sent >= DEFAULT_WINDOW as usize - MAX_SEGMENT);
    }

    #[test]
    fn lost_data_is_retransmitted_and_reordered_delivery_stays_ordered() {
        let (aa, ba) = (addr(1), addr(2));
        let mut a = VStreams::new();
        let mut b = VStreams::new();
        let mut t = SimTime::ZERO;
        a.connect(t, ba, 2);
        settle(t, &mut a, aa, &mut b, ba);
        let body: Vec<u8> = (0..4000u32).map(|i| (i % 251) as u8).collect();
        assert!(a.send(t, ba, 2, Bytes::from(body.clone())));

        // Drop the first DATA frame; deliver the rest out of order.
        let mut frames = a.take_outgoing();
        frames.remove(0);
        frames.reverse();
        for (_, p) in frames {
            b.on_payload(t, aa, &p);
        }
        relay(t, &mut b, ba, &mut a); // acks (all for the gap)
        assert!(b.take_recv().is_empty(), "gapped data must not deliver");

        // The RTO expires; the sweep re-sends the lost head segment.
        t += Duration::from_secs(2);
        a.tick(t);
        assert!(a.stats.retransmits >= 1);
        settle(t, &mut a, aa, &mut b, ba);
        let got: Vec<u8> = b
            .take_recv()
            .into_iter()
            .flat_map(|(_, _, c)| c.to_vec())
            .collect();
        assert_eq!(got, body, "bytes deliver in order despite loss");
        assert!(b.stats.duplicates <= 4, "only the re-sent head may repeat");
    }

    #[test]
    fn retransmit_budget_fails_an_unreachable_stream() {
        let ba = addr(2);
        let mut a = VStreams::new();
        let mut t = SimTime::ZERO;
        a.connect(t, ba, 8);
        for _ in 0..=MAX_RETRIES {
            t = t + RTO_MAX + Duration::from_millis(1);
            a.tick(t);
            a.take_outgoing();
        }
        t = t + RTO_MAX + Duration::from_millis(1);
        a.tick(t);
        assert_eq!(
            a.take_events(),
            vec![StreamEvent::Failed {
                remote: ba,
                stream_id: 8
            }]
        );
        assert!(a.is_empty());
        assert_eq!(a.stats.failed, 1);
    }

    #[test]
    fn rto_follows_the_rtt_estimate() {
        let mut s = Stream::new(State::Established, SimTime::ZERO, DEFAULT_WINDOW);
        assert_eq!(s.rto(), RTO_INITIAL);
        s.rtt.sample(Duration::from_millis(100));
        // First sample: srtt = 100ms, rttvar = 50ms → 300ms.
        assert_eq!(s.rto(), Duration::from_millis(300));
        for _ in 0..20 {
            s.rtt.sample(Duration::from_millis(100));
        }
        // Variance decays towards zero; the clamp floor takes over.
        assert_eq!(s.rto(), RTO_MIN);
        s.retries = 2;
        assert_eq!(s.rto(), Duration::from_millis(1000));
        s.retries = 30;
        assert_eq!(s.rto(), RTO_MAX, "backoff stays clamped");
    }

    #[test]
    fn duplicate_syn_and_stateless_fin_ack_are_idempotent() {
        let (aa, ba) = (addr(1), addr(2));
        let mut b = VStreams::new();
        let t = SimTime::ZERO;
        let syn = RoutedPayload::StreamSyn {
            stream_id: 3,
            window: 1024,
        };
        b.on_payload(t, aa, &syn);
        b.on_payload(t, aa, &syn);
        assert_eq!(b.stats.accepted, 1, "duplicate SYN accepts once");
        assert_eq!(b.take_accepted().len(), 1);
        let synacks = b
            .take_outgoing()
            .iter()
            .filter(|(_, p)| matches!(p, RoutedPayload::StreamSynAck { .. }))
            .count();
        assert_eq!(synacks, 2, "each SYN is answered");

        // A FIN for a stream we no longer hold is acked statelessly.
        b.on_payload(
            t,
            ba,
            &RoutedPayload::StreamFin {
                stream_id: 99,
                seq: 41,
            },
        );
        let out = b.take_outgoing();
        assert!(matches!(
            out.as_slice(),
            [(
                _,
                RoutedPayload::StreamAck {
                    stream_id: 99,
                    ack: 42,
                    ..
                }
            )]
        ));
    }

    #[test]
    fn data_payloads_are_views_not_copies() {
        let ba = addr(2);
        let mut a = VStreams::new();
        let t = SimTime::ZERO;
        a.connect(t, ba, 2);
        a.take_outgoing();
        a.on_payload(
            t,
            ba,
            &RoutedPayload::StreamSynAck {
                stream_id: 2,
                window: DEFAULT_WINDOW,
            },
        );
        let body = Bytes::from(vec![9u8; MAX_SEGMENT * 2]);
        assert!(a.send(t, ba, 2, body.clone()));
        let frames = a.take_outgoing();
        let payloads: Vec<&Bytes> = frames
            .iter()
            .filter_map(|(_, p)| match p {
                RoutedPayload::StreamData { payload, .. } => Some(payload),
                _ => None,
            })
            .collect();
        assert_eq!(payloads.len(), 2);
        assert!(payloads[0].same_region(&body.slice(..MAX_SEGMENT)));
        assert!(payloads[1].same_region(&body.slice(MAX_SEGMENT..)));
    }
}
