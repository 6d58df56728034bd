//! Virtual-stream client: per-stream handles over the overlay's stream engine.
//!
//! The overlay's stream engine (see `ipop_overlay::vstream`) multiplexes every
//! stream of a node through one table and hands the host flat drains:
//! accepted `(remote, id)` pairs, `(remote, id, chunk)` data triples, and
//! lifecycle events. Applications want per-connection objects. This module is
//! the thin host-side layer between the two: a [`VirtualStreams`] registry
//! that buckets the flat drains into per-stream inboxes, and a
//! [`VirtualStream`] handle naming one connection.
//!
//! Like the other services, it drives the overlay through a narrow trait
//! ([`StreamClient`]) so it can be unit-tested against a scripted fake.

use std::collections::{BTreeMap, VecDeque};

use ipop_overlay::vstream::StreamEvent;
use ipop_overlay::{Address, OverlayNode};
use ipop_packet::Bytes;
use ipop_simcore::SimTime;

/// The stream operations the service needs from the overlay — the
/// [`crate::DhtClient`] pattern, one protocol over.
pub trait StreamClient {
    /// Open a stream to `remote`; returns the stream id.
    fn connect(&mut self, now: SimTime, remote: Address) -> u64;
    /// Queue bytes on an open stream (false: unknown or closing stream).
    fn send(&mut self, now: SimTime, remote: Address, stream_id: u64, data: Bytes) -> bool;
    /// Close a stream (buffered data still delivers first).
    fn close(&mut self, now: SimTime, remote: Address, stream_id: u64);
    /// Drain streams accepted from remote opens.
    fn take_accepted(&mut self) -> Vec<(Address, u64)>;
    /// Drain in-order received data across all streams.
    fn take_data(&mut self) -> Vec<(Address, u64, Bytes)>;
    /// Drain stream lifecycle events.
    fn take_events(&mut self) -> Vec<StreamEvent>;
}

impl StreamClient for OverlayNode {
    fn connect(&mut self, now: SimTime, remote: Address) -> u64 {
        self.stream_connect(now, remote)
    }

    fn send(&mut self, now: SimTime, remote: Address, stream_id: u64, data: Bytes) -> bool {
        self.stream_send(now, remote, stream_id, data)
    }

    fn close(&mut self, now: SimTime, remote: Address, stream_id: u64) {
        self.stream_close(now, remote, stream_id);
    }

    fn take_accepted(&mut self) -> Vec<(Address, u64)> {
        self.take_stream_accepted()
    }

    fn take_data(&mut self) -> Vec<(Address, u64, Bytes)> {
        self.take_stream_data()
    }

    fn take_events(&mut self) -> Vec<StreamEvent> {
        self.take_stream_events()
    }
}

/// One end of a virtual stream: the `(remote, id)` pair that names the
/// connection in both stream tables. Handed out by [`VirtualStreams::connect`]
/// and [`VirtualStreams::accept`]; all I/O goes through the registry so a
/// handle stays a plain copyable name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct VirtualStream {
    /// The peer's overlay address.
    pub remote: Address,
    /// The stream id assigned by the opening side.
    pub stream_id: u64,
}

/// Terminal state of a stream, surfaced by [`VirtualStreams::poll`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamFate {
    /// Closed cleanly (our FIN acked, or the peer's FIN fully delivered).
    Closed,
    /// The retransmit budget ran out; undelivered data was dropped.
    Failed,
}

/// Host-side stream state for one node: per-stream inboxes. (The overlay's
/// `OverlayStats` counts opened and accepted streams and delivered segments.)
#[derive(Default)]
pub struct VirtualStreams {
    /// Received data per open stream, bucketed from the engine's flat drain,
    /// and whether the stream's fate was reported: a finished stream's inbox
    /// goes as soon as it holds nothing left to read.
    inboxes: BTreeMap<(Address, u64), (VecDeque<Bytes>, bool)>,
    /// Remotely opened streams not yet claimed via [`VirtualStreams::accept`].
    pending_accept: VecDeque<VirtualStream>,
}

impl VirtualStreams {
    /// Open a stream to `remote` and return its handle. Data can be sent
    /// immediately; it flows once the handshake completes.
    pub fn connect(
        &mut self,
        client: &mut dyn StreamClient,
        now: SimTime,
        remote: Address,
    ) -> VirtualStream {
        let stream_id = client.connect(now, remote);
        self.inboxes.entry((remote, stream_id)).or_default();
        VirtualStream { remote, stream_id }
    }

    /// Claim the next remotely opened stream, if any. Call [`Self::poll`]
    /// first to pull fresh accepts out of the overlay.
    pub fn accept(&mut self) -> Option<VirtualStream> {
        self.pending_accept.pop_front()
    }

    /// Queue bytes on a stream. Returns false when the overlay no longer
    /// tracks it (closed, failed, or never existed).
    pub fn send(
        &mut self,
        client: &mut dyn StreamClient,
        now: SimTime,
        stream: VirtualStream,
        data: impl Into<Bytes>,
    ) -> bool {
        client.send(now, stream.remote, stream.stream_id, data.into())
    }

    /// Close a stream; buffered data still delivers, then the FIN tears it
    /// down in both directions.
    pub fn close(&mut self, client: &mut dyn StreamClient, now: SimTime, stream: VirtualStream) {
        client.close(now, stream.remote, stream.stream_id);
    }

    /// Drain the overlay's flat queues into per-stream state. Returns the
    /// streams that reached a terminal state in this poll (their inboxes
    /// remain readable until drained once).
    pub fn poll(&mut self, client: &mut dyn StreamClient) -> Vec<(VirtualStream, StreamFate)> {
        for (remote, stream_id) in client.take_accepted() {
            self.inboxes.entry((remote, stream_id)).or_default();
            self.pending_accept
                .push_back(VirtualStream { remote, stream_id });
        }
        // A chunk for a stream without an inbox (finished and drained) has
        // nobody left to read it.
        for (remote, stream_id, chunk) in client.take_data() {
            if let Some((queue, _)) = self.inboxes.get_mut(&(remote, stream_id)) {
                queue.push_back(chunk);
            }
        }
        let mut newly_finished = Vec::new();
        for ev in client.take_events() {
            let (remote, stream_id, fate) = match ev {
                // Data queued before the handshake already flows.
                StreamEvent::Established { .. } => continue,
                StreamEvent::Closed { remote, stream_id }
                | StreamEvent::RemoteClosed { remote, stream_id } => {
                    (remote, stream_id, StreamFate::Closed)
                }
                StreamEvent::Failed { remote, stream_id } => {
                    (remote, stream_id, StreamFate::Failed)
                }
            };
            match self.inboxes.get_mut(&(remote, stream_id)) {
                Some((queue, finished)) if !queue.is_empty() => *finished = true,
                _ => _ = self.inboxes.remove(&(remote, stream_id)),
            }
            newly_finished.push((VirtualStream { remote, stream_id }, fate));
        }
        newly_finished
    }

    /// Drain everything received on `stream` as one contiguous buffer.
    pub fn recv_all(&mut self, stream: VirtualStream) -> Vec<u8> {
        let key = (stream.remote, stream.stream_id);
        let Some((queue, finished)) = self.inboxes.get_mut(&key) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for chunk in queue.drain(..) {
            out.extend_from_slice(&chunk);
        }
        if *finished {
            self.inboxes.remove(&key);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u8) -> Address {
        Address::from_key(&[n])
    }

    /// One recorded stream operation.
    #[derive(Clone, Debug, PartialEq)]
    enum Op {
        Connect(Address),
        Send(Address, u64, Bytes),
        Close(Address, u64),
    }

    /// A scripted [`StreamClient`] that records operations and queues
    /// accepts/data/events for the next poll.
    #[derive(Default)]
    struct FakeStreams {
        ops: Vec<Op>,
        next_id: u64,
        accepts: Vec<(Address, u64)>,
        data: Vec<(Address, u64, Bytes)>,
        events: Vec<StreamEvent>,
    }

    impl StreamClient for FakeStreams {
        fn connect(&mut self, _now: SimTime, remote: Address) -> u64 {
            self.ops.push(Op::Connect(remote));
            self.next_id += 2;
            self.next_id
        }

        fn send(&mut self, _now: SimTime, remote: Address, stream_id: u64, data: Bytes) -> bool {
            self.ops.push(Op::Send(remote, stream_id, data));
            true
        }

        fn close(&mut self, _now: SimTime, remote: Address, stream_id: u64) {
            self.ops.push(Op::Close(remote, stream_id));
        }

        fn take_accepted(&mut self) -> Vec<(Address, u64)> {
            std::mem::take(&mut self.accepts)
        }

        fn take_data(&mut self) -> Vec<(Address, u64, Bytes)> {
            std::mem::take(&mut self.data)
        }

        fn take_events(&mut self) -> Vec<StreamEvent> {
            std::mem::take(&mut self.events)
        }
    }

    #[test]
    fn connect_send_close_round_trip() {
        let mut svc = VirtualStreams::default();
        let mut client = FakeStreams::default();
        let t0 = SimTime::ZERO;
        let peer = addr(7);

        let vs = svc.connect(&mut client, t0, peer);
        assert_eq!(vs.remote, peer);
        assert_eq!(client.ops, vec![Op::Connect(peer)]);

        client.events.push(StreamEvent::Established {
            remote: peer,
            stream_id: vs.stream_id,
        });
        assert!(svc.poll(&mut client).is_empty());

        assert!(svc.send(&mut client, t0, vs, Bytes::from(&b"hello"[..])));
        svc.close(&mut client, t0, vs);
        assert_eq!(
            client.ops[1..],
            vec![
                Op::Send(peer, vs.stream_id, Bytes::from(&b"hello"[..])),
                Op::Close(peer, vs.stream_id),
            ]
        );

        client.events.push(StreamEvent::Closed {
            remote: peer,
            stream_id: vs.stream_id,
        });
        let done = svc.poll(&mut client);
        assert_eq!(done, vec![(vs, StreamFate::Closed)]);
    }

    #[test]
    fn accepted_streams_bucket_their_data() {
        let mut svc = VirtualStreams::default();
        let mut client = FakeStreams::default();
        let (p1, p2) = (addr(1), addr(2));
        client.accepts.push((p1, 10));
        client.accepts.push((p2, 12));
        client.data.push((p1, 10, Bytes::from(&b"one"[..])));
        client.data.push((p2, 12, Bytes::from(&b"two"[..])));
        client.data.push((p1, 10, Bytes::from(&b"-more"[..])));
        svc.poll(&mut client);

        let a = svc.accept().unwrap();
        let b = svc.accept().unwrap();
        assert!(svc.accept().is_none());
        assert_eq!((a.remote, a.stream_id), (p1, 10));
        assert_eq!((b.remote, b.stream_id), (p2, 12));
        assert_eq!(svc.recv_all(a), b"one-more");
        assert_eq!(svc.recv_all(b), b"two");
    }

    #[test]
    fn failed_stream_reports_its_fate_once() {
        let mut svc = VirtualStreams::default();
        let mut client = FakeStreams::default();
        let peer = addr(3);
        let vs = svc.connect(&mut client, SimTime::ZERO, peer);
        client.events.push(StreamEvent::Failed {
            remote: peer,
            stream_id: vs.stream_id,
        });
        let done = svc.poll(&mut client);
        assert_eq!(done, vec![(vs, StreamFate::Failed)]);
        assert!(svc.poll(&mut client).is_empty());
    }

    /// A stream's inbox lives until its fate is reported and nothing is left
    /// to read, whichever side opened it.
    #[test]
    fn finished_streams_leave_no_inbox_behind() {
        let mut svc = VirtualStreams::default();
        let mut client = FakeStreams::default();
        let peer = addr(4);
        for i in 0..1_000u64 {
            let vs = if i % 2 == 0 {
                svc.connect(&mut client, SimTime::ZERO, peer)
            } else {
                client.accepts.push((peer, 2 * i + 1));
                svc.poll(&mut client);
                svc.accept().unwrap()
            };
            svc.close(&mut client, SimTime::ZERO, vs);
            client.events.push(StreamEvent::Closed {
                remote: peer,
                stream_id: vs.stream_id,
            });
            assert_eq!(svc.poll(&mut client), vec![(vs, StreamFate::Closed)]);
        }
        assert!(svc.inboxes.is_empty(), "{} inboxes left", svc.inboxes.len());
    }

    /// Data that arrives in the same poll as the stream's fate is read once;
    /// after that the inbox is gone, and a straggler chunk does not bring it
    /// back.
    #[test]
    fn data_beside_the_fate_is_read_once() {
        let mut svc = VirtualStreams::default();
        let mut client = FakeStreams::default();
        let peer = addr(5);
        let vs = svc.connect(&mut client, SimTime::ZERO, peer);
        client
            .data
            .push((peer, vs.stream_id, Bytes::from(&b"last"[..])));
        client.events.push(StreamEvent::RemoteClosed {
            remote: peer,
            stream_id: vs.stream_id,
        });
        assert_eq!(svc.poll(&mut client), vec![(vs, StreamFate::Closed)]);
        assert_eq!(svc.recv_all(vs), b"last");
        assert!(svc.inboxes.is_empty());
        assert!(svc.recv_all(vs).is_empty());

        client
            .data
            .push((peer, vs.stream_id, Bytes::from(&b"late"[..])));
        svc.poll(&mut client);
        assert!(svc.inboxes.is_empty(), "a late chunk recreated the inbox");
        assert!(svc.recv_all(vs).is_empty());
    }
}
