//! Regressions in `overlay::vstream` found in review: each case is a short
//! frame sequence that once broke the stream state machine.

use ipop_overlay::packets::RoutedPayload;
use ipop_overlay::vstream::{VStreams, DEFAULT_WINDOW};
use ipop_overlay::Address;
use ipop_packet::Bytes;
use ipop_simcore::SimTime;

const STREAM: u64 = 4;

fn addr(n: u8) -> Address {
    Address::from_key(&[n])
}

/// An engine with one established outgoing stream to `peer`, 10 bytes sent.
fn established(peer: Address) -> VStreams {
    let t = SimTime::ZERO;
    let mut a = VStreams::new();
    a.connect(t, peer, STREAM);
    a.on_payload(
        t,
        peer,
        &RoutedPayload::StreamSynAck {
            stream_id: STREAM,
            window: 65536,
        },
    );
    assert!(a.send(t, peer, STREAM, Bytes::from(vec![1u8; 10])));
    a.take_outgoing();
    a
}

#[test]
fn send_on_a_closing_stream_is_refused() {
    let peer = addr(2);
    let t = SimTime::ZERO;
    let mut a = established(peer);
    a.close(t, peer, STREAM);
    // The data would be dropped, so the call must not report success.
    assert!(!a.send(t, peer, STREAM, Bytes::from(vec![2u8; 10])));
}

#[test]
fn ack_beyond_snd_nxt_is_rejected_and_counted() {
    let peer = addr(2);
    let t = SimTime::ZERO;
    let mut a = established(peer);
    // A forged or corrupted cumulative ACK far beyond anything sent, with a
    // window that must not be believed either.
    a.on_payload(
        t,
        peer,
        &RoutedPayload::StreamAck {
            stream_id: STREAM,
            ack: u64::MAX - 5,
            window: 0,
        },
    );
    assert_eq!(a.stats.bad_acks, 1);
    // The stream is intact: the next send goes out (it used to panic in
    // `Stream::in_flight` with `snd_una > snd_nxt`) ...
    assert!(a.send(t, peer, STREAM, Bytes::from(vec![2u8; 10])));
    assert_eq!(a.take_outgoing().len(), 1, "forged zero window ignored");
    // ... and the genuine ACK for all 20 bytes is still accepted.
    a.on_payload(
        t,
        peer,
        &RoutedPayload::StreamAck {
            stream_id: STREAM,
            ack: 20,
            window: 65536,
        },
    );
    assert_eq!(a.stats.bad_acks, 1);
    a.close(t, peer, STREAM);
    let out = a.take_outgoing();
    assert!(
        matches!(out[..], [(_, RoutedPayload::StreamFin { seq: 20, .. })]),
        "everything acked, so close sends the FIN at once"
    );
}

/// A DATA frame from `peer` on the test stream.
fn data(seq: u64, len: usize) -> RoutedPayload {
    RoutedPayload::StreamData {
        stream_id: STREAM,
        seq,
        window: DEFAULT_WINDOW,
        payload: Bytes::from(vec![7u8; len]),
    }
}

/// The receive window the engine advertised in its most recent ACK.
fn last_acked_window(a: &mut VStreams) -> Option<(u64, u32)> {
    a.take_outgoing()
        .into_iter()
        .rev()
        .find_map(|(_, frame)| match frame {
            RoutedPayload::StreamAck { ack, window, .. } => Some((ack, window)),
            _ => None,
        })
}

#[test]
fn data_whose_end_overflows_is_dropped_and_counted() {
    let peer = addr(2);
    let t = SimTime::ZERO;
    let mut a = established(peer);
    // `seq + len` does not fit in a u64: this used to panic under overflow
    // checks and wrap into a bogus "duplicate" without them.
    a.on_payload(t, peer, &data(u64::MAX, 10));
    a.on_payload(t, peer, &data(u64::MAX - 9, 10));
    assert_eq!(a.stats.bad_seqs, 2);
    assert_eq!(a.stats.duplicates, 0);
    assert!(
        a.take_outgoing().is_empty(),
        "a forged segment earns no ACK"
    );
    // The stream is intact: the genuine first segment is delivered and acked.
    a.on_payload(t, peer, &data(0, 10));
    assert_eq!(a.take_recv().len(), 1);
    assert_eq!(last_acked_window(&mut a), Some((10, DEFAULT_WINDOW)));
    assert_eq!(a.stats.bad_seqs, 2);
}

#[test]
fn data_beyond_the_receive_window_is_not_buffered() {
    let peer = addr(2);
    let t = SimTime::ZERO;
    let mut a = established(peer);
    let window = u64::from(DEFAULT_WINDOW);
    // Ends one byte past `rcv_nxt + DEFAULT_WINDOW`: no conforming sender has
    // that much in flight. It used to be parked in the reorder buffer.
    a.on_payload(t, peer, &data(window - 9, 10));
    a.on_payload(t, peer, &data(1 << 40, 1000));
    assert_eq!(a.stats.bad_seqs, 2);
    // The last segment that still fits is buffered as before.
    a.on_payload(t, peer, &data(window - 10, 10));
    assert_eq!(a.stats.bad_seqs, 2);
    assert_eq!(last_acked_window(&mut a), Some((0, DEFAULT_WINDOW - 10)));
}

#[test]
fn overlapping_segments_cannot_park_more_than_a_window() {
    let peer = addr(2);
    let t = SimTime::ZERO;
    let mut a = established(peer);
    // A hundred distinct out-of-order segments, each inside the window on
    // its own, together 6 MB: only the first fits the reorder budget.
    for seq in 1..=100 {
        a.on_payload(t, peer, &data(seq, 60_000));
    }
    assert_eq!(a.stats.bad_seqs, 99);
    assert_eq!(
        last_acked_window(&mut a),
        Some((0, DEFAULT_WINDOW - 60_000))
    );
    // Filling the gap still drains the one buffered segment.
    a.on_payload(t, peer, &data(0, 1));
    assert_eq!(a.take_recv().len(), 2);
    assert_eq!(last_acked_window(&mut a), Some((60_001, DEFAULT_WINDOW)));
    // A segment straddling delivered bytes is neither a duplicate nor new
    // data (it used to sit in the reorder buffer for good).
    a.on_payload(t, peer, &data(60_000, 2));
    assert_eq!(a.stats.bad_seqs, 100);
    assert_eq!(a.stats.duplicates, 0);
}

#[test]
fn forged_fin_for_an_unknown_stream_is_acked_without_overflow() {
    let peer = addr(2);
    let mut a = VStreams::new();
    a.on_payload(
        SimTime::ZERO,
        peer,
        &RoutedPayload::StreamFin {
            stream_id: STREAM,
            seq: u64::MAX,
        },
    );
    assert_eq!(last_acked_window(&mut a), Some((u64::MAX, 0)));
}
