//! Regressions in `overlay::vstream` found in review: each case is a short
//! frame sequence that once broke the stream state machine.

use ipop_overlay::packets::RoutedPayload;
use ipop_overlay::vstream::VStreams;
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
