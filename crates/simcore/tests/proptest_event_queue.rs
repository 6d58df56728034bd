//! Property and stress tests for the event queue.
//!
//! The queue is a 4-ary heap with cancellation tombstones and a pending-id
//! bitmap whose stragglers spill into a hash set. These tests drive it against
//! a trivially-correct reference model (a `BTreeMap` keyed by `(time, seq)`)
//! through arbitrary interleavings of push/pop/cancel, and through a
//! 150k-event stress run spanning microseconds to minutes of virtual time.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ipop_simcore::{EventQueue, SimTime};

/// One scripted operation against the queue, decoded from a raw `u64`.
#[derive(Clone, Debug)]
enum Op {
    /// Push at `last popped time + delta` (the simulator never schedules into
    /// the past). The delta classes mix near ties (under 66 µs), link-latency
    /// offsets (up to 33 ms) and far-future timers (up to about an hour).
    Push(u64),
    Pop,
    /// Cancel the k-th oldest still-pending id (no-op when none).
    Cancel(usize),
    /// `next_time` must agree with the model without disturbing anything.
    PeekTime,
}

/// The vendored proptest subset has no `prop_oneof`; decode the op kind and
/// its parameters from one word instead.
fn decode_op(word: u64) -> Op {
    let kind = word % 8;
    let arg = word / 8;
    match kind {
        0..=3 => Op::Push(match arg % 3 {
            0 => arg % 66_000,                         // near ties
            1 => 66_000 + arg % 32_934_000,            // link latencies
            _ => 33_000_000 + arg % 4_000_000_000_000, // far timers, ~an hour out
        }),
        4 | 5 => Op::Pop,
        6 => Op::Cancel(arg as usize % 8),
        _ => Op::PeekTime,
    }
}

proptest! {
    /// The queue agrees with a `BTreeMap<(time, seq), payload>` reference
    /// model under arbitrary interleavings of push, pop, cancel and peek.
    #[test]
    fn queue_matches_reference_model(words in proptest::collection::vec(any::<u64>(), 1..200)) {
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        // Pending ids in push order, paired with their model key.
        let mut live: Vec<(ipop_simcore::EventId, (u64, u64))> = Vec::new();
        let mut now = 0u64; // last popped time; pushes may not go below it
        let mut seq = 0u64;
        let mut payload = 0u64;

        for word in words {
            match decode_op(word) {
                Op::Push(delta) => {
                    let at = now + delta;
                    let id = queue.push(SimTime::from_nanos(at), payload);
                    model.insert((at, seq), payload);
                    live.push((id, (at, seq)));
                    seq += 1;
                    payload += 1;
                }
                Op::Pop => {
                    let got = queue.pop();
                    let want = model.pop_first();
                    prop_assert_eq!(got.is_some(), want.is_some(), "pop emptiness mismatch");
                    if let (Some(ev), Some(((at, _), val))) = (got, want) {
                        prop_assert_eq!(ev.at.as_nanos(), at);
                        prop_assert_eq!(ev.payload, val);
                        now = at;
                        live.retain(|(_, key)| model.contains_key(key));
                    }
                }
                Op::Cancel(k) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (id, key) = live.remove(k % live.len());
                    let cancelled = queue.cancel(id);
                    prop_assert_eq!(cancelled, model.remove(&key).is_some());
                }
                Op::PeekTime => {
                    let got = queue.next_time().map(|t| t.as_nanos());
                    let want = model.first_key_value().map(|((at, _), _)| *at);
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(queue.len(), model.len());
            prop_assert_eq!(queue.is_empty(), model.is_empty());
        }

        // Drain: the remaining events come out in exact (time, seq) order.
        while let Some(((at, _), val)) = model.pop_first() {
            let ev = queue.pop().expect("queue drained before model");
            prop_assert_eq!(ev.at.as_nanos(), at);
            prop_assert_eq!(ev.payload, val);
        }
        prop_assert!(queue.pop().is_none());
    }
}

/// 150k pending events — most of them far-future timers — interleaved with
/// partial drains, must come out in global `(time, seq)` order with nothing
/// lost or duplicated.
#[test]
fn overflow_heap_at_150k_pending_events() {
    // Deterministic splitmix64 stream; no external RNG needed.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rng = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };

    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut model: BTreeMap<(u64, u64), u32> = BTreeMap::new();
    let mut now = 0u64;
    let mut seq = 0u64;
    let mut pushed = 0u32;
    let mut popped = 0u64;

    // Rounds of bulk-push + partial-drain keep six figures pending while the
    // last popped time sweeps forward.
    for round in 0..10 {
        let batch = if round == 0 { 150_000 } else { 30_000 };
        for _ in 0..batch {
            let r = rng();
            // ~80% far future (up to ~100 s out), the rest within 33 ms.
            let delta = if r % 10 < 8 {
                33_000_000 + r % 100_000_000_000
            } else {
                r % 33_000_000
            };
            let at = now + delta;
            queue.push(SimTime::from_nanos(at), pushed);
            model.insert((at, seq), pushed);
            seq += 1;
            pushed += 1;
        }
        assert_eq!(queue.len(), model.len());
        assert!(queue.len() >= 100_000, "stress keeps six figures pending");

        for _ in 0..25_000 {
            let ev = queue.pop().expect("model says events remain");
            let ((at, _), val) = model.pop_first().expect("model in sync");
            assert_eq!(ev.at.as_nanos(), at, "pop #{popped} out of time order");
            assert_eq!(ev.payload, val, "pop #{popped} wrong FIFO tie-break");
            now = at;
            popped += 1;
        }
    }

    // Full drain to the end.
    while let Some(((at, _), val)) = model.pop_first() {
        let ev = queue.pop().expect("queue drained early");
        assert_eq!(ev.at.as_nanos(), at);
        assert_eq!(ev.payload, val);
        popped += 1;
    }
    assert!(queue.pop().is_none());
    assert_eq!(popped, pushed as u64);
}

/// Cancelling deep inside the heap (including its current minimum) never
/// corrupts the order of the survivors.
#[test]
fn cancel_inside_overflow_heap() {
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut model: BTreeMap<(u64, u64), u32> = BTreeMap::new();
    let mut ids = Vec::new();
    // All far-future, spread over ~17 minutes.
    for i in 0..10_000u64 {
        let at = 50_000_000 + (i * 7919) % 1_000_000_000_000;
        ids.push((queue.push(SimTime::from_nanos(at), i as u32), (at, i)));
        model.insert((at, i), i as u32);
    }
    // Cancel every third, including whatever happens to be the minimum.
    for (id, key) in ids.iter().skip(1).step_by(3) {
        assert!(queue.cancel(*id));
        model.remove(key);
    }
    // Double-cancel is a no-op.
    assert!(!queue.cancel(ids[1].0));
    assert_eq!(queue.len(), model.len());
    while let Some(((at, _), val)) = model.pop_first() {
        let ev = queue.pop().expect("queue drained early");
        assert_eq!(ev.at.as_nanos(), at);
        assert_eq!(ev.payload, val);
    }
    assert!(queue.pop().is_none());
}
