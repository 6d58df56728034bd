//! Determinism guarantees of the simulation engine: identical seeds must yield
//! bit-identical event traces. Every benchmark number in the workspace rests
//! on this property.

use ipop_simcore::{Duration, EventQueue, SimTime, StreamRng};

/// A self-rescheduling stochastic workload of `events` steps: each step draws
/// a value, records `(now, value)` and schedules the next step after a random
/// exponential delay.
fn run_scenario(seed: u64, events: u32) -> Vec<(SimTime, u64)> {
    let mut rng = StreamRng::new(seed, "determinism.scenario");
    let mut queue = EventQueue::new();
    let mut trace = Vec::new();
    queue.push(SimTime::ZERO + Duration::from_millis(1), events - 1);
    while let Some(ev) = queue.pop() {
        trace.push((ev.at, rng.next_u64()));
        let remaining = ev.payload;
        if remaining > 0 {
            let delay = rng.exponential(Duration::from_millis(3));
            queue.push(ev.at + delay, remaining - 1);
        }
    }
    trace
}

#[test]
fn same_seed_gives_identical_traces() {
    let a = run_scenario(0xDECAF, 500);
    let b = run_scenario(0xDECAF, 500);
    assert_eq!(a.len(), 500);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_give_different_traces() {
    let a = run_scenario(1, 100);
    let b = run_scenario(2, 100);
    assert_ne!(a, b);
}
