//! Determinism guarantees of the simulation engine: identical seeds must yield
//! bit-identical event traces, regardless of how the run is sliced. Every
//! benchmark number in the workspace rests on this property.

use ipop_simcore::{Control, Duration, Event, SimTime, Simulator, StreamRng};

/// A world that records a trace of (time, stream draw) pairs.
struct World {
    rng: StreamRng,
    trace: Vec<(SimTime, u64)>,
}

enum Ev {
    /// Draw a value, record it, and schedule the next `Step` after a random
    /// exponential delay while any `remaining`.
    Step { remaining: u32 },
    /// Record a fixed value.
    Mark(u32),
}

impl Event<World> for Ev {
    fn fire(self, w: &mut World, ctl: &mut Control<'_, World, Ev>) {
        match self {
            Ev::Step { remaining } => {
                let value = w.rng.next_u64();
                w.trace.push((ctl.now(), value));
                if remaining > 0 {
                    let delay = w.rng.exponential(Duration::from_millis(3));
                    ctl.schedule_event_in(
                        delay,
                        Ev::Step {
                            remaining: remaining - 1,
                        },
                    );
                }
            }
            Ev::Mark(i) => w.trace.push((ctl.now(), u64::from(i))),
        }
    }
}

/// A self-rescheduling stochastic workload of `events` steps.
fn run_scenario(seed: u64, events: u32) -> Vec<(SimTime, u64)> {
    let rng = StreamRng::new(seed, "determinism.scenario");
    let mut sim = Simulator::new(World {
        rng,
        trace: Vec::new(),
    });
    sim.schedule_event_in(
        Duration::from_millis(1),
        Ev::Step {
            remaining: events - 1,
        },
    );
    sim.run();
    sim.into_world().trace
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

#[test]
fn fifo_tie_break_is_stable_for_simultaneous_events() {
    // Events scheduled for the same instant run in scheduling order, every time.
    fn order(seed: u64) -> Vec<u32> {
        let rng = StreamRng::new(seed, "tie");
        let mut sim = Simulator::new(World {
            rng,
            trace: Vec::new(),
        });
        let at = SimTime::ZERO + Duration::from_millis(5);
        for i in 0..32u32 {
            sim.schedule_event_at(at, Ev::Mark(i));
        }
        sim.run();
        sim.into_world()
            .trace
            .iter()
            .map(|&(_, v)| v as u32)
            .collect()
    }
    let expected: Vec<u32> = (0..32).collect();
    assert_eq!(order(7), expected);
    assert_eq!(order(8), expected);
}
