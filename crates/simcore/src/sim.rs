//! The simulation driver.
//!
//! A [`Simulator`] owns a world of type `W` and a queue of event payloads to run
//! against it at future virtual instants. Events may schedule (and cancel) further
//! events through the [`Control`] handle they receive.
//!
//! Events are typed: the payload type `E` implements [`Event`] and is dispatched
//! by `match`, with no allocation per scheduled event (`ipop-netsim`'s
//! `NetEvent` is the packet hot path's).

use crate::event::{EventId, EventQueue};
use crate::time::{Duration, SimTime};

/// A typed event payload executable against a world `W`.
///
/// Implementations are usually enums dispatched with `match`; scheduling them
/// costs no allocation.
pub trait Event<W>: Sized {
    /// Execute the event. `ctl` schedules (and cancels) further events.
    fn fire(self, world: &mut W, ctl: &mut Control<'_, W, Self>);
}

/// Opaque label attached by higher layers to timers they set on behalf of
/// components (e.g. "TCP retransmission timer for socket 3").
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TimerToken(pub u64);

/// Handle given to running events for scheduling further work.
pub struct Control<'a, W, E: Event<W>> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    _world: std::marker::PhantomData<fn(&mut W)>,
}

impl<'a, W, E: Event<W>> Control<'a, W, E> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule a typed event at an absolute virtual time (clamped to now if in
    /// the past).
    pub fn schedule_event_at(&mut self, at: SimTime, event: E) -> EventId {
        let at = at.max(self.now);
        self.queue.push(at, event)
    }

    /// Schedule a typed event after a relative delay.
    pub fn schedule_event_in(&mut self, delay: Duration, event: E) -> EventId {
        self.schedule_event_at(self.now + delay, event)
    }

    /// Cancel a previously scheduled action.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }
}

/// Outcome of a bounded run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// The time limit was reached with events still pending.
    TimeLimit,
    /// The event-count limit was reached with events still pending.
    EventLimit,
}

/// A discrete-event simulator over a world `W` with event payload `E`.
pub struct Simulator<W, E: Event<W>> {
    now: SimTime,
    queue: EventQueue<E>,
    world: W,
    executed: u64,
}

impl<W, E: Event<W>> Simulator<W, E> {
    /// Create a simulator owning `world`, with the clock at zero.
    pub fn new(world: W) -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            world,
            executed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world (e.g. for collecting metrics between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consume the simulator and return the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedule a typed event at an absolute time.
    pub fn schedule_event_at(&mut self, at: SimTime, event: E) -> EventId {
        let at = at.max(self.now);
        self.queue.push(at, event)
    }

    /// Schedule a typed event after a relative delay.
    pub fn schedule_event_in(&mut self, delay: Duration, event: E) -> EventId {
        self.schedule_event_at(self.now + delay, event)
    }

    /// Cancel a scheduled action.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Execute the single earliest pending event. Returns `false` if none remain.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        self.now = ev.at;
        self.executed += 1;
        let mut ctl = Control {
            now: self.now,
            queue: &mut self.queue,
            _world: std::marker::PhantomData,
        };
        ev.payload.fire(&mut self.world, &mut ctl);
        true
    }

    /// Run until the queue drains.
    pub fn run(&mut self) -> RunOutcome {
        while self.step() {}
        RunOutcome::Drained
    }

    /// Run until the queue drains or virtual time would exceed `limit`.
    pub fn run_until(&mut self, limit: SimTime) -> RunOutcome {
        loop {
            match self.queue.next_time() {
                None => return RunOutcome::Drained,
                Some(t) if t > limit => {
                    self.now = limit;
                    return RunOutcome::TimeLimit;
                }
                Some(_) => {
                    self.step();
                }
            }
        }
    }

    /// Run for a relative span of virtual time.
    pub fn run_for(&mut self, span: Duration) -> RunOutcome {
        let limit = self.now + span;
        self.run_until(limit)
    }

    /// Run until the queue drains or `max_events` further events have executed.
    pub fn run_events(&mut self, max_events: u64) -> RunOutcome {
        for _ in 0..max_events {
            if !self.step() {
                return RunOutcome::Drained;
            }
        }
        if self.queue.is_empty() {
            RunOutcome::Drained
        } else {
            RunOutcome::EventLimit
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct W {
        log: Vec<(u64, &'static str)>,
    }

    /// What the scheduling tests run against `W`.
    enum Ev {
        /// Log `(now in ms, label)`.
        Stamp(&'static str),
        /// Stamp, then schedule `Stamp(next)` after a delay.
        StampThenIn(&'static str, Duration, &'static str),
        /// Schedule `Stamp(next)` at an absolute time, then stamp.
        StampThenAt(&'static str, SimTime, &'static str),
        /// Cancel another event.
        Cancel(EventId),
    }

    impl Event<W> for Ev {
        fn fire(self, w: &mut W, c: &mut Control<'_, W, Ev>) {
            let now_ms = c.now().as_nanos() / 1_000_000;
            match self {
                Ev::Stamp(label) => w.log.push((now_ms, label)),
                Ev::StampThenIn(label, delay, next) => {
                    w.log.push((now_ms, label));
                    c.schedule_event_in(delay, Ev::Stamp(next));
                }
                Ev::StampThenAt(label, at, next) => {
                    c.schedule_event_at(at, Ev::Stamp(next));
                    w.log.push((now_ms, label));
                }
                Ev::Cancel(id) => {
                    c.cancel(id);
                }
            }
        }
    }

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn events_execute_in_order_and_clock_advances() {
        let mut sim = Simulator::new(W::default());
        sim.schedule_event_in(ms(10), Ev::Stamp("b"));
        sim.schedule_event_in(ms(1), Ev::Stamp("a"));
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(sim.world().log, vec![(1, "a"), (10, "b")]);
        assert_eq!(sim.now(), SimTime::ZERO + ms(10));
        assert_eq!(sim.executed(), 2);
    }

    #[test]
    fn events_can_chain() {
        let mut sim = Simulator::new(W::default());
        sim.schedule_event_in(ms(1), Ev::StampThenIn("first", ms(2), "second"));
        sim.run();
        assert_eq!(sim.world().log, vec![(1, "first"), (3, "second")]);
        assert_eq!(sim.now(), SimTime::ZERO + ms(3));
    }

    #[test]
    fn run_until_stops_at_limit() {
        let mut sim = Simulator::new(W::default());
        for i in 1..=10u64 {
            sim.schedule_event_in(ms(i), Ev::Stamp("x"));
        }
        let outcome = sim.run_until(SimTime::ZERO + ms(5));
        assert_eq!(outcome, RunOutcome::TimeLimit);
        assert_eq!(sim.world().log.len(), 5);
        assert_eq!(sim.now(), SimTime::ZERO + ms(5));
        assert_eq!(sim.pending(), 5);
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(sim.world().log.len(), 10);
    }

    #[test]
    fn run_events_bounds_work() {
        let mut sim = Simulator::new(W::default());
        for i in 1..=4u64 {
            sim.schedule_event_in(ms(i), Ev::Stamp("x"));
        }
        assert_eq!(sim.run_events(2), RunOutcome::EventLimit);
        assert_eq!(sim.world().log.len(), 2);
        assert_eq!(sim.run_events(100), RunOutcome::Drained);
    }

    #[test]
    fn cancellation_prevents_execution() {
        let mut sim = Simulator::new(W::default());
        let id = sim.schedule_event_in(ms(1), Ev::Stamp("nope"));
        sim.schedule_event_in(ms(2), Ev::Stamp("yes"));
        assert!(sim.cancel(id));
        sim.run();
        assert_eq!(sim.world().log, vec![(2, "yes")]);
    }

    #[test]
    fn cancel_from_within_event() {
        let mut sim = Simulator::new(W::default());
        let victim = sim.schedule_event_in(ms(5), Ev::Stamp("victim"));
        sim.schedule_event_in(ms(1), Ev::Cancel(victim));
        sim.run();
        assert!(sim.world().log.is_empty());
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut sim = Simulator::new(W::default());
        // Absolute time before `now` gets clamped rather than panicking / time travel.
        sim.schedule_event_in(ms(10), Ev::StampThenAt("on-time", SimTime::ZERO, "late"));
        sim.run();
        assert_eq!(sim.world().log, vec![(10, "on-time"), (10, "late")]);
    }

    // ------------------------------------------------- events that reschedule

    #[derive(Default)]
    struct Counter {
        fired: Vec<(u64, u32)>,
    }

    enum Tick {
        Once(u32),
        Chain { label: u32, remaining: u32 },
    }

    impl Event<Counter> for Tick {
        fn fire(self, w: &mut Counter, ctl: &mut Control<'_, Counter, Tick>) {
            match self {
                Tick::Once(label) => w.fired.push((ctl.now().as_nanos(), label)),
                Tick::Chain { label, remaining } => {
                    w.fired.push((ctl.now().as_nanos(), label));
                    if remaining > 0 {
                        ctl.schedule_event_in(
                            ms(1),
                            Tick::Chain {
                                label: label + 1,
                                remaining: remaining - 1,
                            },
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn typed_events_dispatch_without_boxing() {
        let mut sim: Simulator<Counter, Tick> = Simulator::new(Counter::default());
        sim.schedule_event_in(ms(5), Tick::Once(99));
        sim.schedule_event_in(
            ms(1),
            Tick::Chain {
                label: 0,
                remaining: 2,
            },
        );
        assert_eq!(sim.run(), RunOutcome::Drained);
        let labels: Vec<u32> = sim.world().fired.iter().map(|&(_, l)| l).collect();
        assert_eq!(labels, vec![0, 1, 2, 99]);
        assert_eq!(sim.executed(), 4);
    }

    #[test]
    fn typed_events_can_be_cancelled() {
        let mut sim: Simulator<Counter, Tick> = Simulator::new(Counter::default());
        let id = sim.schedule_event_in(ms(1), Tick::Once(1));
        sim.schedule_event_in(ms(2), Tick::Once(2));
        assert!(sim.cancel(id));
        sim.run();
        let labels: Vec<u32> = sim.world().fired.iter().map(|&(_, l)| l).collect();
        assert_eq!(labels, vec![2]);
    }
}
