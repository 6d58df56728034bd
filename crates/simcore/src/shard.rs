//! Sharded deterministic simulation: parallelism *inside* one run.
//!
//! [`Simulator`](crate::Simulator) executes a single global `(time, seq)`
//! order — perfect determinism, zero parallelism. At 100k nodes that clock
//! wall-time poorly, so [`ShardedSim`] partitions the world into shards, each
//! with its own [`EventQueue`] and state, and executes whole *time slices* in
//! parallel:
//!
//! 1. Virtual time is cut into fixed slices aligned to an absolute grid
//!    (`[k·slice, (k+1)·slice)`), so results do not depend on how callers
//!    chunk `run_until`.
//! 2. Within a slice every shard runs its own events independently; events a
//!    shard schedules for itself are executed in the same slice as usual.
//! 3. Events for *other* shards are buffered and must land at or after the
//!    slice boundary (a cross-shard message needs at least one slice of
//!    latency — the harness picks `slice ≤ min link latency`).
//! 4. At the slice barrier the buffered messages are merged in
//!    `(time, source shard, emission index)` order — a total order that is
//!    independent of thread scheduling — and pushed into the destination
//!    queues sequentially, which assigns their sequence numbers
//!    deterministically.
//!
//! Because each shard touches only its own state and the merge order is a
//! pure sort, running the shards on real threads (the vendored `rayon`) or
//! one after another on a single thread produces byte-identical histories.
//! [`ShardedSim::trace_hash`] folds every executed `(time, seq)` pair into a
//! per-shard FNV hash so tests (and `debug_assertions` builds) can assert
//! `parallel == sequential` cheaply.

use rayon::prelude::*;

use crate::event::EventQueue;
use crate::time::{Duration, SimTime};

/// Per-shard world state driven by [`ShardedSim`].
///
/// `handle` receives each event in deterministic order together with a
/// [`ShardCtl`] used to schedule follow-up events locally or on other shards.
pub trait ShardWorld: Send {
    /// Event payload type.
    type Ev: Send;

    /// Process one event at virtual time `now`.
    fn handle(&mut self, now: SimTime, ev: Self::Ev, ctl: &mut ShardCtl<Self::Ev>);
}

/// Scheduling handle passed to [`ShardWorld::handle`].
pub struct ShardCtl<'a, E> {
    now: SimTime,
    slice_end: SimTime,
    shard: usize,
    shards: usize,
    /// `(at, ev)` destined for this shard's own queue (same slice allowed).
    local: &'a mut Vec<(SimTime, E)>,
    /// Cross-shard emissions, in emission order.
    cross: &'a mut Vec<CrossMsg<E>>,
}

impl<E> ShardCtl<'_, E> {
    /// Virtual time of the event being handled.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Index of the shard this handler runs on.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Total number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Schedule a follow-up event on this shard. Any `at >= now` is legal,
    /// including within the current slice.
    pub fn send_local(&mut self, at: SimTime, ev: E) {
        self.local.push((at.max(self.now), ev));
    }

    /// Schedule an event on shard `dst` (which may be this shard). The event
    /// crosses the slice barrier, so `at` must be at or after the end of the
    /// current slice; earlier times are clamped (and flagged in debug
    /// builds — it means the harness's minimum latency is below the slice).
    pub fn send(&mut self, dst: usize, at: SimTime, ev: E) {
        debug_assert!(
            at >= self.slice_end,
            "cross-shard event at {at:?} lands inside the current slice (end {:?})",
            self.slice_end
        );
        debug_assert!(dst < self.shards, "shard {dst} out of range");
        self.cross.push(CrossMsg {
            at: at.max(self.slice_end),
            dst,
            ev: Some(ev),
        });
    }
}

struct CrossMsg<E> {
    at: SimTime,
    dst: usize,
    /// `None` once the barrier has moved the event to `dst`'s queue.
    ev: Option<E>,
}

/// 64-bit FNV-1a fold, the workspace's standard cheap deterministic hash.
fn fnv_fold(mut hash: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

struct Shard<W: ShardWorld> {
    id: usize,
    world: W,
    queue: EventQueue<W::Ev>,
    executed: u64,
    trace: u64,
    /// Reusable emission buffers (avoid per-event allocation).
    local_buf: Vec<(SimTime, W::Ev)>,
    cross_buf: Vec<CrossMsg<W::Ev>>,
}

impl<W: ShardWorld> Shard<W> {
    /// Run this shard's events with `at < slice_end`, buffering cross-shard
    /// emissions in emission order.
    fn run_slice(&mut self, shards: usize, slice_end: SimTime) {
        while let Some(at) = self.queue.next_time() {
            if at >= slice_end {
                break;
            }
            let ev = self.queue.pop().expect("next_time was Some");
            self.executed += 1;
            self.trace = fnv_fold(fnv_fold(self.trace, ev.at.as_nanos()), ev.id.0);
            let mut ctl = ShardCtl {
                now: ev.at,
                slice_end,
                shard: self.id,
                shards,
                local: &mut self.local_buf,
                cross: &mut self.cross_buf,
            };
            self.world.handle(ev.at, ev.payload, &mut ctl);
            for (at, e) in self.local_buf.drain(..) {
                self.queue.push(at, e);
            }
        }
    }
}

/// A deterministic, shard-parallel discrete-event simulator.
pub struct ShardedSim<W: ShardWorld> {
    shards: Vec<Shard<W>>,
    slice: Duration,
    /// Start of the next unexecuted slice (aligned to the slice grid).
    now: SimTime,
    parallel: bool,
    /// The barrier's `(at, source shard, emission index)` sort keys, reused
    /// across slices.
    merge_keys: Vec<(u64, u32, u32)>,
}

/// Why [`ShardedSim::run_until`] returned.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ShardRunOutcome {
    /// Every shard's queue drained before the limit.
    Drained,
    /// The virtual-time limit was reached with events still queued.
    TimeLimit,
}

impl<W: ShardWorld> ShardedSim<W> {
    /// Build a sharded simulator over `worlds` (one shard each). `slice` is
    /// the barrier width: cross-shard events must land at least one slice in
    /// the future, so it must not exceed the minimum cross-shard latency.
    /// `parallel` selects threaded fan-out; both settings produce identical
    /// histories.
    pub fn new(worlds: Vec<W>, slice: Duration, parallel: bool) -> Self {
        assert!(!worlds.is_empty(), "at least one shard required");
        assert!(!slice.is_zero(), "slice must be positive");
        ShardedSim {
            shards: worlds
                .into_iter()
                .enumerate()
                .map(|(id, world)| Shard {
                    id,
                    world,
                    queue: EventQueue::new(),
                    executed: 0,
                    trace: FNV_OFFSET,
                    local_buf: Vec::new(),
                    cross_buf: Vec::new(),
                })
                .collect(),
            slice,
            now: SimTime::ZERO,
            parallel,
            merge_keys: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Current virtual time (start of the next unexecuted slice).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Borrow shard `i`'s world.
    pub fn world(&self, i: usize) -> &W {
        &self.shards[i].world
    }

    /// Mutably borrow shard `i`'s world (between runs, e.g. to harvest
    /// metrics or inject state).
    pub fn world_mut(&mut self, i: usize) -> &mut W {
        &mut self.shards[i].world
    }

    /// Iterate over all shard worlds.
    pub fn worlds(&self) -> impl Iterator<Item = &W> {
        self.shards.iter().map(|s| &s.world)
    }

    /// Schedule an initial event on shard `dst` (only legal at or after the
    /// current slice start).
    pub fn schedule(&mut self, dst: usize, at: SimTime, ev: W::Ev) {
        assert!(at >= self.now, "scheduling into an already-executed slice");
        self.shards[dst].queue.push(at, ev);
    }

    /// Total events executed across all shards.
    pub fn executed(&self) -> u64 {
        self.shards.iter().map(|s| s.executed).sum()
    }

    /// Deterministic digest of the full execution history: per-shard FNV over
    /// every executed `(time, seq)`, folded in shard order. Two runs that
    /// executed the same events in the same per-shard order — regardless of
    /// thread scheduling — produce the same hash.
    pub fn trace_hash(&self) -> u64 {
        self.shards
            .iter()
            .fold(FNV_OFFSET, |h, s| fnv_fold(h, s.trace))
    }

    /// The earliest pending event time across all shards.
    fn min_next_time(&mut self) -> Option<SimTime> {
        self.shards
            .iter_mut()
            .filter_map(|s| s.queue.next_time())
            .min()
    }

    /// Align `t` down to the slice grid.
    fn slice_start(&self, t: SimTime) -> SimTime {
        let s = self.slice.as_nanos();
        SimTime::from_nanos(t.as_nanos() / s * s)
    }

    /// Execute one slice `[self.now, self.now + slice)` across all shards and
    /// merge the cross-shard emissions at the barrier.
    fn run_slice(&mut self) {
        let slice_end = self.now + self.slice;
        let nshards = self.shards.len();
        if self.parallel && nshards > 1 {
            self.shards = std::mem::take(&mut self.shards)
                .into_par_iter()
                .map(|mut s| {
                    s.run_slice(nshards, slice_end);
                    s
                })
                .collect();
        } else {
            for s in self.shards.iter_mut() {
                s.run_slice(nshards, slice_end);
            }
        }

        // Barrier: merge cross-shard emissions in (time, src shard, emission
        // index) order — unique keys, hence a total order independent of
        // thread scheduling — then push sequentially so destination sequence
        // numbers are assigned deterministically. Only the 16-byte keys are
        // sorted; each event moves once, from its source's buffer to its
        // destination's queue.
        self.merge_keys.clear();
        for (src, shard) in self.shards.iter().enumerate() {
            for (idx, msg) in shard.cross_buf.iter().enumerate() {
                self.merge_keys
                    .push((msg.at.as_nanos(), src as u32, idx as u32));
            }
        }
        self.merge_keys.sort_unstable();
        for &(at, src, idx) in &self.merge_keys {
            let msg = &mut self.shards[src as usize].cross_buf[idx as usize];
            let ev = msg.ev.take().expect("one key per buffered event");
            let dst = msg.dst;
            self.shards[dst].queue.push(SimTime::from_nanos(at), ev);
        }
        for shard in self.shards.iter_mut() {
            shard.cross_buf.clear();
        }
        self.now = slice_end;
    }

    /// Run until virtual time `limit` (exclusive) or until every queue
    /// drains. Empty slices are skipped by jumping the clock to the slice
    /// containing the next pending event.
    pub fn run_until(&mut self, limit: SimTime) -> ShardRunOutcome {
        loop {
            let Some(next) = self.min_next_time() else {
                return ShardRunOutcome::Drained;
            };
            if next >= limit {
                self.now = self.now.max(self.slice_start(limit));
                return ShardRunOutcome::TimeLimit;
            }
            self.now = self.now.max(self.slice_start(next));
            self.run_slice();
        }
    }

    /// Run for `dur` of virtual time from the current slice start.
    pub fn run_for(&mut self, dur: Duration) -> ShardRunOutcome {
        self.run_until(self.now + dur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Token-passing world: each event carries a counter; the handler forwards
    /// it to a pseudo-random shard after a latency of one-or-more slices, and
    /// records everything it saw.
    struct Token {
        hops_left: u32,
        value: u64,
    }

    struct PassWorld {
        id: usize,
        seen: Vec<(u64, u64)>,
    }

    impl ShardWorld for PassWorld {
        type Ev = Token;

        fn handle(&mut self, now: SimTime, ev: Token, ctl: &mut ShardCtl<Token>) {
            self.seen.push((now.as_nanos(), ev.value));
            if ev.hops_left == 0 {
                return;
            }
            // Deterministic pseudo-random routing and latency.
            let mix = ev
                .value
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(self.id as u64);
            let dst = (mix % ctl.shards() as u64) as usize;
            let latency = Duration::from_millis(1 + (mix >> 8) % 5);
            let next = Token {
                hops_left: ev.hops_left - 1,
                value: mix,
            };
            if dst == ctl.shard() && (mix >> 16) % 2 == 0 {
                // Same-shard fast path: stays inside the slice.
                ctl.send_local(now + Duration::from_micros(10), next);
            } else {
                ctl.send(dst, now + latency, next);
            }
        }
    }

    fn run(parallel: bool) -> (u64, u64, Vec<Vec<(u64, u64)>>) {
        let worlds = (0..4)
            .map(|id| PassWorld {
                id,
                seen: Vec::new(),
            })
            .collect();
        let mut sim = ShardedSim::new(worlds, Duration::from_millis(1), parallel);
        for i in 0..16u64 {
            sim.schedule(
                (i % 4) as usize,
                SimTime::ZERO + Duration::from_micros(i * 37),
                Token {
                    hops_left: 40,
                    value: i,
                },
            );
        }
        let outcome = sim.run_until(SimTime::ZERO + Duration::from_secs(2));
        assert_eq!(outcome, ShardRunOutcome::Drained);
        let seen = sim.worlds().map(|w| w.seen.clone()).collect();
        (sim.executed(), sim.trace_hash(), seen)
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let (seq_n, seq_hash, seq_seen) = run(false);
        let (par_n, par_hash, par_seen) = run(true);
        assert_eq!(seq_n, par_n, "same number of events executed");
        assert_eq!(seq_hash, par_hash, "identical (time, seq) history");
        assert_eq!(seq_seen, par_seen, "identical per-shard observations");
        assert!(seq_n >= 16 * 40, "tokens actually hopped");
    }

    #[test]
    fn same_seed_replays_identically() {
        let a = run(true);
        let b = run(true);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }

    /// Barrier-order world: every event fans out to three shards, all at the
    /// same slice-aligned instant, so each barrier merges events whose `at`
    /// collides across sources and within one source. Where an event goes and
    /// when depends on everything its shard handled before it, so handing two
    /// colliding events to a queue in the other order changes the rest of the
    /// run — `trace_hash` alone would not see a swap of equal-time events.
    struct Burst {
        id: u64,
        /// Order-sensitive fold of every value handled.
        acc: u64,
    }

    impl ShardWorld for Burst {
        type Ev = (u32, u64);

        fn handle(&mut self, now: SimTime, (ttl, value): Self::Ev, ctl: &mut ShardCtl<Self::Ev>) {
            self.acc = (self.acc.rotate_left(5) ^ value).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            if ttl == 0 {
                return;
            }
            let slice = Duration::from_millis(1).as_nanos();
            let mix = self.acc.wrapping_add(self.id);
            let at = SimTime::from_nanos((now.as_nanos() / slice + 1 + mix % 3) * slice);
            for k in 0..3u64 {
                // Two emissions in three are leaves, so the run stays small.
                let next_ttl = if (mix >> (4 + k)) % 3 == 0 {
                    ttl - 1
                } else {
                    0
                };
                let dst = ((mix >> (8 * (k + 1))) % ctl.shards() as u64) as usize;
                ctl.send(dst, at, (next_ttl, mix ^ k));
            }
        }
    }

    fn run_bursts(parallel: bool) -> (u64, u64, u64) {
        let worlds = (0..4).map(|id| Burst { id, acc: 0 }).collect();
        let mut sim = ShardedSim::new(worlds, Duration::from_millis(1), parallel);
        for i in 0..8u64 {
            sim.schedule((i % 4) as usize, SimTime::ZERO, (8, i));
        }
        let outcome = sim.run_until(SimTime::ZERO + Duration::from_secs(1));
        assert_eq!(outcome, ShardRunOutcome::Drained);
        let acc = sim.worlds().fold(0, |h, w| fnv_fold(h, w.acc));
        (sim.executed(), sim.trace_hash(), acc)
    }

    #[test]
    fn barrier_order_on_colliding_times_is_pinned() {
        // Recorded at the commit before the barrier sorted keys instead of
        // whole events; `(time, source shard, emission index)` is the contract.
        const PINNED: (u64, u64, u64) = (440, 0x6FF0_7779_EDE2_4B53, 0x0AFD_DE7C_6126_78DE);
        assert_eq!(run_bursts(false), PINNED, "sequential");
        assert_eq!(run_bursts(true), PINNED, "threaded");
    }

    #[test]
    fn empty_slices_are_skipped() {
        // Two events 10 s apart with a 1 ms slice: the run must not iterate
        // ten thousand empty slices' worth of merge work — verified cheaply
        // by the clock landing on the right slices.
        struct Null;
        impl ShardWorld for Null {
            type Ev = ();
            fn handle(&mut self, _: SimTime, _: (), _: &mut ShardCtl<()>) {}
        }
        let mut sim = ShardedSim::new(vec![Null, Null], Duration::from_millis(1), false);
        sim.schedule(0, SimTime::ZERO + Duration::from_secs(10), ());
        sim.schedule(1, SimTime::ZERO + Duration::from_secs(20), ());
        let outcome = sim.run_until(SimTime::ZERO + Duration::from_secs(30));
        assert_eq!(outcome, ShardRunOutcome::Drained);
        assert_eq!(sim.executed(), 2);
    }

    #[test]
    fn run_until_respects_limit() {
        struct Count(u64);
        impl ShardWorld for Count {
            type Ev = ();
            fn handle(&mut self, now: SimTime, _: (), ctl: &mut ShardCtl<()>) {
                self.0 += 1;
                ctl.send_local(now + Duration::from_millis(10), ());
            }
        }
        let mut sim = ShardedSim::new(vec![Count(0)], Duration::from_millis(1), false);
        sim.schedule(0, SimTime::ZERO, ());
        let outcome = sim.run_until(SimTime::ZERO + Duration::from_millis(100));
        assert_eq!(outcome, ShardRunOutcome::TimeLimit);
        // Events at 0, 10, …, 90 ms run; the one at 100 ms does not.
        assert_eq!(sim.world(0).0, 10);
    }
}
