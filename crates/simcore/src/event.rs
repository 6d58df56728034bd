//! The event queue.
//!
//! A timing wheel over a 4-ary overflow min-heap ([`EventQueue`] wraps the
//! `Wheel` below), keyed by `(time, sequence)` where the sequence number is a
//! monotonically increasing counter assigned at insertion. Ties in virtual time
//! are therefore broken in insertion order, which keeps the whole simulation
//! deterministic regardless of wheel or heap internals.
//!
//! Entries hold their payload inline and are sorted and moved *by value*: the
//! wheel sorts a slot's entries before draining it, the overflow heap swaps
//! them while sifting, and `ShardedSim`'s barrier moves each cross-shard event
//! between buffers. Keep payloads small — box anything large, as
//! `netsim`'s `NetEvent::Arrival { pkt: Box<Ipv4Packet> }` and the ring
//! driver's `RingEv::Deliver { msg: Box<LinkMessage> }` (`crates/bench`) do.
//!
//! Cancellation is tombstone-based: the queue is never restructured. A cancelled
//! entry stays queued and is discarded when it reaches the front. To make
//! cancelling an already-fired event an exact no-op (it must neither corrupt
//! the live count nor leave a tombstone behind), the queue tracks which
//! identifiers are still *pending* — but the packet hot path schedules and
//! fires millions of events and never cancels, so that tracking must cost no
//! hashing per event. Pending-ness of the most recent [`WINDOW`] identifiers
//! lives in a fixed 8 KiB bitmap indexed by sequence number; the rare event
//! that stays pending while `WINDOW` newer ones are scheduled is moved to a
//! hash-set overflow on eviction.

// lint:allow(d1): membership-only overflow set behind the id bitmap — never
// iterated, and the identity hasher below keeps it seed-free anyway.
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use crate::time::SimTime;

/// Identifier of a scheduled event, usable for cancellation.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct EventId(pub(crate) u64);

/// Event identifiers are unique sequence numbers already, so the id sets hash
/// with the identity function instead of SipHash.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; this path is unused but kept total.
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

// lint:allow(d1): membership-only (insert/remove/contains); determinism does
// not depend on iteration order because no code path iterates it.
type IdSet = HashSet<EventId, BuildHasherDefault<IdHasher>>;

/// Number of recent event ids whose pending-ness is tracked in the bitmap.
const WINDOW: u64 = 1 << 16;
const WINDOW_WORDS: usize = (WINDOW as usize) / 64;

/// An entry in the queue: a payload to deliver at a virtual instant.
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Cancellation/identity handle.
    pub id: EventId,
    /// The payload.
    pub payload: E,
}

struct HeapEntry<E> {
    at: SimTime,
    /// Sequence number; doubles as the event id, so entries stay small.
    seq: u64,
    payload: E,
}

impl<E> HeapEntry<E> {
    /// Min-heap key: earliest time first, insertion order breaking ties. The
    /// `(time, seq)` pair is unique and totally ordered, which is what makes
    /// replays deterministic regardless of heap internals.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// A 4-ary min-heap. Shallower than a binary heap and with all four children
/// of a node on one or two cache lines, it does measurably fewer cache misses
/// per pop — `pop` is the single hottest call in the whole simulator.
struct MinHeap<E> {
    items: Vec<HeapEntry<E>>,
}

const HEAP_ARITY: usize = 4;

impl<E> MinHeap<E> {
    fn new() -> Self {
        MinHeap { items: Vec::new() }
    }

    fn peek(&self) -> Option<&HeapEntry<E>> {
        self.items.first()
    }

    fn push(&mut self, entry: HeapEntry<E>) {
        self.items.push(entry);
        self.sift_up(self.items.len() - 1);
    }

    fn pop(&mut self) -> Option<HeapEntry<E>> {
        if self.items.is_empty() {
            return None;
        }
        let last = self.items.len() - 1;
        self.items.swap(0, last);
        let entry = self.items.pop();
        if !self.items.is_empty() {
            self.sift_down(0);
        }
        entry
    }

    fn sift_up(&mut self, mut idx: usize) {
        while idx > 0 {
            let parent = (idx - 1) / HEAP_ARITY;
            if self.items[idx].key() < self.items[parent].key() {
                self.items.swap(idx, parent);
                idx = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut idx: usize) {
        let len = self.items.len();
        loop {
            let first_child = idx * HEAP_ARITY + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + HEAP_ARITY).min(len);
            let mut smallest = first_child;
            let mut smallest_key = self.items[first_child].key();
            for c in first_child + 1..last_child {
                let k = self.items[c].key();
                if k < smallest_key {
                    smallest = c;
                    smallest_key = k;
                }
            }
            if smallest_key < self.items[idx].key() {
                self.items.swap(idx, smallest);
                idx = smallest;
            } else {
                break;
            }
        }
    }
}

/// Tracks which event ids are pending (scheduled, not yet fired or cancelled)
/// without hashing on the hot path.
struct PendingSet {
    /// Bitmap over the ids in `[next_seq - WINDOW, next_seq)`, indexed by
    /// `id % WINDOW`. A set bit means "still pending".
    window: Box<[u64; WINDOW_WORDS]>,
    /// Pending ids older than the window (evicted as the window slid past
    /// them). Touched only for events that outlive `WINDOW` newer ones.
    overflow: IdSet,
    len: usize,
}

impl PendingSet {
    fn new() -> Self {
        PendingSet {
            window: Box::new([0u64; WINDOW_WORDS]),
            overflow: IdSet::default(),
            len: 0,
        }
    }

    #[inline]
    fn bit(id: u64) -> (usize, u64) {
        let slot = (id % WINDOW) as usize;
        (slot / 64, 1u64 << (slot % 64))
    }

    /// Record `id` (== the previous `next_seq`) as pending, sliding the window
    /// forward over the id it replaces.
    #[inline]
    fn insert_next(&mut self, id: u64) {
        let (word, mask) = Self::bit(id);
        // The slot currently belongs to `id - WINDOW`; if that event is still
        // pending, it moves to the overflow set.
        if self.window[word] & mask != 0 {
            self.overflow.insert(EventId(id - WINDOW));
        }
        self.window[word] |= mask;
        self.len += 1;
    }

    /// Remove a pending id (fired or cancelled). Returns whether it was pending.
    /// `next_seq` bounds the current window.
    #[inline]
    fn remove(&mut self, id: u64, next_seq: u64) -> bool {
        if next_seq - id <= WINDOW {
            let (word, mask) = Self::bit(id);
            let was = self.window[word] & mask != 0;
            self.window[word] &= !mask;
            if was {
                self.len -= 1;
            }
            was
        } else if self.overflow.remove(&EventId(id)) {
            self.len -= 1;
            true
        } else {
            false
        }
    }
}

/// log2 of the timing-wheel granularity in nanoseconds (65536 ns ≈ 66 µs).
const GRAN_SHIFT: u32 = 16;
/// Number of wheel slots; the wheel window covers `SLOTS << GRAN_SHIFT` ≈ 34 ms
/// of virtual time — wide enough that both micro-timers and wide-area link
/// arrivals (tens of milliseconds) stay out of the overflow heap.
const SLOTS: usize = 512;
const SLOT_WORDS: usize = SLOTS / 64;

/// A timing wheel over a far-future overflow heap.
///
/// Discrete-event simulations schedule overwhelmingly into the near future
/// (wakeups microseconds ahead); a binary heap pays a full sift-down per pop
/// for those. The wheel buckets the next `SLOTS << GRAN_SHIFT` (≈ 34 ms) of
/// virtual time into 66 µs slots: push is O(1), pop sorts one small slot at a
/// time, and an occupancy bitmap skips empty slots in word-sized steps. Events beyond the window go
/// to a 4-ary overflow heap and cascade into the wheel as it turns. The exact
/// `(time, seq)` total order — the determinism contract — is preserved: slots
/// partition the time axis, each slot is sorted before it is drained, and the
/// overflow never holds a key below the current window end.
struct Wheel<E> {
    slots: Vec<Vec<HeapEntry<E>>>,
    /// Bit set per non-empty slot.
    bitmap: [u64; SLOT_WORDS],
    /// Absolute slot index (time >> GRAN_SHIFT) of the cursor; the window
    /// covers `[cur_abs, cur_abs + SLOTS)` absolute slots. Only `pop` moves
    /// the cursor, so events may still be scheduled anywhere at or after the
    /// last popped instant.
    cur_abs: u64,
    /// Absolute slot index whose bucket is currently sorted (descending, so
    /// the minimum pops from the back), if any.
    sorted_abs: Option<u64>,
    /// Entries stored in the wheel (not counting the overflow heap).
    in_wheel: usize,
    overflow: MinHeap<E>,
}

impl<E> Wheel<E> {
    fn new() -> Self {
        Wheel {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            bitmap: [0; SLOT_WORDS],
            cur_abs: 0,
            sorted_abs: None,
            in_wheel: 0,
            overflow: MinHeap::new(),
        }
    }

    #[inline]
    fn ring(abs: u64) -> usize {
        (abs as usize) % SLOTS
    }

    #[inline]
    fn mark(&mut self, ring: usize) {
        self.bitmap[ring / 64] |= 1 << (ring % 64);
    }

    #[inline]
    fn unmark(&mut self, ring: usize) {
        self.bitmap[ring / 64] &= !(1 << (ring % 64));
    }

    fn push(&mut self, entry: HeapEntry<E>) {
        let abs = entry.at.as_nanos() >> GRAN_SHIFT;
        debug_assert!(abs >= self.cur_abs, "scheduling behind the wheel cursor");
        if abs - self.cur_abs < SLOTS as u64 {
            let ring = Self::ring(abs);
            self.slots[ring].push(entry);
            self.mark(ring);
            self.in_wheel += 1;
            if self.sorted_abs == Some(abs) {
                self.sorted_abs = None;
            }
        } else {
            self.overflow.push(entry);
        }
    }

    /// Move the cursor to the next non-empty slot (cascading overflow entries
    /// into the window as it advances). Returns the absolute slot index, or
    /// `None` if nothing is queued. Called only from `pop`.
    fn advance(&mut self) -> Option<u64> {
        loop {
            if self.in_wheel > 0 {
                let abs = self.next_occupied().expect("in_wheel > 0");
                if abs != self.cur_abs {
                    self.cur_abs = abs;
                    self.drain_overflow();
                }
                return Some(abs);
            }
            let top = self.overflow.peek()?;
            // Jump the window to the earliest overflow entry and pull in
            // everything that now fits.
            self.cur_abs = top.at.as_nanos() >> GRAN_SHIFT;
            self.drain_overflow();
        }
    }

    /// Pull overflow entries that fall inside the (new) window into slots.
    fn drain_overflow(&mut self) {
        while let Some(top) = self.overflow.peek() {
            let abs = top.at.as_nanos() >> GRAN_SHIFT;
            if abs - self.cur_abs >= SLOTS as u64 {
                break;
            }
            let entry = self.overflow.pop().expect("peeked entry");
            let ring = Self::ring(abs);
            self.slots[ring].push(entry);
            self.mark(ring);
            self.in_wheel += 1;
            if self.sorted_abs == Some(abs) {
                self.sorted_abs = None;
            }
        }
    }

    /// Absolute index of the first occupied slot at or after the cursor.
    fn next_occupied(&self) -> Option<u64> {
        let start = Self::ring(self.cur_abs);
        // Search the ring in absolute order: [start..SLOTS), then [0..start).
        let mut word = start / 64;
        let mut mask = !0u64 << (start % 64);
        let mut scanned = 0usize;
        while scanned < SLOT_WORDS + 1 {
            let bits = self.bitmap[word] & mask;
            if bits != 0 {
                let ring = word * 64 + bits.trailing_zeros() as usize;
                let delta = (ring + SLOTS - start) % SLOTS;
                return Some(self.cur_abs + delta as u64);
            }
            word = (word + 1) % SLOT_WORDS;
            mask = !0;
            scanned += 1;
        }
        None
    }

    /// Sort the bucket for absolute slot `abs` (descending) if needed, so its
    /// minimum is at the back. Keys are unique, so the order is total and
    /// deterministic.
    fn sort_slot(&mut self, abs: u64) {
        if self.sorted_abs != Some(abs) {
            let ring = Self::ring(abs);
            self.slots[ring].sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            self.sorted_abs = Some(abs);
        }
    }

    /// The earliest queued entry. Does not move the cursor, so scheduling
    /// behind the peeked slot (but at or after the last popped instant)
    /// remains legal.
    fn peek(&mut self) -> Option<&HeapEntry<E>> {
        if self.in_wheel > 0 {
            let abs = self.next_occupied().expect("in_wheel > 0");
            self.sort_slot(abs);
            self.slots[Self::ring(abs)].last()
        } else {
            self.overflow.peek()
        }
    }

    /// Remove the entry [`Wheel::peek`] would return, **without** moving the
    /// cursor. Used to collect cancelled tombstones: `next_time` must be able
    /// to discard them while leaving every slot at or after the last popped
    /// instant schedulable.
    fn remove_peeked(&mut self) {
        if self.in_wheel > 0 {
            let abs = self.next_occupied().expect("in_wheel > 0");
            self.sort_slot(abs);
            let ring = Self::ring(abs);
            self.slots[ring].pop().expect("occupied slot");
            self.in_wheel -= 1;
            if self.slots[ring].is_empty() {
                self.unmark(ring);
            }
        } else {
            self.overflow.pop();
        }
    }

    fn pop(&mut self) -> Option<HeapEntry<E>> {
        let abs = self.advance()?;
        self.sort_slot(abs);
        let ring = Self::ring(abs);
        let entry = self.slots[ring].pop().expect("advance found entries");
        self.in_wheel -= 1;
        if self.slots[ring].is_empty() {
            self.unmark(ring);
        }
        Some(entry)
    }
}

/// A deterministic priority queue of future events.
pub struct EventQueue<E> {
    wheel: Wheel<E>,
    next_seq: u64,
    /// Ids scheduled but not yet fired or cancelled.
    pending: PendingSet,
    /// Tombstones for cancelled events still sitting in the queue. Every entry
    /// here corresponds to a queued entry, so the set is garbage-collected as
    /// the cancelled entries surface — it cannot grow without bound.
    cancelled: IdSet,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: Wheel::new(),
            next_seq: 0,
            pending: PendingSet::new(),
            cancelled: IdSet::default(),
        }
    }

    /// Key of the earliest queued entry (cancelled tombstones included).
    #[inline]
    fn peek_entry(&mut self) -> Option<&HeapEntry<E>> {
        self.wheel.peek()
    }

    /// Remove and return the earliest queued entry.
    #[inline]
    fn take_min(&mut self) -> Option<HeapEntry<E>> {
        self.wheel.pop()
    }

    /// Number of live (not cancelled) events still queued.
    pub fn len(&self) -> usize {
        self.pending.len
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.pending.len == 0
    }

    /// Number of cancellation tombstones still awaiting garbage collection
    /// (diagnostics; bounded by the number of pending heap entries).
    pub fn tombstones(&self) -> usize {
        self.cancelled.len()
    }

    /// Schedule `payload` at absolute time `at`; returns a handle for cancellation.
    pub fn push(&mut self, at: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wheel.push(HeapEntry { at, seq, payload });
        self.pending.insert_next(seq);
        EventId(seq)
    }

    /// Cancel a previously scheduled event. Cancelling an already-fired,
    /// already-cancelled or unknown event is a no-op and returns `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_seq {
            return false;
        }
        if self.pending.remove(id.0, self.next_seq) {
            self.cancelled.insert(id);
            true
        } else {
            false
        }
    }

    /// The virtual time of the next live event, if any.
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.peek_entry().map(|e| e.at)
    }

    /// Pop the earliest live event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.skip_cancelled();
        let entry = self.take_min()?;
        self.pending.remove(entry.seq, self.next_seq);
        Some(ScheduledEvent {
            at: entry.at,
            id: EventId(entry.seq),
            payload: entry.payload,
        })
    }

    fn skip_cancelled(&mut self) {
        if self.cancelled.is_empty() {
            return;
        }
        while let Some(seq) = self.peek_entry().map(|top| top.seq) {
            if self.cancelled.remove(&EventId(seq)) {
                // Discard without advancing the wheel cursor: `next_time` runs
                // between events, when scheduling at any instant at or after
                // the last *fired* event must remain legal.
                self.wheel.remove_peeked();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(5), "b");
        q.push(t(1), "a");
        q.push(t(9), "c");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().payload, "a");
        assert_eq!(q.pop().unwrap().payload, "b");
        assert_eq!(q.pop().unwrap().payload, "c");
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_removes_event() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().payload, "b");
        assert!(!q.cancel(a), "double cancel is a no-op");
    }

    #[test]
    fn cancel_unknown_is_noop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn next_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(3), "b");
        q.cancel(a);
        assert_eq!(q.next_time(), Some(t(3)));
    }

    #[test]
    fn cancel_after_fire_is_a_noop_and_keeps_len_correct() {
        // Regression: cancelling an id that already fired used to return `true`
        // and decrement the live count, making `is_empty()` lie while events
        // were still queued.
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(2), "b");
        assert_eq!(q.pop().unwrap().id, a);
        assert!(!q.cancel(a), "cancelling a fired event must report false");
        assert_eq!(q.len(), 1, "live count must not be corrupted");
        assert!(!q.is_empty());
        assert_eq!(q.pop().unwrap().payload, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_fire_leaves_no_tombstone() {
        // Regression: tombstones for already-fired events used to accumulate
        // forever (retransmit-style timers are cancelled constantly).
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            let id = q.push(t(i), i);
            q.pop();
            q.cancel(id); // always after the fact
        }
        assert_eq!(q.tombstones(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn pending_tombstones_are_collected_when_they_surface() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..100u64).map(|i| q.push(t(i), i)).collect();
        for id in &ids[..50] {
            assert!(q.cancel(*id));
        }
        assert_eq!(q.tombstones(), 50);
        assert_eq!(q.len(), 50);
        let survivors: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(survivors, (50..100).collect::<Vec<_>>());
        assert_eq!(q.tombstones(), 0, "surfaced tombstones are collected");
    }

    #[test]
    fn next_time_over_cancelled_head_does_not_break_later_scheduling() {
        // Regression: collecting a cancelled tombstone inside `next_time` used
        // to advance the timing-wheel cursor to the cancelled slot, so a later
        // (perfectly legal) push at an earlier instant landed behind the
        // cursor and was misordered.
        let mut q = EventQueue::new();
        let victim = q.push(t(10), "victim");
        q.push(t(20), "late");
        q.cancel(victim);
        // Peeking collects the tombstone (the next live event is at 20 ms)...
        assert_eq!(q.next_time(), Some(t(20)));
        // ...and scheduling before both instants must still order first.
        q.push(t(2), "early");
        assert_eq!(q.pop().unwrap().payload, "early");
        assert_eq!(q.pop().unwrap().payload, "late");
        assert!(q.pop().is_none());
    }

    #[test]
    fn events_outliving_the_id_window_stay_cancellable() {
        // An event that stays pending while more than WINDOW newer events are
        // scheduled is evicted to the overflow set; pending-ness bookkeeping
        // must survive the eviction.
        let mut q: EventQueue<u64> = EventQueue::new();
        let old = q.push(t(1_000_000), u64::MAX);
        let old_fired = q.push(t(0), u64::MAX - 1);
        assert_eq!(q.pop().unwrap().id, old_fired);
        for i in 0..(WINDOW + 10) {
            let id = q.push(t(2 + i), i);
            assert_eq!(q.pop().unwrap().id, id);
        }
        assert_eq!(q.len(), 1);
        assert!(
            !q.cancel(old_fired),
            "fired id evicted from the window is still reported fired"
        );
        assert!(q.cancel(old), "pending id survives window eviction");
        assert!(!q.cancel(old), "double cancel after eviction is a no-op");
        assert!(q.is_empty());
        assert_eq!(q.next_time(), None, "cancelled straggler never surfaces");
    }

    #[test]
    fn window_wrap_keeps_counts_exact() {
        // Interleave pushes and pops across several window lengths and verify
        // len() is exact throughout.
        let mut q = EventQueue::new();
        let mut expect = 0usize;
        for round in 0..3u64 {
            for i in 0..WINDOW {
                q.push(t(round * WINDOW + i), ());
                expect += 1;
                if i % 2 == 0 {
                    q.pop();
                    expect -= 1;
                }
                debug_assert_eq!(q.len(), expect);
            }
        }
        assert_eq!(q.len(), expect);
        while q.pop().is_some() {}
        assert!(q.is_empty());
    }
}
