//! Cancellable future-event list.

use crate::event::{EventId, ScheduledEvent};
use crate::time::SimTime;

/// Sentinel for "this slot has no heap position".
const NO_POS: u32 = u32::MAX;

/// The event-queue selector of the `--queue` flag and the spec's
/// `"queue"` key.
///
/// Inert: there is one future-event list, the indexed heap, and every
/// kind runs on it. `Calendar` names a retired backend; it still parses
/// so stored specs and their fingerprints stay valid, and a calendar run
/// pops the identical event order it always did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// Indexed binary min-heap (the default).
    #[default]
    IndexedHeap,
    /// Accepted for spec compatibility; runs on the indexed heap.
    Calendar,
}

impl QueueKind {
    /// Canonical CLI / spec name (`heap` or `calendar`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            QueueKind::IndexedHeap => "heap",
            QueueKind::Calendar => "calendar",
        }
    }

    /// Parses a CLI / spec name.
    ///
    /// # Errors
    ///
    /// A human-readable message listing the valid names.
    pub fn parse(s: &str) -> Result<QueueKind, String> {
        match s {
            "heap" => Ok(QueueKind::IndexedHeap),
            "calendar" => Ok(QueueKind::Calendar),
            other => Err(format!("unknown queue kind '{other}' (heap|calendar)")),
        }
    }
}

impl std::fmt::Display for QueueKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The future-event list of a simulation: an **indexed** binary
/// min-heap of [`ScheduledEvent`]s keyed by time (FIFO among ties),
/// with true O(log n) cancellation and in-place reschedule through
/// generation-counted [`EventId`] handles.
///
/// Bookkeeping is a slab of per-event slots indexed directly by the
/// [`EventId`] (generation-counted so recycled slots never confuse a
/// stale handle with a live event) — the hot schedule/cancel/pop path
/// does no hashing and no per-event allocation once the slab has grown
/// to the working-set size. Each slot tracks its entry's current heap
/// position, so [`EventQueue::cancel`] removes the entry outright
/// instead of tombstoning it.
///
/// That eager removal is what keeps the heap at exactly the *live* event
/// count: `Resample`-style workloads cancel and reschedule several
/// timers per step, and with lazy deletion those tombstones pile up
/// between the root and the live entries, deepening every sift and
/// forcing periodic compaction passes. Here every operation works on a
/// heap of only live events — for the checkpoint model's ~10 in-flight
/// timers, each sift touches three or four cache-hot entries.
///
/// # Example
///
/// ```
/// use ckpt_des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let early = q.schedule(SimTime::from_secs(1.0), "early");
/// q.schedule(SimTime::from_secs(2.0), "late");
/// q.cancel(early);
///
/// let next = q.pop().expect("one live event left");
/// assert_eq!(next.into_payload(), "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Binary min-heap ordered by `(time, seq)`; `slots[entry-slot].pos`
    /// always names each entry's current index.
    heap: Vec<ScheduledEvent<E>>,
    /// One slot per in-flight event, indexed by the low half of the
    /// [`EventId`]; the high half must match the slot's generation.
    slots: Vec<Slot>,
    /// Indices of slots available for reuse.
    free: Vec<u32>,
    /// Monotone insertion sequence, the FIFO tie-breaker among events
    /// scheduled at the same time (slot ids recycle, so they cannot
    /// order insertions).
    next_seq: u64,
    /// Time of the most recently popped event; schedules before this are
    /// rejected to preserve causality.
    watermark: SimTime,
}

#[derive(Debug)]
struct Slot {
    /// Bumped on every release; a handle whose generation mismatches is
    /// stale (already fired or cancelled).
    gen: u32,
    /// Current index of this slot's entry in `heap`, or [`NO_POS`] when
    /// the slot is free.
    pos: u32,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the watermark at time zero.
    #[must_use]
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Creates an empty queue. The kind is ignored: every kind runs on
    /// the one indexed heap (see [`QueueKind`]).
    #[must_use]
    pub fn with_kind(_kind: QueueKind) -> EventQueue<E> {
        EventQueue::new()
    }

    /// Schedules `payload` to fire at absolute time `time`, returning a
    /// handle usable with [`EventQueue::cancel`].
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the most recently popped event:
    /// scheduling into the past would violate causality and always
    /// indicates a model bug.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        assert!(
            time >= self.watermark,
            "attempted to schedule an event at {time} before current time {}",
            self.watermark
        );
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.slots.len()).expect("more than 2^32 in-flight events");
                self.slots.push(Slot {
                    gen: 0,
                    pos: NO_POS,
                });
                s
            }
        };
        debug_assert_eq!(self.slots[slot as usize].pos, NO_POS);
        let id = EventId(u64::from(self.slots[slot as usize].gen) << 32 | u64::from(slot));
        let seq = self.next_seq;
        self.next_seq += 1;
        let pos = self.heap.len();
        self.slots[slot as usize].pos = pos as u32;
        self.heap.push(ScheduledEvent {
            time,
            id,
            seq,
            payload,
        });
        self.sift_up(pos);
        id
    }

    /// Cancels a previously scheduled event, removing it from the heap
    /// immediately (O(log n), no tombstone).
    ///
    /// Returns `true` if the event was still pending, `false` if it had
    /// already fired, been cancelled, or never existed.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(slot) = self.resolve(id) else {
            return false;
        };
        let pos = self.slots[slot].pos;
        debug_assert_ne!(pos, NO_POS, "live generation with no heap entry");
        self.remove_at(pos as usize);
        self.release(slot);
        true
    }

    /// Moves a pending event to a new firing time under a fresh FIFO
    /// sequence — behaviourally `cancel(id)` followed by re-scheduling
    /// the same payload at `time`, but in one sift pass with no slot
    /// churn. The handle stays valid (same slot, same generation).
    ///
    /// This is the `Resample` hot path: reactivation redraws a timer's
    /// delay on every marking change, and moving the existing entry
    /// halves the queue traffic of the cancel-then-schedule pair.
    ///
    /// Returns `true` if the event was pending and has been moved,
    /// `false` (leaving the queue untouched) if the handle was stale.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the most recently popped event,
    /// like [`EventQueue::schedule`].
    pub fn reschedule(&mut self, id: EventId, time: SimTime) -> bool {
        let Some(slot) = self.resolve(id) else {
            return false;
        };
        assert!(
            time >= self.watermark,
            "attempted to reschedule an event at {time} before current time {}",
            self.watermark
        );
        let pos = self.slots[slot].pos as usize;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap[pos].time = time;
        self.heap[pos].seq = seq;
        // The entry may need to move in either direction.
        self.sift_down(pos);
        self.sift_up(pos);
        true
    }

    /// Removes and returns the earliest live event, advancing the
    /// watermark to its time.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if self.heap.is_empty() {
            return None;
        }
        let ev = self.remove_at(0);
        self.release((ev.id.0 & 0xFFFF_FFFF) as usize);
        self.watermark = ev.time;
        Some(ev)
    }

    /// Removes and returns the earliest live event **iff** its time is
    /// at or before `limit`; otherwise leaves it queued and returns
    /// `None`, exactly like [`EventQueue::peek_time`] + bounds check +
    /// [`EventQueue::pop`] fused into one call — the simulator's
    /// run-loop entry point.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<ScheduledEvent<E>> {
        if self.heap.first()?.time > limit {
            return None;
        }
        self.pop()
    }

    /// The time of the earliest live event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|ev| ev.time)
    }

    /// Number of live (non-cancelled) events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no live events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The causality watermark: the time of the most recently popped
    /// event. New events must not be scheduled before it.
    #[must_use]
    pub fn watermark(&self) -> SimTime {
        self.watermark
    }

    /// Drops every pending event without changing the watermark.
    /// Previously issued handles become stale, never aliases of later
    /// events.
    pub fn clear(&mut self) {
        for ev in self.heap.drain(..) {
            let slot = (ev.id.0 & 0xFFFF_FFFF) as usize;
            Self::release_in(&mut self.slots, &mut self.free, slot);
        }
    }

    /// Maps a handle to its slot index, `None` when stale or foreign.
    fn resolve(&self, id: EventId) -> Option<usize> {
        let slot = (id.0 & 0xFFFF_FFFF) as usize;
        let gen = (id.0 >> 32) as u32;
        (slot < self.slots.len() && self.slots[slot].gen == gen).then_some(slot)
    }

    /// Returns a slot to the free list under a fresh generation.
    fn release(&mut self, slot: usize) {
        Self::release_in(&mut self.slots, &mut self.free, slot);
    }

    /// [`EventQueue::release`] on borrowed fields, callable where
    /// `self` is partially borrowed.
    fn release_in(slots: &mut [Slot], free: &mut Vec<u32>, slot: usize) {
        slots[slot].gen = slots[slot].gen.wrapping_add(1);
        slots[slot].pos = NO_POS;
        free.push(slot as u32);
    }

    /// Removes and returns the entry at heap index `pos`, restoring the
    /// heap invariant. Does **not** release the entry's slot.
    fn remove_at(&mut self, pos: usize) -> ScheduledEvent<E> {
        let last = self.heap.len() - 1;
        if pos != last {
            self.heap.swap(pos, last);
            let ev = self.heap.pop().expect("heap is non-empty");
            // The moved-in entry may be out of place in either direction
            // (it came from an unrelated subtree).
            self.sift_down(pos);
            self.sift_up(pos);
            ev
        } else {
            self.heap.pop().expect("heap is non-empty")
        }
    }

    /// Records `heap[pos]`'s new position in its slot.
    #[inline]
    fn reposition(&mut self, pos: usize) {
        let slot = (self.heap[pos].id.0 & 0xFFFF_FFFF) as usize;
        self.slots[slot].pos = pos as u32;
    }

    /// Moves `heap[pos]` toward the root until its parent is no later.
    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.heap[pos] >= self.heap[parent] {
                break;
            }
            self.heap.swap(pos, parent);
            self.reposition(pos);
            pos = parent;
        }
        self.reposition(pos);
    }

    /// Moves `heap[pos]` toward the leaves until no child is earlier.
    fn sift_down(&mut self, mut pos: usize) {
        let len = self.heap.len();
        if pos >= len {
            return;
        }
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.heap[right] < self.heap[left] {
                right
            } else {
                left
            };
            if self.heap[pos] <= self.heap[child] {
                break;
            }
            self.heap.swap(pos, child);
            self.reposition(pos);
            pos = child;
        }
        self.reposition(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every slot's recorded position points at its own entry — the
    /// indexed-heap invariant behind O(log n) cancellation.
    fn assert_positions_consistent<E>(q: &EventQueue<E>) {
        for (pos, ev) in q.heap.iter().enumerate() {
            let slot = (ev.id.0 & 0xFFFF_FFFF) as usize;
            assert_eq!(q.slots[slot].pos, pos as u32, "slot {slot} desynced");
        }
    }

    #[test]
    fn kind_round_trips_names() {
        for kind in [QueueKind::IndexedHeap, QueueKind::Calendar] {
            assert_eq!(QueueKind::parse(kind.name()), Ok(kind));
        }
        assert!(QueueKind::parse("splay").is_err());
        assert_eq!(QueueKind::default(), QueueKind::IndexedHeap);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3.0), 3);
        q.schedule(SimTime::from_secs(1.0), 1);
        q.schedule(SimTime::from_secs(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.into_payload())).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5.0);
        q.schedule(t, "first");
        q.schedule(t, "second");
        q.schedule(t, "third");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.into_payload())).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn ties_are_fifo_across_slot_reuse() {
        // Slot indices recycle after pops/cancels; insertion order at a
        // shared timestamp must still win, not slot order.
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1.0), "warmup0");
        q.schedule(SimTime::from_secs(1.0), "warmup1");
        q.cancel(a);
        assert_eq!(q.pop().unwrap().into_payload(), "warmup1");
        // Both slots are now free; reuse happens in LIFO free-list
        // order, so the ids come out in an order unrelated to
        // insertion.
        let t = SimTime::from_secs(5.0);
        q.schedule(t, "first");
        q.schedule(t, "second");
        q.schedule(t, "third");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.into_payload())).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn cancellation_removes_events_eagerly() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1.0), "a");
        q.schedule(SimTime::from_secs(2.0), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.heap.len(), 1, "cancelled entry must leave the heap");
        assert_positions_consistent(&q);
        assert_eq!(q.pop().unwrap().into_payload(), "b");
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1.0), "a");
        let fired = q.pop().unwrap();
        assert_eq!(fired.id(), a);
        assert!(!q.cancel(a));
        // A stale handle for a fired id must not kill a later event.
        let b = q.schedule(SimTime::from_secs(2.0), "b");
        assert_ne!(a, b);
        assert_eq!(q.pop().unwrap().into_payload(), "b");
    }

    #[test]
    fn stale_handle_after_slot_reuse_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1.0), "a");
        q.pop();
        // "b" reuses a's slot under a new generation.
        let b = q.schedule(SimTime::from_secs(2.0), "b");
        assert_ne!(a, b);
        assert!(!q.cancel(a), "stale handle must not cancel the new event");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().into_payload(), "b");
    }

    #[test]
    fn peek_time_sees_earliest_live_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1.0), "a");
        q.schedule(SimTime::from_secs(2.0), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2.0)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10.0), ());
        q.pop();
        q.schedule(SimTime::from_secs(5.0), ());
    }

    #[test]
    fn watermark_tracks_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(4.0), ());
        assert_eq!(q.watermark(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.watermark(), SimTime::from_secs(4.0));
    }

    #[test]
    fn mass_cancellation_preserves_live_events() {
        let mut q = EventQueue::new();
        let mut keep = Vec::new();
        for i in 0..500 {
            let id = q.schedule(SimTime::from_secs(f64::from(i)), i);
            if i % 10 != 0 {
                q.cancel(id);
            } else {
                keep.push(i);
            }
        }
        assert_eq!(q.len(), keep.len());
        assert_eq!(q.heap.len(), keep.len(), "heap must hold only live events");
        assert_positions_consistent(&q);
        let popped: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.into_payload())).collect();
        assert_eq!(popped, keep);
    }

    #[test]
    fn cancel_from_the_middle_reheapifies() {
        // Removing an interior entry swaps the last entry into its place;
        // that entry may need to move *up* (toward the root), not just
        // down. Build a shape that exercises the sift-up branch: cancel a
        // deep entry whose replacement is earlier than its new parent.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1.0), 1);
        let d = q.schedule(SimTime::from_secs(50.0), 50);
        q.schedule(SimTime::from_secs(2.0), 2);
        q.schedule(SimTime::from_secs(60.0), 60);
        q.schedule(SimTime::from_secs(70.0), 70);
        q.schedule(SimTime::from_secs(3.0), 3);
        q.cancel(d);
        assert_positions_consistent(&q);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.into_payload())).collect();
        assert_eq!(order, vec![1, 2, 3, 60, 70]);
    }

    #[test]
    fn reschedule_moves_event_and_keeps_handle() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(5.0), "a");
        q.schedule(SimTime::from_secs(2.0), "b");
        // Move a ahead of b; the handle survives the move.
        assert!(q.reschedule(a, SimTime::from_secs(1.0)));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
        assert!(q.cancel(a), "handle must stay live across reschedule");
        assert_eq!(q.pop().unwrap().into_payload(), "b");
        // Stale handles are rejected without touching the queue.
        assert!(!q.reschedule(a, SimTime::from_secs(9.0)));
        assert!(q.is_empty());
    }

    #[test]
    fn reschedule_requeues_at_the_fifo_tail() {
        // A rescheduled event takes a fresh sequence number: among ties
        // it fires after events that were already queued at that time,
        // exactly as cancel + schedule would order it.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5.0);
        let a = q.schedule(t, "a");
        q.schedule(t, "b");
        assert!(q.reschedule(a, t));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.into_payload())).collect();
        assert_eq!(order, vec!["b", "a"]);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn rescheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(10.0), "a");
        q.schedule(SimTime::from_secs(8.0), "b");
        q.pop();
        q.reschedule(a, SimTime::from_secs(5.0));
    }

    #[test]
    fn pop_before_respects_limit_and_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1.0), "a");
        q.schedule(SimTime::from_secs(2.0), "b");
        q.schedule(SimTime::from_secs(5.0), "c");
        q.cancel(a);
        // The cancelled t=1 event is gone even though it beats the
        // limit.
        let ev = q.pop_before(SimTime::from_secs(3.0)).unwrap();
        assert_eq!(ev.time(), SimTime::from_secs(2.0));
        assert_eq!(q.watermark(), SimTime::from_secs(2.0));
        // c is beyond the limit: left queued, watermark unchanged.
        assert!(q.pop_before(SimTime::from_secs(3.0)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.watermark(), SimTime::from_secs(2.0));
        // An exact-time limit is inclusive, matching peek+pop
        // semantics.
        let ev = q.pop_before(SimTime::from_secs(5.0)).unwrap();
        assert_eq!(ev.into_payload(), "c");
        assert!(q.pop_before(SimTime::from_secs(9.0)).is_none());
    }

    #[test]
    fn slots_are_recycled() {
        // A long-lived queue with churn must not grow its slab beyond the
        // in-flight working set.
        let mut q = EventQueue::new();
        for round in 0..1_000 {
            let t = SimTime::from_secs(f64::from(round));
            q.schedule(t, round);
            q.schedule(t, round);
            q.pop();
            q.pop();
        }
        assert!(
            q.slots.len() <= 4,
            "slab grew to {} slots for 2 in-flight events",
            q.slots.len()
        );
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1.0), ());
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        // Handles issued before the clear are stale, not aliases.
        assert!(!q.cancel(a));
        let b = q.schedule(SimTime::from_secs(1.0), ());
        assert_ne!(a, b);
        assert_eq!(q.len(), 1);
    }
}
