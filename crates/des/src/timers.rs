//! Fixed timer table: the future-event list of a simulator whose every
//! event source has at most one pending completion.

use crate::time::SimTime;

/// One entry of the table (meaningful only while its slot is armed).
#[derive(Debug, Clone, Copy)]
struct Timer {
    due: SimTime,
    seq: u64,
}

impl Timer {
    /// The pop order: earliest due time, then earliest schedule.
    #[inline]
    fn key(self) -> (SimTime, u64) {
        (self.due, self.seq)
    }
}

/// Sixty-four slots: their timers and one word of armed bits.
#[derive(Debug, Clone)]
struct Block {
    /// Bit `i` set ⇔ `timers[i]` is armed.
    armed: u64,
    timers: [Timer; 64],
}

impl Block {
    const EMPTY: Block = Block {
        armed: 0,
        timers: [Timer {
            due: SimTime::ZERO,
            seq: 0,
        }; 64],
    };

    /// The armed slot with the least key and its timer.
    #[inline]
    fn argmin(&self) -> Option<(usize, Timer)> {
        let mut bits = self.armed;
        if bits == 0 {
            return None;
        }
        // `& 63` states the index bound the set bit already implies.
        let mut best = bits.trailing_zeros() as usize & 63;
        bits &= bits - 1;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize & 63;
            bits &= bits - 1;
            if self.timers[i].key() < self.timers[best].key() {
                best = i;
            }
        }
        Some((best, self.timers[best]))
    }
}

/// The future-event list of both simulation engines: one timer slot per
/// event source, popped in `(due, seq)` order.
///
/// Each slot holds a due time and a sequence number stamped from a
/// monotone counter on every [`TimerTable::schedule`]; a word bitset
/// records which slots are armed. The next timer is the armed slot with
/// the least `(due, seq)`, found by scanning only the armed bits.
///
/// That is exactly the pop order of [`EventQueue`](crate::EventQueue),
/// which orders by time and then by a FIFO sequence taken at scheduling:
/// re-arming an armed slot takes a fresh sequence here just as
/// [`EventQueue::reschedule`](crate::EventQueue::reschedule) does there.
/// A simulator whose sources each keep at most one pending event
/// therefore replays the identical event sequence on either structure,
/// with no slab, handles or sifts here.
///
/// Slots come in blocks of 64 (timers plus one armed word), and the
/// first block is held inline: the direct engine's table and the SAN
/// executor's for models of up to 64 activities then need no pointer
/// to follow or block index to check on the per-event path.
///
/// # Example
///
/// ```
/// use ckpt_des::{SimTime, TimerTable};
///
/// let mut t = TimerTable::new(3);
/// t.schedule(2, SimTime::from_secs(1.0));
/// t.schedule(0, SimTime::from_secs(2.0));
/// t.schedule(2, SimTime::from_secs(3.0)); // re-arm: replaces slot 2
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.pop_before(SimTime::from_secs(9.0)), Some((SimTime::from_secs(2.0), 0)));
/// assert_eq!(t.pop_before(SimTime::from_secs(2.5)), None);
/// assert!(t.is_armed(2));
/// ```
#[derive(Debug, Clone)]
pub struct TimerTable {
    /// Slots `0..64`.
    low: Block,
    /// Slots `64..`: block `b` holds slots `64 (b + 1)..64 (b + 2)`.
    high: Vec<Block>,
    /// Sequence for the next schedule; FIFO tie-break among equal times.
    next_seq: u64,
    /// Due time of the most recently popped timer; no timer may be due
    /// before it (causality).
    watermark: SimTime,
}

impl TimerTable {
    /// A table of `slots` disarmed slots, numbered from 0, with the
    /// watermark at zero. The count is rounded up to a whole number of
    /// 64-slot blocks; a slot beyond the last block panics.
    #[must_use]
    pub fn new(slots: usize) -> TimerTable {
        TimerTable {
            low: Block::EMPTY,
            high: vec![Block::EMPTY; slots.div_ceil(64).saturating_sub(1)],
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Arms `slot` to fire at `due` under a fresh sequence, replacing
    /// any pending timer of that slot (see the type docs).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `due` is earlier than the most recently
    /// popped timer: scheduling into the past would violate causality and
    /// always indicates a model bug. Release builds make the same check
    /// once per pop instead (see [`TimerTable::pop_before`]), where it
    /// costs one comparison per event rather than one per schedule.
    #[inline]
    pub fn schedule(&mut self, slot: usize, due: SimTime) {
        debug_assert!(
            due >= self.watermark,
            "attempted to schedule an event at {due} before current time {}",
            self.watermark
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let block = self.block_mut(slot);
        block.timers[slot & 63] = Timer { due, seq };
        block.armed |= 1 << (slot & 63);
    }

    /// Disarms `slot`; returns whether it was armed.
    #[inline]
    pub fn cancel(&mut self, slot: usize) -> bool {
        let block = self.block_mut(slot);
        let was = block.armed & (1 << (slot & 63)) != 0;
        block.armed &= !(1 << (slot & 63));
        was
    }

    /// Whether `slot` is armed.
    #[inline]
    #[must_use]
    pub fn is_armed(&self, slot: usize) -> bool {
        let block = match slot >> 6 {
            0 => &self.low,
            b => &self.high[b - 1],
        };
        block.armed & (1 << (slot & 63)) != 0
    }

    /// Number of armed slots.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks().map(|b| b.armed.count_ones() as usize).sum()
    }

    /// True if no slot is armed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks().all(|b| b.armed == 0)
    }

    /// The armed slot with the least `(due, seq)` and its due time,
    /// without disarming it.
    #[inline]
    #[must_use]
    pub fn next(&self) -> Option<(SimTime, usize)> {
        if !self.high.is_empty() {
            return self.next_among_blocks();
        }
        self.low.argmin().map(|(slot, t)| (t.due, slot))
    }

    /// [`TimerTable::next`] for a table of more than 64 slots: the least
    /// of the blocks' minima. Out of line, so its loop does not weigh on
    /// the one-block path.
    #[inline(never)]
    fn next_among_blocks(&self) -> Option<(SimTime, usize)> {
        let mut best: Option<(usize, Timer)> = None;
        for (b, block) in self.blocks().enumerate() {
            if let Some((i, t)) = block.argmin() {
                if best.is_none_or(|(_, least)| t.key() < least.key()) {
                    best = Some((b << 6 | i, t));
                }
            }
        }
        best.map(|(slot, t)| (t.due, slot))
    }

    /// Disarms and returns the next timer ([`TimerTable::next`]) **iff**
    /// it is due at or before `limit`, advancing the watermark to its due
    /// time; otherwise leaves the table untouched and returns `None`.
    ///
    /// # Panics
    ///
    /// Panics if the next timer is due before the watermark. A timer
    /// scheduled into the past is always the next one, so this catches
    /// every such schedule that was not cancelled before the pop.
    #[inline]
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, usize)> {
        let (due, slot) = self.next()?;
        if due > limit {
            return None;
        }
        if due < self.watermark {
            scheduled_into_the_past(due, self.watermark);
        }
        self.cancel(slot);
        self.watermark = due;
        Some((due, slot))
    }

    /// The causality watermark: the due time of the most recently popped
    /// timer. Timers must not be scheduled before it.
    #[must_use]
    pub fn watermark(&self) -> SimTime {
        self.watermark
    }

    /// Every block, slot 0's first.
    fn blocks(&self) -> impl Iterator<Item = &Block> {
        std::iter::once(&self.low).chain(&self.high)
    }

    /// The block holding `slot`.
    #[inline]
    fn block_mut(&mut self, slot: usize) -> &mut Block {
        match slot >> 6 {
            0 => &mut self.low,
            b => &mut self.high[b - 1],
        }
    }
}

/// The causality check's failure, kept out of line so the check costs
/// [`TimerTable::pop_before`] one comparison.
#[cold]
#[inline(never)]
fn scheduled_into_the_past(due: SimTime, watermark: SimTime) -> ! {
    panic!("attempted to schedule an event at {due} before current time {watermark}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Pops every armed slot in order.
    fn drain(t: &mut TimerTable) -> Vec<usize> {
        std::iter::from_fn(|| t.pop_before(at(f64::MAX)).map(|(_, k)| k)).collect()
    }

    #[test]
    fn earliest_due_pops_first() {
        let mut t = TimerTable::new(17);
        t.schedule(16, at(3.0));
        t.schedule(0, at(1.0));
        t.schedule(4, at(2.0));
        assert_eq!(t.next(), Some((at(1.0), 0)));
        assert_eq!(drain(&mut t), [0, 4, 16]);
        assert_eq!(t.next(), None);
        assert_eq!(t.watermark(), at(3.0));
    }

    #[test]
    fn equal_due_times_pop_in_scheduling_order() {
        let mut t = TimerTable::new(17);
        // Scheduled against slot order, so index order would give the
        // opposite answer.
        t.schedule(15, at(5.0));
        t.schedule(1, at(5.0));
        assert_eq!(drain(&mut t), [15, 1]);
    }

    #[test]
    fn rearming_a_pending_slot_takes_a_fresh_sequence() {
        let mut t = TimerTable::new(17);
        t.schedule(8, at(5.0));
        t.schedule(9, at(5.0));
        // Re-armed at the same instant: it now follows slot 9.
        t.schedule(8, at(5.0));
        assert_eq!(drain(&mut t), [9, 8]);
    }

    #[test]
    fn a_cancelled_slot_never_pops() {
        let mut t = TimerTable::new(17);
        t.schedule(3, at(1.0));
        t.schedule(2, at(2.0));
        assert!(t.cancel(3));
        assert!(!t.cancel(3), "second cancel finds it disarmed");
        assert!(!t.is_armed(3));
        assert_eq!(drain(&mut t), [2]);
    }

    #[test]
    fn armed_count_matches_pending_timers() {
        let mut t = TimerTable::new(17);
        assert!(t.is_empty());
        for k in 0..17 {
            t.schedule(k, at(k as f64));
            assert_eq!(t.len(), k + 1);
        }
        // Re-arming replaces, it does not add.
        t.schedule(4, at(100.0));
        assert_eq!(t.len(), 17);
        t.cancel(4);
        t.cancel(4);
        assert_eq!(t.len(), 16);
        assert_eq!(drain(&mut t).len(), 16);
        assert!(t.is_empty());
    }

    #[test]
    fn slots_span_several_bitset_words() {
        let mut t = TimerTable::new(130);
        for k in [129, 64, 63, 0] {
            t.schedule(k, at(1.0));
        }
        t.schedule(100, at(0.5));
        assert_eq!(t.len(), 5);
        assert_eq!(drain(&mut t), [100, 129, 64, 63, 0]);
    }

    #[test]
    fn pop_before_is_inclusive_and_leaves_later_timers_armed() {
        let mut t = TimerTable::new(4);
        t.schedule(0, at(2.0));
        t.schedule(1, at(5.0));
        assert_eq!(t.pop_before(at(1.0)), None);
        assert_eq!(t.watermark(), SimTime::ZERO);
        assert_eq!(t.pop_before(at(2.0)), Some((at(2.0), 0)));
        assert_eq!(t.pop_before(at(3.0)), None);
        assert!(t.is_armed(1));
        assert_eq!(t.watermark(), at(2.0));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut t = TimerTable::new(2);
        t.schedule(0, at(10.0));
        t.pop_before(at(10.0));
        // Debug builds panic here, release builds at the pop.
        t.schedule(1, at(5.0));
        t.pop_before(at(20.0));
    }
}
