//! Fixed timer table: the future-event list of a simulator whose every
//! event source has at most one pending completion.

use crate::time::SimTime;

/// The pop-order key of a timer armed at `due` under sequence `seq`:
/// the due time's bits in the high word, the sequence in the low word.
/// A canonical [`SimTime`] is finite, non-negative and never `-0.0`, so
/// its IEEE-754 bits order exactly like its value, and comparing keys
/// compares `(due, seq)` lexicographically in one integer compare.
#[inline]
fn key(due: SimTime, seq: u64) -> u128 {
    u128::from(due.to_bits()) << 64 | u128::from(seq)
}

/// A timer's pop-order key, `(due, seq)`: of two armed timers, the one
/// with the lesser key pops first. The representation is private; a key
/// only comes from [`TimerTable::least_key`], [`TimerKey::first_at`] or
/// [`TimerKey::of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimerKey(u128);

impl TimerKey {
    /// A key above every key a timer can hold: the bound that excludes
    /// no timer.
    pub const NEVER: TimerKey = TimerKey(u128::MAX);

    /// The least key due at `t`: a timer's key is below it exactly when
    /// the timer is due before `t`.
    #[inline]
    #[must_use]
    pub fn first_at(t: SimTime) -> TimerKey {
        TimerKey(key(t, 0))
    }

    /// The key of a timer due at `due` under `ticket`: the key it holds
    /// once [`TimerTable::schedule_with`] arms it so, and the key a
    /// timer taken out by [`TimerTable::withdraw`] held in the table.
    #[inline]
    #[must_use]
    pub fn of(due: SimTime, ticket: Ticket) -> TimerKey {
        TimerKey(key(due, ticket.0))
    }
}

/// A sequence number taken ahead of arming: a timer armed with
/// [`TimerTable::schedule_with`] under a ticket orders among the others
/// exactly as if [`TimerTable::schedule`] had armed it when the ticket
/// was taken. The number itself stays private.
#[derive(Debug, Clone, Copy)]
pub struct Ticket(u64);

/// The due time a key was built from.
#[inline]
fn due_of(key: u128) -> SimTime {
    SimTime::from_bits((key >> 64) as u64)
}

/// Sixty-four slots: their keys and one word of armed bits.
#[derive(Debug, Clone)]
struct Block {
    /// Bit `i` set ⇔ `keys[i]` is armed.
    armed: u64,
    /// Slot `i`'s [`key`]; meaningful only while bit `i` of `armed` is
    /// set.
    keys: [u128; 64],
}

impl Block {
    const EMPTY: Block = Block {
        armed: 0,
        keys: [0; 64],
    };

    /// The armed slot with the least key and that key.
    #[inline]
    fn argmin(&self) -> Option<(usize, u128)> {
        self.argmin_among(u64::MAX)
    }

    /// [`Block::argmin`] over the armed slots whose bit is set in `mask`.
    #[inline]
    fn argmin_among(&self, mask: u64) -> Option<(usize, u128)> {
        let mut bits = self.armed & mask;
        if bits == 0 {
            return None;
        }
        // `& 63` states the index bound the set bit already implies.
        let mut best = bits.trailing_zeros() as usize & 63;
        let mut least = self.keys[best];
        bits &= bits - 1;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize & 63;
            bits &= bits - 1;
            if self.keys[i] < least {
                best = i;
                least = self.keys[i];
            }
        }
        Some((best, least))
    }
}

/// The future-event list of both simulation engines: one timer slot per
/// event source, popped in `(due, seq)` order.
///
/// Each slot holds a due time and a sequence number stamped from a
/// monotone counter on every [`TimerTable::schedule`], packed into one
/// `u128` key (the due time's bits above the sequence); a word bitset
/// records which slots are armed. The next timer is the armed slot with
/// the least key, found by scanning only the armed bits with one
/// integer compare each.
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
        block.keys[slot & 63] = key(due, seq);
        block.armed |= 1 << (slot & 63);
    }

    /// Takes the sequence number the next [`TimerTable::schedule`] would
    /// have stamped, for a timer whose due time is not known yet.
    #[inline]
    pub fn ticket(&mut self) -> Ticket {
        let seq = self.next_seq;
        self.next_seq += 1;
        Ticket(seq)
    }

    /// Arms `slot` to fire at `due` under `ticket`, replacing any pending
    /// timer of that slot: it pops exactly where a
    /// [`TimerTable::schedule`] made when the ticket was taken would pop,
    /// ties with other timers due at `due` included.
    ///
    /// # Panics
    ///
    /// As [`TimerTable::schedule`].
    #[inline]
    pub fn schedule_with(&mut self, slot: usize, due: SimTime, ticket: Ticket) {
        debug_assert!(
            due >= self.watermark,
            "attempted to schedule an event at {due} before current time {}",
            self.watermark
        );
        let block = self.block_mut(slot);
        block.keys[slot & 63] = key(due, ticket.0);
        block.armed |= 1 << (slot & 63);
    }

    /// Disarms `slot` and returns its due time and sequence, or `None`
    /// if it was not armed. [`TimerTable::schedule_with`] under the
    /// returned ticket puts it back exactly as it was: it then pops as
    /// if it had never left.
    #[inline]
    pub fn withdraw(&mut self, slot: usize) -> Option<(SimTime, Ticket)> {
        let block = self.block_mut(slot);
        let bit = 1 << (slot & 63);
        if block.armed & bit == 0 {
            return None;
        }
        block.armed &= !bit;
        let k = block.keys[slot & 63];
        Some((due_of(k), Ticket(k as u64)))
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
        self.low.argmin().map(|(slot, k)| (due_of(k), slot))
    }

    /// [`TimerTable::next`] for a table of more than 64 slots: the least
    /// of the blocks' minima. Out of line, so its loop does not weigh on
    /// the one-block path.
    #[inline(never)]
    fn next_among_blocks(&self) -> Option<(SimTime, usize)> {
        let mut best: Option<(usize, u128)> = None;
        for (b, block) in self.blocks().enumerate() {
            if let Some((i, k)) = block.argmin() {
                if best.is_none_or(|(_, least)| k < least) {
                    best = Some((b << 6 | i, k));
                }
            }
        }
        best.map(|(slot, k)| (due_of(k), slot))
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
        self.take(slot, due);
        Some((due, slot))
    }

    /// The least key among the armed slots of the first block (slots
    /// `0..64`) whose bit is set in `mask`.
    #[inline]
    #[must_use]
    pub fn least_key(&self, mask: u64) -> Option<TimerKey> {
        self.low.argmin_among(mask).map(|(_, k)| TimerKey(k))
    }

    /// Disarms `slot`, which [`TimerTable::next`] just returned, and
    /// returns its due time, advancing the watermark with the causality
    /// check of [`TimerTable::pop_before`]: the pop `pop_before` would
    /// make with a limit at or after that due time, without scanning
    /// for the next timer again.
    ///
    /// # Panics
    ///
    /// As [`TimerTable::pop_before`]. Debug builds also panic if `slot`
    /// is not the next timer.
    #[inline]
    pub fn pop_slot(&mut self, slot: usize) -> SimTime {
        debug_assert_eq!(
            self.next().map(|(_, next)| next),
            Some(slot),
            "popped slot {slot}, which is not the next timer"
        );
        let due = due_of(self.block_mut(slot).keys[slot & 63]);
        self.take(slot, due);
        due
    }

    /// Disarms `slot`, just found to be the next timer, and advances the
    /// watermark to its `due` time.
    #[inline]
    fn take(&mut self, slot: usize, due: SimTime) {
        if due < self.watermark {
            scheduled_into_the_past(due, self.watermark);
        }
        self.cancel(slot);
        self.watermark = due;
    }

    /// Records that timers held outside the table (see
    /// [`TimerTable::withdraw`]) were popped in due order, the first due
    /// at `first` and the last at `last`, by advancing the watermark to
    /// `last` with the causality check of [`TimerTable::pop_before`] on
    /// `first`.
    ///
    /// # Panics
    ///
    /// Panics if `first` is before the watermark, as
    /// [`TimerTable::pop_before`] would have on popping that timer.
    #[inline]
    pub fn advance_watermark(&mut self, first: SimTime, last: SimTime) {
        if first < self.watermark {
            scheduled_into_the_past(first, self.watermark);
        }
        debug_assert!(first <= last, "popped {last} after {first}");
        self.watermark = last;
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

/// The causality check's failure, kept out of line so the check costs a
/// pop one comparison.
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
    fn a_pop_outside_the_table_below_the_watermark_panics() {
        let mut t = TimerTable::new(2);
        t.schedule(0, at(10.0));
        t.pop_before(at(10.0));
        t.advance_watermark(at(5.0), at(12.0));
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
