//! The direct simulator's future-event list: one timer per event kind.
//!
//! Every [`Event`] kind has at most one outstanding instance (the
//! simulator replaces a kind's pending instance whenever it schedules
//! that kind again), so the future-event list is a fixed table of
//! [`Event::COUNT`] entries rather than a general priority queue. Each
//! entry holds a due time and a sequence number stamped from a monotone
//! counter on every schedule; a bit mask records which entries are
//! armed. The next event is the armed entry with the least
//! `(due, seq)`.
//!
//! That is exactly the pop order of the general event queue in
//! `ckpt_des`, which orders by time and then by a FIFO sequence taken
//! at scheduling: a re-armed kind takes a fresh sequence here just as a
//! cancel followed by a schedule does there. The table therefore replays the identical
//! event sequence, RNG stream and metrics, at a fraction of the cost.

use super::events::Event;
use ckpt_des::SimTime;

// The armed set is a `u32` bit mask.
const _: () = assert!(Event::COUNT <= 32);

/// One entry of the table (meaningful only while its kind is armed).
#[derive(Debug, Clone, Copy, Default)]
struct Timer {
    due: SimTime,
    seq: u64,
}

/// Fixed timer table, one entry per [`Event`] kind (see module docs).
#[derive(Debug, Default)]
pub(crate) struct Timers {
    timers: [Timer; Event::COUNT],
    /// Bit `k` set ⇔ the kind with discriminant `k` is pending.
    armed: u32,
    /// Sequence for the next schedule; FIFO tie-break among equal times.
    next_seq: u64,
}

impl Timers {
    /// Arms `event` to fire at `due`, replacing any pending instance.
    pub(crate) fn schedule(&mut self, event: Event, due: SimTime) {
        let k = event as usize;
        self.timers[k] = Timer {
            due,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.armed |= 1 << k;
    }

    /// Disarms `event` (a no-op if it is not pending).
    pub(crate) fn cancel(&mut self, event: Event) {
        self.armed &= !(1 << event as usize);
    }

    /// Whether `event` is pending.
    pub(crate) fn is_armed(&self, event: Event) -> bool {
        self.armed & (1 << event as usize) != 0
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.armed.count_ones() as usize
    }

    /// The pending event with the least `(due, seq)`, without disarming
    /// it.
    pub(crate) fn next(&self) -> Option<(SimTime, Event)> {
        let mut bits = self.armed;
        if bits == 0 {
            return None;
        }
        let mut best = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        while bits != 0 {
            let k = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let (t, b) = (self.timers[k], self.timers[best]);
            if (t.due, t.seq) < (b.due, b.seq) {
                best = k;
            }
        }
        Some((self.timers[best].due, Event::ALL[best]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Pops every pending event in order.
    fn drain(t: &mut Timers) -> Vec<Event> {
        let mut out = Vec::new();
        while let Some((_, ev)) = t.next() {
            t.cancel(ev);
            out.push(ev);
        }
        out
    }

    #[test]
    fn earliest_due_pops_first() {
        let mut t = Timers::default();
        t.schedule(Event::WindowClose, at(3.0));
        t.schedule(Event::CheckpointTrigger, at(1.0));
        t.schedule(Event::DumpDone, at(2.0));
        assert_eq!(t.next(), Some((at(1.0), Event::CheckpointTrigger)));
        assert_eq!(
            drain(&mut t),
            [
                Event::CheckpointTrigger,
                Event::DumpDone,
                Event::WindowClose
            ]
        );
        assert_eq!(t.next(), None);
    }

    #[test]
    fn equal_due_times_pop_in_scheduling_order() {
        let mut t = Timers::default();
        // Scheduled against discriminant order, so index order would
        // give the opposite answer.
        t.schedule(Event::RebootDone, at(5.0));
        t.schedule(Event::QuiesceArrive, at(5.0));
        assert_eq!(drain(&mut t), [Event::RebootDone, Event::QuiesceArrive]);
    }

    #[test]
    fn rearming_a_pending_kind_takes_a_fresh_sequence() {
        let mut t = Timers::default();
        t.schedule(Event::ComputeFailure, at(5.0));
        t.schedule(Event::IoFailure, at(5.0));
        // Re-armed at the same instant: it now follows IoFailure.
        t.schedule(Event::ComputeFailure, at(5.0));
        assert_eq!(drain(&mut t), [Event::IoFailure, Event::ComputeFailure]);
    }

    #[test]
    fn a_cancelled_kind_never_pops() {
        let mut t = Timers::default();
        t.schedule(Event::MasterTimeout, at(1.0));
        t.schedule(Event::CoordinationDone, at(2.0));
        t.cancel(Event::MasterTimeout);
        t.cancel(Event::MasterTimeout);
        assert!(!t.is_armed(Event::MasterTimeout));
        assert_eq!(drain(&mut t), [Event::CoordinationDone]);
    }

    #[test]
    fn armed_count_matches_pending_events() {
        let mut t = Timers::default();
        assert_eq!(t.len(), 0);
        for (i, &ev) in Event::ALL.iter().enumerate() {
            t.schedule(ev, at(i as f64));
            assert_eq!(t.len(), i + 1);
        }
        // Re-arming replaces, it does not add.
        t.schedule(Event::DumpDone, at(100.0));
        assert_eq!(t.len(), Event::COUNT);
        t.cancel(Event::DumpDone);
        t.cancel(Event::DumpDone);
        assert_eq!(t.len(), Event::COUNT - 1);
        assert_eq!(drain(&mut t).len(), Event::COUNT - 1);
        assert_eq!(t.len(), 0);
    }
}
