//! The direct simulator's future-event list: one timer per event kind.
//!
//! Every [`Event`] kind has at most one outstanding instance (the
//! simulator replaces a kind's pending instance whenever it schedules
//! that kind again), so the future-event list is a
//! [`TimerTable`] with one slot per kind, the same table the SAN
//! executor runs on. This module only maps kinds to slots and back.

use super::events::Event;
use ckpt_des::{SimTime, TimerTable};

/// [`TimerTable`] addressed by [`Event`] kind (see module docs).
#[derive(Debug)]
pub(crate) struct Timers(TimerTable);

impl Default for Timers {
    fn default() -> Self {
        Timers(TimerTable::new(Event::COUNT))
    }
}

impl Timers {
    /// Arms `event` to fire at `due`, replacing any pending instance.
    pub(crate) fn schedule(&mut self, event: Event, due: SimTime) {
        self.0.schedule(event as usize, due);
    }

    /// Disarms `event` (a no-op if it is not pending).
    pub(crate) fn cancel(&mut self, event: Event) {
        self.0.cancel(event as usize);
    }

    /// Whether `event` is pending.
    pub(crate) fn is_armed(&self, event: Event) -> bool {
        self.0.is_armed(event as usize)
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// The pending event with the least `(due, seq)`, without disarming
    /// it.
    pub(crate) fn next(&self) -> Option<(SimTime, Event)> {
        self.0.next().map(|(t, k)| (t, Event::ALL[k]))
    }

    /// Disarms and returns the next pending event iff it is due at or
    /// before `limit`.
    pub(crate) fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, Event)> {
        self.0.pop_before(limit).map(|(t, k)| (t, Event::ALL[k]))
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
