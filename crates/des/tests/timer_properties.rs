//! Property-based tests of the timer table against the cancellable
//! event queue as oracle: for arbitrary interleavings of schedules,
//! re-arms, cancellations and bounded pops, both structures must pop
//! the same `(time, slot)` sequence and agree on which slots are
//! pending. This is the contract that lets both engines run on the
//! table and still replay the event order of the heap bit for bit.
//!
//! [`TimerTable::least_key`] is checked against the least key of the
//! slots in its mask, found by withdrawing each, and
//! [`TimerTable::pop_slot`] against [`TimerTable::pop_before`] on the
//! same table: popping the next timer by its slot leaves the table as
//! `pop_before` would.
//!
//! A ticketed arm, [`TimerTable::schedule_with`], is checked against a
//! plain [`TimerTable::schedule`] made when the ticket was taken: held
//! back until it could be the next pop, it pops the same.
//!
//! A withdrawn slot, [`TimerTable::withdraw`], put back under its own
//! ticket pops exactly as if it had never left, and a timer popped
//! outside the table ([`TimerTable::advance_watermark`]) leaves the
//! table as [`TimerTable::pop_before`] would.

use ckpt_des::{EventId, EventQueue, SimTime, Ticket, TimerKey, TimerTable};
use proptest::prelude::*;

/// More than one bitset word of slots, so the scans cross a word
/// boundary.
const MAX_SLOTS: usize = 70;

/// An abstract operation; slot indices are reduced modulo the table
/// size.
#[derive(Debug, Clone)]
enum Op {
    /// Arm (or re-arm) a slot at a time relative to the watermark.
    Schedule(usize, Due),
    /// Disarm a slot, armed or not.
    Cancel(usize),
    /// Pop the next timer if it is due by a time relative to the
    /// watermark.
    PopBefore(Due),
}

/// A time relative to the current watermark `w`.
#[derive(Debug, Clone, Copy)]
enum Due {
    /// `w + dt` seconds for a small integer `dt`, so equal due times are
    /// common and the sequence tie-break decides the order.
    Step(u32),
    /// The time `n` units in the last place above `w`: due times that
    /// differ only in their low mantissa bits.
    Ulps(u64),
    /// `w + secs`, with `secs` anywhere from 1e-300 to 1e300; a tiny
    /// `secs` rounds back to `w` itself.
    Plus(f64),
    /// `SimTime::from_secs(-0.0)` when `w` is zero, else `w`.
    NegZero,
}

impl Due {
    fn at(self, w: SimTime) -> SimTime {
        match self {
            Due::Step(dt) => w + SimTime::from_secs(f64::from(dt)),
            Due::Ulps(n) => SimTime::from_secs(f64::from_bits(w.as_secs().to_bits() + n)),
            Due::Plus(secs) => w + SimTime::from_secs(secs),
            Due::NegZero => SimTime::from_secs(-0.0).max(w),
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => ((0..MAX_SLOTS), (0u32..4)).prop_map(|(k, dt)| Op::Schedule(k, Due::Step(dt))),
        2 => (0..MAX_SLOTS).prop_map(Op::Cancel),
        3 => (0u32..4).prop_map(|dt| Op::PopBefore(Due::Step(dt))),
    ]
}

/// Due times where the key's bit order has to match value order: a few
/// ulps apart, across 600 decades, and the canonicalized `-0.0`.
fn bit_level_due() -> impl Strategy<Value = Due> {
    prop_oneof![
        2 => (0u32..4).prop_map(Due::Step),
        4 => (0u64..4).prop_map(Due::Ulps),
        3 => ((1.0f64..10.0), (0u32..600)).prop_map(|(m, e)| Due::Plus(m * 10f64.powi(e as i32 - 300))),
        1 => Just(Due::NegZero),
    ]
}

fn bit_level_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => ((0..MAX_SLOTS), bit_level_due()).prop_map(|(k, due)| Op::Schedule(k, due)),
        2 => (0..MAX_SLOTS).prop_map(Op::Cancel),
        3 => bit_level_due().prop_map(Op::PopBefore),
    ]
}

/// Replays `ops` on a table of `slots` slots and on the heap, requiring
/// the same pops, the same armed set and the same watermark after every
/// operation, then drains both.
fn replay_against_heap(slots: usize, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut table = TimerTable::new(slots);
    let mut heap = EventQueue::new();
    // The heap's handle per slot (stale once fired or cancelled) and
    // its view of which slots are pending.
    let mut ids: Vec<Option<EventId>> = vec![None; slots];
    let mut pending = vec![false; slots];
    let mut popped = Vec::new();

    for op in ops {
        match op {
            Op::Schedule(k, due) => {
                let (k, t) = (k % slots, due.at(heap.watermark()));
                table.schedule(k, t);
                // An armed slot moves under a fresh sequence; a
                // disarmed one is scheduled anew.
                let moved = ids[k].is_some_and(|id| heap.reschedule(id, t));
                if !moved {
                    ids[k] = Some(heap.schedule(t, k));
                }
                prop_assert_eq!(moved, pending[k], "re-arm of slot {}", k);
                pending[k] = true;
            }
            Op::Cancel(k) => {
                let k = k % slots;
                let cancelled = ids[k].is_some_and(|id| heap.cancel(id));
                prop_assert_eq!(table.cancel(k), cancelled, "cancel of slot {}", k);
                pending[k] = false;
            }
            Op::PopBefore(due) => {
                let limit = due.at(heap.watermark());
                let from_heap = heap.pop_before(limit).map(|ev| (ev.time(), *ev.payload()));
                let from_table = table.pop_before(limit);
                prop_assert_eq!(from_table, from_heap);
                // Equal times must also be equal bits: the table
                // rebuilds each due time from its key.
                prop_assert_eq!(
                    from_table.map(|(t, _)| t.as_secs().to_bits()),
                    from_heap.map(|(t, _)| t.as_secs().to_bits())
                );
                if let Some((t, k)) = from_heap {
                    pending[k] = false;
                    popped.push((t, k));
                }
                prop_assert_eq!(table.watermark(), heap.watermark());
            }
        }
        prop_assert_eq!(table.len(), heap.len());
        prop_assert_eq!(table.is_empty(), heap.is_empty());
        for (k, &p) in pending.iter().enumerate() {
            prop_assert_eq!(table.is_armed(k), p, "armed state of slot {}", k);
        }
    }
    // Draining what is left keeps the two in lock step too.
    while let Some(ev) = heap.pop() {
        popped.push((ev.time(), *ev.payload()));
        prop_assert_eq!(
            table.pop_before(SimTime::from_secs(f64::MAX)),
            Some((ev.time(), *ev.payload()))
        );
    }
    prop_assert!(table.is_empty());
    prop_assert!(
        popped.windows(2).all(|w| w[0].0 <= w[1].0),
        "pops out of time order"
    );
    Ok(())
}

/// An operation of the least-key and slot-pop property.
#[derive(Debug, Clone)]
enum KeyOp {
    /// Schedule, re-arm, cancel or pop as in [`Op`].
    Plain(Op),
    /// The least key among the first-block slots in the mask.
    LeastKey(u64),
    /// Pop the next timer by its slot.
    PopSlot,
}

fn key_op_strategy() -> impl Strategy<Value = KeyOp> {
    let mask = prop_oneof![
        1 => 0..=u64::MAX,
        2 => (0..64usize, 0..64usize).prop_map(|(a, b)| 1 << a | 1 << b),
    ];
    prop_oneof![
        6 => op_strategy().prop_map(KeyOp::Plain),
        2 => mask.prop_map(KeyOp::LeastKey),
        2 => Just(KeyOp::PopSlot),
    ]
}

/// Whether `table` has the same armed slots as `other` and the same
/// watermark.
fn same_state(table: &TimerTable, other: &TimerTable, slots: usize) -> bool {
    table.watermark() == other.watermark()
        && (0..slots).all(|k| table.is_armed(k) == other.is_armed(k))
}

/// The least key among the armed first-block slots in `mask`, by
/// withdrawing each from a copy of `table`.
fn least_key_by_withdrawal(table: &TimerTable, mask: u64) -> Option<TimerKey> {
    let mut copy = table.clone();
    (0..64)
        .filter(|&k| mask & 1 << k != 0)
        .filter_map(|k| copy.withdraw(k))
        .map(|(due, ticket)| TimerKey::of(due, ticket))
        .min()
}

/// Replays `ops` on a table of `slots` slots, checking every least key
/// against [`least_key_by_withdrawal`] and every pop by slot against
/// `pop_before` on a copy of the table.
fn keys_and_slot_pops_agree(slots: usize, ops: Vec<KeyOp>) -> Result<(), TestCaseError> {
    let mut table = TimerTable::new(slots);
    for op in ops {
        let w = table.watermark();
        match op {
            KeyOp::Plain(Op::Schedule(k, due)) => table.schedule(k % slots, due.at(w)),
            KeyOp::Plain(Op::Cancel(k)) => {
                table.cancel(k % slots);
            }
            KeyOp::Plain(Op::PopBefore(due)) => {
                table.pop_before(due.at(w));
            }
            KeyOp::LeastKey(mask) => {
                prop_assert_eq!(table.least_key(mask), least_key_by_withdrawal(&table, mask));
            }
            KeyOp::PopSlot => {
                let Some((due, slot)) = table.next() else {
                    continue;
                };
                let mut oracle = table.clone();
                prop_assert_eq!(oracle.pop_before(due), Some((due, slot)));
                let popped = table.pop_slot(slot);
                prop_assert_eq!(popped.as_secs().to_bits(), due.as_secs().to_bits());
                prop_assert!(same_state(&table, &oracle, slots));
                prop_assert_eq!(table.len(), oracle.len());
            }
        }
    }
    Ok(())
}

/// An operation of the ticket property.
#[derive(Debug, Clone)]
enum TicketOp {
    /// Schedule, re-arm, cancel or pop as in [`Op`].
    Plain(Op),
    /// Take a ticket for a slot due at a time relative to the watermark,
    /// and arm it only once it could be the next pop.
    Defer(usize, Due),
}

fn ticket_op_strategy() -> impl Strategy<Value = TicketOp> {
    let due = prop_oneof![
        3 => (0u32..4).prop_map(Due::Step),
        1 => (0u64..3).prop_map(Due::Ulps),
    ];
    prop_oneof![
        6 => op_strategy().prop_map(TicketOp::Plain),
        4 => ((0..MAX_SLOTS), due).prop_map(|(k, due)| TicketOp::Defer(k, due)),
    ]
}

/// Arms every held ticket of `table` due at or before `bound`, as a
/// deferring executor does before a pop.
fn arm_held(table: &mut TimerTable, held: &mut [Option<(SimTime, Ticket)>], bound: SimTime) {
    for (k, h) in held.iter_mut().enumerate() {
        if let Some((due, ticket)) = *h {
            if due <= bound {
                table.schedule_with(k, due, ticket);
                *h = None;
            }
        }
    }
}

/// Replays `ops` on a table that schedules every timer at once and on
/// one that takes a ticket for each [`TicketOp::Defer`] and arms it
/// under that ticket only before a pop that could pop it: only those
/// due by the lesser of the limit and the armed timers' next due time.
/// Both must pop the same slots at the same due bits, keep the same
/// watermark, and hold the same pending set throughout.
fn ticketed_arms_pop_like_plain_ones(
    slots: usize,
    ops: Vec<TicketOp>,
) -> Result<(), TestCaseError> {
    let mut plain = TimerTable::new(slots);
    let mut ticketed = TimerTable::new(slots);
    let mut held: Vec<Option<(SimTime, Ticket)>> = vec![None; slots];
    for op in ops {
        let w = plain.watermark();
        match op {
            TicketOp::Defer(k, due) => {
                let (k, t) = (k % slots, due.at(w));
                plain.schedule(k, t);
                ticketed.cancel(k);
                held[k] = Some((t, ticketed.ticket()));
            }
            TicketOp::Plain(Op::Schedule(k, due)) => {
                let (k, t) = (k % slots, due.at(w));
                plain.schedule(k, t);
                ticketed.schedule(k, t);
                held[k] = None;
            }
            TicketOp::Plain(Op::Cancel(k)) => {
                let k = k % slots;
                let was = ticketed.cancel(k) || held[k].take().is_some();
                prop_assert_eq!(plain.cancel(k), was, "cancel of slot {}", k);
            }
            TicketOp::Plain(Op::PopBefore(due)) => {
                let limit = due.at(w);
                let bound = ticketed.next().map_or(limit, |(t, _)| t.min(limit));
                arm_held(&mut ticketed, &mut held, bound);
                let expected = plain.pop_before(limit);
                let got = ticketed.pop_before(limit);
                prop_assert_eq!(got, expected);
                prop_assert_eq!(
                    got.map(|(t, _)| t.as_secs().to_bits()),
                    expected.map(|(t, _)| t.as_secs().to_bits())
                );
                prop_assert_eq!(ticketed.watermark(), plain.watermark());
            }
        }
        let pending = held.iter().filter(|h| h.is_some()).count();
        prop_assert_eq!(plain.len(), ticketed.len() + pending);
        for (k, h) in held.iter().enumerate() {
            prop_assert_eq!(plain.is_armed(k), ticketed.is_armed(k) || h.is_some());
            prop_assert!(
                !(ticketed.is_armed(k) && h.is_some()),
                "slot {} both armed and held",
                k
            );
        }
    }
    let end = SimTime::from_secs(f64::MAX);
    arm_held(&mut ticketed, &mut held, end);
    while let Some(expected) = plain.pop_before(end) {
        prop_assert_eq!(ticketed.pop_before(end), Some(expected));
    }
    prop_assert!(ticketed.is_empty());
    Ok(())
}

/// An operation of the withdrawal property.
#[derive(Debug, Clone)]
enum WithdrawOp {
    /// Schedule, re-arm, cancel or pop as in [`Op`].
    Plain(Op),
    /// Take a slot out of the table, to be put back before the next pop.
    Withdraw(usize),
    /// Pop the next timer, if due by a time relative to the watermark,
    /// by taking it out and advancing the watermark past it.
    PopOutside(Due),
}

fn withdraw_op_strategy() -> impl Strategy<Value = WithdrawOp> {
    prop_oneof![
        6 => op_strategy().prop_map(WithdrawOp::Plain),
        3 => (0..MAX_SLOTS).prop_map(WithdrawOp::Withdraw),
        2 => (0u32..4).prop_map(|dt| WithdrawOp::PopOutside(Due::Step(dt))),
    ]
}

/// Puts every withdrawn slot of `table` back under its own ticket.
fn put_back(table: &mut TimerTable, held: &mut [Option<(SimTime, Ticket)>]) {
    for (k, h) in held.iter_mut().enumerate() {
        if let Some((due, ticket)) = h.take() {
            table.schedule_with(k, due, ticket);
        }
    }
}

/// Replays `ops` on a plain table and on one whose slots are withdrawn
/// and put back before the next pop, and some of whose pops happen
/// outside the table. Both must pop the same slots at the same due
/// bits, keep the same watermark and hold the same pending set; a
/// withdrawn slot's `(due, ticket)` must rebuild the key it held.
fn withdrawn_slots_pop_as_if_never_taken(
    slots: usize,
    ops: Vec<WithdrawOp>,
) -> Result<(), TestCaseError> {
    let mut plain = TimerTable::new(slots);
    let mut moved = TimerTable::new(slots);
    let mut held: Vec<Option<(SimTime, Ticket)>> = vec![None; slots];
    for op in ops {
        let w = plain.watermark();
        match op {
            WithdrawOp::Withdraw(k) => {
                let k = k % slots;
                if held[k].is_none() {
                    let key = (k < 64).then(|| moved.least_key(1 << k)).flatten();
                    held[k] = moved.withdraw(k);
                    prop_assert_eq!(held[k].is_some(), plain.is_armed(k), "slot {}", k);
                    prop_assert!(!moved.is_armed(k));
                    if let (Some(key), Some((due, ticket))) = (key, held[k]) {
                        prop_assert_eq!(TimerKey::of(due, ticket), key, "slot {}", k);
                    }
                }
            }
            WithdrawOp::Plain(Op::Schedule(k, due)) => {
                let (k, t) = (k % slots, due.at(w));
                plain.schedule(k, t);
                moved.schedule(k, t);
                held[k] = None;
            }
            WithdrawOp::Plain(Op::Cancel(k)) => {
                let k = k % slots;
                let was = moved.cancel(k) || held[k].take().is_some();
                prop_assert_eq!(plain.cancel(k), was, "cancel of slot {}", k);
            }
            WithdrawOp::Plain(Op::PopBefore(due)) => {
                let limit = due.at(w);
                put_back(&mut moved, &mut held);
                let expected = plain.pop_before(limit);
                let got = moved.pop_before(limit);
                prop_assert_eq!(got, expected);
                prop_assert_eq!(
                    got.map(|(t, _)| t.as_secs().to_bits()),
                    expected.map(|(t, _)| t.as_secs().to_bits())
                );
            }
            WithdrawOp::PopOutside(due) => {
                let limit = due.at(w);
                put_back(&mut moved, &mut held);
                let expected = plain.pop_before(limit);
                let got = match moved.next() {
                    Some((t, k)) if t <= limit => {
                        let (due, _) = moved.withdraw(k).expect("the next slot is armed");
                        prop_assert_eq!(due.as_secs().to_bits(), t.as_secs().to_bits());
                        moved.advance_watermark(due, due);
                        Some((due, k))
                    }
                    _ => None,
                };
                prop_assert_eq!(got, expected);
            }
        }
        prop_assert_eq!(moved.watermark(), plain.watermark());
        let pending = held.iter().filter(|h| h.is_some()).count();
        prop_assert_eq!(plain.len(), moved.len() + pending);
        for (k, h) in held.iter().enumerate() {
            prop_assert_eq!(plain.is_armed(k), moved.is_armed(k) || h.is_some());
        }
    }
    put_back(&mut moved, &mut held);
    let end = SimTime::from_secs(f64::MAX);
    while let Some(expected) = plain.pop_before(end) {
        prop_assert_eq!(moved.pop_before(end), Some(expected));
    }
    prop_assert!(moved.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Integer-step due times, so a withdrawn timer often ties with
    /// another and only its ticket orders them once it is back.
    #[test]
    fn a_withdrawn_slot_put_back_pops_as_if_it_never_left(
        slots in 1..=MAX_SLOTS,
        ops in proptest::collection::vec(withdraw_op_strategy(), 1..400),
    ) {
        withdrawn_slots_pop_as_if_never_taken(slots, ops)?;
    }

    /// Integer-step due times, so a held timer often ties with an armed
    /// one and only the ticket's sequence orders them.
    #[test]
    fn a_ticketed_arm_pops_like_an_arm_at_ticket_time(
        slots in 1..=MAX_SLOTS,
        ops in proptest::collection::vec(ticket_op_strategy(), 1..400),
    ) {
        ticketed_arms_pop_like_plain_ones(slots, ops)?;
    }

    /// Schedules on integer steps, so due-time ties are common and only
    /// the sequence orders them.
    #[test]
    fn slot_pops_and_least_keys_match_their_oracles(
        slots in 1..=MAX_SLOTS,
        ops in proptest::collection::vec(key_op_strategy(), 1..400),
    ) {
        keys_and_slot_pops_agree(slots, ops)?;
    }

    #[test]
    fn table_pops_like_the_heap(
        slots in 1..=MAX_SLOTS,
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        replay_against_heap(slots, ops)?;
    }

    /// The same contract where the packed `(due, seq)` key must order
    /// like the pair: due times a few ulps apart, from 1e-300 to 1e300
    /// above the watermark, and `-0.0`.
    #[test]
    fn table_pops_like_the_heap_at_bit_level_due_times(
        slots in 1..=MAX_SLOTS,
        ops in proptest::collection::vec(bit_level_op_strategy(), 1..400),
    ) {
        replay_against_heap(slots, ops)?;
    }
}
