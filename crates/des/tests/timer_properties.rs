//! Property-based tests of the timer table against the cancellable
//! event queue as oracle: for arbitrary interleavings of schedules,
//! re-arms, cancellations and bounded pops, both structures must pop
//! the same `(time, slot)` sequence and agree on which slots are
//! pending. This is the contract that lets both engines run on the
//! table and still replay the event order of the heap bit for bit.

use ckpt_des::{EventId, EventQueue, SimTime, TimerTable};
use proptest::prelude::*;

/// More than one bitset word of slots, so the scans cross a word
/// boundary.
const MAX_SLOTS: usize = 70;

/// An abstract operation; slot indices are reduced modulo the table
/// size.
#[derive(Debug, Clone)]
enum Op {
    /// Arm (or re-arm) a slot at `watermark + dt`; `dt` comes from a
    /// small integer set so equal due times are common and the sequence
    /// tie-break decides the order.
    Schedule(usize, u32),
    /// Disarm a slot, armed or not.
    Cancel(usize),
    /// Pop the next timer if it is due by `watermark + dt`.
    PopBefore(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => ((0..MAX_SLOTS), (0u32..4)).prop_map(|(k, dt)| Op::Schedule(k, dt)),
        2 => (0..MAX_SLOTS).prop_map(Op::Cancel),
        3 => (0u32..4).prop_map(Op::PopBefore),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn table_pops_like_the_heap(
        slots in 1..=MAX_SLOTS,
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let mut table = TimerTable::new(slots);
        let mut heap = EventQueue::new();
        // The heap's handle per slot (stale once fired or cancelled) and
        // its view of which slots are pending.
        let mut ids: Vec<Option<EventId>> = vec![None; slots];
        let mut pending = vec![false; slots];
        let mut popped = Vec::new();

        for op in ops {
            let at = |dt: u32| heap.watermark() + SimTime::from_secs(f64::from(dt));
            match op {
                Op::Schedule(k, dt) => {
                    let (k, t) = (k % slots, at(dt));
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
                Op::PopBefore(dt) => {
                    let limit = at(dt);
                    let from_heap = heap.pop_before(limit).map(|ev| (ev.time(), *ev.payload()));
                    prop_assert_eq!(table.pop_before(limit), from_heap);
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
        prop_assert!(popped.windows(2).all(|w| w[0].0 <= w[1].0), "pops out of time order");
    }
}
