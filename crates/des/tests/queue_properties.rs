//! Property-based tests of the cancellable event queue: for arbitrary
//! interleavings of schedules, cancellations and reschedules, pops must
//! come out in (time, insertion) order and exactly the non-cancelled
//! events appear.

use ckpt_des::{EventQueue, SimTime};
use proptest::prelude::*;

/// An abstract queue operation.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `now + dt`; `dt` is drawn from a coarse grid so
    /// equal times (FIFO ties) occur constantly.
    Schedule(u32),
    /// Cancel the k-th previously scheduled event (if any).
    Cancel(usize),
    /// Reschedule the k-th previously scheduled event to `now + dt`.
    Reschedule(usize, u32),
    /// Pop one event.
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u32..40).prop_map(Op::Schedule),
        1 => (0usize..64).prop_map(Op::Cancel),
        2 => ((0usize..64), (0u32..40)).prop_map(|(k, dt)| Op::Reschedule(k, dt)),
        2 => Just(Op::Pop),
    ]
}

/// A reference entry: firing time, FIFO sequence, liveness.
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: f64,
    seq: usize,
    alive: bool,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn queue_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let mut q = EventQueue::new();
        // Reference model: one entry per scheduled event, indexed like
        // `ids`; the payload is the index.
        let mut model: Vec<Entry> = Vec::new();
        let mut ids = Vec::new();
        let mut now = 0.0f64;
        let mut seq = 0usize;

        for op in ops {
            match op {
                Op::Schedule(dt) => {
                    let time = now + f64::from(dt);
                    ids.push(q.schedule(SimTime::from_secs(time), model.len()));
                    model.push(Entry { time, seq, alive: true });
                    seq += 1;
                }
                Op::Cancel(k) => {
                    if !ids.is_empty() {
                        let k = k % ids.len();
                        // The cancel succeeds iff entry k is still alive.
                        prop_assert_eq!(q.cancel(ids[k]), model[k].alive, "cancel result");
                        model[k].alive = false;
                    }
                }
                Op::Reschedule(k, dt) => {
                    if !ids.is_empty() {
                        let k = k % ids.len();
                        let time = now + f64::from(dt);
                        let moved = q.reschedule(ids[k], SimTime::from_secs(time));
                        prop_assert_eq!(moved, model[k].alive, "reschedule result");
                        // A moved event requeues at the FIFO tail.
                        if moved {
                            model[k].time = time;
                            model[k].seq = seq;
                            seq += 1;
                        }
                    }
                }
                Op::Pop => {
                    // Model pop: earliest (time, seq) alive entry.
                    let next = model
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.alive)
                        .min_by(|(_, a), (_, b)| {
                            a.time.partial_cmp(&b.time).unwrap().then(a.seq.cmp(&b.seq))
                        })
                        .map(|(i, e)| (i, e.time));
                    match (next, q.pop()) {
                        (None, None) => {}
                        (Some((i, t)), Some(ev)) => {
                            prop_assert_eq!(ev.time(), SimTime::from_secs(t));
                            prop_assert_eq!(ev.into_payload(), i);
                            model[i].alive = false;
                            now = t;
                        }
                        (m, p) => {
                            return Err(TestCaseError::fail(format!(
                                "model {m:?} vs queue {p:?}"
                            )))
                        }
                    }
                    prop_assert_eq!(q.watermark(), SimTime::from_secs(now));
                }
            }
            // len() always agrees with the model's live count.
            let live = model.iter().filter(|e| e.alive).count();
            prop_assert_eq!(q.len(), live);
        }
    }

    /// Draining any schedule-only workload yields a sorted sequence.
    #[test]
    fn drain_is_sorted(times in proptest::collection::vec(0.0f64..1e6, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some(ev) = q.pop() {
            prop_assert!(ev.time() >= last);
            last = ev.time();
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }
}
