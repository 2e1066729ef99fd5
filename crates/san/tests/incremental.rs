//! The incremental scheduler on nets built to stress it.
//!
//! The scheduler's contract is **bit-identity** with the full scan, the
//! executor that visits every activity after every event and checks
//! enabling by walking its definition: the same firing sequence, RNG
//! draw order, reward values and final marking on the same net and
//! seed. Debug builds (the test profile among them) check that on every
//! event: each settle round fires what the full scan would fire, no
//! visit the scheduler skipped would have changed a schedule, and every
//! cached rate equals a fresh evaluation (DESIGN §7d). These tests run
//! those checks on hand-crafted nets covering every feature that
//! interacts with scheduling (gate predicates, `Resample` timers,
//! instantaneous priorities, probabilistic cases, fluid places,
//! rewards) and on proptest-generated nets, and require each run to
//! repeat itself exactly.

use ckpt_des::SimTime;
use ckpt_san::{
    Delay, Pred, Reactivation, RewardSpec, San, SanBuilder, SanError, SanObserver, Simulator,
};
use ckpt_stats::Dist;
use proptest::prelude::*;

/// Records every firing and reward update, exact to the bit.
#[derive(Default, PartialEq, Debug)]
struct Recorder {
    /// (time bits, activity name) per firing.
    firings: Vec<(u64, String)>,
    /// (time bits, reward name, total bits) per impulse accrual.
    rewards: Vec<(u64, String, u64)>,
}

impl SanObserver for Recorder {
    fn activity_fired(&mut self, at: SimTime, name: &str, _marking: &ckpt_san::Marking) {
        self.firings
            .push((at.as_secs().to_bits(), name.to_string()));
    }

    fn reward_updated(&mut self, at: SimTime, name: &str, total: f64) {
        self.rewards
            .push((at.as_secs().to_bits(), name.to_string(), total.to_bits()));
    }
}

/// Everything a run shows: firings and impulses, final marking, event
/// count and reward totals.
type Observed = (Recorder, ckpt_san::Marking, u64, Vec<(u64, u64)>);

/// Runs `san` and returns everything observable.
fn run(san: &San, seed: u64, horizon: f64) -> Observed {
    let mut rec = Recorder::default();
    let mut sim = Simulator::new(san, seed).expect("init");
    sim.add_reward(RewardSpec::rate("window", |_| 1.0)).unwrap();
    if let Some(a0) = san.activity_by_name("a0") {
        sim.add_reward(RewardSpec::impulse_only("fires").with_impulse(a0, |_| 1.0))
            .unwrap();
    }
    sim.set_observer(&mut rec);
    sim.run_for(SimTime::from_secs(horizon)).expect("run");
    let marking = sim.marking().clone();
    let events = sim.events_processed();
    let report = sim.reward_report();
    let mut rewards = Vec::new();
    for name in ["window", "fires"] {
        if let Ok(v) = report.value(name) {
            rewards.push((v.total.to_bits(), v.impulse_count));
        }
    }
    sim.clear_observer();
    (rec, marking, events, rewards)
}

/// Runs `san` twice under the per-event checks and asserts the runs
/// agree on every observable output and fired something.
fn assert_checked_run(san: &San, seed: u64, horizon: f64) {
    let first = run(san, seed, horizon);
    assert!(first.2 > 0, "nothing fired (seed {seed})");
    assert_eq!(
        first,
        run(san, seed, horizon),
        "rerun diverged (seed {seed})"
    );
}

/// A deliberately gnarly net: a token ring whose activities carry gates
/// reading a place two steps ahead, `Resample` timers with
/// marking-modulated rates, priority-ordered instantaneous drains, and a
/// marking-weighted probabilistic case, plus a fluid accumulator.
fn mixed_net(n: usize, resample: &[bool]) -> San {
    let mut b = SanBuilder::new("mixed");
    let places: Vec<_> = (0..n)
        .map(|i| b.place(format!("p{i}"), if i == 0 { 3 } else { 0 }))
        .collect();
    let sink = b.place("sink", 0);
    let acc = b.fluid_place("acc", 0.0);
    let p0 = places[0];
    b.flow(acc, move |m| if m.has_token(p0) { 1.5 } else { 0.25 });

    for i in 0..n {
        let next = places[(i + 1) % n];
        let watch = places[(i + 2) % n];
        let delay = if resample[i % resample.len()] {
            // Marking-modulated rate: only correct under Resample.
            Delay::from_fn(move |m, rng| {
                let rate = 1.0 + m.tokens(watch) as f64;
                rng.exponential(rate)
            })
        } else {
            Delay::from(Dist::exponential_mean(0.5 + 0.3 * i as f64))
        };
        let mut ab = b
            .timed_activity(format!("a{i}"), delay)
            .input_arc(places[i], 1)
            .enabled_if(&format!("g{i}"), Pred::at_least(watch, 4).negate());
        if resample[i % resample.len()] {
            ab = ab.reactivation(Reactivation::Resample);
        }
        if i == 0 {
            // Marking-dependent case weights: each multi-case firing
            // draws randomness, so any skipped or extra visit shows up.
            ab.case_weighted_by(
                move |m| 1.0 + m.tokens(p0) as f64,
                |c| c.output_arc(next, 1),
            )
            .case(1.0, |c| c.output_arc(next, 1).output_arc(sink, 1))
            .build();
        } else {
            ab.output_arc(next, 1).build();
        }
    }
    // Priority-ordered instantaneous drains: consume two tokens, pass one
    // on, bank one — net token loss, so settling always terminates.
    for i in (0..n).step_by(2) {
        b.instantaneous_activity(format!("drain{i}"), (i % 3) as u32)
            .input_arc(places[i], 2)
            .output_arc(places[(i + 1) % n], 1)
            .output_arc(sink, 1)
            .build();
    }
    // Refill so the ring never starves: sink tokens trickle back.
    b.timed_activity("refill", Delay::from(Dist::exponential_mean(0.7)))
        .input_arc(sink, 1)
        .output_arc(places[0], 1)
        .build();
    b.build().expect("mixed net is well-formed")
}

#[test]
fn mixed_net_is_bit_identical_across_schedulers() {
    let san = mixed_net(5, &[false, true]);
    for seed in [0, 1, 7, 42, 1234] {
        assert_checked_run(&san, seed, 300.0);
    }
}

#[test]
fn keep_only_net_is_bit_identical() {
    let san = mixed_net(6, &[false]);
    for seed in [3, 99] {
        assert_checked_run(&san, seed, 500.0);
    }
}

#[test]
fn livelock_errors_match_across_schedulers() {
    // A timed activity arms an instantaneous ping-pong pair mid-run, so
    // the livelock is detected by the event loop (not initialization).
    let mut b = SanBuilder::new("late_livelock");
    let fuse = b.place("fuse", 1);
    let a = b.place("a", 0);
    let c = b.place("c", 0);
    b.timed_activity("arm", Delay::from(Dist::deterministic(1.0)))
        .input_arc(fuse, 1)
        .output_arc(a, 1)
        .build();
    b.instantaneous_activity("ab", 0)
        .input_arc(a, 1)
        .output_arc(c, 1)
        .build();
    b.instantaneous_activity("ba", 0)
        .input_arc(c, 1)
        .output_arc(a, 1)
        .build();
    let san = b.build().unwrap();
    let mut sim = Simulator::new(&san, 0).unwrap();
    let err = sim.run_for(SimTime::from_secs(10.0)).unwrap_err();
    assert!(
        matches!(err, SanError::InstantaneousLivelock { .. }),
        "the livelock must be detected, got {err:?}"
    );
}

#[test]
fn refiring_with_no_dependent_dirty_places_is_rescheduled() {
    // An always-enabled timed activity whose only effect is a fluid
    // write: its firing dirties no discrete place at all, so only the
    // explicit "revisit the fired activity" rule reschedules it.
    let mut b = SanBuilder::new("self_loop");
    let acc = b.fluid_place("acc", 0.0);
    b.timed_activity("tick", Delay::from(Dist::deterministic(2.0)))
        .effect("bump", move |m| {
            let v = m.fluid(acc);
            m.set_fluid(acc, v + 1.0);
        })
        .build();
    let san = b.build().unwrap();
    let mut sim = Simulator::new(&san, 0).unwrap();
    sim.run_until(SimTime::from_secs(10.0)).unwrap();
    assert_eq!(
        sim.marking().fluid(acc),
        5.0,
        "the self-loop must keep ticking"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Randomized nets: whatever the mix of Resample timers, every
    /// event passes the full-scan checks and the run repeats exactly.
    #[test]
    fn random_nets_are_bit_identical(
        n in 3usize..7,
        resample_mask in 0u32..4,
        seed in 0u64..10_000,
        horizon in 20.0f64..200.0,
    ) {
        let resample: Vec<bool> = (0..2).map(|i| resample_mask & (1 << i) != 0).collect();
        let san = mixed_net(n, &resample);
        let first = run(&san, seed, horizon);
        prop_assert!(first.2 > 0);
        prop_assert_eq!(first, run(&san, seed, horizon));
    }
}
