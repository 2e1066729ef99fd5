//! Deferred exponential completions, seen from outside.
//!
//! The executor draws an exponential timer's uniform when the timer is
//! armed but takes its logarithm only once the completion could be the
//! next event. That must be invisible: a net whose exponentials are
//! `Dist::Exponential` delays (deferred) has to run exactly like the same
//! net with every exponential drawn at once by a closure calling
//! [`SimRng::exponential`](ckpt_des::SimRng::exponential) — a
//! marking-dependent delay, which is never deferred. Same words drawn,
//! same due bits, same firing order, ties included.

use ckpt_des::SimTime;
use ckpt_san::{
    Delay, Marking, Pred, Reactivation, RewardSpec, San, SanBuilder, SanObserver, Simulator,
};
use ckpt_stats::Dist;
use proptest::prelude::*;

/// Every firing as `(time bits, activity name)`.
#[derive(Default, Debug, PartialEq)]
struct Firings(Vec<(u64, String)>);

impl SanObserver for Firings {
    fn activity_fired(&mut self, at: SimTime, name: &str, _: &Marking) {
        self.0.push((at.as_secs().to_bits(), name.to_string()));
    }
}

/// An exponential delay of `rate`: deferrable, or drawn at once by a
/// closure that makes the identical draw.
fn exponential(rate: f64, eager: bool) -> Delay {
    if eager {
        Delay::from_fn(move |_, rng| rng.exponential(rate))
    } else {
        Delay::from(Dist::exponential(rate))
    }
}

/// Runs `san` to `horizon` and returns the firings, the event count and
/// the reward total's bits.
fn run(san: &San, seed: u64, horizon: f64) -> (Firings, u64, u64) {
    let mut log = Firings::default();
    let mut sim = Simulator::new(san, seed).expect("init");
    let p0 = san.place_by_name("p0").expect("ring has p0");
    sim.add_reward(RewardSpec::rate("ring0", move |m| m.tokens(p0) as f64))
        .unwrap();
    sim.set_observer(&mut log);
    sim.run_until(SimTime::from_secs(horizon)).expect("run");
    let events = sim.events_processed();
    let total = sim.reward_report().value("ring0").unwrap().total.to_bits();
    drop(sim);
    (log, events, total)
}

/// A token ring of exponential activities, some `Resample`, gated on a
/// place two steps ahead, with a deterministic clock whose ticks dirty
/// the marking (so `Resample` timers redraw), and a fast exponential
/// whose rate `fast` may be so high that its delay vanishes against the
/// clock and it ties with the deterministic timers due at that instant.
/// Nothing runs until a launch at `start`, which puts the ring's tokens
/// and the clock in place.
fn ring(n: usize, resample: u32, fast: f64, start: f64, eager: bool) -> San {
    let mut b = SanBuilder::new("deferred_ring");
    let places: Vec<_> = (0..n).map(|i| b.place(format!("p{i}"), 0)).collect();
    let fuse = b.place("fuse", 1);
    let clock = b.place("clock", 0);
    let pulse = b.place("pulse", 0);
    let sink = b.place("sink", 0);
    b.timed_activity("launch", Delay::from(Dist::deterministic(start)))
        .input_arc(fuse, 1)
        .output_arc(places[0], 2)
        .output_arc(clock, 1)
        .build();
    for i in 0..n {
        let watch = places[(i + 2) % n];
        let mut ab = b
            .timed_activity(format!("a{i}"), exponential(0.5 + 0.25 * i as f64, eager))
            .input_arc(places[i], 1)
            .enabled_if(&format!("g{i}"), Pred::at_least(watch, 3).negate())
            .output_arc(places[(i + 1) % n], 1);
        if resample & (1 << i) != 0 {
            ab = ab.reactivation(Reactivation::Resample);
        }
        ab.build();
    }
    // The clock fires every second and raises two pulses; the fast
    // exponential and two zero-delay peers, armed just before and just
    // after it, race for them.
    b.timed_activity("tick", Delay::from(Dist::deterministic(1.0)))
        .input_arc(clock, 1)
        .output_arc(clock, 1)
        .output_arc(pulse, 2)
        .build();
    b.timed_activity("before", Delay::from(Dist::deterministic(0.0)))
        .input_arc(pulse, 1)
        .output_arc(sink, 1)
        .build();
    b.timed_activity("fast", exponential(fast, eager))
        .input_arc(pulse, 1)
        .output_arc(sink, 1)
        .build();
    b.timed_activity("after", Delay::from(Dist::deterministic(0.0)))
        .input_arc(pulse, 1)
        .output_arc(sink, 1)
        .build();
    b.build().expect("ring is well-formed")
}

/// Both forms of the ring: identical runs.
fn assert_deferral_invisible(
    n: usize,
    resample: u32,
    fast: f64,
    seed: u64,
    start: f64,
    horizon: f64,
) {
    let horizon = start + horizon;
    let eager = run(&ring(n, resample, fast, start, true), seed, horizon);
    let deferred = run(&ring(n, resample, fast, start, false), seed, horizon);
    assert_eq!(eager, deferred, "seed {seed}");
}

#[test]
fn a_vanishing_delay_ties_and_orders_by_its_draw() {
    // At rate 1e18 the fast completion lands on the instant it was drawn
    // at, tying with the zero-delay peers; only sequence numbers order
    // the three, so it must pop between them. Far from zero the same
    // holds for ordinary rates: at 1e12 s, 1e-5 s vanishes.
    assert_deferral_invisible(4, 0b0101, 1e18, 3, 0.0, 200.0);
    assert_deferral_invisible(4, 0b0011, 1e5, 4, 1e12, 200.0);
    let (log, ..) = run(&ring(4, 0, 1e18, 0.0, false), 3, 20.0);
    let ties = log
        .0
        .windows(2)
        .filter(|w| w[0].0 == w[1].0 && w[0].1 == "before" && w[1].1 == "fast")
        .count();
    assert_eq!(
        ties, 20,
        "the fast completion must pop right behind its earlier peer"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random rings, `Resample` masks and fast rates, from time zero and
    /// from far out on the clock.
    #[test]
    fn deferred_exponentials_fire_like_eager_draws(
        n in 3usize..7,
        resample in 0u32..64,
        fast_exp in 0u32..20,
        seed in 0u64..10_000,
        far in 0u32..2,
        horizon in 20.0f64..150.0,
    ) {
        let start = if far == 1 { 1e9 } else { 0.0 };
        assert_deferral_invisible(n, resample, 10f64.powi(fast_exp as i32 - 2), seed, start, horizon);
    }
}
