//! Property-based tests of the SAN executor: invariants that must hold
//! for arbitrary (well-formed) nets, not just the checkpoint model.

use ckpt_des::SimTime;
use ckpt_san::{Delay, Pred, RewardSpec, SanBuilder, Simulator};
use ckpt_stats::Dist;
use proptest::prelude::*;

/// Builds a ring of `n` places where activity `i` moves one token from
/// place `i` to place `(i+1) % n` with the given delay means; `tokens`
/// tokens start in place 0.
fn ring(n: usize, tokens: u64, means: &[f64]) -> ckpt_san::San {
    let mut b = SanBuilder::new("ring");
    let places: Vec<_> = (0..n)
        .map(|i| b.place(format!("p{i}"), if i == 0 { tokens } else { 0 }))
        .collect();
    for i in 0..n {
        b.timed_activity(
            format!("a{i}"),
            Delay::from(Dist::exponential_mean(means[i % means.len()])),
        )
        .input_arc(places[i], 1)
        .output_arc(places[(i + 1) % n], 1)
        .build();
    }
    b.build().expect("ring net is well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Tokens are conserved in any ring net, for any horizon and seed.
    #[test]
    fn ring_conserves_tokens(
        n in 2usize..8,
        tokens in 1u64..5,
        mean in 0.1f64..10.0,
        seed in 0u64..1_000,
        horizon in 1.0f64..500.0,
    ) {
        let san = ring(n, tokens, &[mean]);
        let mut sim = Simulator::new(&san, seed).unwrap();
        sim.run_for(SimTime::from_secs(horizon)).unwrap();
        let total: u64 = (0..n)
            .map(|i| sim.marking().tokens(san.place_by_name(&format!("p{i}")).unwrap()))
            .sum();
        prop_assert_eq!(total, tokens);
    }

    /// Firing counts around a ring telescope: adjacent activities differ
    /// by at most the number of circulating tokens.
    #[test]
    fn ring_firing_counts_telescope(
        n in 2usize..8,
        tokens in 1u64..4,
        seed in 0u64..1_000,
    ) {
        let san = ring(n, tokens, &[1.0]);
        let mut sim = Simulator::new(&san, seed).unwrap();
        sim.run_for(SimTime::from_secs(200.0)).unwrap();
        let counts: Vec<u64> = (0..n)
            .map(|i| sim.firing_count(san.activity_by_name(&format!("a{i}")).unwrap()))
            .collect();
        for w in counts.windows(2) {
            let diff = w[0].abs_diff(w[1]);
            prop_assert!(
                diff <= tokens,
                "adjacent firing counts {w:?} differ by more than {tokens}"
            );
        }
    }

    /// A constant rate reward integrates to exactly the window length,
    /// regardless of the net's activity.
    #[test]
    fn constant_rate_reward_integrates_window(
        seed in 0u64..1_000,
        horizon in 1.0f64..300.0,
    ) {
        let san = ring(3, 2, &[0.5]);
        let mut sim = Simulator::new(&san, seed).unwrap();
        sim.add_reward(RewardSpec::rate("unit", |_| 1.0)).unwrap();
        sim.run_for(SimTime::from_secs(horizon)).unwrap();
        let v = sim.reward_report().value("unit").unwrap();
        prop_assert!((v.total - horizon).abs() < 1e-9 * horizon.max(1.0));
        prop_assert!((v.window - horizon).abs() < 1e-9 * horizon.max(1.0));
    }

    /// A constant-flow fluid place integrates to rate × time.
    #[test]
    fn constant_flow_integrates_linearly(
        rate in 0.1f64..5.0,
        horizon in 1.0f64..200.0,
        seed in 0u64..100,
    ) {
        let mut b = SanBuilder::new("flow");
        let p = b.place("p", 1);
        let acc = b.fluid_place("acc", 0.0);
        b.flow(acc, move |_| rate);
        b.timed_activity("churn", Delay::from(Dist::exponential(1.0)))
            .input_arc(p, 1)
            .output_arc(p, 1)
            .build();
        let san = b.build().unwrap();
        let mut sim = Simulator::new(&san, seed).unwrap();
        sim.run_for(SimTime::from_secs(horizon)).unwrap();
        let got = sim.marking().fluid(acc);
        prop_assert!(
            (got - rate * horizon).abs() < 1e-6 * (rate * horizon),
            "fluid {got} vs expected {}",
            rate * horizon
        );
    }

    /// Identical seeds reproduce exactly; the simulation is a pure
    /// function of (net, seed, horizon).
    #[test]
    fn deterministic_per_seed(
        n in 2usize..6,
        seed in 0u64..1_000,
    ) {
        let san = ring(n, 2, &[1.0, 2.5]);
        let run = |s| {
            let mut sim = Simulator::new(&san, s).unwrap();
            sim.run_for(SimTime::from_secs(100.0)).unwrap();
            (0..n)
                .map(|i| sim.firing_count(san.activity_by_name(&format!("a{i}")).unwrap()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Probabilistic cases preserve tokens whichever branch is taken.
    #[test]
    fn case_splits_conserve_tokens(
        w1 in 0.05f64..1.0,
        w2 in 0.05f64..1.0,
        seed in 0u64..500,
    ) {
        let mut b = SanBuilder::new("split");
        let src = b.place("src", 3);
        let left = b.place("left", 0);
        let right = b.place("right", 0);
        let back = b.place("back", 0);
        b.timed_activity("split", Delay::from(Dist::exponential(1.0)))
            .input_arc(src, 1)
            .case(w1, |c| c.output_arc(left, 1))
            .case(w2, |c| c.output_arc(right, 1))
            .build();
        b.instantaneous_activity("return_left", 1)
            .input_arc(left, 1)
            .output_arc(back, 1)
            .build();
        b.instantaneous_activity("return_right", 1)
            .input_arc(right, 1)
            .output_arc(back, 1)
            .build();
        b.timed_activity("recycle", Delay::from(Dist::exponential(2.0)))
            .input_arc(back, 1)
            .output_arc(src, 1)
            .build();
        let san = b.build().unwrap();
        let mut sim = Simulator::new(&san, seed).unwrap();
        sim.run_for(SimTime::from_secs(500.0)).unwrap();
        let total = sim.marking().tokens(src)
            + sim.marking().tokens(left)
            + sim.marking().tokens(right)
            + sim.marking().tokens(back);
        prop_assert_eq!(total, 3);
    }
}

/// Marking-dependent case weights steer the split as the marking evolves
/// (non-proptest: a single statistical check).
#[test]
fn marking_dependent_case_weights_bias_the_split() {
    let mut b = SanBuilder::new("adaptive");
    let src = b.place("src", 1);
    let a = b.place("a", 0);
    let bb = b.place("b", 0);
    let a_id = a;
    // Weight of case A decays as tokens accumulate in A: a load balancer.
    b.timed_activity("route", Delay::from(Dist::deterministic(1.0)))
        .input_arc(src, 1)
        .case_weighted_by(
            move |m| 1.0 / (1.0 + m.tokens(a_id) as f64),
            |c| c.output_arc(a, 1),
        )
        .case(0.5, |c| c.output_arc(bb, 1))
        .build();
    b.instantaneous_activity("refill", 0)
        .enabled_if("src_empty", Pred::empty(src))
        .output_arc(src, 1)
        .build();
    let san = b.build().unwrap();
    let mut sim = Simulator::new(&san, 3).unwrap();
    sim.run_until(SimTime::from_secs(2_000.0)).unwrap();
    let in_a = sim.marking().tokens(a);
    let in_b = sim.marking().tokens(bb);
    assert_eq!(in_a + in_b, 2_000);
    // With A's weight decaying, B must collect the vast majority.
    assert!(
        in_b > in_a * 10,
        "adaptive weights must bias to B: A={in_a}, B={in_b}"
    );
}
