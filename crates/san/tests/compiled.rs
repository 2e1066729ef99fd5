//! Equality of compiled gate programs and trait-dispatch enabling.
//!
//! `San::build` compiles every [`Pred`] gate into a flat postfix
//! program evaluated by `San::enabled_fast`; an expression too deep for
//! the program's stack is evaluated as a tree instead. The contract is
//! exact equality with the definition walk (`San::enabled_reference`) on
//! **every** marking, not just reachable ones — these tests sweep
//! hand-built nets and proptest-randomized markings to hold the compiler
//! to it.

use ckpt_san::{Delay, Pred, San, SanBuilder};
use ckpt_stats::Dist;
use proptest::prelude::*;

/// Asserts the compiled and reference enabling tests agree for every
/// activity of `san` under `marking`.
fn assert_enabling_agrees(san: &San, marking: &ckpt_san::Marking, label: &str) {
    for a in san.activity_ids() {
        assert_eq!(
            san.enabled_fast(a, marking),
            san.enabled_reference(a, marking),
            "compiled/reference enabling diverged for {} under {label}",
            san.activity_name(a),
        );
    }
}

/// A net exercising every compilable predicate shape: leaf tests,
/// boolean combinators, negation folding, negated thresholds and arc
/// multiplicities.
fn gate_zoo() -> (San, Vec<ckpt_san::PlaceId>) {
    let mut b = SanBuilder::new("zoo");
    let p: Vec<_> = (0..6).map(|i| b.place(format!("p{i}"), 0)).collect();
    let d = Delay::from(Dist::exponential(1.0));

    b.timed_activity("leaf_has", d.clone())
        .enabled_if("has0", Pred::has(p[0]))
        .build();
    b.timed_activity("leaf_empty", d.clone())
        .enabled_if("empty1", Pred::empty(p[1]))
        .build();
    b.timed_activity("leaf_at_least", d.clone())
        .enabled_if("ge3", Pred::at_least(p[2], 3))
        .build();
    b.timed_activity("conjunction", d.clone())
        .enabled_if(
            "and",
            Pred::has(p[0]).and(Pred::empty(p[1]).and(Pred::has(p[2]))),
        )
        .build();
    b.timed_activity("disjunction", d.clone())
        .enabled_if(
            "or",
            Pred::has(p[3]).or(Pred::has(p[4]).or(Pred::at_least(p[5], 2))),
        )
        .build();
    b.timed_activity("negated_mix", d.clone())
        .enabled_if(
            "not_mix",
            Pred::has(p[0]).and(Pred::has(p[1]).or(Pred::has(p[2])).negate()),
        )
        .build();
    b.timed_activity("with_arcs", d.clone())
        .input_arc(p[3], 2)
        .input_arc(p[4], 1)
        .enabled_if("arc_guard", Pred::empty(p[5]))
        .output_arc(p[0], 1)
        .build();
    // A negated threshold inside a disjunction stays a gate program;
    // at top level it lowers to an interval requirement.
    b.timed_activity("negated_threshold", d)
        .enabled_if(
            "below_two_or_four",
            Pred::at_least(p[5], 2).negate().or(Pred::at_least(p[5], 4)),
        )
        .enabled_if("below_five", Pred::at_least(p[5], 5).negate())
        .build();

    let san = b.build().expect("zoo net is well-formed");
    (san, p)
}

#[test]
fn gate_zoo_agrees_on_token_sweep() {
    let (san, places) = gate_zoo();
    let mut m = san.initial_marking();
    assert_enabling_agrees(&san, &m, "initial marking");
    // Sweep each place through 0..=4 tokens with the rest pinned.
    for &place in &places {
        for count in 0..=4 {
            m.set_tokens(place, count);
            assert_enabling_agrees(&san, &m, "single-place sweep");
        }
        m.set_tokens(place, 0);
    }
}

#[test]
fn over_deep_predicates_fall_back_and_still_agree() {
    // A right-leaning Any chain past the compiler's stack bound is
    // evaluated as a tree; behaviour must be unchanged.
    let mut b = SanBuilder::new("deep");
    let places: Vec<_> = (0..24).map(|i| b.place(format!("p{i}"), 0)).collect();
    let mut pred = Pred::has(places[23]);
    for &place in places[..23].iter().rev() {
        pred = Pred::has(place).or(Pred::All(vec![pred]));
    }
    b.timed_activity("deep", Delay::from(Dist::exponential(1.0)))
        .enabled_if("deep_any", pred)
        .build();
    let san = b.build().unwrap();
    let mut m = san.initial_marking();
    assert_enabling_agrees(&san, &m, "all-empty");
    for &place in &places {
        m.set_tokens(place, 1);
        assert_enabling_agrees(&san, &m, "one-hot sweep");
        m.set_tokens(place, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Randomized markings over the gate zoo: arbitrary token vectors
    /// (reachable or not) never split the compiled and reference paths.
    #[test]
    fn random_markings_agree(tokens in proptest::collection::vec(0u64..6, 6..7)) {
        let (san, places) = gate_zoo();
        let mut m = san.initial_marking();
        for (&place, &count) in places.iter().zip(&tokens) {
            m.set_tokens(place, count);
        }
        for a in san.activity_ids() {
            prop_assert_eq!(
                san.enabled_fast(a, &m),
                san.enabled_reference(a, &m),
                "diverged for {}",
                san.activity_name(a)
            );
        }
    }
}

/// SplitMix64: the random source for predicate trees, seeded by
/// proptest (the vendored proptest has no recursive strategies).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random predicate of depth at most `depth` over `places`: leaves
/// `Has`, `Empty` and `AtLeast(0..3)`, and `Not`, `All` and `Any` of up
/// to three operands. One compound in four is an `Any` of `Has` leaves,
/// the disjunction shape that lowers to a mask.
fn random_pred(mix: &mut Mix, places: &[ckpt_san::PlaceId], depth: u32) -> Pred {
    let place = |mix: &mut Mix| places[mix.below(places.len() as u64) as usize];
    let leaf = depth == 0 || mix.below(5) < 2;
    if leaf {
        return match mix.below(3) {
            0 => Pred::Has(place(mix)),
            1 => Pred::Empty(place(mix)),
            _ => Pred::AtLeast(place(mix), mix.below(3)),
        };
    }
    let operands = |mix: &mut Mix| -> Vec<Pred> {
        (0..mix.below(4))
            .map(|_| random_pred(mix, places, depth - 1))
            .collect()
    };
    match mix.below(4) {
        0 => Pred::Not(Box::new(random_pred(mix, places, depth - 1))),
        1 => Pred::All(operands(mix)),
        2 => Pred::Any(operands(mix)),
        _ => Pred::Any(
            (0..1 + mix.below(3))
                .map(|_| Pred::Has(place(mix)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random gates (depth ≤ 4) and input arcs (1–3 tokens) on a net of
    /// 70–130 places, so the place masks span two or three words and
    /// most activities mix masks, interval requirements and gate
    /// programs: the lowered check equals the definition walk for every
    /// activity on random markings of 0–4 tokens per place.
    #[test]
    fn random_predicates_lower_exactly(
        place_count in 70usize..131,
        seed in 0u64..u64::MAX,
        tokens in proptest::collection::vec(0u64..5, 130..131),
    ) {
        let mut mix = Mix(seed);
        let mut b = SanBuilder::new("random");
        let places: Vec<_> = (0..place_count)
            .map(|i| b.place(format!("p{i}"), tokens[i]))
            .collect();
        for a in 0..1 + mix.below(12) {
            let mut act = b.timed_activity(format!("a{a}"), Delay::from(Dist::exponential(1.0)));
            for _ in 0..mix.below(3) {
                let p = places[mix.below(place_count as u64) as usize];
                act = act.input_arc(p, 1 + mix.below(3));
            }
            for g in 0..1 + mix.below(3) {
                act = act.enabled_if(&format!("g{g}"), random_pred(&mut mix, &places, 4));
            }
            act.build();
        }
        let san = b.build().expect("random net is well-formed");
        let mut m = san.initial_marking();
        for round in 0..8 {
            if round > 0 {
                for &place in &places {
                    m.set_tokens(place, mix.below(5));
                }
            }
            for a in san.activity_ids() {
                prop_assert_eq!(
                    san.enabled_fast(a, &m),
                    san.enabled_reference(a, &m),
                    "diverged for {} (round {})",
                    san.activity_name(a),
                    round
                );
            }
        }
    }
}
