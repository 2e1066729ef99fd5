//! Compiled hot-path representation of a SAN.
//!
//! Built once by [`SanBuilder::build`](crate::SanBuilder::build) and
//! consulted on every event by the incremental scheduler, this module
//! packs the enabling rules and the dependency index into flat,
//! cache-friendly arrays:
//!
//! * **Input arcs and conjunctive gate leaves** fuse into one flat
//!   per-activity list of token-interval requirements
//!   (`min <= tokens(place) <= max`): an arc `(p, need)` is
//!   `[need, MAX]`, `Pred::has` is `[1, MAX]`, `Pred::empty` is
//!   `[0, 0]`, and a top-level `All` contributes one entry per leaf.
//!   Checking an activity is a short-circuit walk over contiguous
//!   memory — the dominant case (every checkpoint-model gate is a
//!   conjunction of one or two leaves) never leaves that loop.
//! * **Residual gate predicates** (disjunctions and other shapes that
//!   don't flatten into interval requirements) become *gate programs*:
//!   flat postfix bytecode ([`GateOp`]) over the token array, evaluated
//!   by a fixed-size stack machine with zero dynamic dispatch. An
//!   expression deeper than [`MAX_STACK`] becomes a single
//!   [`GateOp::Tree`] op that evaluates it with [`Pred::eval`] — same
//!   result, tree-walk cost.
//! * **Dependencies** are bitmasks: one bit per activity, one row per
//!   place (`place → timed dependents`, `place → instantaneous
//!   dependents`) set from each activity's input arcs and its gates'
//!   [`Pred::reads`], plus one global row of the `Resample` timers,
//!   which are revisited on every event. The scheduler OR-folds the
//!   rows of the event's dirty places and walks set bits in ascending
//!   index order.
//!
//! Everything here is *derived* state: the tree-walk path
//! ([`ActivityDef::enabled`]) remains the semantic reference, and the
//! debug-build consistency assertion in the simulator cross-checks the
//! two on every event.

use crate::activity::{ActivityDef, Delay, Reactivation, Timing};
use crate::marking::{Marking, PlaceId};
use crate::pred::Pred;
use ckpt_stats::Dist;

/// Stack budget of the gate-program interpreter. Expressions needing
/// more (operand `i` of an `All`/`Any` starts with `i` results already
/// parked) compile to one [`GateOp::Tree`] instead.
const MAX_STACK: usize = 16;

/// One postfix instruction of a compiled gate program.
#[derive(Debug, Clone)]
pub(crate) enum GateOp {
    /// Push `tokens(place) >= need`.
    TokensGe { place: u32, need: u64 },
    /// Push `tokens(place) == 0`.
    TokensEq0 { place: u32 },
    /// Invert the top of stack.
    Not,
    /// Pop `n` results, push their conjunction (`true` when `n == 0`).
    AllOf { n: u16 },
    /// Pop `n` results, push their disjunction (`false` when `n == 0`).
    AnyOf { n: u16 },
    /// Push [`Pred::eval`] of an expression too deep for the stack.
    Tree(Box<Pred>),
}

/// One token-interval requirement: activity enabling demands
/// `min <= tokens(place) <= max`. Input arcs and conjunctive gate
/// leaves both lower to this form.
#[derive(Debug, Clone)]
pub(crate) struct Req {
    place: u32,
    min: u64,
    max: u64,
}

/// Flat arena built from a validated activity list; see the module docs.
pub(crate) struct CompiledSan {
    /// Interval requirements, all activities concatenated.
    reqs: Vec<Req>,
    /// Per-activity `[start, end)` into `reqs`.
    req_range: Vec<(u32, u32)>,
    /// Gate-program instructions, all residual gates of all activities
    /// concatenated.
    ops: Vec<GateOp>,
    /// Per-gate `[start, end)` into `ops`; one entry per residual term.
    term_ops: Vec<(u32, u32)>,
    /// Per-activity `[start, end)` into `term_ops`.
    term_range: Vec<(u32, u32)>,
    /// Words per activity bitmask row (`ceil(activities / 64)`, min 1).
    pub(crate) mask_words: usize,
    /// Place-major rows of timed dependents: bit `a` of row `p` is set
    /// iff timed activity `a` depends on place `p`.
    place_timed_mask: Vec<u64>,
    /// Place-major rows of instantaneous dependents.
    place_inst_mask: Vec<u64>,
    /// Timed activities re-checked on every event: exactly the
    /// [`Reactivation::Resample`] ones, whose contract is to redraw on
    /// *every* marking change, relevant or not.
    pub(crate) global_timed_mask: Vec<u64>,
    /// The global timed row under lazy reactivation:
    /// `global_timed_mask & !lazy_elidable_words`. Lazy mode never
    /// redraws an elidable timer, and the place rows reach it whenever
    /// its enabling can change.
    pub(crate) global_timed_mask_lazy: Vec<u64>,
    /// Bit `a` set iff activity `a` is timed with
    /// [`Reactivation::Resample`].
    resample_words: Vec<u64>,
    /// Bit `a` set iff activity `a` is a `Resample` activity whose
    /// delay is a marking-independent [`Dist::Exponential`] — the only
    /// shape whose reactivation redraw lazy mode may skip: by
    /// memorylessness the remaining delay is distributed exactly as a
    /// fresh draw, so keeping the scheduled completion is
    /// distribution-equivalent. Marking-dependent delays stay eager (a
    /// rate change *must* be observed at the marking change).
    lazy_elidable_words: Vec<u64>,
    /// Bit `a` set iff activity `a` is timed.
    pub(crate) timed_words: Vec<u64>,
    /// Bit `a` set iff activity `a` is instantaneous.
    pub(crate) inst_words: Vec<u64>,
    /// Every instantaneous activity, highest priority first (ties by
    /// definition order) — the firing order of the settle loop.
    pub(crate) inst_priority_order: Vec<u32>,
}

impl CompiledSan {
    pub(crate) fn build(place_count: usize, activities: &[ActivityDef]) -> CompiledSan {
        let n = activities.len();
        let mask_words = n.div_ceil(64).max(1);
        let mut c = CompiledSan {
            reqs: Vec::new(),
            req_range: Vec::with_capacity(n),
            ops: Vec::new(),
            term_ops: Vec::new(),
            term_range: Vec::with_capacity(n),
            mask_words,
            place_timed_mask: vec![0; place_count * mask_words],
            place_inst_mask: vec![0; place_count * mask_words],
            global_timed_mask: vec![0; mask_words],
            global_timed_mask_lazy: vec![0; mask_words],
            resample_words: vec![0; mask_words],
            lazy_elidable_words: vec![0; mask_words],
            timed_words: vec![0; mask_words],
            inst_words: vec![0; mask_words],
            inst_priority_order: Vec::new(),
        };
        let mut by_priority: Vec<(u32, u32)> = Vec::new();
        let mut residual = Vec::new();
        for (i, def) in activities.iter().enumerate() {
            let req_start = u32::try_from(c.reqs.len()).expect("req arena overflow");
            for &(p, need) in &def.input_arcs {
                c.reqs.push(Req {
                    place: u32::try_from(p.0).expect("more than 2^32 places"),
                    min: need,
                    max: u64::MAX,
                });
            }
            let term_start = u32::try_from(c.term_ops.len()).expect("term arena overflow");
            for g in &def.input_gates {
                // Conjunctive leaves join the requirement list; only
                // non-conjunctive residue needs a gate program.
                split(g.pred(), &mut c.reqs, &mut residual);
                for r in residual.drain(..) {
                    let op_start = u32::try_from(c.ops.len()).expect("op arena overflow");
                    if compilable(&r) {
                        emit(&r, &mut c.ops);
                    } else {
                        c.ops.push(GateOp::Tree(Box::new(r)));
                    }
                    let op_end = u32::try_from(c.ops.len()).expect("op arena overflow");
                    c.term_ops.push((op_start, op_end));
                }
            }
            let req_end = u32::try_from(c.reqs.len()).expect("req arena overflow");
            c.req_range.push((req_start, req_end));
            let term_end = u32::try_from(c.term_ops.len()).expect("term arena overflow");
            c.term_range.push((term_start, term_end));

            // Dependency rows: the places whose token counts can flip
            // this activity's enabling.
            let place_mask = match def.timing {
                Timing::Timed(_) => &mut c.place_timed_mask,
                Timing::Instantaneous { .. } => &mut c.place_inst_mask,
            };
            let reads = def.input_gates.iter().flat_map(|g| g.pred().reads());
            for p in def.input_arcs.iter().map(|&(p, _)| p).chain(reads) {
                set_bit(&mut place_mask[p.0 * mask_words..(p.0 + 1) * mask_words], i);
            }

            match def.timing {
                Timing::Instantaneous { priority } => {
                    set_bit(&mut c.inst_words, i);
                    by_priority.push((
                        priority,
                        u32::try_from(i).expect("more than 2^32 activities"),
                    ));
                }
                Timing::Timed(ref delay) => {
                    set_bit(&mut c.timed_words, i);
                    if def.reactivation == Reactivation::Resample {
                        set_bit(&mut c.resample_words, i);
                        if matches!(delay, Delay::Dist(Dist::Exponential { .. })) {
                            set_bit(&mut c.lazy_elidable_words, i);
                        }
                    }
                }
            }
        }
        c.global_timed_mask.clone_from(&c.resample_words);
        for (w, lazy) in c.global_timed_mask_lazy.iter_mut().enumerate() {
            *lazy = c.global_timed_mask[w] & !c.lazy_elidable_words[w];
        }
        by_priority.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
        c.inst_priority_order = by_priority.into_iter().map(|(_, a)| a).collect();
        c
    }

    /// Evaluates activity `a`'s enabling rule (interval requirements,
    /// then residual gate programs, both short-circuit) against
    /// `marking`. Equivalent by construction to
    /// [`ActivityDef::enabled`]: enabling is a pure predicate, so
    /// folding the gates' conjunctive leaves into the requirement walk
    /// reorders evaluation without changing the result.
    #[inline]
    pub(crate) fn enabled(&self, a: usize, marking: &Marking) -> bool {
        let (s, e) = self.req_range[a];
        for r in &self.reqs[s as usize..e as usize] {
            let t = marking.tokens(PlaceId(r.place as usize));
            if t < r.min || t > r.max {
                return false;
            }
        }
        let (ts, te) = self.term_range[a];
        for t in ts as usize..te as usize {
            if !self.eval_term(self.term_ops[t], marking) {
                return false;
            }
        }
        true
    }

    /// Runs one gate program on the fixed-size stack machine.
    fn eval_term(&self, (start, end): (u32, u32), marking: &Marking) -> bool {
        let mut stack = [false; MAX_STACK];
        let mut sp = 0usize;
        for op in &self.ops[start as usize..end as usize] {
            match *op {
                GateOp::TokensGe { place, need } => {
                    stack[sp] = marking.tokens(PlaceId(place as usize)) >= need;
                    sp += 1;
                }
                GateOp::TokensEq0 { place } => {
                    stack[sp] = marking.tokens(PlaceId(place as usize)) == 0;
                    sp += 1;
                }
                GateOp::Not => stack[sp - 1] = !stack[sp - 1],
                GateOp::AllOf { n } => {
                    let base = sp - n as usize;
                    let mut acc = true;
                    for &b in &stack[base..sp] {
                        acc &= b;
                    }
                    stack[base] = acc;
                    sp = base + 1;
                }
                GateOp::AnyOf { n } => {
                    let base = sp - n as usize;
                    let mut acc = false;
                    for &b in &stack[base..sp] {
                        acc |= b;
                    }
                    stack[base] = acc;
                    sp = base + 1;
                }
                GateOp::Tree(ref pred) => {
                    stack[sp] = pred.eval(marking);
                    sp += 1;
                }
            }
        }
        debug_assert_eq!(sp, 1, "gate program left {sp} results on the stack");
        stack[0]
    }

    /// Row of timed dependents for place `p`.
    #[inline]
    pub(crate) fn place_timed_row(&self, p: usize) -> &[u64] {
        &self.place_timed_mask[p * self.mask_words..(p + 1) * self.mask_words]
    }

    /// Row of instantaneous dependents for place `p`.
    #[inline]
    pub(crate) fn place_inst_row(&self, p: usize) -> &[u64] {
        &self.place_inst_mask[p * self.mask_words..(p + 1) * self.mask_words]
    }

    /// Whether activity `a` is timed.
    #[inline]
    pub(crate) fn is_timed(&self, a: usize) -> bool {
        self.timed_words[a >> 6] & (1u64 << (a & 63)) != 0
    }

    /// Whether activity `a` is a timed `Resample` activity.
    #[inline]
    pub(crate) fn is_resample(&self, a: usize) -> bool {
        self.resample_words[a >> 6] & (1u64 << (a & 63)) != 0
    }

    /// Whether lazy reactivation may skip activity `a`'s redraw: a
    /// `Resample` activity with a marking-independent exponential delay.
    #[inline]
    pub(crate) fn is_lazy_elidable(&self, a: usize) -> bool {
        self.lazy_elidable_words[a >> 6] & (1u64 << (a & 63)) != 0
    }
}

fn set_bit(words: &mut [u64], bit: usize) {
    words[bit >> 6] |= 1u64 << (bit & 63);
}

/// Whether `pred` compiles within the interpreter's stack and arity
/// limits; anything else becomes one [`GateOp::Tree`].
fn compilable(pred: &Pred) -> bool {
    arity_ok(pred) && depth(pred) <= MAX_STACK
}

/// Decomposes `pred` into interval requirements plus non-conjunctive
/// residue: leaves (and negated leaves) of a top-level conjunction
/// become [`Req`] entries; anything else — disjunctions, negated
/// compounds — lands in `residual` for the stack machine. The
/// conjunction of all emitted parts is equivalent to `pred`.
fn split(pred: &Pred, reqs: &mut Vec<Req>, residual: &mut Vec<Pred>) {
    let place = |p: &PlaceId| u32::try_from(p.0).expect("more than 2^32 places");
    match pred {
        Pred::Has(p) => reqs.push(Req {
            place: place(p),
            min: 1,
            max: u64::MAX,
        }),
        Pred::AtLeast(p, n) => reqs.push(Req {
            place: place(p),
            min: *n,
            max: u64::MAX,
        }),
        Pred::Empty(p) => reqs.push(Req {
            place: place(p),
            min: 0,
            max: 0,
        }),
        Pred::Not(x) => match &**x {
            Pred::Has(p) => reqs.push(Req {
                place: place(p),
                min: 0,
                max: 0,
            }),
            Pred::Empty(p) => reqs.push(Req {
                place: place(p),
                min: 1,
                max: u64::MAX,
            }),
            // ¬(tokens >= 0) is unsatisfiable: an empty interval.
            Pred::AtLeast(p, 0) => reqs.push(Req {
                place: place(p),
                min: 1,
                max: 0,
            }),
            Pred::AtLeast(p, n) => reqs.push(Req {
                place: place(p),
                min: 0,
                max: n - 1,
            }),
            Pred::Not(y) => split(y, reqs, residual),
            Pred::All(_) | Pred::Any(_) => residual.push(pred.clone()),
        },
        Pred::All(xs) => {
            for x in xs {
                split(x, reqs, residual);
            }
        }
        Pred::Any(xs) if xs.len() == 1 => split(&xs[0], reqs, residual),
        Pred::Any(_) => residual.push(pred.clone()),
    }
}

fn arity_ok(pred: &Pred) -> bool {
    match pred {
        Pred::Has(_) | Pred::Empty(_) | Pred::AtLeast(..) => true,
        Pred::Not(x) => arity_ok(x),
        Pred::All(xs) | Pred::Any(xs) => {
            xs.len() <= usize::from(u16::MAX) && xs.iter().all(arity_ok)
        }
    }
}

/// Maximum stack height needed to evaluate `pred` in postfix order:
/// operand `i` of an `All`/`Any` runs with `i` results already parked.
fn depth(pred: &Pred) -> usize {
    match pred {
        Pred::Has(_) | Pred::Empty(_) | Pred::AtLeast(..) => 1,
        Pred::Not(x) => depth(x),
        Pred::All(xs) | Pred::Any(xs) => {
            let mut max = 1;
            for (i, x) in xs.iter().enumerate() {
                max = max.max(i + depth(x));
            }
            max
        }
    }
}

fn emit(pred: &Pred, ops: &mut Vec<GateOp>) {
    match pred {
        Pred::Has(p) => ops.push(GateOp::TokensGe {
            place: u32::try_from(p.0).expect("more than 2^32 places"),
            need: 1,
        }),
        Pred::Empty(p) => ops.push(GateOp::TokensEq0 {
            place: u32::try_from(p.0).expect("more than 2^32 places"),
        }),
        Pred::AtLeast(p, n) => ops.push(GateOp::TokensGe {
            place: u32::try_from(p.0).expect("more than 2^32 places"),
            need: *n,
        }),
        Pred::Not(x) => {
            emit(x, ops);
            ops.push(GateOp::Not);
        }
        Pred::All(xs) => {
            for x in xs {
                emit(x, ops);
            }
            ops.push(GateOp::AllOf { n: xs.len() as u16 });
        }
        Pred::Any(xs) => {
            for x in xs {
                emit(x, ops);
            }
            ops.push(GateOp::AnyOf { n: xs.len() as u16 });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::InputGate;
    use crate::model::SanBuilder;

    #[test]
    fn depth_accounts_for_parked_operands() {
        let leaf = || Pred::has(PlaceId(0));
        assert_eq!(depth(&leaf()), 1);
        assert_eq!(depth(&leaf().and(leaf())), 2);
        // ((a && b) || (c && d)): right operand runs with one parked.
        let nested = leaf().and(leaf()).or(leaf().and(leaf()));
        assert_eq!(depth(&nested), 3);
        assert_eq!(depth(&Pred::All(vec![])), 1);
    }

    #[test]
    fn too_deep_predicates_evaluate_as_trees() {
        // A right-leaning chain of nested Anys: operand i of each level
        // parks one more result. 20 levels exceeds MAX_STACK.
        let mut p = Pred::has(PlaceId(0));
        for _ in 0..20 {
            p = Pred::Any(vec![Pred::has(PlaceId(0)), p]);
        }
        assert!(depth(&p) > MAX_STACK);
        assert!(!compilable(&p));

        let mut b = SanBuilder::new("deep");
        let place = b.place("p", 1);
        let mut pred = Pred::has(place);
        for _ in 0..20 {
            pred = Pred::Any(vec![Pred::has(place), pred]);
        }
        b.timed_activity("a", crate::Delay::from(Dist::deterministic(1.0)))
            .input_gate(InputGate::when("deep", pred))
            .output_arc(place, 1)
            .build();
        let san = b.build().unwrap();
        // The tree op still evaluates correctly.
        assert!(san.compiled.enabled(0, &san.initial_marking()));
        assert!(matches!(san.compiled.ops[..], [GateOp::Tree(_)]));
    }

    #[test]
    fn compiled_enabled_matches_reference_on_mixed_gates() {
        let mut b = SanBuilder::new("mixed");
        let p0 = b.place("p0", 2);
        let p1 = b.place("p1", 0);
        let p2 = b.place("p2", 1);
        // Conjunctive leaves, a disjunctive residue, a negated
        // threshold and an input arc on one activity.
        b.timed_activity("a", crate::Delay::from(Dist::deterministic(1.0)))
            .input_arc(p0, 1)
            .input_gate(InputGate::when(
                "expr",
                Pred::at_least(p0, 2).and(Pred::empty(p1).or(Pred::has(p2))),
            ))
            .enabled_if("below_five", Pred::at_least(p2, 5).negate())
            .output_arc(p1, 1)
            .build();
        b.instantaneous_activity("b", 1)
            .input_gate(InputGate::when("neg", Pred::has(p1).negate().negate()))
            .input_arc(p1, 1)
            .output_arc(p0, 1)
            .build();
        let san = b.build().unwrap();
        // Sweep token assignments; compiled and reference must agree.
        for t0 in 0..4u64 {
            for t1 in 0..4u64 {
                for t2 in 0..7u64 {
                    let m = Marking::new(vec![t0, t1, t2], vec![]);
                    for a in 0..san.activity_count() {
                        assert_eq!(
                            san.compiled.enabled(a, &m),
                            san.activities[a].enabled(&m),
                            "activity {a} disagrees at marking [{t0},{t1},{t2}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn masks_mirror_dependency_lists() {
        let mut b = SanBuilder::new("deps");
        let p0 = b.place("p0", 1);
        let p1 = b.place("p1", 0);
        b.timed_activity("t0", crate::Delay::from(Dist::deterministic(1.0)))
            .input_arc(p0, 1)
            .output_arc(p1, 1)
            .build();
        b.timed_activity("t1", crate::Delay::from(Dist::exponential(1.0)))
            .reactivation(Reactivation::Resample)
            .input_arc(p1, 1)
            .output_arc(p0, 1)
            .build();
        b.instantaneous_activity("i0", 0)
            .input_gate(InputGate::when("watch", Pred::at_least(p1, 3)))
            .input_arc(p1, 3)
            .output_arc(p0, 3)
            .build();
        let san = b.build().unwrap();
        let c = &san.compiled;
        assert_eq!(c.mask_words, 1);
        // t0 depends on p0; t1 is Resample ⇒ global, and also indexed
        // under its place p1 for lazy mode; i0 depends on p1.
        assert_eq!(c.place_timed_row(p0.0), &[0b001]);
        assert_eq!(c.place_timed_row(p1.0), &[0b010]);
        assert_eq!(c.place_inst_row(p1.0), &[0b100]);
        assert_eq!(c.global_timed_mask, &[0b010]);
        // t1's delay is a plain exponential, so lazy mode elides its
        // redraws and drops it from the global row — the p1 place row
        // still reaches it when its enabling can change.
        assert_eq!(c.global_timed_mask_lazy, &[0b000]);
        assert_eq!(c.timed_words, &[0b011]);
        assert_eq!(c.inst_words, &[0b100]);
        assert_eq!(c.inst_priority_order, &[2]);
        assert!(c.is_timed(0) && c.is_timed(1) && !c.is_timed(2));
        assert!(!c.is_resample(0) && c.is_resample(1) && !c.is_resample(2));
        assert!(!c.is_lazy_elidable(0) && c.is_lazy_elidable(1));
    }

    #[test]
    fn marking_dependent_resample_is_not_elidable() {
        // A closure delay can modulate its rate by the marking, so lazy
        // mode must keep redrawing it eagerly and keep it global.
        let mut b = SanBuilder::new("modulated");
        let p0 = b.place("p0", 1);
        b.timed_activity("mod", crate::Delay::from_fn(|_, rng| rng.exponential(1.0)))
            .reactivation(Reactivation::Resample)
            .input_arc(p0, 1)
            .output_arc(p0, 1)
            .build();
        b.timed_activity("exp", crate::Delay::from(Dist::exponential(2.0)))
            .reactivation(Reactivation::Resample)
            .input_arc(p0, 1)
            .output_arc(p0, 1)
            .build();
        let san = b.build().unwrap();
        let c = &san.compiled;
        assert!(c.is_resample(0) && !c.is_lazy_elidable(0));
        assert!(c.is_resample(1) && c.is_lazy_elidable(1));
        assert_eq!(c.global_timed_mask, &[0b011]);
        assert_eq!(c.global_timed_mask_lazy, &[0b001]);
    }
}
