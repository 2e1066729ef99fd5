//! Compiled hot-path representation of a SAN.
//!
//! Built once by [`SanBuilder::build`](crate::SanBuilder::build) and
//! consulted on every event by the simulator's incremental scheduler,
//! this module packs the enabling rules and the dependency index into
//! flat, cache-friendly arrays:
//!
//! * **Place masks.** The marking keeps a bitset of its nonzero
//!   places, and each activity's zero/nonzero tests lower to masks over
//!   it: every `Has` or `Empty` leaf of a top-level conjunction (and
//!   their negations), every input arc needing one token, and every
//!   `Any` whose operands are all `Has` leaves. An activity then needs
//!   `nonzero ⊇ must_have`, `nonzero ∩ must_be_empty = ∅` and
//!   `nonzero ∩ any_of ≠ ∅` for each of its `any_of` groups: a few
//!   word operations per 64 places. Every activity of the checkpoint
//!   model lowers to masks alone.
//! * **Token-interval requirements** (`min <= tokens(place) <= max`)
//!   hold the conjunctive leaves that need a count, not just a nonzero
//!   bit: an arc needing `n ≥ 2` tokens is `[n, MAX]`,
//!   `Pred::at_least(p, n ≥ 2)` is `[n, MAX]` and its negation
//!   `[0, n - 1]`. They are walked after the masks.
//! * **Residual gate predicates** (other disjunctions, negated
//!   compounds) become *gate programs*:
//!   flat postfix bytecode ([`GateOp`]) over the token array, evaluated
//!   by a fixed-size stack machine with zero dynamic dispatch. An
//!   expression deeper than [`MAX_STACK`] becomes a single
//!   [`GateOp::Tree`] op that evaluates it with [`Pred::eval`] — same
//!   result, tree-walk cost.
//! * **Dependencies** are bitmasks, one row per place, set from each
//!   activity's input arcs and its gates' [`Pred::reads`]: `place →
//!   timed dependents` with one bit per activity, plus one global row
//!   of the `Resample` timers, which are revisited on every event; and
//!   `place → instantaneous dependents` with one bit per *priority
//!   rank*, bit `r` standing for the activity at rank `r` of
//!   `inst_priority_order`. The scheduler OR-folds the rows of the
//!   event's dirty places and walks set bits in ascending order: timed
//!   activities by index, instantaneous ones by firing priority.
//! * **Deferrable exponentials.** Each timed activity whose delay is a
//!   marking-independent exponential with a rate in the range of
//!   [`ExpTimer::of`] carries its rate and lower-bound scale, so the
//!   executor can defer the logarithm of its draw.
//!
//! Everything here is *derived* state: the tree-walk path
//! ([`ActivityDef::enabled`]) remains the semantic reference, the
//! enabling check of the full scan that visits every activity after
//! every event. Debug builds of the simulator check the derived state
//! against that scan on every event: the compiled check against the
//! tree walk for every activity, each settle round's choice against a
//! walk over every rank, and every timed activity's schedule against
//! what the full scan's visit would leave.

use crate::activity::{ActivityDef, Delay, Reactivation, Timing};
use crate::marking::{Marking, PlaceId};
use crate::pred::Pred;
use ckpt_des::{exponential_from_unit, SimTime};
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
/// leaves that test more than zero/nonzero lower to this form.
#[derive(Debug, Clone)]
pub(crate) struct Req {
    place: u32,
    min: u64,
    max: u64,
}

/// One word of an activity's place masks: bit `p % 64` of word
/// `p / 64` stands for place `p`.
#[derive(Debug, Clone, Copy, Default)]
struct MaskWord {
    /// Places that must hold a token.
    must_have: u64,
    /// Places that must be empty.
    must_be_empty: u64,
}

/// One activity's enabling check: the mask word of places `0..64`
/// inline, and `[start, end)` slices of the arenas of [`CompiledSan`],
/// so that one lookup finds everything a model of up to 64 places
/// needs.
#[derive(Debug, Clone, Copy)]
struct Check {
    /// Places `0..64`; later words are in `CompiledSan::more_masks`.
    first: MaskWord,
    /// Into `any_of`, in words.
    any_of: (u32, u32),
    /// Into `reqs`.
    reqs: (u32, u32),
    /// Into `term_ops`.
    terms: (u32, u32),
}

impl MaskWord {
    /// Whether nonzero-place word `nz` satisfies this mask word.
    #[inline]
    fn admits(self, nz: u64) -> bool {
        nz & self.must_have == self.must_have && nz & self.must_be_empty == 0
    }
}

impl Check {
    /// No interval requirement and no gate program: the masks decide.
    #[inline]
    fn masks_alone(&self) -> bool {
        self.reqs.0 == self.reqs.1 && self.terms.0 == self.terms.1
    }
}

/// The parts one activity's enabling rule lowers to, before they are
/// appended to the arenas of [`CompiledSan`].
#[derive(Default)]
struct Lowered {
    /// One word per 64 places.
    masks: Vec<MaskWord>,
    /// `any_of` groups, one word per 64 places each, concatenated.
    any_of: Vec<u64>,
    reqs: Vec<Req>,
    residual: Vec<Pred>,
}

impl Lowered {
    fn new(place_words: usize) -> Lowered {
        Lowered {
            masks: vec![MaskWord::default(); place_words],
            ..Lowered::default()
        }
    }

    fn must_have(&mut self, p: PlaceId) {
        self.masks[p.0 >> 6].must_have |= 1u64 << (p.0 & 63);
    }

    fn must_be_empty(&mut self, p: PlaceId) {
        self.masks[p.0 >> 6].must_be_empty |= 1u64 << (p.0 & 63);
    }

    fn req(&mut self, p: PlaceId, min: u64, max: u64) {
        let place = u32::try_from(p.0).expect("more than 2^32 places");
        self.reqs.push(Req { place, min, max });
    }

    /// Adds the conjunct `pred`: leaves (and negated leaves) of a
    /// top-level conjunction become masks or [`Req`] entries, an `Any`
    /// of `Has` leaves becomes an `any_of` group, and anything else —
    /// other disjunctions, negated compounds — lands in `residual` for
    /// the stack machine. The conjunction of all the parts is
    /// equivalent to `pred`.
    fn conjunct(&mut self, pred: &Pred) {
        match pred {
            // `tokens >= 0` always holds.
            Pred::AtLeast(_, 0) => {}
            Pred::Has(p) | Pred::AtLeast(p, 1) => self.must_have(*p),
            Pred::Empty(p) => self.must_be_empty(*p),
            Pred::AtLeast(p, n) => self.req(*p, *n, u64::MAX),
            Pred::Not(x) => match &**x {
                Pred::Has(p) | Pred::AtLeast(p, 1) => self.must_be_empty(*p),
                Pred::Empty(p) => self.must_have(*p),
                // ¬(tokens >= 0) is unsatisfiable: an empty interval.
                Pred::AtLeast(p, 0) => self.req(*p, 1, 0),
                Pred::AtLeast(p, n) => self.req(*p, 0, n - 1),
                Pred::Not(y) => self.conjunct(y),
                Pred::All(_) | Pred::Any(_) => self.residual.push(pred.clone()),
            },
            Pred::All(xs) => {
                for x in xs {
                    self.conjunct(x);
                }
            }
            Pred::Any(xs) if xs.len() == 1 => self.conjunct(&xs[0]),
            Pred::Any(xs) => {
                let has = |x: &Pred| match x {
                    Pred::Has(p) | Pred::AtLeast(p, 1) => Some(*p),
                    _ => None,
                };
                if xs.iter().all(|x| has(x).is_some()) {
                    // An empty group is `false`, as an empty `Any` is.
                    let start = self.any_of.len();
                    self.any_of.resize(start + self.masks.len(), 0);
                    for p in xs.iter().filter_map(has) {
                        self.any_of[start + (p.0 >> 6)] |= 1u64 << (p.0 & 63);
                    }
                } else {
                    self.residual.push(pred.clone());
                }
            }
        }
    }
}

/// A timed activity whose completions the executor may defer: its delay
/// is `Dist::Exponential { rate }`, and `scale` turns a drawn uniform
/// `u` into a lower bound `(1 − u)·scale` on the delay `−ln(u)/rate`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExpTimer {
    rate: f64,
    /// `(1/rate)·(1 − 2⁻²⁰)`: the mean, shrunk by a rounding margin.
    scale: f64,
}

impl ExpTimer {
    /// The rounding margin of the lower bound: `1 − 2⁻²⁰`, far below
    /// `1 − ε` for every rounding and libm `ln` error the bound and the
    /// exact delay carry (a few units in the last place).
    const MARGIN: f64 = 1.0 - 1.0 / (1u64 << 20) as f64;

    /// The deferral data of `delay`, if it is an exponential whose every
    /// delay is a finite normal number: `rate > 0`, `37/rate` finite (a
    /// drawn uniform is at least 2⁻⁵³, so `−ln u < 37`), and
    /// `2⁻¹⁰⁴/rate` normal (the least bound, `2⁻⁵³·scale`, is above it).
    /// A deferred delay then can never be a [`SanError::BadDelay`], and
    /// neither it nor its bound loses precision to underflow.
    ///
    /// [`SanError::BadDelay`]: crate::SanError::BadDelay
    pub(crate) fn of(delay: &Delay) -> Option<ExpTimer> {
        let &Delay::Dist(Dist::Exponential { rate }) = delay else {
            return None;
        };
        let eligible = rate > 0.0
            && (37.0 / rate).is_finite()
            && f64::EPSILON * f64::EPSILON / rate >= f64::MIN_POSITIVE;
        eligible.then(|| ExpTimer {
            rate,
            scale: (1.0 / rate) * ExpTimer::MARGIN,
        })
    }

    /// A lower bound, in seconds, on the due time `base + −ln(u)/rate`:
    /// `base + (1 − u)·scale`. It holds because `−ln u ≥ 1 − u`, the
    /// margin of `scale` covers every rounding of both sides, and adding
    /// `base` rounds monotonically, exactly as `SimTime` addition does.
    #[inline]
    pub(crate) fn lower_due(self, base: SimTime, u: f64) -> f64 {
        base.as_secs() + (1.0 - u) * self.scale
    }

    /// The due time [`SimRng::exponential`](ckpt_des::SimRng::exponential)
    /// would have given a timer that drew `u` at `base`, to the bit.
    #[inline]
    pub(crate) fn exact_due(self, base: SimTime, u: f64) -> SimTime {
        base + SimTime::from_secs(exponential_from_unit(u, self.rate))
    }
}

/// Flat arena built from a validated activity list; see the module docs.
pub(crate) struct CompiledSan {
    /// Words per place bitset (`ceil(places / 64)`, min 1).
    place_words: usize,
    /// Mask words past the first, `place_words - 1` per activity.
    more_masks: Vec<MaskWord>,
    /// `any_of` groups of all activities, `place_words` words each.
    any_of: Vec<u64>,
    /// Interval requirements, all activities concatenated.
    reqs: Vec<Req>,
    /// Gate-program instructions, all residual gates of all activities
    /// concatenated.
    ops: Vec<GateOp>,
    /// Per-gate `[start, end)` into `ops`; one entry per residual term.
    term_ops: Vec<(u32, u32)>,
    /// Per-activity checks.
    checks: Vec<Check>,
    /// Words per activity bitmask row (`ceil(activities / 64)`, min 1).
    pub(crate) mask_words: usize,
    /// Place-major rows of timed dependents: bit `a` of row `p` is set
    /// iff timed activity `a` depends on place `p`.
    place_timed_mask: Vec<u64>,
    /// Words per instantaneous-rank bitmask row (`ceil(instantaneous
    /// activities / 64)`, min 1).
    pub(crate) rank_words: usize,
    /// Place-major rows of instantaneous dependents, by priority rank:
    /// bit `r` of row `p` is set iff the activity at rank `r` of
    /// `inst_priority_order` depends on place `p`.
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
    pub(crate) lazy_elidable_words: Vec<u64>,
    /// Bit `a` set iff activity `a` is timed.
    pub(crate) timed_words: Vec<u64>,
    /// Bit `r` set for every rank `r` of `inst_priority_order`.
    pub(crate) all_ranks: Vec<u64>,
    /// Every instantaneous activity, highest priority first (ties by
    /// definition order) — the firing order of the settle loop.
    pub(crate) inst_priority_order: Vec<u32>,
    /// Per activity, its deferral data if its completions may be
    /// deferred (see [`ExpTimer::of`]).
    exp_timers: Vec<Option<ExpTimer>>,
    /// The activities with deferral data, ascending.
    pub(crate) deferrable: Vec<u32>,
}

impl CompiledSan {
    pub(crate) fn build(place_count: usize, activities: &[ActivityDef]) -> CompiledSan {
        let n = activities.len();
        let mask_words = n.div_ceil(64).max(1);
        let inst_count = activities
            .iter()
            .filter(|def| matches!(def.timing, Timing::Instantaneous { .. }))
            .count();
        let rank_words = inst_count.div_ceil(64).max(1);
        // At least one word, as in the marking's nonzero bitset, so an
        // `any_of` group is never empty even in a model without places.
        let place_words = place_count.div_ceil(64).max(1);
        let mut c = CompiledSan {
            place_words,
            more_masks: Vec::with_capacity(n * (place_words - 1)),
            any_of: Vec::new(),
            reqs: Vec::new(),
            ops: Vec::new(),
            term_ops: Vec::new(),
            checks: Vec::with_capacity(n),
            mask_words,
            place_timed_mask: vec![0; place_count * mask_words],
            rank_words,
            place_inst_mask: vec![0; place_count * rank_words],
            global_timed_mask: vec![0; mask_words],
            global_timed_mask_lazy: vec![0; mask_words],
            resample_words: vec![0; mask_words],
            lazy_elidable_words: vec![0; mask_words],
            timed_words: vec![0; mask_words],
            all_ranks: vec![0; rank_words],
            inst_priority_order: Vec::new(),
            exp_timers: activities
                .iter()
                .map(|def| match &def.timing {
                    Timing::Timed(delay) => ExpTimer::of(delay),
                    Timing::Instantaneous { .. } => None,
                })
                .collect(),
            deferrable: Vec::new(),
        };
        let mut by_priority: Vec<(u32, u32)> = Vec::new();
        for (i, def) in activities.iter().enumerate() {
            let mut lowered = Lowered::new(place_words);
            for &(p, need) in &def.input_arcs {
                lowered.conjunct(&Pred::AtLeast(p, need));
            }
            for g in &def.input_gates {
                // Conjunctive leaves become masks and requirements;
                // only non-conjunctive residue needs a gate program.
                lowered.conjunct(g.pred());
            }
            c.push(lowered);

            match def.timing {
                Timing::Instantaneous { priority } => {
                    by_priority.push((
                        priority,
                        u32::try_from(i).expect("more than 2^32 activities"),
                    ));
                }
                Timing::Timed(ref delay) => {
                    // Dependency rows: the places whose token counts can
                    // flip this activity's enabling.
                    for p in dependencies(def) {
                        let row = &mut c.place_timed_mask[p.0 * mask_words..(p.0 + 1) * mask_words];
                        set_bit(row, i);
                    }
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
        for (rank, &a) in c.inst_priority_order.iter().enumerate() {
            set_bit(&mut c.all_ranks, rank);
            for p in dependencies(&activities[a as usize]) {
                set_bit(
                    &mut c.place_inst_mask[p.0 * rank_words..(p.0 + 1) * rank_words],
                    rank,
                );
            }
        }
        c.deferrable = (0..n)
            .filter(|&a| c.exp_timers[a].is_some())
            .map(|a| u32::try_from(a).expect("more than 2^32 activities"))
            .collect();
        c
    }

    /// Appends one activity's lowered enabling rule to the arenas.
    fn push(&mut self, lowered: Lowered) {
        let arena = |len: usize| u32::try_from(len).expect("compiled arena overflow");
        self.more_masks.extend_from_slice(&lowered.masks[1..]);
        let any_start = arena(self.any_of.len());
        self.any_of.extend(lowered.any_of);
        let req_start = arena(self.reqs.len());
        self.reqs.extend(lowered.reqs);
        let term_start = arena(self.term_ops.len());
        for r in lowered.residual {
            let op_start = arena(self.ops.len());
            if compilable(&r) {
                emit(&r, &mut self.ops);
            } else {
                self.ops.push(GateOp::Tree(Box::new(r)));
            }
            self.term_ops.push((op_start, arena(self.ops.len())));
        }
        self.checks.push(Check {
            first: lowered.masks[0],
            any_of: (any_start, arena(self.any_of.len())),
            reqs: (req_start, arena(self.reqs.len())),
            terms: (term_start, arena(self.term_ops.len())),
        });
    }

    /// Evaluates activity `a`'s enabling rule against `marking`: place
    /// masks over its nonzero bitset, then interval requirements, then
    /// residual gate programs, each short-circuit. Equivalent by
    /// construction to [`ActivityDef::enabled`]: enabling is a pure
    /// predicate, so splitting it into these parts reorders evaluation
    /// without changing the result.
    #[inline]
    pub(crate) fn enabled(&self, a: usize, marking: &Marking) -> bool {
        let nonzero = marking.nonzero_words();
        let c = &self.checks[a];
        if !c.first.admits(nonzero[0]) {
            return false;
        }
        let more = self.place_words - 1;
        if more > 0 {
            let masks = &self.more_masks[a * more..(a + 1) * more];
            if !nonzero[1..].iter().zip(masks).all(|(&nz, m)| m.admits(nz)) {
                return false;
            }
        }
        let words = self.place_words;
        let (mut g, end) = (c.any_of.0 as usize, c.any_of.1 as usize);
        while g < end {
            let group = &self.any_of[g..g + words];
            if nonzero.iter().zip(group).all(|(&nz, &any)| nz & any == 0) {
                return false;
            }
            g += words;
        }
        c.masks_alone() || self.counts_and_programs(c, marking)
    }

    /// The part of an enabling check the masks cannot decide: interval
    /// requirements, then residual gate programs, both short-circuit.
    /// Out of line, so the mask path stays small.
    #[inline(never)]
    fn counts_and_programs(&self, r: &Check, marking: &Marking) -> bool {
        let (s, e) = r.reqs;
        for req in &self.reqs[s as usize..e as usize] {
            let t = marking.tokens(PlaceId(req.place as usize));
            if t < req.min || t > req.max {
                return false;
            }
        }
        let (s, e) = r.terms;
        self.term_ops[s as usize..e as usize]
            .iter()
            .all(|&term| self.eval_term(term, marking))
    }

    /// Whether activity `a` lowered to place masks alone, with no
    /// interval requirement and no gate program.
    pub(crate) fn masks_alone(&self, a: usize) -> bool {
        self.checks[a].masks_alone()
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

    /// Row of instantaneous dependents for place `p`, by priority rank.
    #[inline]
    pub(crate) fn place_inst_row(&self, p: usize) -> &[u64] {
        &self.place_inst_mask[p * self.rank_words..(p + 1) * self.rank_words]
    }

    /// Activity `a`'s deferral data, if its completions may be deferred.
    #[inline]
    pub(crate) fn exp_timer(&self, a: usize) -> Option<ExpTimer> {
        self.exp_timers[a]
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

    /// Clears instantaneous activity `a`'s rank bit from every place
    /// row: a dependency index that misses `a`, for mutation tests.
    #[cfg(all(test, debug_assertions))]
    pub(crate) fn forget_inst_dependent(&mut self, a: usize) {
        let rank = self
            .inst_priority_order
            .iter()
            .position(|&b| b as usize == a)
            .expect("an instantaneous activity");
        for row in self.place_inst_mask.chunks_mut(self.rank_words) {
            row[rank >> 6] &= !(1u64 << (rank & 63));
        }
    }
}

fn set_bit(words: &mut [u64], bit: usize) {
    words[bit >> 6] |= 1u64 << (bit & 63);
}

/// The places whose token counts can flip `def`'s enabling: its input
/// arcs' and the places its input gates' predicates read.
fn dependencies(def: &ActivityDef) -> impl Iterator<Item = PlaceId> + '_ {
    let reads = def.input_gates.iter().flat_map(|g| g.pred().reads());
    def.input_arcs.iter().map(|&(p, _)| p).chain(reads)
}

/// Whether `pred` compiles within the interpreter's stack and arity
/// limits; anything else becomes one [`GateOp::Tree`].
fn compilable(pred: &Pred) -> bool {
    arity_ok(pred) && depth(pred) <= MAX_STACK
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
    use ckpt_des::SimRng;
    use proptest::prelude::*;

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
    fn zero_nonzero_tests_lower_to_masks_and_counts_stay_intervals() {
        let mut b = SanBuilder::new("lowering");
        let p: Vec<_> = (0..70).map(|i| b.place(format!("p{i}"), 0)).collect();
        let d = || crate::Delay::from(Dist::deterministic(1.0));
        b.timed_activity("masks", d())
            .input_arc(p[65], 1)
            .enabled_if("leaves", Pred::has(p[1]).and(Pred::empty(p[66])))
            .enabled_if("negated", Pred::at_least(p[2], 1).negate())
            .enabled_if("any", Pred::has(p[3]).or(Pred::at_least(p[67], 1)))
            .output_arc(p[0], 1)
            .build();
        b.timed_activity("counts", d())
            .input_arc(p[4], 2)
            .enabled_if("below", Pred::at_least(p[5], 3).negate())
            .enabled_if("mixed_any", Pred::has(p[6]).or(Pred::empty(p[7])))
            .output_arc(p[0], 1)
            .build();
        let san = b.build().unwrap();
        let c = &san.compiled;
        assert_eq!(c.place_words, 2);
        assert!(c.masks_alone(0) && !c.masks_alone(1));
        let bit = |i: usize| 1u64 << (i & 63);
        assert_eq!(c.checks[0].first.must_have, bit(1));
        assert_eq!(c.more_masks[0].must_have, bit(65));
        assert_eq!(c.checks[0].first.must_be_empty, bit(2));
        assert_eq!(c.more_masks[0].must_be_empty, bit(66));
        assert_eq!(c.any_of, [bit(3), bit(67)]);
        // Activity 1: two intervals and one gate program, no masks.
        let m = [c.checks[1].first, c.more_masks[1]];
        assert!(m.iter().all(|m| m.must_have | m.must_be_empty == 0));
        assert_eq!(c.checks[1].reqs, (0, 2));
        assert_eq!(c.checks[1].terms, (0, 1));
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
        // i0 is the only instantaneous activity: rank 0.
        assert_eq!(c.place_inst_row(p1.0), &[0b1]);
        assert_eq!(c.global_timed_mask, &[0b010]);
        // t1's delay is a plain exponential, so lazy mode elides its
        // redraws and drops it from the global row — the p1 place row
        // still reaches it when its enabling can change.
        assert_eq!(c.global_timed_mask_lazy, &[0b000]);
        assert_eq!(c.timed_words, &[0b011]);
        assert_eq!(c.all_ranks, &[0b1]);
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

    fn exp_timer(rate: f64) -> Option<ExpTimer> {
        ExpTimer::of(&Delay::from(Dist::Exponential { rate }))
    }

    /// The least and the greatest eligible rate.
    fn eligibility_edges() -> (f64, f64) {
        let next = |r: f64, step: i64| f64::from_bits(r.to_bits().wrapping_add_signed(step));
        let mut least = 37.0 / f64::MAX;
        while exp_timer(least).is_none() {
            least = next(least, 1);
        }
        let mut most = f64::EPSILON * f64::EPSILON / f64::MIN_POSITIVE;
        while exp_timer(most).is_none() {
            most = next(most, -1);
        }
        assert!(exp_timer(next(least, -1)).is_none() && exp_timer(next(most, 1)).is_none());
        (least, most)
    }

    #[test]
    fn only_plain_exponentials_with_finite_normal_delays_are_deferrable() {
        let (least, most) = eligibility_edges();
        assert!(least > 0.0 && (37.0 / least).is_finite() && least < 1e-300);
        assert!(most > 1e270);
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE] {
            assert!(exp_timer(rate).is_none(), "rate {rate}");
        }
        assert!(ExpTimer::of(&Delay::from(Dist::deterministic(1.0))).is_none());
        assert!(ExpTimer::of(&Delay::from_fn(|_, rng| rng.exponential(1.0))).is_none());
        let mut b = SanBuilder::new("deferrable");
        let p = b.place("p", 1);
        for (name, delay) in [
            ("det", Delay::from(Dist::deterministic(1.0))),
            ("keep", Delay::from(Dist::exponential(2.0))),
            ("closure", Delay::from_fn(|_, rng| rng.exponential(1.0))),
            ("resample", Delay::from(Dist::exponential(3.0))),
        ] {
            let a = b
                .timed_activity(name, delay)
                .input_arc(p, 1)
                .output_arc(p, 1);
            let a = if name == "resample" {
                a.reactivation(Reactivation::Resample)
            } else {
                a
            };
            a.build();
        }
        b.instantaneous_activity("inst", 0).input_arc(p, 2).build();
        let san = b.build().unwrap();
        // `Keep` and `Resample` exponentials alike; nothing else.
        assert_eq!(san.compiled.deferrable, [1, 3]);
    }

    #[test]
    fn exact_due_is_the_samplers_due_to_the_bit() {
        let (least, most) = eligibility_edges();
        let mut draws = SimRng::seed_from_u64(5);
        let mut sampler = draws.clone();
        for (k, rate) in [least, 1e-12, 0.3, 1.0, 7.5e4, 1e12, most]
            .into_iter()
            .cycle()
            .take(700)
            .enumerate()
        {
            let base = SimTime::from_secs(k as f64 * 1234.5);
            let u = draws.open_unit();
            let d = sampler.exponential(rate);
            let exp = exp_timer(rate).unwrap();
            assert_eq!(exp.exact_due(base, u), base + SimTime::from_secs(d));
            assert_eq!(draws.words_drawn(), sampler.words_drawn());
        }
    }

    /// Open uniforms as `SimRng::open_unit` draws them, `k·2⁻⁵³`: the
    /// least, around one half, just below one, and anywhere.
    fn unit() -> impl Strategy<Value = f64> {
        let ulp = 1.0 / (1u64 << 53) as f64;
        prop_oneof![
            (1u64..16).prop_map(move |k| k as f64 * ulp),
            (0u64..128).prop_map(move |k| 0.5 + (k as f64 - 64.0) * ulp),
            (1u64..4096).prop_map(move |k| 1.0 - k as f64 * ulp),
            (1u64..1 << 53).prop_map(move |k| k as f64 * ulp),
        ]
    }

    /// Rates from 1e-12 to 1e12, and at either eligibility edge.
    fn rate() -> impl Strategy<Value = f64> {
        let (least, most) = eligibility_edges();
        prop_oneof![
            6 => (-12.0f64..12.0).prop_map(|e| 10f64.powf(e)),
            1 => (0u64..8).prop_map(move |k| f64::from_bits(least.to_bits() + k)),
            1 => (0u64..8).prop_map(move |k| f64::from_bits(most.to_bits() - k)),
        ]
    }

    /// Draw times from 0 to 1e12 s.
    fn base() -> impl Strategy<Value = SimTime> {
        prop_oneof![
            1 => Just(SimTime::ZERO),
            4 => (-3.0f64..12.0).prop_map(|e| SimTime::from_secs(10f64.powf(e))),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

        /// The lower bound a deferred completion is kept under never
        /// exceeds the due time it resolves to.
        #[test]
        fn lower_due_never_exceeds_the_exact_due(u in unit(), rate in rate(), base in base()) {
            let exp = exp_timer(rate).unwrap();
            prop_assert!(exp.lower_due(base, u) <= exp.exact_due(base, u).as_secs());
        }
    }
}
