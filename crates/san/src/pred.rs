//! Declarative gate predicates.
//!
//! A [`Pred`] is a small boolean expression tree over discrete place
//! token counts, and the only form an input gate's enabling condition
//! takes. It is *inspectable*: the builder derives the gate's read set
//! from it ([`Pred::reads`]), so no hand-maintained declaration can go
//! stale, and [`San::build`](crate::SanBuilder::build) compiles it into
//! a flat postfix program evaluated with no dynamic dispatch in the hot
//! loop (see `compiled.rs`). [`Pred::eval`] is the reference semantics
//! the compiled form must match; the simulator's debug-build checks
//! evaluate gates with it.
//!
//! ```
//! use ckpt_san::{Pred, SanBuilder};
//!
//! let mut b = SanBuilder::new("demo");
//! let busy = b.place("busy", 0);
//! let down = b.place("down", 0);
//! // enabled while busy ≥ 1 and down == 0
//! let pred = Pred::has(busy).and(Pred::empty(down));
//! assert_eq!(pred.reads(), vec![busy, down]);
//! ```

use crate::marking::{Marking, PlaceId};

/// A declarative enabling predicate over discrete place token counts.
///
/// Build leaves with [`Pred::has`] / [`Pred::empty`] /
/// [`Pred::at_least`], combine with [`Pred::and`] / [`Pred::or`] /
/// [`Pred::negate`]. Attach to an activity via
/// [`crate::InputGate::when`] or
/// [`ActivityBuilder::enabled_if`](crate::ActivityBuilder::enabled_if).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pred {
    /// `tokens(place) >= 1`.
    Has(PlaceId),
    /// `tokens(place) == 0`.
    Empty(PlaceId),
    /// `tokens(place) >= n`.
    AtLeast(PlaceId, u64),
    /// Logical negation.
    Not(Box<Pred>),
    /// Conjunction; an empty list is `true`.
    All(Vec<Pred>),
    /// Disjunction; an empty list is `false`.
    Any(Vec<Pred>),
}

impl Pred {
    /// `tokens(place) >= 1`.
    #[must_use]
    pub fn has(place: PlaceId) -> Pred {
        Pred::Has(place)
    }

    /// `tokens(place) == 0`.
    #[must_use]
    pub fn empty(place: PlaceId) -> Pred {
        Pred::Empty(place)
    }

    /// `tokens(place) >= n`.
    #[must_use]
    pub fn at_least(place: PlaceId, n: u64) -> Pred {
        Pred::AtLeast(place, n)
    }

    /// `self && other`.
    #[must_use]
    pub fn and(self, other: Pred) -> Pred {
        match self {
            Pred::All(mut xs) => {
                xs.push(other);
                Pred::All(xs)
            }
            first => Pred::All(vec![first, other]),
        }
    }

    /// `self || other`.
    #[must_use]
    pub fn or(self, other: Pred) -> Pred {
        match self {
            Pred::Any(mut xs) => {
                xs.push(other);
                Pred::Any(xs)
            }
            first => Pred::Any(vec![first, other]),
        }
    }

    /// `!self`.
    #[must_use]
    pub fn negate(self) -> Pred {
        match self {
            Pred::Has(p) => Pred::Empty(p),
            Pred::Empty(p) => Pred::Has(p),
            other => Pred::Not(Box::new(other)),
        }
    }

    /// Evaluates the predicate against a marking (reference semantics;
    /// the hot loop runs the compiled form instead).
    #[must_use]
    pub fn eval(&self, marking: &Marking) -> bool {
        match self {
            Pred::Has(p) => marking.tokens(*p) >= 1,
            Pred::Empty(p) => marking.tokens(*p) == 0,
            Pred::AtLeast(p, n) => marking.tokens(*p) >= *n,
            Pred::Not(inner) => !inner.eval(marking),
            Pred::All(xs) => xs.iter().all(|x| x.eval(marking)),
            Pred::Any(xs) => xs.iter().any(|x| x.eval(marking)),
        }
    }

    /// The discrete places this predicate reads, sorted and de-duplicated.
    ///
    /// This is the gate's dependency set
    /// ([`crate::InputGate::declared_reads`]) — derived, so it can never
    /// under-declare.
    #[must_use]
    pub fn reads(&self) -> Vec<PlaceId> {
        let mut places = Vec::new();
        self.collect_reads(&mut places);
        places.sort_unstable();
        places.dedup();
        places
    }

    fn collect_reads(&self, out: &mut Vec<PlaceId>) {
        match self {
            Pred::Has(p) | Pred::Empty(p) | Pred::AtLeast(p, _) => out.push(*p),
            Pred::Not(inner) => inner.collect_reads(out),
            Pred::All(xs) | Pred::Any(xs) => {
                for x in xs {
                    x.collect_reads(out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn marking() -> Marking {
        Marking::new(vec![2, 0, 1], vec![])
    }

    #[test]
    fn leaves_evaluate() {
        let m = marking();
        assert!(Pred::has(PlaceId(0)).eval(&m));
        assert!(!Pred::has(PlaceId(1)).eval(&m));
        assert!(Pred::empty(PlaceId(1)).eval(&m));
        assert!(!Pred::empty(PlaceId(2)).eval(&m));
        assert!(Pred::at_least(PlaceId(0), 2).eval(&m));
        assert!(!Pred::at_least(PlaceId(0), 3).eval(&m));
        assert!(Pred::at_least(PlaceId(1), 0).eval(&m));
    }

    #[test]
    fn combinators_evaluate() {
        let m = marking();
        let t = Pred::has(PlaceId(0));
        let f = Pred::has(PlaceId(1));
        assert!(t.clone().and(Pred::has(PlaceId(2))).eval(&m));
        assert!(!t.clone().and(f.clone()).eval(&m));
        assert!(t.clone().or(f.clone()).eval(&m));
        assert!(f.clone().or(t.clone()).eval(&m));
        assert!(!f.clone().or(Pred::has(PlaceId(1))).eval(&m));
        assert!(f.negate().eval(&m));
        assert!(!t.negate().eval(&m));
        assert!(Pred::All(vec![]).eval(&m));
        assert!(!Pred::Any(vec![]).eval(&m));
    }

    #[test]
    fn negate_folds_leaf_duals() {
        assert_eq!(Pred::has(PlaceId(3)).negate(), Pred::empty(PlaceId(3)));
        assert_eq!(Pred::empty(PlaceId(3)).negate(), Pred::has(PlaceId(3)));
        let deep = Pred::at_least(PlaceId(1), 2).negate();
        assert!(matches!(deep, Pred::Not(_)));
        let m = marking();
        assert!(deep.eval(&m));
    }

    #[test]
    fn and_or_chains_flatten() {
        let p = Pred::has(PlaceId(0))
            .and(Pred::has(PlaceId(1)))
            .and(Pred::has(PlaceId(2)));
        assert!(matches!(&p, Pred::All(xs) if xs.len() == 3));
        let q = Pred::has(PlaceId(0))
            .or(Pred::has(PlaceId(1)))
            .or(Pred::has(PlaceId(2)));
        assert!(matches!(&q, Pred::Any(xs) if xs.len() == 3));
    }

    #[test]
    fn reads_are_sorted_and_deduped() {
        let p = Pred::has(PlaceId(2))
            .and(Pred::empty(PlaceId(0)))
            .and(Pred::at_least(PlaceId(2), 3))
            .or(Pred::has(PlaceId(1)).negate());
        assert_eq!(p.reads(), vec![PlaceId(0), PlaceId(1), PlaceId(2)]);
    }
}
