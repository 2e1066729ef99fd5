//! Input and output gates.
//!
//! An input gate's enabling condition is always a declarative [`Pred`]:
//! its read set is derived from the expression and
//! [`SanBuilder::build`](crate::SanBuilder::build) compiles it into the
//! model's flat gate program. Only the gate's firing *function* is an
//! opaque closure, and its writes are tracked by the marking itself.

use crate::marking::{Marking, PlaceId};
use crate::pred::Pred;
use std::fmt;
use std::sync::Arc;

/// Marking-transformation half of a gate.
pub type GateFunction = Arc<dyn Fn(&mut Marking) + Send + Sync>;

/// An input gate: the activity it is attached to is enabled only while
/// the predicate holds, and the gate's function is applied to the marking
/// when the activity fires (after input arcs are consumed).
#[derive(Clone)]
pub struct InputGate {
    name: String,
    predicate: Pred,
    function: GateFunction,
}

impl InputGate {
    /// A pure enabling condition given as a declarative [`Pred`]
    /// expression, with no marking effect.
    pub fn when(name: impl Into<String>, pred: Pred) -> InputGate {
        InputGate::when_with(name, pred, |_| {})
    }

    /// A declarative [`Pred`] enabling condition plus a firing function
    /// (the function's writes are tracked by the marking itself and need
    /// no declaration).
    pub fn when_with<F>(name: impl Into<String>, pred: Pred, function: F) -> InputGate
    where
        F: Fn(&mut Marking) + Send + Sync + 'static,
    {
        InputGate {
            name: name.into(),
            predicate: pred,
            function: Arc::new(function),
        }
    }

    /// The discrete places the predicate reads, derived from the
    /// expression ([`Pred::reads`]): sorted, de-duplicated, and never
    /// short of a place the predicate depends on.
    #[must_use]
    pub fn declared_reads(&self) -> Vec<PlaceId> {
        self.predicate.reads()
    }

    /// The declarative expression behind this gate; the builder compiles
    /// it into the flat gate program.
    pub(crate) fn pred(&self) -> &Pred {
        &self.predicate
    }

    /// The gate's diagnostic name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluates the enabling predicate.
    #[must_use]
    pub fn holds(&self, marking: &Marking) -> bool {
        self.predicate.eval(marking)
    }

    /// Applies the firing function.
    pub fn apply(&self, marking: &mut Marking) {
        (self.function)(marking);
    }
}

impl fmt::Debug for InputGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InputGate")
            .field("name", &self.name)
            .finish()
    }
}

/// An output gate: a marking transformation applied when the activity
/// (case) it is attached to completes.
#[derive(Clone)]
pub struct OutputGate {
    name: String,
    function: GateFunction,
}

impl OutputGate {
    /// Creates an output gate from a firing function.
    pub fn new<F>(name: impl Into<String>, function: F) -> OutputGate
    where
        F: Fn(&mut Marking) + Send + Sync + 'static,
    {
        OutputGate {
            name: name.into(),
            function: Arc::new(function),
        }
    }

    /// The gate's diagnostic name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Applies the firing function.
    pub fn apply(&self, marking: &mut Marking) {
        (self.function)(marking);
    }
}

impl fmt::Debug for OutputGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OutputGate")
            .field("name", &self.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marking::PlaceId;

    fn marking() -> Marking {
        Marking::new(vec![2, 0], vec![])
    }

    #[test]
    fn output_gate_applies() {
        let p1 = PlaceId(1);
        let g = OutputGate::new("emit", move |m| m.add_tokens(p1, 3));
        let mut m = marking();
        g.apply(&mut m);
        assert_eq!(m.tokens(p1), 3);
        assert_eq!(g.name(), "emit");
    }

    #[test]
    fn debug_shows_name() {
        let g = OutputGate::new("emit", |_| {});
        assert!(format!("{g:?}").contains("emit"));
    }

    #[test]
    fn pred_gate_derives_reads_and_evaluates() {
        use crate::pred::Pred;
        let p0 = PlaceId(0);
        let p1 = PlaceId(1);
        let g = InputGate::when("both", Pred::has(p0).and(Pred::empty(p1)));
        assert_eq!(g.declared_reads(), vec![p0, p1]);
        let mut m = marking(); // tokens [2, 0]
        assert!(g.holds(&m));
        m.add_tokens(p1, 1);
        assert!(!g.holds(&m));
        // `when` gates have no marking effect.
        let v = m.version();
        g.apply(&mut m);
        assert_eq!(m.version(), v);
    }

    #[test]
    fn pred_gate_with_function_applies() {
        use crate::pred::Pred;
        let p0 = PlaceId(0);
        let p1 = PlaceId(1);
        let g = InputGate::when_with("drain", Pred::at_least(p0, 2), move |m| {
            m.remove_tokens(p0, 2);
            m.add_tokens(p1, 1);
        });
        let mut m = marking();
        assert!(g.holds(&m));
        g.apply(&mut m);
        assert_eq!(m.tokens(p0), 0);
        assert_eq!(m.tokens(p1), 1);
        assert!(!g.holds(&m));
    }
}
