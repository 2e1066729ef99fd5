//! SAN definition and builder.

use crate::activity::{ActivityDef, ActivityId, Case, CaseWeight, Delay, Reactivation, Timing};
use crate::compiled::CompiledSan;
use crate::error::SanError;
use crate::gate::{InputGate, OutputGate};
use crate::marking::{FluidId, Marking, PlaceId};
use crate::pred::Pred;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Marking-dependent flow rate attached to a fluid place.
pub(crate) type FlowRate = Arc<dyn Fn(&Marking) -> f64 + Send + Sync>;

/// An immutable, validated Stochastic Activity Network.
///
/// Built with [`SanBuilder`]; executed by
/// [`Simulator`](crate::Simulator).
pub struct San {
    pub(crate) name: String,
    pub(crate) place_names: Vec<String>,
    pub(crate) initial_tokens: Vec<u64>,
    pub(crate) fluid_names: Vec<String>,
    pub(crate) initial_fluid: Vec<f64>,
    pub(crate) flows: Vec<(FluidId, FlowRate)>,
    pub(crate) activities: Vec<ActivityDef>,
    /// Flat arena form of the enabling rules and the dependency index,
    /// evaluated by the simulator's hot loop (see `compiled.rs`).
    pub(crate) compiled: CompiledSan,
}

impl San {
    /// The model's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of discrete places.
    #[must_use]
    pub fn place_count(&self) -> usize {
        self.place_names.len()
    }

    /// Number of fluid places.
    #[must_use]
    pub fn fluid_count(&self) -> usize {
        self.fluid_names.len()
    }

    /// Number of activities.
    #[must_use]
    pub fn activity_count(&self) -> usize {
        self.activities.len()
    }

    /// Looks up a place by name (submodels share state by name).
    #[must_use]
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.place_names.iter().position(|n| n == name).map(PlaceId)
    }

    /// Looks up an activity by name.
    #[must_use]
    pub fn activity_by_name(&self, name: &str) -> Option<ActivityId> {
        self.activities
            .iter()
            .position(|a| a.name == name)
            .map(ActivityId)
    }

    /// The name of a place.
    #[must_use]
    pub fn place_name(&self, id: PlaceId) -> &str {
        &self.place_names[id.0]
    }

    /// The name of an activity.
    #[must_use]
    pub fn activity_name(&self, id: ActivityId) -> &str {
        &self.activities[id.0].name
    }

    /// The initial marking.
    #[must_use]
    pub fn initial_marking(&self) -> Marking {
        Marking::new(self.initial_tokens.clone(), self.initial_fluid.clone())
    }

    /// Iterates over the fluid places' names (used by the DOT export).
    pub fn fluid_names_iter(&self) -> impl Iterator<Item = &str> + '_ {
        self.fluid_names.iter().map(String::as_str)
    }

    /// Iterates over every discrete place's id.
    pub fn place_ids(&self) -> impl Iterator<Item = PlaceId> + '_ {
        (0..self.place_names.len()).map(PlaceId)
    }

    /// Iterates over every activity's id.
    pub fn activity_ids(&self) -> impl Iterator<Item = ActivityId> + '_ {
        (0..self.activities.len()).map(ActivityId)
    }

    /// Evaluates `activity`'s enabling rule through its compiled form
    /// (place masks, interval requirements, gate programs) — the code
    /// path the simulator's hot loop runs. Equal to
    /// [`San::enabled_reference`] for every marking (the simulator's
    /// debug-build checks enforce this after every event).
    #[must_use]
    pub fn enabled_fast(&self, activity: ActivityId, marking: &Marking) -> bool {
        self.compiled.enabled(activity.0, marking)
    }

    /// Whether [`San::enabled_fast`] decides `activity` from the place
    /// masks alone: every input arc needs one token, and every gate is a
    /// conjunction of `Has`/`Empty` leaves and `Any`s of `Has` leaves,
    /// so no token count is read and no gate program runs.
    #[must_use]
    pub fn enabled_by_masks_alone(&self, activity: ActivityId) -> bool {
        self.compiled.masks_alone(activity.0)
    }

    /// Evaluates `activity`'s enabling rule by walking its definition
    /// (input arcs, then each gate's [`Pred::eval`]) — the semantic
    /// reference for [`San::enabled_fast`].
    #[must_use]
    pub fn enabled_reference(&self, activity: ActivityId, marking: &Marking) -> bool {
        self.activities[activity.0].enabled(marking)
    }

    pub(crate) fn activity_defs_iter(
        &self,
    ) -> impl Iterator<Item = &crate::activity::ActivityDef> + '_ {
        self.activities.iter()
    }
}

impl fmt::Debug for San {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("San")
            .field("name", &self.name)
            .field("places", &self.place_names.len())
            .field("fluid_places", &self.fluid_names.len())
            .field("activities", &self.activities.len())
            .finish()
    }
}

/// Incremental builder for a [`San`].
///
/// Composition by **state sharing**: several submodel-constructor
/// functions can be called against the same builder; places registered
/// with the same name resolve to the same [`PlaceId`], which is exactly
/// the submodel integration mechanism of the paper's Figure 1.
///
/// See the [crate-level example](crate) for usage.
pub struct SanBuilder {
    name: String,
    place_names: Vec<String>,
    place_index: HashMap<String, PlaceId>,
    initial_tokens: Vec<u64>,
    fluid_names: Vec<String>,
    fluid_index: HashMap<String, FluidId>,
    initial_fluid: Vec<f64>,
    flows: Vec<(FluidId, FlowRate)>,
    activities: Vec<ActivityDef>,
    errors: Vec<SanError>,
}

impl SanBuilder {
    /// Starts building a model with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> SanBuilder {
        SanBuilder {
            name: name.into(),
            place_names: Vec::new(),
            place_index: HashMap::new(),
            initial_tokens: Vec::new(),
            fluid_names: Vec::new(),
            fluid_index: HashMap::new(),
            initial_fluid: Vec::new(),
            flows: Vec::new(),
            activities: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Registers (or resolves) the place `name` with the given initial
    /// token count. Registering an existing name with the same initial
    /// marking returns the existing id — this is the state-sharing hook
    /// for composing submodels. Conflicting initial markings are recorded
    /// and reported by [`SanBuilder::build`].
    pub fn place(&mut self, name: impl Into<String>, initial: u64) -> PlaceId {
        let name = name.into();
        if let Some(&id) = self.place_index.get(&name) {
            if self.initial_tokens[id.0] != initial {
                self.errors
                    .push(SanError::ConflictingInitialMarking { place: name });
            }
            return id;
        }
        let id = PlaceId(self.place_names.len());
        self.place_index.insert(name.clone(), id);
        self.place_names.push(name);
        self.initial_tokens.push(initial);
        id
    }

    /// Resolves an already-registered place by name without declaring an
    /// initial marking (for read-only sharing).
    #[must_use]
    pub fn existing_place(&self, name: &str) -> Option<PlaceId> {
        self.place_index.get(name).copied()
    }

    /// Registers (or resolves) a fluid place. Same sharing rules as
    /// [`SanBuilder::place`] (initial levels are compared bitwise).
    pub fn fluid_place(&mut self, name: impl Into<String>, initial: f64) -> FluidId {
        let name = name.into();
        if let Some(&id) = self.fluid_index.get(&name) {
            if self.initial_fluid[id.0].to_bits() != initial.to_bits() {
                self.errors
                    .push(SanError::ConflictingInitialMarking { place: name });
            }
            return id;
        }
        let id = FluidId(self.fluid_names.len());
        self.fluid_index.insert(name.clone(), id);
        self.fluid_names.push(name);
        self.initial_fluid.push(initial);
        id
    }

    /// Attaches a marking-dependent flow rate to a fluid place; the
    /// simulator integrates `level += rate(marking) · dt` between events.
    /// Multiple flows on the same place sum.
    pub fn flow<F>(&mut self, fluid: FluidId, rate: F)
    where
        F: Fn(&Marking) -> f64 + Send + Sync + 'static,
    {
        self.flows.push((fluid, Arc::new(rate)));
    }

    /// Starts defining a timed activity.
    pub fn timed_activity(&mut self, name: impl Into<String>, delay: Delay) -> ActivityBuilder<'_> {
        ActivityBuilder::new(self, name.into(), Timing::Timed(delay))
    }

    /// Starts defining an instantaneous activity with the given priority
    /// (higher fires first).
    pub fn instantaneous_activity(
        &mut self,
        name: impl Into<String>,
        priority: u32,
    ) -> ActivityBuilder<'_> {
        ActivityBuilder::new(self, name.into(), Timing::Instantaneous { priority })
    }

    /// Validates and freezes the model.
    ///
    /// # Errors
    ///
    /// Returns the first construction error recorded: conflicting shared
    /// places, effect-free activities, or an empty model.
    pub fn build(self) -> Result<San, SanError> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        if self.activities.is_empty() {
            return Err(SanError::EmptyModel);
        }
        for a in &self.activities {
            let has_effect = a
                .cases
                .iter()
                .any(|c| !c.output_arcs.is_empty() || !c.output_gates.is_empty())
                || !a.input_gates.is_empty()
                || !a.input_arcs.is_empty();
            if !has_effect {
                return Err(SanError::ActivityWithoutEffect {
                    activity: a.name.clone(),
                });
            }
        }
        let compiled = CompiledSan::build(self.place_names.len(), &self.activities);
        Ok(San {
            name: self.name,
            place_names: self.place_names,
            initial_tokens: self.initial_tokens,
            fluid_names: self.fluid_names,
            initial_fluid: self.initial_fluid,
            flows: self.flows,
            activities: self.activities,
            compiled,
        })
    }
}

impl fmt::Debug for SanBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SanBuilder")
            .field("name", &self.name)
            .field("places", &self.place_names.len())
            .field("activities", &self.activities.len())
            .finish()
    }
}

/// Fluent definition of one activity; terminal method is
/// [`ActivityBuilder::build`].
///
/// If no case is declared explicitly, the output arcs/gates added with
/// [`ActivityBuilder::output_arc`] / [`ActivityBuilder::output_gate`]
/// form a single implicit case.
pub struct ActivityBuilder<'a> {
    san: &'a mut SanBuilder,
    name: String,
    timing: Timing,
    reactivation: Reactivation,
    input_arcs: Vec<(PlaceId, u64)>,
    input_gates: Vec<InputGate>,
    default_case: Case,
    cases: Vec<Case>,
}

impl<'a> ActivityBuilder<'a> {
    fn new(san: &'a mut SanBuilder, name: String, timing: Timing) -> ActivityBuilder<'a> {
        ActivityBuilder {
            san,
            name,
            timing,
            reactivation: Reactivation::Keep,
            input_arcs: Vec::new(),
            input_gates: Vec::new(),
            default_case: Case {
                weight: CaseWeight::Fixed(1.0),
                output_arcs: Vec::new(),
                output_gates: Vec::new(),
            },
            cases: Vec::new(),
        }
    }

    /// Sets the reactivation policy (default [`Reactivation::Keep`]).
    #[must_use]
    pub fn reactivation(mut self, r: Reactivation) -> Self {
        self.reactivation = r;
        self
    }

    /// Requires (and consumes on firing) `count` tokens from `place`.
    #[must_use]
    pub fn input_arc(mut self, place: PlaceId, count: u64) -> Self {
        self.input_arcs.push((place, count));
        self
    }

    /// Attaches an input gate.
    #[must_use]
    pub fn input_gate(mut self, gate: InputGate) -> Self {
        self.input_gates.push(gate);
        self
    }

    /// Shorthand for a declarative predicate-only input gate
    /// ([`InputGate::when`]): the read set is derived from the
    /// expression and the predicate is compiled into the model's flat
    /// gate program.
    #[must_use]
    pub fn enabled_if(self, name: &str, pred: Pred) -> Self {
        self.input_gate(InputGate::when(name, pred))
    }

    /// Adds `count` tokens to `place` on firing (implicit single case).
    #[must_use]
    pub fn output_arc(mut self, place: PlaceId, count: u64) -> Self {
        self.default_case.output_arcs.push((place, count));
        self
    }

    /// Attaches an output gate to the implicit single case.
    #[must_use]
    pub fn output_gate(mut self, gate: OutputGate) -> Self {
        self.default_case.output_gates.push(gate);
        self
    }

    /// Shorthand: applies `f` to the marking on firing (implicit case).
    #[must_use]
    pub fn effect<F>(self, name: &str, f: F) -> Self
    where
        F: Fn(&mut Marking) + Send + Sync + 'static,
    {
        self.output_gate(OutputGate::new(name, f))
    }

    /// Adds an explicit probabilistic case with fixed `weight`;
    /// `configure` receives a [`CaseBuilder`] to declare the case's
    /// effects.
    #[must_use]
    pub fn case<F>(mut self, weight: f64, configure: F) -> Self
    where
        F: FnOnce(CaseBuilder) -> CaseBuilder,
    {
        let cb = configure(CaseBuilder {
            case: Case {
                weight: CaseWeight::Fixed(weight),
                output_arcs: Vec::new(),
                output_gates: Vec::new(),
            },
        });
        self.cases.push(cb.case);
        self
    }

    /// Adds an explicit case whose weight is computed from the marking at
    /// firing time.
    #[must_use]
    pub fn case_weighted_by<W, F>(mut self, weight: W, configure: F) -> Self
    where
        W: Fn(&Marking) -> f64 + Send + Sync + 'static,
        F: FnOnce(CaseBuilder) -> CaseBuilder,
    {
        let cb = configure(CaseBuilder {
            case: Case {
                weight: CaseWeight::MarkingDependent(Arc::new(weight)),
                output_arcs: Vec::new(),
                output_gates: Vec::new(),
            },
        });
        self.cases.push(cb.case);
        self
    }

    /// Finalizes the activity and registers it with the model, returning
    /// its handle.
    pub fn build(self) -> ActivityId {
        let cases = if self.cases.is_empty() {
            vec![self.default_case]
        } else {
            debug_assert!(
                self.default_case.output_arcs.is_empty()
                    && self.default_case.output_gates.is_empty(),
                "activity '{}' mixes implicit outputs with explicit cases",
                self.name
            );
            self.cases
        };
        let id = ActivityId(self.san.activities.len());
        self.san.activities.push(ActivityDef {
            name: self.name,
            timing: self.timing,
            reactivation: self.reactivation,
            input_arcs: self.input_arcs,
            input_gates: self.input_gates,
            cases,
        });
        id
    }
}

impl fmt::Debug for ActivityBuilder<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActivityBuilder")
            .field("name", &self.name)
            .finish()
    }
}

/// Declares the effects of one explicit case.
#[derive(Debug)]
pub struct CaseBuilder {
    case: Case,
}

impl CaseBuilder {
    /// Adds `count` tokens to `place` when this case is chosen.
    #[must_use]
    pub fn output_arc(mut self, place: PlaceId, count: u64) -> CaseBuilder {
        self.case.output_arcs.push((place, count));
        self
    }

    /// Attaches an output gate to this case.
    #[must_use]
    pub fn output_gate(mut self, gate: OutputGate) -> CaseBuilder {
        self.case.output_gates.push(gate);
        self
    }

    /// Shorthand: applies `f` to the marking when this case is chosen.
    #[must_use]
    pub fn effect<F>(self, name: &str, f: F) -> CaseBuilder
    where
        F: Fn(&mut Marking) + Send + Sync + 'static,
    {
        self.output_gate(OutputGate::new(name, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_stats::Dist;

    #[test]
    fn shared_places_resolve_to_same_id() {
        let mut b = SanBuilder::new("m");
        let a = b.place("shared", 1);
        let a2 = b.place("shared", 1);
        assert_eq!(a, a2);
        assert_eq!(b.existing_place("shared"), Some(a));
        assert_eq!(b.existing_place("missing"), None);
    }

    #[test]
    fn conflicting_initial_marking_is_reported() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let _ = b.place("p", 2);
        b.timed_activity("a", Delay::from(Dist::deterministic(1.0)))
            .input_arc(p, 1)
            .output_arc(p, 1)
            .build();
        assert!(matches!(
            b.build(),
            Err(SanError::ConflictingInitialMarking { .. })
        ));
    }

    #[test]
    fn empty_model_is_rejected() {
        let b = SanBuilder::new("empty");
        assert_eq!(b.build().unwrap_err(), SanError::EmptyModel);
    }

    #[test]
    fn effect_free_activity_is_rejected() {
        let mut b = SanBuilder::new("m");
        let _ = b.place("p", 1);
        b.timed_activity("noop", Delay::from(Dist::deterministic(1.0)))
            .build();
        assert!(matches!(
            b.build(),
            Err(SanError::ActivityWithoutEffect { .. })
        ));
    }

    #[test]
    fn lookups_by_name() {
        let mut b = SanBuilder::new("m");
        let p = b.place("exec", 1);
        let q = b.place("done", 0);
        let a = b
            .timed_activity("run", Delay::from(Dist::deterministic(1.0)))
            .input_arc(p, 1)
            .output_arc(q, 1)
            .build();
        let san = b.build().unwrap();
        assert_eq!(san.place_by_name("exec"), Some(p));
        assert_eq!(san.place_by_name("done"), Some(q));
        assert_eq!(san.place_by_name("nope"), None);
        assert_eq!(san.activity_by_name("run"), Some(a));
        assert_eq!(san.activity_name(a), "run");
        assert_eq!(san.place_name(p), "exec");
        assert_eq!(san.place_count(), 2);
        assert_eq!(san.activity_count(), 1);
    }

    #[test]
    fn initial_marking_matches_declarations() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 3);
        let f = b.fluid_place("acc", 1.5);
        b.timed_activity("a", Delay::from(Dist::deterministic(1.0)))
            .input_arc(p, 1)
            .output_arc(p, 1)
            .build();
        let san = b.build().unwrap();
        let m = san.initial_marking();
        assert_eq!(m.tokens(p), 3);
        assert_eq!(m.fluid(f), 1.5);
        assert_eq!(san.fluid_count(), 1);
    }

    #[test]
    fn debug_is_nonempty() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 0);
        let ab = b.timed_activity("a", Delay::from(Dist::deterministic(1.0)));
        assert!(format!("{ab:?}").contains('a'));
        let _ = ab.input_arc(p, 1).output_arc(p, 1).build();
        assert!(format!("{b:?}").contains('m'));
        let san = b.build().unwrap();
        assert!(format!("{san:?}").contains('m'));
    }
}
