//! Activities: the transitions of a SAN.

use crate::gate::{InputGate, OutputGate};
use crate::marking::{Marking, PlaceId};
use ckpt_des::SimRng;
use ckpt_stats::{Dist, Sample};
use std::fmt;
use std::sync::Arc;

/// Handle to an activity within a [`San`](crate::San).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActivityId(pub(crate) usize);

impl fmt::Display for ActivityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "activity#{}", self.0)
    }
}

/// Marking-dependent delay sampler.
pub type DelayFn = Arc<dyn Fn(&Marking, &mut SimRng) -> f64 + Send + Sync>;

/// How long a timed activity takes from enabling to completion.
#[derive(Clone)]
pub enum Delay {
    /// A fixed distribution (the common case).
    Dist(Dist),
    /// A marking-dependent sampler, e.g. an exponential whose rate
    /// depends on whether the system is inside a correlated-failure
    /// window.
    MarkingDependent(DelayFn),
}

impl Delay {
    /// A marking-dependent delay from a closure.
    pub fn from_fn<F>(f: F) -> Delay
    where
        F: Fn(&Marking, &mut SimRng) -> f64 + Send + Sync + 'static,
    {
        Delay::MarkingDependent(Arc::new(f))
    }

    /// Samples a completion delay for the current marking.
    #[must_use]
    pub fn sample(&self, marking: &Marking, rng: &mut SimRng) -> f64 {
        match self {
            Delay::Dist(d) => d.sample(rng),
            Delay::MarkingDependent(f) => f(marking, rng),
        }
    }
}

impl From<Dist> for Delay {
    fn from(d: Dist) -> Delay {
        Delay::Dist(d)
    }
}

impl fmt::Debug for Delay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Delay::Dist(d) => write!(f, "Delay::Dist({d})"),
            Delay::MarkingDependent(_) => write!(f, "Delay::MarkingDependent(..)"),
        }
    }
}

/// Timing class of an activity.
#[derive(Debug, Clone)]
pub enum Timing {
    /// Fires after a sampled delay once enabled.
    Timed(Delay),
    /// Fires immediately when enabled; among simultaneously enabled
    /// instantaneous activities, higher priority fires first (ties break
    /// by definition order).
    Instantaneous {
        /// Firing priority (higher first).
        priority: u32,
    },
}

/// What happens to an already-scheduled timed activity when the marking
/// changes while it remains enabled.
///
/// * [`Reactivation::Keep`] — classic "race with enabling memory": the
///   sampled completion time stands. Use for deterministic timers whose
///   clock must keep running (the checkpoint-interval timer, the master
///   timeout).
/// * [`Reactivation::Resample`] — the activity is aborted and resampled
///   from the new marking. Correct (and required) for marking-dependent
///   exponential rates, where memorylessness makes resampling exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reactivation {
    /// Keep the scheduled completion time.
    #[default]
    Keep,
    /// Resample the delay whenever the marking changes.
    Resample,
}

/// One probabilistic outcome of an activity completion.
#[derive(Debug, Clone)]
pub struct Case {
    /// Marking-dependent weight (normalized over all cases at firing).
    pub(crate) weight: CaseWeight,
    /// Tokens added when this case is chosen.
    pub(crate) output_arcs: Vec<(PlaceId, u64)>,
    /// Output gates applied when this case is chosen.
    pub(crate) output_gates: Vec<OutputGate>,
}

/// Weight of a case: fixed or marking-dependent.
#[derive(Clone)]
pub enum CaseWeight {
    /// A constant weight.
    Fixed(f64),
    /// A weight computed from the marking at firing time.
    MarkingDependent(Arc<dyn Fn(&Marking) -> f64 + Send + Sync>),
}

impl CaseWeight {
    pub(crate) fn eval(&self, marking: &Marking) -> f64 {
        match self {
            CaseWeight::Fixed(w) => *w,
            CaseWeight::MarkingDependent(f) => f(marking),
        }
    }
}

impl fmt::Debug for CaseWeight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaseWeight::Fixed(w) => write!(f, "CaseWeight::Fixed({w})"),
            CaseWeight::MarkingDependent(_) => write!(f, "CaseWeight::MarkingDependent(..)"),
        }
    }
}

/// Full definition of one activity.
#[derive(Debug)]
pub struct ActivityDef {
    pub(crate) name: String,
    pub(crate) timing: Timing,
    pub(crate) reactivation: Reactivation,
    pub(crate) input_arcs: Vec<(PlaceId, u64)>,
    pub(crate) input_gates: Vec<InputGate>,
    pub(crate) cases: Vec<Case>,
}

impl ActivityDef {
    /// True when every input arc is satisfied and every input-gate
    /// predicate holds.
    #[must_use]
    pub fn enabled(&self, marking: &Marking) -> bool {
        self.input_arcs
            .iter()
            .all(|&(p, need)| marking.tokens(p) >= need)
            && self.input_gates.iter().all(|g| g.holds(marking))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marking::Marking;
    use crate::pred::Pred;

    #[test]
    fn delay_from_dist_samples() {
        let d = Delay::from(Dist::deterministic(2.0));
        let m = Marking::new(vec![], vec![]);
        let mut rng = SimRng::seed_from_u64(0);
        assert_eq!(d.sample(&m, &mut rng), 2.0);
    }

    #[test]
    fn delay_marking_dependent() {
        let p = PlaceId(0);
        let d = Delay::from_fn(move |m, rng| {
            let rate = if m.has_token(p) { 10.0 } else { 1.0 };
            rng.exponential(rate)
        });
        let mut rng = SimRng::seed_from_u64(1);
        let fast = Marking::new(vec![1], vec![]);
        let slow = Marking::new(vec![0], vec![]);
        let nf = 50_000;
        let mean_fast: f64 =
            (0..nf).map(|_| d.sample(&fast, &mut rng)).sum::<f64>() / f64::from(nf);
        let mean_slow: f64 =
            (0..nf).map(|_| d.sample(&slow, &mut rng)).sum::<f64>() / f64::from(nf);
        assert!((mean_fast - 0.1).abs() < 0.01);
        assert!((mean_slow - 1.0).abs() < 0.05);
    }

    #[test]
    fn enabled_requires_arcs_and_gates() {
        let p = PlaceId(0);
        let q = PlaceId(1);
        let def = ActivityDef {
            name: "a".into(),
            timing: Timing::Instantaneous { priority: 0 },
            reactivation: Reactivation::Keep,
            input_arcs: vec![(p, 1)],
            input_gates: vec![InputGate::when("no_q", Pred::empty(q))],
            cases: vec![],
        };
        assert!(def.enabled(&Marking::new(vec![1, 0], vec![])));
        assert!(!def.enabled(&Marking::new(vec![0, 0], vec![])));
        assert!(!def.enabled(&Marking::new(vec![1, 1], vec![])));
    }

    #[test]
    fn case_weight_eval() {
        let m = Marking::new(vec![3], vec![]);
        assert_eq!(CaseWeight::Fixed(0.5).eval(&m), 0.5);
        let p = PlaceId(0);
        let w = CaseWeight::MarkingDependent(Arc::new(move |m: &Marking| m.tokens(p) as f64));
        assert_eq!(w.eval(&m), 3.0);
    }

    #[test]
    fn debug_formats() {
        assert!(format!("{:?}", Delay::from(Dist::exponential(1.0))).contains("Exp"));
        assert!(format!("{:?}", CaseWeight::Fixed(1.0)).contains("Fixed"));
    }
}
