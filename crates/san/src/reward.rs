//! Reward variables: how measures are extracted from a running SAN.

use crate::activity::ActivityId;
use crate::error::SanError;
use crate::marking::{Marking, PlaceId};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

type RateFn = Arc<dyn Fn(&Marking) -> f64 + Send + Sync>;
type ImpulseFn = Arc<dyn Fn(&Marking) -> f64 + Send + Sync>;

/// Specification of a reward variable.
///
/// A reward variable accumulates
/// * a **rate reward** — `∫ rate(marking(t)) dt` over the observation
///   window, and/or
/// * **impulse rewards** — a value added whenever one of the named
///   activities fires (evaluated on the marking *after* the firing).
///
/// The paper's *useful work* measure is a rate reward of 1 while the
/// compute nodes execute plus a negative impulse equal to the lost work
/// on every rollback.
#[derive(Clone)]
pub struct RewardSpec {
    name: String,
    rate: Option<RateFn>,
    /// Declared support of the rate function (see [`RewardSpec::reads`]).
    rate_reads: Option<Vec<PlaceId>>,
    impulses: Vec<(ActivityId, ImpulseFn)>,
}

impl RewardSpec {
    /// A pure rate reward.
    pub fn rate<F>(name: impl Into<String>, rate: F) -> RewardSpec
    where
        F: Fn(&Marking) -> f64 + Send + Sync + 'static,
    {
        RewardSpec {
            name: name.into(),
            rate: Some(Arc::new(rate)),
            rate_reads: None,
            impulses: Vec::new(),
        }
    }

    /// A reward with no rate component (impulses can be added with
    /// [`RewardSpec::with_impulse`]).
    pub fn impulse_only(name: impl Into<String>) -> RewardSpec {
        RewardSpec {
            name: name.into(),
            rate: None,
            rate_reads: None,
            impulses: Vec::new(),
        }
    }

    /// Declares the rate function's support: the discrete places its
    /// value depends on. A rate closure is opaque, so unlike a gate's
    /// [`Pred`](crate::Pred) its read set cannot be derived.
    ///
    /// A declared rate reward is evaluated only when one of these
    /// places changes (its value is cached between changes), instead of
    /// on every event. The declaration is a promise: the rate function
    /// must not read any *other* discrete place, nor fluid levels —
    /// fluid integration does not mark places dirty. Undeclared rate
    /// rewards are conservatively re-evaluated every event, which is
    /// always correct.
    #[must_use]
    pub fn reads(mut self, places: &[PlaceId]) -> RewardSpec {
        self.rate_reads = Some(places.to_vec());
        self
    }

    /// Adds an impulse: when `activity` fires, `value(marking_after)` is
    /// added to the accumulator.
    #[must_use]
    pub fn with_impulse<F>(mut self, activity: ActivityId, value: F) -> RewardSpec
    where
        F: Fn(&Marking) -> f64 + Send + Sync + 'static,
    {
        self.impulses.push((activity, Arc::new(value)));
        self
    }

    /// The variable's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn rate_fn(&self) -> Option<&RateFn> {
        self.rate.as_ref()
    }

    pub(crate) fn rate_reads(&self) -> Option<&[PlaceId]> {
        self.rate_reads.as_deref()
    }

    pub(crate) fn impulses(&self) -> &[(ActivityId, ImpulseFn)] {
        &self.impulses
    }
}

impl fmt::Debug for RewardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RewardSpec")
            .field("name", &self.name)
            .field("has_rate", &self.rate.is_some())
            .field("rate_reads", &self.rate_reads.as_ref().map(Vec::len))
            .field("impulses", &self.impulses.len())
            .finish()
    }
}

/// Accumulated value of one reward variable over an observation window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RewardValue {
    /// Total accumulated reward (rate integral + impulses).
    pub total: f64,
    /// Length of the observation window, in seconds.
    pub window: f64,
    /// Number of impulse events that contributed.
    pub impulse_count: u64,
}

impl RewardValue {
    /// Time-averaged reward `total / window` (0 over an empty window).
    #[must_use]
    pub fn time_average(&self) -> f64 {
        if self.window > 0.0 {
            self.total / self.window
        } else {
            0.0
        }
    }
}

/// The values of all reward variables after a run, indexed by name.
///
/// Backed by the simulator's prebuilt name→index map (shared via `Arc`,
/// maintained as rewards are registered) plus a dense value vector, so
/// producing a report allocates one small `Vec` instead of rebuilding a
/// `HashMap` of owned `String` keys on every call.
#[derive(Debug, Clone, Default)]
pub struct RewardReport {
    names: Arc<HashMap<String, usize>>,
    values: Vec<RewardValue>,
}

impl RewardReport {
    pub(crate) fn new(
        names: Arc<HashMap<String, usize>>,
        values: Vec<RewardValue>,
    ) -> RewardReport {
        debug_assert_eq!(names.len(), values.len());
        RewardReport { names, values }
    }

    /// The value of the named variable.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::UnknownReward`] for unregistered names.
    pub fn value(&self, name: &str) -> Result<RewardValue, SanError> {
        self.names
            .get(name)
            .map(|&i| self.values[i])
            .ok_or_else(|| SanError::UnknownReward { name: name.into() })
    }

    /// Iterates over `(name, value)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, RewardValue)> + '_ {
        self.names
            .iter()
            .map(|(k, &i)| (k.as_str(), self.values[i]))
    }

    /// Number of variables in the report.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the report is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_average() {
        let v = RewardValue {
            total: 50.0,
            window: 100.0,
            impulse_count: 2,
        };
        assert_eq!(v.time_average(), 0.5);
        let empty = RewardValue::default();
        assert_eq!(empty.time_average(), 0.0);
    }

    #[test]
    fn report_lookup() {
        let mut names = HashMap::new();
        names.insert("x".to_string(), 0usize);
        let r = RewardReport::new(
            Arc::new(names),
            vec![RewardValue {
                total: 1.0,
                window: 2.0,
                impulse_count: 0,
            }],
        );
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
        assert_eq!(r.value("x").unwrap().total, 1.0);
        assert!(matches!(
            r.value("y").unwrap_err(),
            SanError::UnknownReward { .. }
        ));
        let names: Vec<&str> = r.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["x"]);
    }

    #[test]
    fn spec_builders() {
        let s = RewardSpec::rate("r", |_| 1.0);
        assert_eq!(s.name(), "r");
        assert!(s.rate_fn().is_some());
        assert!(s.rate_reads().is_none());
        let s = RewardSpec::rate("r2", |_| 1.0).reads(&[PlaceId(3), PlaceId(5)]);
        assert_eq!(s.rate_reads().unwrap(), &[PlaceId(3), PlaceId(5)]);
        let s = RewardSpec::impulse_only("i").with_impulse(ActivityId(0), |_| -1.0);
        assert!(s.rate_fn().is_none());
        assert_eq!(s.impulses().len(), 1);
        assert!(format!("{s:?}").contains('i'));
    }
}
