//! Counters and sim-time-weighted phase accumulators.

use crate::{ObsEvent, Observer, PhaseKind, PhaseTimes};
use ckpt_des::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// In-flight state of an open measurement window.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cursor {
    phase: PhaseKind,
    start: SimTime,
    last: SimTime,
}

/// A registry of event counters and phase-time accumulators driven
/// entirely by observed events.
///
/// Phase times are accumulated by integrating `Phase` transitions
/// against sim time between [`Observer::on_window_begin`] and
/// [`Observer::on_window_end`], *independently* of the engines' own
/// bookkeeping (the direct simulator's clock-advance accounting, the
/// SAN engine's rate rewards). That makes the registry a cross-check:
/// [`reconcile`](MetricsRegistry::reconcile) verifies both paths agree,
/// and the phase total telescopes to the window length exactly.
///
/// All maps are ordered (`BTreeMap`), so iteration and JSON output are
/// deterministic; [`merge`](MetricsRegistry::merge) combines closed
/// per-replication registries in replication-index order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    activities: BTreeMap<String, u64>,
    rewards: BTreeMap<String, f64>,
    phase_times: PhaseTimes,
    window_secs: f64,
    cursor: Option<Cursor>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Count of a model-event counter (see [`crate::ModelEvent::counter_key`]).
    #[must_use]
    pub fn count(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Times a SAN activity fired (0 for the direct engine).
    #[must_use]
    pub fn activity_firings(&self, name: &str) -> u64 {
        self.activities.get(name).copied().unwrap_or(0)
    }

    /// Last observed running total of a SAN reward variable.
    #[must_use]
    pub fn reward(&self, name: &str) -> Option<f64> {
        self.rewards.get(name).copied()
    }

    /// Accumulated phase times over all closed windows.
    #[must_use]
    pub fn phase_times(&self) -> PhaseTimes {
        self.phase_times
    }

    /// Total length of all closed measurement windows, in seconds —
    /// computed from window endpoints, independently of the per-phase
    /// accumulation.
    #[must_use]
    pub fn window_secs(&self) -> f64 {
        self.window_secs
    }

    fn advance(&mut self, at: SimTime) {
        if let Some(c) = &mut self.cursor {
            self.phase_times.add(c.phase, (at - c.last).as_secs());
            c.last = at;
        }
    }

    /// Folds another (closed) registry into this one: counters and
    /// phase times add, reward totals add, window lengths add.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.activities {
            if let Some(slot) = self.activities.get_mut(k.as_str()) {
                *slot += v;
            } else {
                self.activities.insert(k.clone(), *v);
            }
        }
        for (k, v) in &other.rewards {
            if let Some(slot) = self.rewards.get_mut(k.as_str()) {
                *slot += v;
            } else {
                self.rewards.insert(k.clone(), *v);
            }
        }
        self.phase_times.accumulate(&other.phase_times);
        self.window_secs += other.window_secs;
    }

    /// Cross-checks the registry's phase times against an engine's own
    /// estimate (direct-simulator clock accounting or SAN rate
    /// rewards). Each phase must agree within `rel_tol` of the window
    /// length; both paths chunk floating-point additions differently,
    /// so exact equality is not expected.
    ///
    /// # Errors
    ///
    /// Returns the first phase whose disagreement exceeds the
    /// tolerance.
    pub fn reconcile(&self, reference: &PhaseTimes, rel_tol: f64) -> Result<(), ReconcileError> {
        let scale = self.window_secs.max(1.0);
        for phase in PhaseKind::ALL {
            let ours = self.phase_times.get(phase);
            let theirs = reference.get(phase);
            if (ours - theirs).abs() > rel_tol * scale {
                return Err(ReconcileError {
                    phase,
                    registry_secs: ours,
                    reference_secs: theirs,
                });
            }
        }
        Ok(())
    }

    /// The registry as one JSON object (deterministic field order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\"window_secs\":{:.6},", self.window_secs);
        s.push_str("\"phase_times_secs\":{");
        for (i, phase) in PhaseKind::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{}\":{:.6}",
                phase.key(),
                self.phase_times.get(*phase)
            ));
        }
        s.push_str("},\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{k}\":{v}"));
        }
        s.push_str("},\"activity_firings\":{");
        for (i, (k, v)) in self.activities.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{v}", crate::json_escape(k)));
        }
        s.push_str("},\"rewards\":{");
        for (i, (k, v)) in self.rewards.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{v:.6}", crate::json_escape(k)));
        }
        s.push_str("}}");
        s
    }
}

impl Observer for MetricsRegistry {
    fn on_event(&mut self, at: SimTime, event: ObsEvent<'_>) {
        match event {
            ObsEvent::Model(e) => {
                *self.counters.entry(e.counter_key()).or_insert(0) += 1;
            }
            ObsEvent::Phase(p) => {
                self.advance(at);
                if let Some(c) = &mut self.cursor {
                    c.phase = p;
                }
            }
            ObsEvent::ActivityFired { name } => {
                if let Some(v) = self.activities.get_mut(name) {
                    *v += 1;
                } else {
                    self.activities.insert(name.to_string(), 1);
                }
            }
            ObsEvent::RewardUpdate { name, total } => {
                if let Some(v) = self.rewards.get_mut(name) {
                    *v = total;
                } else {
                    self.rewards.insert(name.to_string(), total);
                }
            }
        }
    }

    fn on_window_begin(&mut self, at: SimTime, phase: PhaseKind) {
        self.cursor = Some(Cursor {
            phase,
            start: at,
            last: at,
        });
    }

    fn on_window_end(&mut self, at: SimTime) {
        self.advance(at);
        if let Some(c) = self.cursor.take() {
            self.window_secs += (at - c.start).as_secs();
        }
    }
}

/// A phase whose registry accumulation disagrees with the engine's own
/// estimate beyond the tolerance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconcileError {
    /// The disagreeing phase.
    pub phase: PhaseKind,
    /// Seconds the registry accumulated for the phase.
    pub registry_secs: f64,
    /// Seconds the engine's own estimate reports.
    pub reference_secs: f64,
}

impl fmt::Display for ReconcileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "phase {} disagrees: registry {:.6} s vs engine {:.6} s",
            self.phase.key(),
            self.registry_secs,
            self.reference_secs
        )
    }
}

impl std::error::Error for ReconcileError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelEvent;

    fn secs(t: f64) -> SimTime {
        SimTime::from_secs(t)
    }

    #[test]
    fn phase_accumulation_telescopes_to_window() {
        let mut r = MetricsRegistry::new();
        r.on_window_begin(secs(10.0), PhaseKind::Executing);
        r.on_event(secs(40.0), ObsEvent::Phase(PhaseKind::Coordinating));
        r.on_event(secs(45.0), ObsEvent::Phase(PhaseKind::Dumping));
        r.on_event(secs(55.0), ObsEvent::Phase(PhaseKind::Executing));
        r.on_window_end(secs(110.0));
        assert_eq!(r.window_secs(), 100.0);
        let p = r.phase_times();
        assert_eq!(p.get(PhaseKind::Executing), 30.0 + 55.0);
        assert_eq!(p.get(PhaseKind::Coordinating), 5.0);
        assert_eq!(p.get(PhaseKind::Dumping), 10.0);
        assert!((p.total() - r.window_secs()).abs() < 1e-12);
    }

    #[test]
    fn events_outside_window_add_no_time() {
        let mut r = MetricsRegistry::new();
        // No window opened: Phase events count no time.
        r.on_event(secs(5.0), ObsEvent::Phase(PhaseKind::Recovering));
        assert_eq!(r.phase_times().total(), 0.0);
        assert_eq!(r.window_secs(), 0.0);
    }

    #[test]
    fn counters_split_by_counter_key() {
        let mut r = MetricsRegistry::new();
        r.on_event(secs(0.0), ObsEvent::Model(ModelEvent::CheckpointInitiated));
        r.on_event(secs(1.0), ObsEvent::Model(ModelEvent::CheckpointInitiated));
        r.on_event(
            secs(2.0),
            ObsEvent::Model(ModelEvent::Rollback { from_buffer: true }),
        );
        assert_eq!(r.count("checkpoint_initiated"), 2);
        assert_eq!(r.count("rollback_from_buffer"), 1);
        assert_eq!(r.count("rollback_from_fs"), 0);
    }

    #[test]
    fn activity_and_reward_tracking() {
        let mut r = MetricsRegistry::new();
        r.on_event(secs(0.0), ObsEvent::ActivityFired { name: "coordinate" });
        r.on_event(secs(1.0), ObsEvent::ActivityFired { name: "coordinate" });
        r.on_event(
            secs(1.0),
            ObsEvent::RewardUpdate {
                name: "ckpts",
                total: 2.0,
            },
        );
        r.on_event(
            secs(2.0),
            ObsEvent::RewardUpdate {
                name: "ckpts",
                total: 3.0,
            },
        );
        assert_eq!(r.activity_firings("coordinate"), 2);
        assert_eq!(r.reward("ckpts"), Some(3.0));
        assert_eq!(r.reward("missing"), None);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = MetricsRegistry::new();
        a.on_window_begin(secs(0.0), PhaseKind::Executing);
        a.on_event(secs(0.0), ObsEvent::Model(ModelEvent::IoFailure));
        a.on_event(secs(0.0), ObsEvent::ActivityFired { name: "reboot" });
        a.on_window_end(secs(10.0));
        let mut b = a.clone();
        b.on_window_begin(secs(10.0), PhaseKind::Rebooting);
        b.on_window_end(secs(15.0));
        a.merge(&b);
        assert_eq!(a.count("io_failure"), 2);
        assert_eq!(a.activity_firings("reboot"), 2);
        assert_eq!(a.window_secs(), 25.0);
        assert_eq!(a.phase_times().get(PhaseKind::Rebooting), 5.0);
        assert!((a.phase_times().total() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn reconcile_tolerates_small_disagreement() {
        let mut r = MetricsRegistry::new();
        r.on_window_begin(secs(0.0), PhaseKind::Executing);
        r.on_window_end(secs(100.0));
        let mut close = PhaseTimes::default();
        close.add(PhaseKind::Executing, 100.0 + 1e-9);
        assert!(r.reconcile(&close, 1e-9).is_ok());
        let mut far = PhaseTimes::default();
        far.add(PhaseKind::Executing, 99.0);
        let err = r.reconcile(&far, 1e-9).unwrap_err();
        assert_eq!(err.phase, PhaseKind::Executing);
        assert!(err.to_string().contains("executing"));
    }

    #[test]
    fn json_shape_is_stable() {
        let mut r = MetricsRegistry::new();
        r.on_window_begin(secs(0.0), PhaseKind::Executing);
        r.on_event(secs(1.0), ObsEvent::Model(ModelEvent::CheckpointCompleted));
        r.on_window_end(secs(2.0));
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"window_secs\":2.000000"));
        assert!(j.contains("\"phase_times_secs\":{\"executing\":2.000000"));
        assert!(j.contains("\"checkpoint_completed\":1"));
    }
}
