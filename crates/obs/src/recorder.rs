//! The everything-on composite observer used by the experiment layer.

use crate::telemetry::ReplicationTelemetry;
use crate::{MetricsRegistry, ModelEvent, ObsEvent, Observer, PhaseKind, TraceBuffer};
use ckpt_des::telem::TelemetrySnapshot;
use ckpt_des::SimTime;

/// An observer bundling an optional [`TraceBuffer`], an optional
/// [`MetricsRegistry`], and optional [`ReplicationTelemetry`],
/// forwarding every notification to whichever are enabled. One
/// `Recorder` is attached per replication; the experiment layer
/// returns them in replication-index order so downstream merging is
/// deterministic at any `--jobs` value.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    trace: Option<TraceBuffer>,
    registry: Option<MetricsRegistry>,
    telemetry: Option<ReplicationTelemetry>,
    /// Sim time of the last failure event in the current window, for
    /// the inter-failure gap histogram.
    last_failure: Option<SimTime>,
}

impl Recorder {
    /// Creates a recorder with a trace ring of `trace_capacity` entries
    /// (if any) and a metrics registry (if `registry`).
    #[must_use]
    pub fn new(trace_capacity: Option<usize>, registry: bool) -> Recorder {
        Recorder {
            trace: trace_capacity.map(TraceBuffer::new),
            registry: registry.then(MetricsRegistry::new),
            telemetry: None,
            last_failure: None,
        }
    }

    /// Enables per-replication telemetry accumulation (event counts,
    /// inter-failure gap histogram, and a slot for the engine's
    /// hot-loop probes).
    #[must_use]
    pub fn with_telemetry(mut self) -> Recorder {
        self.telemetry = Some(ReplicationTelemetry::new());
        self
    }

    /// The recorded trace, if tracing was enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    /// The metrics registry, if enabled.
    #[must_use]
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.registry.as_ref()
    }

    /// The accumulated telemetry, if enabled.
    #[must_use]
    pub fn telemetry(&self) -> Option<&ReplicationTelemetry> {
        self.telemetry.as_ref()
    }

    /// Folds the engine's hot-loop probe snapshot, with its RNG-draw
    /// and elided-redraw counts, into the telemetry (no-op when
    /// telemetry is disabled).
    pub fn absorb_engine_telemetry(&mut self, snapshot: &TelemetrySnapshot) {
        if let Some(t) = &mut self.telemetry {
            t.absorb_engine(snapshot);
        }
    }

    /// True when a failure event advances the inter-failure clock.
    fn is_failure(event: ModelEvent) -> bool {
        matches!(
            event,
            ModelEvent::Rollback { .. } | ModelEvent::IoFailure | ModelEvent::RecoveryInterrupted
        )
    }
}

impl Observer for Recorder {
    fn on_event(&mut self, at: SimTime, event: ObsEvent<'_>) {
        if let Some(t) = &mut self.trace {
            t.on_event(at, event);
        }
        if let Some(r) = &mut self.registry {
            r.on_event(at, event);
        }
        if let Some(t) = &mut self.telemetry {
            if let ObsEvent::Model(model) = event {
                t.events += 1;
                if Recorder::is_failure(model) {
                    if let Some(prev) = self.last_failure {
                        t.failure_gaps.record((at - prev).as_secs() as u64);
                    }
                    self.last_failure = Some(at);
                }
            }
        }
    }

    fn on_window_begin(&mut self, at: SimTime, phase: PhaseKind) {
        if let Some(t) = &mut self.trace {
            t.on_window_begin(at, phase);
        }
        if let Some(r) = &mut self.registry {
            r.on_window_begin(at, phase);
        }
        // Gaps are within-window quantities: the first failure after a
        // window opens starts the clock rather than closing a gap.
        self.last_failure = None;
    }

    fn on_window_end(&mut self, at: SimTime) {
        if let Some(t) = &mut self.trace {
            t.on_window_end(at);
        }
        if let Some(r) = &mut self.registry {
            r.on_window_end(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelEvent;

    #[test]
    fn forwards_to_enabled_parts() {
        let mut rec = Recorder::new(Some(8), true);
        rec.on_window_begin(SimTime::ZERO, PhaseKind::Executing);
        rec.on_event(
            SimTime::from_secs(1.0),
            ObsEvent::Model(ModelEvent::CheckpointInitiated),
        );
        rec.on_window_end(SimTime::from_secs(2.0));
        assert_eq!(rec.trace().unwrap().len(), 1);
        let reg = rec.registry().unwrap();
        assert_eq!(reg.count("checkpoint_initiated"), 1);
        assert_eq!(reg.window_secs(), 2.0);
        assert!(rec.telemetry().is_none());
    }

    #[test]
    fn disabled_parts_stay_none() {
        let rec = Recorder::new(None, false);
        assert!(rec.trace().is_none());
        assert!(rec.registry().is_none());
        assert!(rec.telemetry().is_none());
    }

    #[test]
    fn telemetry_counts_events_and_failure_gaps() {
        let mut rec = Recorder::new(None, false).with_telemetry();
        rec.on_window_begin(SimTime::ZERO, PhaseKind::Executing);
        rec.on_event(
            SimTime::from_secs(100.0),
            ObsEvent::Model(ModelEvent::Rollback { from_buffer: true }),
        );
        // Non-failure events don't close gaps.
        rec.on_event(
            SimTime::from_secs(150.0),
            ObsEvent::Model(ModelEvent::CheckpointInitiated),
        );
        rec.on_event(
            SimTime::from_secs(400.0),
            ObsEvent::Model(ModelEvent::IoFailure),
        );
        rec.on_window_end(SimTime::from_secs(500.0));
        let t = rec.telemetry().unwrap();
        assert_eq!(t.events, 3);
        assert_eq!(t.failure_gaps.count(), 1);
        // The 300 s gap lands in a log bucket containing 300.
        assert!(t.failure_gaps.min() <= 300 && t.failure_gaps.max() >= 300);
    }

    #[test]
    fn window_begin_resets_the_gap_clock() {
        let mut rec = Recorder::new(None, false).with_telemetry();
        rec.on_event(
            SimTime::from_secs(10.0),
            ObsEvent::Model(ModelEvent::IoFailure),
        );
        rec.on_window_begin(SimTime::from_secs(20.0), PhaseKind::Executing);
        rec.on_event(
            SimTime::from_secs(30.0),
            ObsEvent::Model(ModelEvent::IoFailure),
        );
        // The pre-window failure must not pair with the post-window one.
        assert_eq!(rec.telemetry().unwrap().failure_gaps.count(), 0);
    }

    #[test]
    fn engine_snapshot_is_absorbed() {
        use ckpt_des::telem::TelemetrySnapshot;
        let mut snap = TelemetrySnapshot {
            rng_draws: 99,
            redraws_elided: 7,
            ..TelemetrySnapshot::default()
        };
        snap.queue_depth.record(4);
        let mut rec = Recorder::new(None, false).with_telemetry();
        rec.absorb_engine_telemetry(&snap);
        let t = rec.telemetry().unwrap();
        assert_eq!(t.queue_depth.count(), 1);
        assert_eq!(t.rng_draws, 99);
        assert_eq!(t.redraws_elided, 7);
        // Without telemetry enabled it's a no-op, not a panic.
        let mut off = Recorder::new(None, false);
        off.absorb_engine_telemetry(&snap);
        assert!(off.telemetry().is_none());
    }
}
