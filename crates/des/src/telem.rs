//! Hot-loop telemetry: distribution probes an engine switches on per
//! replication.
//!
//! These probes answer *what the simulation state looked like* while a
//! replication ran: the queue depth (pending timers) and dirty-set size
//! distributions seen by the hot loop. Samples land in fixed-layout
//! [`LogHistogram`]s (see [`crate::hist`]) so per-replication results
//! merge deterministically at any worker count. A
//! [`TelemetrySnapshot`] adds two counters the engines keep on their
//! own: raw RNG words drawn ([`SimRng::words_drawn`](crate::SimRng::words_drawn),
//! summed over the engine's streams) and reactivation redraws skipped
//! by lazy mode.
//!
//! The probes are compiled into every build and switched on at run
//! time. Each engine holds its [`HotTelemetry`] boxed in an `Option`
//! that is `Some` only for a replication whose recorder asked for
//! telemetry, so an unobserved run pays one predictable branch per
//! probe site. Probes read state the engine already computed; they
//! never draw from or reorder the simulation, so results are
//! bit-identical with them on or off.

use crate::hist::LogHistogram;

/// Always `true`: the probes are compiled into every build. Kept
/// because the benchmark's provenance line still records it; it goes
/// with the next change to the benchmark.
pub const ENABLED: bool = true;

/// Hot-loop distribution probes owned by a simulator: one
/// [`LogHistogram`] per probed quantity.
#[derive(Debug, Clone, Default)]
pub struct HotTelemetry {
    queue_depth: LogHistogram,
    dirty_set: LogHistogram,
}

impl HotTelemetry {
    /// An empty probe set.
    #[must_use]
    pub fn new() -> HotTelemetry {
        HotTelemetry::default()
    }

    /// Records the queue depth — the armed slots of the engine's
    /// [`TimerTable`](crate::TimerTable) — observed after popping an
    /// event.
    #[inline]
    pub fn record_queue_depth(&mut self, depth: usize) {
        self.queue_depth.record(depth as u64);
    }

    /// Records the dirty-place set size seen while settling an event.
    #[inline]
    pub fn record_dirty_set(&mut self, size: usize) {
        self.dirty_set.record(size as u64);
    }

    /// Copies the accumulated distributions out, together with the
    /// engine's RNG-draw and elided-redraw counts.
    #[must_use]
    pub fn snapshot(&self, rng_draws: u64, redraws_elided: u64) -> TelemetrySnapshot {
        TelemetrySnapshot {
            queue_depth: self.queue_depth.clone(),
            dirty_set: self.dirty_set.clone(),
            rng_draws,
            redraws_elided,
        }
    }
}

/// Engine-side telemetry copied out of a finished run.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Queue depth (pending timers) after each hot-loop pop.
    pub queue_depth: LogHistogram,
    /// Dirty-place set size at each settled event (SAN engine only).
    pub dirty_set: LogHistogram,
    /// Raw RNG words drawn since the engine was built.
    pub rng_draws: u64,
    /// Reactivation redraws skipped by lazy mode (SAN engine only).
    pub redraws_elided: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_record() {
        let mut t = HotTelemetry::new();
        t.record_queue_depth(17);
        t.record_queue_depth(2);
        t.record_dirty_set(3);
        let snap = t.snapshot(40, 5);
        assert_eq!(snap.queue_depth.count(), 2);
        assert_eq!(snap.queue_depth.max(), 17);
        assert_eq!(snap.dirty_set.count(), 1);
        assert_eq!((snap.rng_draws, snap.redraws_elided), (40, 5));
    }
}
