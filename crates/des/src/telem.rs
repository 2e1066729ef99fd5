//! Feature-gated hot-loop telemetry: distribution probes and RNG-draw
//! accounting.
//!
//! The phase profiler (`prof`) answers *where wall time goes*; this
//! module answers *what the simulation state looked like* while it
//! went: the event-queue depth and dirty-set size distributions seen by
//! the hot loop, plus how many raw RNG words each replication consumed.
//! Samples land in fixed-layout [`LogHistogram`]s (see [`crate::hist`])
//! so per-replication results merge deterministically at any worker
//! count.
//!
//! Everything here follows the `prof` contract: without the
//! `telemetry` cargo feature, [`HotTelemetry`] is a zero-sized struct
//! and every probe is an empty `#[inline(always)]` function — the
//! default build pays nothing, not even a branch, which is what keeps
//! disabled-telemetry runs bit- and speed-identical to the pre-telemetry
//! tree (pinned by the golden fingerprints in `tests/`; speed is
//! measured by `python3 perfbench/run.py`). Check [`ENABLED`] at run
//! time to discover which kind of build this is.
//!
//! RNG draws are counted in a thread-local because the engines thread
//! `SimRng` values through deep call chains; a replication always runs
//! on one thread, so the experiment layer attributes draws to a
//! replication by differencing [`rng_draws`] around it.

use crate::hist::LogHistogram;

/// `true` when this build was compiled with the `telemetry` feature
/// and the probes below actually record; `false` when they are no-ops.
pub const ENABLED: bool = cfg!(feature = "telemetry");

#[cfg(feature = "telemetry")]
thread_local! {
    static RNG_DRAWS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static REDRAWS_ELIDED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts one raw RNG word drawn on this thread. Called from the
/// `SimRng` refill path; free when the feature is off.
#[inline(always)]
pub fn note_rng_draw() {
    #[cfg(feature = "telemetry")]
    RNG_DRAWS.with(|c| c.set(c.get() + 1));
}

/// Raw RNG words drawn on this thread so far (0 in a no-feature
/// build). Monotone within a thread; difference around a replication
/// to attribute draws to it.
#[must_use]
pub fn rng_draws() -> u64 {
    #[cfg(feature = "telemetry")]
    {
        RNG_DRAWS.with(std::cell::Cell::get)
    }
    #[cfg(not(feature = "telemetry"))]
    {
        0
    }
}

/// Counts one reactivation redraw skipped by `Reactivation` lazy mode:
/// a `Resample` timer whose marking-independent exponential delay was
/// kept instead of being redrawn and requeued (valid by
/// memorylessness). Free when the feature is off.
#[inline(always)]
pub fn note_redraw_elided() {
    #[cfg(feature = "telemetry")]
    REDRAWS_ELIDED.with(|c| c.set(c.get() + 1));
}

/// Reactivation redraws elided on this thread so far (0 in a
/// no-feature build). Monotone within a thread; difference around a
/// replication to attribute elisions to it.
#[must_use]
pub fn redraws_elided() -> u64 {
    #[cfg(feature = "telemetry")]
    {
        REDRAWS_ELIDED.with(std::cell::Cell::get)
    }
    #[cfg(not(feature = "telemetry"))]
    {
        0
    }
}

/// Hot-loop distribution probes owned by a simulator.
///
/// Zero-sized with the feature off; with it on, holds one
/// [`LogHistogram`] per probed quantity.
#[derive(Debug, Clone, Default)]
pub struct HotTelemetry {
    #[cfg(feature = "telemetry")]
    queue_depth: LogHistogram,
    #[cfg(feature = "telemetry")]
    dirty_set: LogHistogram,
}

impl HotTelemetry {
    /// An empty probe set.
    #[must_use]
    pub fn new() -> HotTelemetry {
        HotTelemetry::default()
    }

    /// Records the event-queue depth observed after popping an event.
    #[inline(always)]
    pub fn record_queue_depth(&mut self, depth: usize) {
        #[cfg(feature = "telemetry")]
        self.queue_depth.record(depth as u64);
        #[cfg(not(feature = "telemetry"))]
        {
            let _ = depth;
        }
    }

    /// Records the dirty-place set size seen while settling an event.
    #[inline(always)]
    pub fn record_dirty_set(&mut self, size: usize) {
        #[cfg(feature = "telemetry")]
        self.dirty_set.record(size as u64);
        #[cfg(not(feature = "telemetry"))]
        {
            let _ = size;
        }
    }

    /// Copies the accumulated distributions out. Empty histograms in a
    /// no-feature build, so callers need no gates.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        #[cfg(feature = "telemetry")]
        {
            TelemetrySnapshot {
                queue_depth: self.queue_depth.clone(),
                dirty_set: self.dirty_set.clone(),
            }
        }
        #[cfg(not(feature = "telemetry"))]
        {
            TelemetrySnapshot::default()
        }
    }
}

/// Engine-side telemetry copied out of a finished run.
///
/// Always available (APIs returning one need no feature gates); all
/// histograms are empty unless the build has the `telemetry` feature.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Event-queue depth at each hot-loop pop.
    pub queue_depth: LogHistogram,
    /// Dirty-place set size at each settled event (SAN engine only).
    pub dirty_set: LogHistogram,
}

impl TelemetrySnapshot {
    /// True when no probe recorded anything (the no-feature build, or
    /// a run with zero events).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue_depth.is_empty() && self.dirty_set.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn disabled_probes_are_free() {
        const { assert!(!ENABLED) };
        assert_eq!(std::mem::size_of::<HotTelemetry>(), 0);
        let mut t = HotTelemetry::new();
        t.record_queue_depth(17);
        t.record_dirty_set(3);
        assert!(t.snapshot().is_empty());
        note_rng_draw();
        assert_eq!(rng_draws(), 0);
        note_redraw_elided();
        assert_eq!(redraws_elided(), 0);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn enabled_probes_record() {
        const { assert!(ENABLED) };
        let mut t = HotTelemetry::new();
        t.record_queue_depth(17);
        t.record_queue_depth(2);
        t.record_dirty_set(3);
        let snap = t.snapshot();
        assert_eq!(snap.queue_depth.count(), 2);
        assert_eq!(snap.queue_depth.max(), 17);
        assert_eq!(snap.dirty_set.count(), 1);
        let before = rng_draws();
        note_rng_draw();
        note_rng_draw();
        assert_eq!(rng_draws() - before, 2);
        let before = redraws_elided();
        note_redraw_elided();
        assert_eq!(redraws_elided() - before, 1);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn sim_rng_draws_are_counted_per_raw_word() {
        use crate::SimRng;
        let before = rng_draws();
        let mut rng = SimRng::seed_from_u64(42);
        let mut acc = 0.0;
        for _ in 0..10 {
            acc += rng.open_unit();
        }
        assert!(acc > 0.0);
        // open_unit consumes at least one raw word per call.
        assert!(
            rng_draws() - before >= 10,
            "draws: {}",
            rng_draws() - before
        );
    }
}
