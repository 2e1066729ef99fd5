//! Per-replication telemetry: mergeable distributions plus event and
//! RNG-draw accounting.
//!
//! A [`ReplicationTelemetry`] is accumulated per replication (partly by
//! the [`Recorder`](crate::Recorder) from the observed event stream,
//! partly copied out of the engine's hot-loop probes, which the engine
//! switches on for that replication) and merged across replications in
//! index order by the experiment layer.
//! Every histogram is a fixed-layout [`LogHistogram`], so the merged
//! result — and therefore its JSON — is invariant under worker count
//! and merge order.
//!
//! The split matters for determinism guarantees:
//!
//! * `failure_gaps` is derived from the observed [`ModelEvent`](crate::ModelEvent) stream
//!   (sim-time gaps between consecutive failures);
//! * `queue_depth` / `dirty_set` come from the engines' probes and
//!   cover the whole replication, transient included; they are
//!   functions of the (deterministic) simulation state only, never of
//!   wall time;
//! * `rng_draws` counts raw RNG words and `redraws_elided` counts the
//!   exponential redraws lazy reactivation skipped — again
//!   sim-domain-deterministic.

use ckpt_des::telem::TelemetrySnapshot;
use ckpt_des::LogHistogram;

/// Telemetry accumulated for one replication (or, after merging, for a
/// whole experiment). All fields are deterministic functions of the
/// simulated trajectory — no wall-clock quantities live here (those are
/// the run manifest's per-replication profiles).
#[derive(Debug, Clone, Default)]
pub struct ReplicationTelemetry {
    /// Sim-time gaps (whole seconds) between consecutive failure
    /// events (`Rollback`, `IoFailure`, `RecoveryInterrupted`) inside
    /// the measurement window.
    pub failure_gaps: LogHistogram,
    /// Event-queue depth at each hot-loop pop.
    pub queue_depth: LogHistogram,
    /// Dirty-place set size per settled event (SAN engine only, under
    /// either scheduling strategy).
    pub dirty_set: LogHistogram,
    /// Model events observed in the measurement window.
    pub events: u64,
    /// Raw RNG words drawn by the replication.
    pub rng_draws: u64,
    /// Exponential redraws skipped by lazy reactivation (0 in eager
    /// `resample` mode and on the direct engine).
    pub redraws_elided: u64,
}

impl ReplicationTelemetry {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> ReplicationTelemetry {
        ReplicationTelemetry::default()
    }

    /// Absorbs an engine-side probe snapshot (queue-depth / dirty-set
    /// histograms, RNG-draw and elided-redraw counts).
    pub fn absorb_engine(&mut self, snapshot: &TelemetrySnapshot) {
        self.queue_depth.merge(&snapshot.queue_depth);
        self.dirty_set.merge(&snapshot.dirty_set);
        self.rng_draws += snapshot.rng_draws;
        self.redraws_elided += snapshot.redraws_elided;
    }

    /// Adds `other` into `self`. Histogram merges are element-wise and
    /// the counters are sums, so merging any partition of replications
    /// in any order produces identical state.
    pub fn merge(&mut self, other: &ReplicationTelemetry) {
        self.failure_gaps.merge(&other.failure_gaps);
        self.queue_depth.merge(&other.queue_depth);
        self.dirty_set.merge(&other.dirty_set);
        self.events += other.events;
        self.rng_draws += other.rng_draws;
        self.redraws_elided += other.redraws_elided;
    }

    /// Deterministic JSON object: fixed key order, integer-only
    /// histogram encodings. Byte-identical for equal state, which is
    /// what makes the metrics report's `telemetry` sections comparable
    /// across `--jobs`.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"events\":{},\"rng_draws\":{},\"redraws_elided\":{},\"histograms\":{{\"failure_gap_secs\":{},\"queue_depth\":{},\"dirty_set\":{}}}}}",
            self.events,
            self.rng_draws,
            self.redraws_elided,
            self.failure_gaps.to_json(),
            self.queue_depth.to_json(),
            self.dirty_set.to_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_partition_invariant() {
        let mut a = ReplicationTelemetry::new();
        a.failure_gaps.record(100);
        a.events = 3;
        a.rng_draws = 10;
        let mut b = ReplicationTelemetry::new();
        b.failure_gaps.record(40);
        b.events = 2;
        b.rng_draws = 7;

        let mut ab = ReplicationTelemetry::new();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = ReplicationTelemetry::new();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab.to_json(), ba.to_json());
        assert_eq!(ab.events, 5);
        assert_eq!(ab.rng_draws, 17);
        assert_eq!(ab.failure_gaps.count(), 2);
    }

    #[test]
    fn json_shape_is_stable() {
        let t = ReplicationTelemetry::new();
        let j = t.to_json();
        assert!(
            j.starts_with("{\"events\":0,\"rng_draws\":0,\"redraws_elided\":0,\"histograms\":{")
        );
        assert!(j.contains("\"dirty_set\":{"));
    }
}
