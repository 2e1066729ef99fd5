//! The execution core shared by the service workers and the local CLI
//! path.
//!
//! [`run_local`] is the one place an [`ExperimentSpec`] becomes a
//! running experiment — `ckptsim run` wraps it directly, and the
//! scheduler's work units go through it too, so a run routed through
//! the service is the *same code path* as a direct one and therefore
//! bit-identical at any worker count.
//!
//! [`run_job`] adds the content-addressed cache contract on top: a
//! cache hit returns the stored bytes verbatim without executing
//! anything; a miss opens (or resumes) the job's journal, runs the
//! missing replications, and atomically publishes the result, which
//! deletes the journal ([`JobStore::store`]).
//!
//! The journal appends one synced line per completed replication at
//! the service's default `snapshot_every 1`, so a unit's closing
//! [`SweepJournal::persist`] finds nothing queued and does no I/O; at a
//! larger cadence it appends the remainder.
//!
//! For sharded service execution, [`unit_ranges`] splits a job's
//! replication range into journal-backed work units and [`run_unit`]
//! executes one of them: a [`RangeStore`] serves dummy cached results
//! for replications outside the unit so the experiment skips them
//! (their Estimates are discarded — only the journal contents matter),
//! and [`finalize`] replays the fully-populated journal through
//! [`run_local`] to obtain the deterministic estimate the result
//! document is rendered from.

use crate::result;
use crate::store::JobStore;
use ckpt_core::{
    CachedReplication, Estimate, Estimation, ExperimentError, Metrics, ObserveSpec,
    ReplicationStore, RunControl,
};
use ckpt_harness::{CkptError, ExperimentSpec, SweepJournal};
use ckpt_obs::ProgressSink;
use std::sync::atomic::AtomicBool;

/// One local execution request: the spec plus the runtime-only knobs
/// (`warmup`, observation, cache/interrupt/progress control) that are
/// deliberately outside the spec and its fingerprint.
#[derive(Default)]
pub struct LocalRun<'a> {
    /// Warm-up replications run before measuring (wall-clock only;
    /// never affects results).
    pub warmup: u32,
    /// Observation plan (traces/registries); `None` for plain runs.
    /// Observed runs skip replication-cache lookups by design.
    pub observe: Option<ObserveSpec>,
    /// Cache, interrupt, and progress hooks.
    pub control: RunControl<'a>,
}

/// Runs `spec` under `req` — the single execution path behind
/// `ckptsim run`, the service workers, and the finalize replay.
///
/// # Errors
///
/// Everything [`ckpt_core::Experiment::run_controlled`] can return.
pub fn run_local(spec: &ExperimentSpec, req: LocalRun<'_>) -> Result<Estimate, ExperimentError> {
    let mut exp = spec.to_experiment().warmup(req.warmup);
    if let Some(observe) = req.observe {
        exp = exp.observe(observe);
    }
    exp.run_controlled(req.control)
}

/// Splits a job's replications into contiguous work-unit ranges
/// `[lo, hi)`.
///
/// `shards` is the target unit count and `batch` the smallest number
/// of replications a unit may hold (so tiny jobs are not over-split);
/// the unit size is `max(batch, ceil(replications / shards))`.
/// Batch-means estimation runs one long simulation per replication
/// slot and cannot be resumed per-replication, so it always yields a
/// single unit, as does `shards <= 1`.
#[must_use]
pub fn unit_ranges(
    replications: u32,
    estimation: Estimation,
    shards: usize,
    batch: u32,
) -> Vec<(u32, u32)> {
    if replications == 0 {
        return Vec::new();
    }
    if shards <= 1 || !matches!(estimation, Estimation::Replications) {
        return vec![(0, replications)];
    }
    let size = batch
        .max(1)
        .max(replications.div_ceil(u32::try_from(shards).unwrap_or(1)));
    let mut units = Vec::new();
    let mut lo = 0u32;
    while lo < replications {
        let hi = replications.min(lo + size);
        units.push((lo, hi));
        lo = hi;
    }
    units
}

/// A [`ReplicationStore`] view restricted to `[lo, hi)`: out-of-range
/// lookups return a dummy cached result so the experiment never runs
/// them (and never records them — recording is gated on having *run*),
/// in-range traffic passes through to the journal.
pub struct RangeStore<'a> {
    inner: &'a dyn ReplicationStore,
    lo: u32,
    hi: u32,
}

impl<'a> RangeStore<'a> {
    /// Restricts `inner` to replications in `[lo, hi)`.
    #[must_use]
    pub fn new(inner: &'a dyn ReplicationStore, lo: u32, hi: u32) -> RangeStore<'a> {
        RangeStore { inner, lo, hi }
    }
}

impl ReplicationStore for RangeStore<'_> {
    fn lookup(&self, rep: u32) -> Option<CachedReplication> {
        if rep < self.lo || rep >= self.hi {
            return Some(CachedReplication {
                metrics: Metrics::default(),
                events: 0,
            });
        }
        self.inner.lookup(rep)
    }

    fn record(&self, rep: u32, metrics: &Metrics, events: u64) {
        if rep >= self.lo && rep < self.hi {
            self.inner.record(rep, metrics, events);
        }
    }
}

/// Executes one work unit of `spec` against `journal`: replications in
/// `[lo, hi)` run (or replay from the journal), everything else is
/// skipped via [`RangeStore`] dummies. `exclusive` marks the unit as
/// the job's only one — it keeps the spec's own worker count and its
/// estimate is directly usable; a sharded unit runs with one inner
/// worker (the scheduler's pool provides the parallelism) and its
/// estimate is polluted by dummies, so callers must discard it and
/// [`finalize`] instead.
///
/// # Errors
///
/// Everything [`run_local`] can return, as [`CkptError`].
pub fn run_unit(
    spec: &ExperimentSpec,
    journal: &SweepJournal,
    (lo, hi): (u32, u32),
    exclusive: bool,
    interrupt: Option<&AtomicBool>,
    progress: Option<&dyn ProgressSink>,
) -> Result<Estimate, CkptError> {
    let cell = journal.cell_store(0);
    let ranged;
    let store: &dyn ReplicationStore = if exclusive {
        &cell
    } else {
        ranged = RangeStore::new(&cell, lo, hi);
        &ranged
    };
    let mut exp = spec.to_experiment();
    if !exclusive {
        exp = exp.jobs(1);
    }
    let outcome = exp.run_controlled(RunControl {
        store: Some(store),
        interrupt,
        progress,
    });
    match outcome {
        Ok(est) => {
            journal.persist()?;
            Ok(est)
        }
        Err(e) => {
            // Keep whatever completed: the journal is the unit of
            // migration, and a resumed job replays it.
            let _ = journal.persist();
            Err(CkptError::from(e))
        }
    }
}

/// Replays the fully-populated `journal` through [`run_local`] (every
/// replication is cached, so nothing simulates) to obtain the
/// deterministic estimate, renders the result document, and publishes
/// it atomically into `store`.
///
/// # Errors
///
/// Journal/store I/O, plus [`run_local`] errors (which, with a
/// complete journal, indicate a corrupt journal rather than a
/// simulation failure).
pub fn finalize(
    store: &JobStore,
    spec: &ExperimentSpec,
    journal: &SweepJournal,
) -> Result<String, CkptError> {
    let cell = journal.cell_store(0);
    let est = run_local(
        spec,
        LocalRun {
            control: RunControl {
                store: Some(&cell),
                ..RunControl::default()
            },
            ..LocalRun::default()
        },
    )?;
    let body = result::render(spec, &est);
    store.store(spec.fingerprint(), &body)?;
    Ok(body)
}

/// Runs `spec` to completion against `store`, honouring the cache
/// contract: a hit returns the stored bytes verbatim (no execution);
/// a miss — including a partial journal left by an interrupted run —
/// opens or resumes the fingerprint-namespaced journal, runs what is
/// missing, and publishes the result atomically.
///
/// This is the single-unit path (the scheduler adds sharding on top).
///
/// # Errors
///
/// Cache/journal I/O and anything the experiment itself returns; an
/// interrupted run persists the journal before surfacing the error so
/// the next submission resumes instead of restarting.
pub fn run_job(
    store: &JobStore,
    spec: &ExperimentSpec,
    snapshot_every: u32,
    interrupt: Option<&AtomicBool>,
    progress: Option<&dyn ProgressSink>,
) -> Result<String, CkptError> {
    let fingerprint = spec.fingerprint();
    if let Some(body) = store.lookup(fingerprint)? {
        return Ok(body);
    }
    let journal = store.open_journal(fingerprint, snapshot_every)?;
    let reps = spec.replications();
    let est = run_unit(spec, &journal, (0, reps), true, interrupt, progress)?;
    let body = result::render(spec, &est);
    store.store(fingerprint, &body)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_ranges_cover_the_replication_range_exactly_once() {
        for (reps, shards, batch) in [(10u32, 3usize, 1u32), (7, 4, 2), (5, 8, 1), (1, 4, 4)] {
            let units = unit_ranges(reps, Estimation::Replications, shards, batch);
            let mut next = 0u32;
            for &(lo, hi) in &units {
                assert_eq!(lo, next, "contiguous units");
                assert!(hi > lo);
                if hi < reps {
                    // The floor binds every unit except the tail
                    // remainder, which takes whatever is left.
                    assert!(hi - lo >= batch.min(reps), "batch floor respected");
                }
                next = hi;
            }
            assert_eq!(next, reps, "units cover all replications");
            assert!(units.len() <= shards.max(1));
        }
    }

    #[test]
    fn batch_means_and_single_shard_collapse_to_one_unit() {
        assert_eq!(
            unit_ranges(12, Estimation::BatchMeans { batches: 4 }, 8, 1),
            vec![(0, 12)]
        );
        assert_eq!(
            unit_ranges(12, Estimation::Replications, 1, 1),
            vec![(0, 12)]
        );
        assert!(unit_ranges(0, Estimation::Replications, 4, 1).is_empty());
    }

    #[test]
    fn range_store_dummies_out_of_range_and_forwards_in_range() {
        use std::sync::Mutex;
        struct Probe {
            recorded: Mutex<Vec<u32>>,
        }
        impl ReplicationStore for Probe {
            fn lookup(&self, _rep: u32) -> Option<CachedReplication> {
                None
            }
            fn record(&self, rep: u32, _m: &Metrics, _e: u64) {
                self.recorded.lock().unwrap().push(rep);
            }
        }
        let probe = Probe {
            recorded: Mutex::new(Vec::new()),
        };
        let ranged = RangeStore::new(&probe, 2, 4);
        assert!(ranged.lookup(0).is_some(), "below range is dummy-cached");
        assert!(ranged.lookup(4).is_some(), "above range is dummy-cached");
        assert!(
            ranged.lookup(2).is_none(),
            "in range consults the inner store"
        );
        let m = Metrics::default();
        for rep in 0..6 {
            ranged.record(rep, &m, 1);
        }
        assert_eq!(*probe.recorded.lock().unwrap(), vec![2, 3]);
    }
}
