//! The execution core shared by the service workers and the local CLI
//! path.
//!
//! [`run_local`] is the one place an [`ExperimentSpec`] becomes a
//! running experiment — `ckptsim run` wraps it, and so does a job run
//! as one unit ([`run_whole`]), so a run routed through the service is
//! the *same code path* as a direct one and bit-identical at any worker
//! count. [`run_job`] adds the cache contract on top: a hit returns the
//! stored bytes verbatim; a miss opens (or resumes) the job's journal,
//! runs what is missing, and publishes, which deletes the journal
//! ([`JobStore::store`]). At the service's default `snapshot_every 1`
//! the journal syncs each replication as it lands, so a unit's closing
//! [`SweepJournal::persist`] does no I/O.
//!
//! A sharded job is split by [`unit_ranges`]; [`run_unit`] runs one
//! unit's own range through [`ckpt_core::Experiment::run_range`] against
//! the journal, and [`finalize`] reads replications `0..reps` back and
//! builds the estimate with [`ckpt_core::Experiment::estimate`] —
//! publishing builds no model and runs nothing, and a replication
//! missing from the journal is an error.

use crate::result;
use crate::store::JobStore;
use ckpt_core::{
    Estimate, Estimation, ExperimentError, ObserveSpec, Replicate, ReplicationStore, RunControl,
};
use ckpt_harness::{CkptError, ExperimentSpec, SnapshotError, SweepJournal};
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
/// `ckptsim run` and every job that runs as one unit.
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

/// Persists what completed, on success and on failure alike: the
/// journal is the unit of migration, and a resumed job replays it. A
/// failed run reports its own error over a failed persist.
fn sealed<T>(journal: &SweepJournal, outcome: Result<T, ExperimentError>) -> Result<T, CkptError> {
    let persisted = journal.persist();
    let value = outcome?;
    persisted?;
    Ok(value)
}

/// Renders `est` and publishes it atomically into `store` — the one
/// publish step of every job, whether it ran as one unit or sharded.
fn publish(store: &JobStore, spec: &ExperimentSpec, est: &Estimate) -> Result<String, CkptError> {
    let body = result::render(spec, est);
    store.store(spec.fingerprint(), &body)?;
    Ok(body)
}

/// Runs all of `spec` as one unit through [`run_local`] against
/// `journal` (replaying what it holds), and publishes the result.
///
/// # Errors
///
/// [`run_local`]'s errors and journal/store I/O, as [`CkptError`].
pub fn run_whole(
    store: &JobStore,
    spec: &ExperimentSpec,
    journal: &SweepJournal,
    interrupt: Option<&AtomicBool>,
    progress: Option<&dyn ProgressSink>,
) -> Result<String, CkptError> {
    let cell = journal.cell_store(0);
    let outcome = run_local(
        spec,
        LocalRun {
            control: RunControl {
                store: Some(&cell),
                interrupt,
                progress,
            },
            ..LocalRun::default()
        },
    );
    publish(store, spec, &sealed(journal, outcome)?)
}

/// Runs one sharded work unit, replications `[lo, hi)` of `spec`, into
/// `journal` on one inner worker (the scheduler's pool provides the
/// parallelism). Nothing outside the range runs or is stored.
///
/// # Errors
///
/// [`ckpt_core::Experiment::run_range`]'s errors and journal I/O.
pub fn run_unit(
    spec: &ExperimentSpec,
    journal: &SweepJournal,
    (lo, hi): (u32, u32),
    interrupt: Option<&AtomicBool>,
) -> Result<(), CkptError> {
    let cell = journal.cell_store(0);
    let outcome = spec.to_experiment().jobs(1).run_range(
        lo..hi,
        RunControl {
            store: Some(&cell),
            interrupt,
            progress: None,
        },
    );
    sealed(journal, outcome).map(drop)
}

/// Reads replications `0..reps` of `spec` back from `journal` and
/// publishes their [`ckpt_core::Experiment::estimate`]; nothing runs.
///
/// # Errors
///
/// [`SnapshotError::MissingRecord`] for the first replication the
/// journal lacks (nothing is published, the journal stays); store I/O.
pub fn finalize(
    store: &JobStore,
    spec: &ExperimentSpec,
    journal: &SweepJournal,
) -> Result<String, CkptError> {
    let cell = journal.cell_store(0);
    let replicates = (0..spec.replications())
        .map(|rep| {
            cell.lookup(rep).map(Replicate::from).ok_or_else(|| {
                CkptError::Snapshot(SnapshotError::MissingRecord {
                    path: journal.path().display().to_string(),
                    cell: 0,
                    rep,
                })
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    publish(store, spec, &spec.to_experiment().estimate(replicates))
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
    run_whole(store, spec, &journal, interrupt, progress)
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
    fn finalize_refuses_a_journal_missing_a_replication() {
        let dir =
            std::env::temp_dir().join(format!("ckpt_svc_exec_missing_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = JobStore::open(&dir).unwrap();
        let cfg = ckpt_core::SystemConfig::builder()
            .processors(512)
            .build()
            .unwrap();
        let spec = ExperimentSpec::builder(cfg)
            .transient(ckpt_des::SimTime::from_hours(5.0))
            .horizon(ckpt_des::SimTime::from_hours(60.0))
            .replications(4)
            .jobs(1)
            .build()
            .unwrap();
        let fingerprint = spec.fingerprint();
        let journal = store.open_journal(fingerprint, 1).unwrap();
        let whole = spec.to_experiment().run().unwrap();
        for (rep, (m, p)) in whole.replicates().iter().zip(whole.profiles()).enumerate() {
            if rep != 2 {
                journal.record(0, rep as u32, m, p.events);
            }
        }

        let err = finalize(&store, &spec, &journal).unwrap_err();
        assert!(
            matches!(
                err,
                CkptError::Snapshot(SnapshotError::MissingRecord {
                    cell: 0,
                    rep: 2,
                    ..
                })
            ),
            "{err}"
        );
        assert_eq!(
            store.lookup(fingerprint).unwrap(),
            None,
            "nothing published"
        );
        assert!(
            store.journal_path(fingerprint).exists(),
            "the journal stays"
        );

        // Once the missing range has run, finalize publishes what a
        // whole run publishes.
        run_unit(&spec, &journal, (2, 3), None).unwrap();
        let body = finalize(&store, &spec, &journal).unwrap();
        assert_eq!(body, result::render(&spec, &whole));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
