//! The execution core shared by the service workers and the local CLI
//! path.
//!
//! [`run_local`] is the one place an [`ExperimentSpec`] becomes a
//! running experiment — `ckptsim run` wraps it, and so does every
//! service job ([`run_whole`]), so a run routed through the service is
//! the *same code path* as a direct one and bit-identical at any worker
//! count. [`run_job`] adds the cache contract on top: a hit returns the
//! stored bytes verbatim; a miss opens (or resumes) the job's journal,
//! runs what is missing, and publishes, which deletes the journal
//! ([`JobStore::store`]). At the service's default `snapshot_every 1`
//! the journal syncs each replication as it lands, so a job's closing
//! [`SweepJournal::persist`] does no I/O.

use crate::result;
use crate::store::JobStore;
use ckpt_core::{Estimate, ExperimentError, ObserveSpec, RunControl};
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
/// `ckptsim run` and every service job.
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

/// Runs all of `spec` through [`run_local`] against `journal`
/// (replaying what it holds), renders the estimate and publishes it
/// atomically into `store`.
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
    // Persist what completed, on success and on failure alike: a
    // resumed job replays the journal. A failed run reports its own
    // error over a failed persist.
    let persisted = journal.persist();
    let est = outcome?;
    persisted?;
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
