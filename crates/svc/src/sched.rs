//! The scheduler: a std-thread worker pool draining a fair
//! FIFO-per-tenant queue of journal-backed work units.
//!
//! Jobs enter through [`Scheduler::submit`]; each job's replication
//! range is split into work units by [`crate::exec::unit_ranges`]
//! under the three tuning switches of [`Tuning`] (shard count, batch
//! size, snapshot interval). Units are queued FIFO within their
//! tenant, and workers pick tenants round-robin, so one tenant's
//! thousand-job backlog cannot starve another's single submission.
//!
//! The [`ckpt_harness::SweepJournal`] is the unit of migration: a unit
//! can run on any worker (or a future server process) because all of
//! its completed replications live in the job's fingerprint-namespaced
//! journal, not in the worker. A job of one unit runs whole and
//! publishes at once ([`exec::run_whole`]); a sharded unit runs only
//! its own replication range ([`exec::run_unit`]), and when the last
//! one completes, [`exec::finalize`] reads every replication back from
//! the journal and publishes the result into the [`JobStore`].
//! Identical resubmissions then hit the cache without executing
//! anything.
//!
//! Each run of a job is an *attempt*. A failed attempt stays failed: no
//! later unit of it changes the job's status or publishes it.
//! Resubmitting a failed job starts a new attempt over the same
//! journal, which queues only the units with a replication the journal
//! lacks; the units of the old attempt still queued or running touch
//! nothing of the new one.

use crate::exec;
use crate::store::JobStore;
use ckpt_core::ReplicationStore;
use ckpt_harness::{CkptError, ExperimentSpec, SweepJournal};
use ckpt_obs::{JsonlSink, ProgressSink, ProgressSnapshot};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The scheduler's tuning switches. `shards`, `batch`, and
/// `snapshot_every` are the three knobs that shape work units (see
/// [`crate::exec::unit_ranges`]); `workers` sizes the thread pool that
/// drains them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuning {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Target number of work units a job is sharded into (1 = never
    /// shard; the unit keeps the spec's own inner worker count).
    pub shards: usize,
    /// Smallest number of replications a work unit may hold — the
    /// floor that keeps small jobs from being over-split.
    pub batch: u32,
    /// Journal persist cadence in completed replications
    /// (0 = only at unit boundaries and on interrupt).
    pub snapshot_every: u32,
}

impl Default for Tuning {
    fn default() -> Tuning {
        Tuning {
            workers: 2,
            shards: 1,
            batch: 1,
            snapshot_every: 1,
        }
    }
}

/// Where a submitted job currently stands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted; no unit has started.
    Queued,
    /// Executing. For single-unit jobs `completed`/`total` count
    /// replications; for sharded jobs they count work units.
    Running {
        /// Finished work items.
        completed: usize,
        /// Planned work items.
        total: usize,
    },
    /// Finished; the result is in the store. `cached` is `true` when
    /// this submission was served from the cache without executing.
    Done {
        /// Served from the content-addressed cache.
        cached: bool,
    },
    /// Execution failed (or was interrupted); the journal keeps what
    /// completed, so a resubmission, to this process or a restarted
    /// one, resumes instead of restarting.
    Failed {
        /// Human-readable failure.
        message: String,
    },
}

impl JobStatus {
    /// Whether the job has reached a terminal state.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobStatus::Done { .. } | JobStatus::Failed { .. })
    }
}

/// What [`Scheduler::submit`] decided about a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitOutcome {
    /// The job id: the spec fingerprint as 16 lowercase hex digits.
    pub id: String,
    /// The result was already in the cache — nothing will execute.
    pub cached: bool,
    /// An identical job was already queued, running or done; this
    /// submission attached to it instead of enqueueing a duplicate.
    pub deduplicated: bool,
}

struct Job {
    spec: ExperimentSpec,
    /// Counts the job's submissions that started a run; a unit belongs
    /// to the attempt it was queued for.
    attempt: u64,
    status: JobStatus,
    progress: Vec<String>,
    journal: Option<Arc<SweepJournal>>,
    units_total: usize,
    units_done: usize,
}

struct Unit {
    fingerprint: u64,
    attempt: u64,
    range: (u32, u32),
    exclusive: bool,
}

struct State {
    /// One FIFO per tenant with queued units, in arrival order; a
    /// tenant's entry goes when its queue drains.
    queues: Vec<(String, VecDeque<Unit>)>,
    rr: usize,
    jobs: HashMap<u64, Job>,
    shutdown: bool,
}

struct Inner {
    store: JobStore,
    tuning: Tuning,
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    interrupt: AtomicBool,
    executed_units: AtomicUsize,
}

/// The service scheduler. Dropping it interrupts in-flight units
/// (journals persist what completed) and joins the worker pool.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Starts a scheduler over `store` with `tuning.workers` threads.
    #[must_use]
    pub fn new(store: JobStore, tuning: Tuning) -> Scheduler {
        let inner = Arc::new(Inner {
            store,
            tuning,
            state: Mutex::new(State {
                queues: Vec::new(),
                rr: 0,
                jobs: HashMap::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            interrupt: AtomicBool::new(false),
            executed_units: AtomicUsize::new(0),
        });
        let workers = (0..tuning.workers.max(1))
            .map(|k| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("ckpt-svc-worker-{k}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Scheduler { inner, workers }
    }

    /// The job store this scheduler publishes into.
    #[must_use]
    pub fn store(&self) -> &JobStore {
        &self.inner.store
    }

    /// Parses a job id (16 hex digits) back into a fingerprint.
    #[must_use]
    pub fn parse_id(id: &str) -> Option<u64> {
        (id.len() == 16).then(|| u64::from_str_radix(id, 16).ok())?
    }

    /// Submits `spec` for `tenant`. Content-addressed: a cached result
    /// short-circuits (nothing executes), an identical queued, running
    /// or done job deduplicates, otherwise the job (or a failed job's
    /// next attempt) is sharded into work units and queued FIFO within
    /// the tenant.
    ///
    /// # Errors
    ///
    /// Cache/journal I/O ([`CkptError::Io`] / [`CkptError::Snapshot`]).
    pub fn submit(&self, tenant: &str, spec: &ExperimentSpec) -> Result<SubmitOutcome, CkptError> {
        let fingerprint = spec.fingerprint();
        let id = format!("{fingerprint:016x}");
        if self.inner.store.lookup(fingerprint)?.is_some() {
            let mut st = self.lock();
            let duplicate = st.jobs.contains_key(&fingerprint);
            st.jobs.entry(fingerprint).or_insert_with(|| Job {
                spec: spec.clone(),
                attempt: 0,
                status: JobStatus::Done { cached: true },
                progress: Vec::new(),
                journal: None,
                units_total: 0,
                units_done: 0,
            });
            return Ok(SubmitOutcome {
                id,
                cached: true,
                deduplicated: duplicate,
            });
        }
        let plan = exec::unit_ranges(
            spec.replications(),
            spec.estimation(),
            self.inner.tuning.shards,
            self.inner.tuning.batch,
        );
        // Claim the job first: a concurrent identical submission must
        // dedup against the claim rather than race the journal open
        // below. A failed job is claimed by starting its next attempt
        // over the journal it already holds.
        let (attempt, journal) = {
            let mut st = self.lock();
            match st.jobs.get_mut(&fingerprint) {
                Some(job) if !matches!(job.status, JobStatus::Failed { .. }) => {
                    let cached = matches!(job.status, JobStatus::Done { .. });
                    return Ok(SubmitOutcome {
                        id,
                        cached,
                        deduplicated: true,
                    });
                }
                Some(job) => {
                    job.attempt += 1;
                    job.status = JobStatus::Queued;
                    job.progress.clear();
                    job.units_done = 0;
                    (job.attempt, job.journal.clone())
                }
                None => {
                    st.jobs.insert(
                        fingerprint,
                        Job {
                            spec: spec.clone(),
                            attempt: 0,
                            status: JobStatus::Queued,
                            progress: Vec::new(),
                            journal: None,
                            units_total: 0,
                            units_done: 0,
                        },
                    );
                    (0, None)
                }
            }
        };
        let journal = match journal {
            Some(j) => j,
            None => match self
                .inner
                .store
                .open_journal(fingerprint, self.inner.tuning.snapshot_every)
            {
                Ok(j) => Arc::new(j),
                Err(e) => {
                    self.lock().jobs.remove(&fingerprint);
                    return Err(CkptError::from(e));
                }
            },
        };
        // A sharded job queues only the units with a replication the
        // journal lacks. When it lacks none (the last attempt failed
        // after its last record), the last unit still runs, because
        // its completion finalizes the job.
        let exclusive = plan.len() == 1;
        let cell = journal.cell_store(0);
        let mut units: Vec<(u32, u32)> = plan
            .iter()
            .copied()
            .filter(|&(lo, hi)| exclusive || (lo..hi).any(|rep| cell.lookup(rep).is_none()))
            .collect();
        if units.is_empty() {
            units.extend(plan.last());
        }
        {
            let mut st = self.lock();
            if let Some(job) = st.jobs.get_mut(&fingerprint) {
                job.journal = Some(Arc::clone(&journal));
                job.units_total = units.len();
            }
            let queue = match st.queues.iter().position(|(t, _)| t == tenant) {
                Some(i) => &mut st.queues[i].1,
                None => {
                    st.queues.push((tenant.to_string(), VecDeque::new()));
                    let last = st.queues.len() - 1;
                    &mut st.queues[last].1
                }
            };
            for range in units {
                queue.push_back(Unit {
                    fingerprint,
                    attempt,
                    range,
                    exclusive,
                });
            }
        }
        self.inner.work_cv.notify_all();
        Ok(SubmitOutcome {
            id,
            cached: false,
            deduplicated: false,
        })
    }

    /// The job's current status; `None` for an unknown id. A job whose
    /// result survives in the store from a previous process reports
    /// `Done { cached: true }`.
    ///
    /// # Errors
    ///
    /// Store I/O while probing the durable cache.
    pub fn status(&self, id: &str) -> Result<Option<JobStatus>, CkptError> {
        let Some(fingerprint) = Scheduler::parse_id(id) else {
            return Ok(None);
        };
        if let Some(job) = self.lock().jobs.get(&fingerprint) {
            return Ok(Some(job.status.clone()));
        }
        Ok(self
            .inner
            .store
            .lookup(fingerprint)?
            .map(|_| JobStatus::Done { cached: true }))
    }

    /// The stored result bytes, verbatim; `None` until the job is done.
    ///
    /// # Errors
    ///
    /// Store I/O.
    pub fn result(&self, id: &str) -> Result<Option<String>, CkptError> {
        match Scheduler::parse_id(id) {
            Some(fingerprint) => self.inner.store.lookup(fingerprint),
            None => Ok(None),
        }
    }

    /// Progress lines recorded after index `from` (the JSONL wire
    /// format of [`JsonlSink::render`]), plus whether the job has
    /// reached a terminal state. `None` for an unknown id.
    #[must_use]
    pub fn progress(&self, id: &str, from: usize) -> Option<(Vec<String>, bool)> {
        let fingerprint = Scheduler::parse_id(id)?;
        let st = self.lock();
        let job = st.jobs.get(&fingerprint)?;
        let lines = job.progress.get(from..).unwrap_or(&[]).to_vec();
        Some((lines, job.status.is_terminal()))
    }

    /// Blocks until the job reaches a terminal state (returning it) or
    /// `timeout` elapses (returning the last observed status).
    #[must_use]
    pub fn wait(&self, id: &str, timeout: Duration) -> Option<JobStatus> {
        let fingerprint = Scheduler::parse_id(id)?;
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        loop {
            let status = st.jobs.get(&fingerprint).map(|j| j.status.clone());
            match status {
                Some(s) if s.is_terminal() => return Some(s),
                other => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return other;
                    }
                    let (guard, _) = self
                        .inner
                        .done_cv
                        .wait_timeout(st, left)
                        .expect("scheduler state poisoned");
                    st = guard;
                }
            }
        }
    }

    /// Work units executed so far (cache hits execute none) — the
    /// observable "ran exactly once" counter the tests assert on.
    #[must_use]
    pub fn executed_units(&self) -> usize {
        self.inner.executed_units.load(Ordering::SeqCst)
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.inner.state.lock().expect("scheduler state poisoned")
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.inner.interrupt.store(true, Ordering::SeqCst);
        self.lock().shutdown = true;
        self.inner.work_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Forwards a single-unit job's per-replication progress into the job
/// record, where pollers and the chunked HTTP stream read it.
struct RecordingSink<'a> {
    inner: &'a Inner,
    fingerprint: u64,
    attempt: u64,
}

impl ProgressSink for RecordingSink<'_> {
    fn progress(&self, snapshot: &ProgressSnapshot<'_>) {
        let line = JsonlSink::render(snapshot);
        {
            let mut st = self.inner.state.lock().expect("scheduler state poisoned");
            if let Some(job) = current(&mut st, self.fingerprint, self.attempt) {
                job.progress.push(line);
                job.status = JobStatus::Running {
                    completed: snapshot.completed,
                    total: snapshot.total,
                };
            }
        }
        self.inner.done_cv.notify_all();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let unit = {
            let mut st = inner.state.lock().expect("scheduler state poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(unit) = next_unit(&mut st) {
                    break unit;
                }
                st = inner.work_cv.wait(st).expect("scheduler state poisoned");
            }
        };
        execute_unit(inner, &unit);
    }
}

/// Round-robin across tenants, FIFO within each: the fairness policy.
/// A tenant whose queue drains is dropped, so the list holds only
/// tenants with work and never grows with the number ever seen.
fn next_unit(st: &mut State) -> Option<Unit> {
    while !st.queues.is_empty() {
        let i = st.rr % st.queues.len();
        let queue = &mut st.queues[i].1;
        let unit = queue.pop_front();
        if queue.is_empty() {
            // The next tenant slides into slot `i` and is served next.
            st.queues.remove(i);
            st.rr = i;
        } else {
            st.rr = i + 1;
        }
        if unit.is_some() {
            return unit;
        }
    }
    None
}

fn execute_unit(inner: &Inner, unit: &Unit) {
    let (fingerprint, attempt) = (unit.fingerprint, unit.attempt);
    let (spec, journal) = {
        let mut st = inner.state.lock().expect("scheduler state poisoned");
        let Some(job) = current(&mut st, fingerprint, attempt) else {
            return;
        };
        if matches!(job.status, JobStatus::Failed { .. }) {
            // A sibling unit already failed; don't burn workers on the
            // rest of the job.
            job.units_done += 1;
            return;
        }
        if job.status == JobStatus::Queued {
            job.status = JobStatus::Running {
                completed: 0,
                total: if unit.exclusive {
                    job.spec.replications() as usize
                } else {
                    job.units_total
                },
            };
        }
        let Some(journal) = job.journal.clone() else {
            return;
        };
        (job.spec.clone(), journal)
    };
    let interrupt = Some(&inner.interrupt);
    if unit.exclusive {
        let sink = RecordingSink {
            inner,
            fingerprint,
            attempt,
        };
        let published = exec::run_whole(&inner.store, &spec, &journal, interrupt, Some(&sink));
        inner.executed_units.fetch_add(1, Ordering::SeqCst);
        settle(inner, fingerprint, attempt, published);
        return;
    }
    let ran = exec::run_unit(&spec, &journal, unit.range, interrupt);
    inner.executed_units.fetch_add(1, Ordering::SeqCst);
    let mut st = inner.state.lock().expect("scheduler state poisoned");
    let finished = complete_unit(&mut st, fingerprint, attempt, ran);
    drop(st);
    inner.done_cv.notify_all();
    if finished {
        // Publish outside the lock: reading the journal back and
        // rendering the result take a while.
        settle(
            inner,
            fingerprint,
            attempt,
            exec::finalize(&inner.store, &spec, &journal),
        );
    }
}

/// The job `fingerprint` if `attempt` is its current attempt: a unit of
/// an older attempt finds nothing to touch.
fn current(st: &mut State, fingerprint: u64, attempt: u64) -> Option<&mut Job> {
    st.jobs
        .get_mut(&fingerprint)
        .filter(|job| job.attempt == attempt)
}

/// Records a sharded unit's outcome in its job and says whether the job
/// is now complete and due to be finalized. `Failed` ends the attempt:
/// once a unit failed, no sibling's outcome changes the status, and the
/// attempt is never finalized. A unit of an older attempt changes
/// nothing.
fn complete_unit(
    st: &mut State,
    fingerprint: u64,
    attempt: u64,
    outcome: Result<(), CkptError>,
) -> bool {
    let Some(job) = current(st, fingerprint, attempt) else {
        return false;
    };
    job.units_done += 1;
    if matches!(job.status, JobStatus::Failed { .. }) {
        return false;
    }
    match outcome {
        Err(e) => {
            job.status = JobStatus::Failed {
                message: e.to_string(),
            };
            false
        }
        Ok(()) => {
            job.progress.push(JsonlSink::render(&ProgressSnapshot::new(
                "units",
                job.units_done,
                job.units_total,
            )));
            job.status = JobStatus::Running {
                completed: job.units_done,
                total: job.units_total,
            };
            job.units_done == job.units_total
        }
    }
}

/// Ends a job's `attempt` with its publish outcome: `Done`, releasing
/// the journal (the store now answers every resubmission before the job
/// table is consulted, so the journal is never read again), or
/// `Failed`, keeping it for the next attempt.
fn settle(inner: &Inner, fingerprint: u64, attempt: u64, published: Result<String, CkptError>) {
    let mut st = inner.state.lock().expect("scheduler state poisoned");
    if let Some(job) = current(&mut st, fingerprint, attempt) {
        job.status = match published {
            Ok(_) => {
                job.journal = None;
                JobStatus::Done { cached: false }
            }
            Err(e) => JobStatus::Failed {
                message: e.to_string(),
            },
        };
    }
    drop(st);
    inner.done_cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_core::{EngineKind, ReactivationMode, SystemConfig};
    use ckpt_des::SimTime;

    fn store_in(tag: &str) -> JobStore {
        let dir = std::env::temp_dir().join(format!("ckpt_svc_sched_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        JobStore::open(&dir).unwrap()
    }

    fn small_spec(seed: u64) -> ExperimentSpec {
        let cfg = SystemConfig::builder().processors(512).build().unwrap();
        ExperimentSpec::builder(cfg)
            .transient(SimTime::from_hours(5.0))
            .horizon(SimTime::from_hours(60.0))
            .replications(3)
            .seed(seed)
            .jobs(1)
            .build()
            .unwrap()
    }

    #[test]
    fn submit_runs_once_and_resubmission_is_a_byte_identical_cache_hit() {
        let store = store_in("cache");
        let sched = Scheduler::new(store.clone(), Tuning::default());
        let spec = small_spec(1);
        let first = sched.submit("alice", &spec).unwrap();
        assert!(!first.cached);
        let status = sched.wait(&first.id, Duration::from_secs(120)).unwrap();
        assert_eq!(status, JobStatus::Done { cached: false });
        let body = sched.result(&first.id).unwrap().unwrap();

        let second = sched.submit("alice", &spec).unwrap();
        assert_eq!(second.id, first.id);
        assert!(second.cached, "resubmission must be served from the cache");
        assert_eq!(sched.result(&second.id).unwrap().unwrap(), body);
        assert_eq!(sched.executed_units(), 1, "the job executed exactly once");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn concurrent_identical_submissions_deduplicate() {
        let store = store_in("dedup");
        let sched = Scheduler::new(store.clone(), Tuning::default());
        let spec = small_spec(2);
        let a = sched.submit("alice", &spec).unwrap();
        let b = sched.submit("bob", &spec).unwrap();
        assert_eq!(a.id, b.id);
        assert!(b.deduplicated || b.cached);
        assert!(sched
            .wait(&a.id, Duration::from_secs(120))
            .unwrap()
            .is_terminal());
        assert_eq!(sched.executed_units(), 1);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn sharded_execution_publishes_the_same_bytes_as_unsharded() {
        // Five replications split unevenly: 3 + 2 over two shards,
        // 2 + 2 + 1 over three.
        let engines = [
            (EngineKind::Direct, ReactivationMode::Resample),
            (EngineKind::San, ReactivationMode::Resample),
            (EngineKind::San, ReactivationMode::Lazy),
        ];
        for (engine, mode) in engines {
            let cfg = SystemConfig::builder().processors(512).build().unwrap();
            let spec = ExperimentSpec::builder(cfg)
                .engine(engine)
                .reactivation(mode)
                .transient(SimTime::from_hours(5.0))
                .horizon(SimTime::from_hours(60.0))
                .replications(5)
                .seed(3)
                .jobs(1)
                .build()
                .unwrap();
            let tag = format!("shard_{}_{mode:?}", engine.name());
            let store_a = store_in(&format!("{tag}_1"));
            let plain = Scheduler::new(store_a.clone(), Tuning::default());
            let a = plain.submit("t", &spec).unwrap();
            assert_eq!(
                plain.wait(&a.id, Duration::from_secs(120)).unwrap(),
                JobStatus::Done { cached: false }
            );
            let body = plain.result(&a.id).unwrap().unwrap();
            for shards in [2, 3] {
                let store_b = store_in(&format!("{tag}_{shards}"));
                let sharded = Scheduler::new(
                    store_b.clone(),
                    Tuning {
                        workers: 3,
                        shards,
                        batch: 1,
                        snapshot_every: 1,
                    },
                );
                let b = sharded.submit("t", &spec).unwrap();
                assert_eq!(
                    sharded.wait(&b.id, Duration::from_secs(120)).unwrap(),
                    JobStatus::Done { cached: false },
                    "{tag}, {shards} shards"
                );
                assert_eq!(
                    sharded.result(&b.id).unwrap().unwrap(),
                    body,
                    "{tag}, {shards} shards: sharding is a scheduling decision; \
                     the result bytes must not move"
                );
                assert_eq!(sharded.executed_units(), shards, "{tag}: really sharded");
                let _ = std::fs::remove_dir_all(store_b.root());
            }
            let _ = std::fs::remove_dir_all(store_a.root());
        }
    }

    #[test]
    fn a_failed_job_stays_failed_when_a_sibling_unit_succeeds() {
        let mut st = State {
            queues: Vec::new(),
            rr: 0,
            jobs: HashMap::new(),
            shutdown: false,
        };
        let job = |status| Job {
            spec: small_spec(7),
            attempt: 0,
            status,
            progress: Vec::new(),
            journal: None,
            units_total: 2,
            units_done: 0,
        };
        let failed = JobStatus::Failed {
            message: "unit 0 failed".to_string(),
        };
        st.jobs.insert(1, job(failed.clone()));
        st.jobs.get_mut(&1).unwrap().units_done = 1;
        assert!(
            !complete_unit(&mut st, 1, 0, Ok(())),
            "a failed job must never be finalized"
        );
        assert_eq!(st.jobs[&1].status, failed, "Failed is terminal");
        assert_eq!(st.jobs[&1].units_done, 2);

        // A healthy job finalizes exactly when its last unit lands.
        st.jobs.insert(2, job(JobStatus::Queued));
        assert!(!complete_unit(&mut st, 2, 0, Ok(())));
        assert_eq!(
            st.jobs[&2].status,
            JobStatus::Running {
                completed: 1,
                total: 2
            }
        );
        assert!(complete_unit(&mut st, 2, 0, Ok(())));

        // A unit of an older attempt touches nothing of the current one.
        st.jobs.insert(3, job(JobStatus::Queued));
        st.jobs.get_mut(&3).unwrap().attempt = 1;
        assert!(!complete_unit(&mut st, 3, 0, Ok(())));
        assert!(!complete_unit(
            &mut st,
            3,
            0,
            Err(CkptError::Usage("late".to_string()))
        ));
        assert_eq!(st.jobs[&3].status, JobStatus::Queued);
        assert_eq!(st.jobs[&3].units_done, 0);
        assert!(st.jobs[&3].progress.is_empty());
    }

    /// A failed sharded job resumes when it is resubmitted to the same
    /// scheduler: the new attempt runs only the units with a replication
    /// the journal lacks, and publishes what an uninterrupted run
    /// renders.
    #[test]
    fn resubmitting_a_failed_job_resumes_it_from_the_journal() {
        let store = store_in("resubmit");
        // One worker runs the units in queue order.
        let sched = Scheduler::new(
            store.clone(),
            Tuning {
                workers: 1,
                shards: 3,
                batch: 1,
                snapshot_every: 1,
            },
        );
        let cfg = SystemConfig::builder().processors(512).build().unwrap();
        let spec = ExperimentSpec::builder(cfg)
            .transient(SimTime::from_hours(5.0))
            .horizon(SimTime::from_hours(60.0))
            .replications(6)
            .seed(8)
            .jobs(1)
            .build()
            .unwrap();
        let whole = spec.to_experiment().run().unwrap();
        // Units (0,2), (2,4) and (4,6); the journal holds replications 0,
        // 1 and 3, so the first unit has nothing left to run.
        let journal = store.open_journal(spec.fingerprint(), 1).unwrap();
        for rep in [0u32, 1, 3] {
            let i = rep as usize;
            journal.record(0, rep, &whole.replicates()[i], whole.profiles()[i].events);
        }
        journal.persist().unwrap();
        drop(journal);

        // The first attempt fails: every unit it runs is interrupted.
        sched.inner.interrupt.store(true, Ordering::SeqCst);
        let first = sched.submit("t", &spec).unwrap();
        assert!(
            matches!(
                sched.wait(&first.id, Duration::from_secs(120)),
                Some(JobStatus::Failed { .. })
            ),
            "the interrupted attempt fails"
        );
        assert_eq!(
            sched.executed_units(),
            1,
            "the failed unit ends the attempt"
        );
        sched.inner.interrupt.store(false, Ordering::SeqCst);

        let again = sched.submit("t", &spec).unwrap();
        assert_eq!(again.id, first.id);
        assert!(
            !again.deduplicated && !again.cached,
            "a failed job starts a new attempt: {again:?}"
        );
        assert_eq!(
            sched.wait(&again.id, Duration::from_secs(120)).unwrap(),
            JobStatus::Done { cached: false }
        );
        assert_eq!(
            sched.executed_units(),
            3,
            "the new attempt runs units (2,4) and (4,6), not the journaled (0,2)"
        );
        assert_eq!(
            sched.result(&again.id).unwrap().unwrap(),
            crate::result::render(&spec, &whole)
        );
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn single_unit_jobs_stream_per_replication_progress() {
        let store = store_in("progress");
        let sched = Scheduler::new(store.clone(), Tuning::default());
        let spec = small_spec(4);
        let out = sched.submit("t", &spec).unwrap();
        assert!(sched
            .wait(&out.id, Duration::from_secs(120))
            .unwrap()
            .is_terminal());
        let (lines, done) = sched.progress(&out.id, 0).unwrap();
        assert!(done);
        assert_eq!(lines.len(), 3, "one line per replication");
        assert!(lines[0].contains("\"kind\":\"progress\""));
        assert!(lines[2].contains("\"completed\":3"));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn finished_jobs_release_their_journal() {
        let spec = small_spec(5);
        for (tag, shards) in [("release_one", 1), ("release_sharded", 3)] {
            let store = store_in(tag);
            let tuning = Tuning {
                shards,
                ..Tuning::default()
            };
            let sched = Scheduler::new(store.clone(), tuning);
            let out = sched.submit("t", &spec).unwrap();
            assert_eq!(
                sched.wait(&out.id, Duration::from_secs(120)).unwrap(),
                JobStatus::Done { cached: false }
            );
            let fingerprint = Scheduler::parse_id(&out.id).unwrap();
            assert!(
                sched.lock().jobs[&fingerprint].journal.is_none(),
                "{tag}: a published job must not keep its journal"
            );
            let _ = std::fs::remove_dir_all(store.root());
        }
    }

    /// Both publish paths, the single unit's and the sharded finalize,
    /// delete the journal file; a restarted scheduler still answers the
    /// resubmission from the result, byte for byte.
    #[test]
    fn finished_jobs_leave_no_journal_file_and_still_hit() {
        let spec = small_spec(6);
        for (tag, shards) in [("no_journal_one", 1), ("no_journal_sharded", 3)] {
            let store = store_in(tag);
            let tuning = Tuning {
                shards,
                ..Tuning::default()
            };
            let sched = Scheduler::new(store.clone(), tuning);
            let out = sched.submit("t", &spec).unwrap();
            assert_eq!(
                sched.wait(&out.id, Duration::from_secs(120)).unwrap(),
                JobStatus::Done { cached: false }
            );
            let body = sched.result(&out.id).unwrap().unwrap();
            drop(sched);
            let fingerprint = Scheduler::parse_id(&out.id).unwrap();
            assert!(
                !store.journal_path(fingerprint).exists(),
                "{tag}: a published job left its journal file"
            );

            let restarted = Scheduler::new(store.clone(), tuning);
            let again = restarted.submit("t", &spec).unwrap();
            assert!(again.cached, "{tag}: resubmission must hit the cache");
            assert_eq!(restarted.result(&again.id).unwrap().unwrap(), body);
            assert_eq!(restarted.executed_units(), 0);
            let _ = std::fs::remove_dir_all(store.root());
        }
    }

    #[test]
    fn round_robin_stays_fair_as_drained_tenants_leave() {
        let mut st = State {
            queues: Vec::new(),
            rr: 0,
            jobs: HashMap::new(),
            shutdown: false,
        };
        for (tenant, units) in [("a", 2), ("b", 1), ("c", 3)] {
            let queue = (0..units)
                .map(|k| Unit {
                    fingerprint: u64::from(tenant.as_bytes()[0]),
                    attempt: 0,
                    range: (k, k + 1),
                    exclusive: false,
                })
                .collect();
            st.queues.push((tenant.to_string(), queue));
        }
        let order: Vec<u8> = std::iter::from_fn(|| next_unit(&mut st))
            .map(|u| u.fingerprint as u8)
            .collect();
        assert_eq!(order, b"abcacc");
        assert!(st.queues.is_empty());
    }

    #[test]
    fn drained_tenant_queues_are_dropped() {
        let store = store_in("tenants");
        let sched = Scheduler::new(store.clone(), Tuning::default());
        let ids: Vec<String> = (0..8)
            .map(|k| {
                sched
                    .submit(&format!("tenant-{k}"), &small_spec(100 + k))
                    .unwrap()
                    .id
            })
            .collect();
        for id in &ids {
            assert_eq!(
                sched.wait(id, Duration::from_secs(120)).unwrap(),
                JobStatus::Done { cached: false }
            );
        }
        assert!(
            sched.lock().queues.is_empty(),
            "every tenant drained, so no queue may remain"
        );
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn unknown_and_malformed_ids_are_not_found() {
        let store = store_in("ids");
        let sched = Scheduler::new(store.clone(), Tuning::default());
        assert_eq!(sched.status("zzzz").unwrap(), None);
        assert_eq!(sched.status("0000000000000000").unwrap(), None);
        assert_eq!(sched.result("not-an-id").unwrap(), None);
        assert!(sched.progress("0000000000000000", 0).is_none());
        let _ = std::fs::remove_dir_all(store.root());
    }
}
