//! The scheduler: a std-thread worker pool draining a fair
//! FIFO-per-tenant queue of jobs.
//!
//! Jobs enter through [`Scheduler::submit`] and are queued FIFO within
//! their tenant; workers pick tenants round-robin, so one tenant's
//! thousand-job backlog cannot starve another's single submission.
//!
//! A job is one unit of work: a worker runs the whole spec through
//! [`exec::run_whole`], on the spec's own inner worker count, against
//! the job's fingerprint-namespaced [`ckpt_harness::SweepJournal`], and
//! publishes the result into the [`JobStore`]. Identical resubmissions
//! then hit the cache without executing anything.
//!
//! A failed job keeps its journal, and resubmitting it queues it again
//! over that journal: the new run replays what completed and runs only
//! the rest. A job is queued or running at most once at a time, because
//! a submission queues it only when it is unknown or `Failed`, and only
//! the settle of its own run ends `Running`; so no earlier run of a job
//! can touch the next one.

use crate::exec;
use crate::store::JobStore;
use ckpt_harness::{CkptError, ExperimentSpec, SweepJournal};
use ckpt_obs::{JsonlSink, ProgressSink, ProgressSnapshot};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The scheduler's tuning switches: `workers` sizes the thread pool
/// that drains the queue, `snapshot_every` sets each job's journal
/// cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuning {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Journal persist cadence in completed replications
    /// (0 = only when a job's run ends or is interrupted).
    pub snapshot_every: u32,
}

impl Default for Tuning {
    fn default() -> Tuning {
        Tuning {
            workers: 2,
            snapshot_every: 1,
        }
    }
}

/// Where a submitted job currently stands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted; not started yet.
    Queued,
    /// Executing: `completed` of `total` replications are in.
    Running {
        /// Finished replications.
        completed: usize,
        /// Planned replications.
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
    status: JobStatus,
    progress: Vec<String>,
    journal: Option<Arc<SweepJournal>>,
}

struct State {
    /// One FIFO of job fingerprints per tenant with queued jobs, in
    /// arrival order; a tenant's entry goes when its queue drains.
    queues: Vec<(String, VecDeque<u64>)>,
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

/// The service scheduler. Dropping it interrupts in-flight jobs
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

    /// Parses a job id back into a fingerprint. Only the canonical form
    /// [`Scheduler::submit`] hands out, 16 lowercase hex digits, is an
    /// id: a sign or an uppercase digit would make a second name for
    /// the same job.
    #[must_use]
    pub fn parse_id(id: &str) -> Option<u64> {
        let canonical =
            id.len() == 16 && id.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
        canonical
            .then(|| u64::from_str_radix(id, 16).ok())
            .flatten()
    }

    /// Submits `spec` for `tenant`. Content-addressed: a cached result
    /// short-circuits (nothing executes), an identical queued, running
    /// or done job deduplicates, otherwise the job (or a failed job,
    /// over the journal it holds) is queued FIFO within the tenant.
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
                status: JobStatus::Done { cached: true },
                progress: Vec::new(),
                journal: None,
            });
            return Ok(SubmitOutcome {
                id,
                cached: true,
                deduplicated: duplicate,
            });
        }
        // Claim the job first: a concurrent identical submission must
        // dedup against the claim rather than race the journal open
        // below. A failed job is claimed by queueing it again over the
        // journal it already holds.
        let journal = {
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
                    job.status = JobStatus::Queued;
                    job.progress.clear();
                    job.journal.clone()
                }
                None => {
                    st.jobs.insert(
                        fingerprint,
                        Job {
                            spec: spec.clone(),
                            status: JobStatus::Queued,
                            progress: Vec::new(),
                            journal: None,
                        },
                    );
                    None
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
        {
            let mut st = self.lock();
            if let Some(job) = st.jobs.get_mut(&fingerprint) {
                job.journal = Some(journal);
            }
            match st.queues.iter_mut().find(|(t, _)| t == tenant) {
                Some((_, queue)) => queue.push_back(fingerprint),
                None => st
                    .queues
                    .push((tenant.to_string(), VecDeque::from([fingerprint]))),
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

    /// Jobs executed so far (a cache hit or a deduplicated submission
    /// executes none) — the observable "ran exactly once" counter the
    /// tests assert on.
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

/// Forwards a job's per-replication progress into the job record, where
/// pollers and the chunked HTTP stream read it.
struct RecordingSink<'a> {
    inner: &'a Inner,
    fingerprint: u64,
}

impl ProgressSink for RecordingSink<'_> {
    fn progress(&self, snapshot: &ProgressSnapshot<'_>) {
        let line = JsonlSink::render(snapshot);
        {
            let mut st = self.inner.state.lock().expect("scheduler state poisoned");
            if let Some(job) = st.jobs.get_mut(&self.fingerprint) {
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
        let fingerprint = {
            let mut st = inner.state.lock().expect("scheduler state poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(fingerprint) = next_job(&mut st) {
                    break fingerprint;
                }
                st = inner.work_cv.wait(st).expect("scheduler state poisoned");
            }
        };
        execute(inner, fingerprint);
    }
}

/// Round-robin across tenants, FIFO within each: the fairness policy.
/// A tenant whose queue drains is dropped, so the list holds only
/// tenants with work and never grows with the number ever seen.
fn next_job(st: &mut State) -> Option<u64> {
    while !st.queues.is_empty() {
        let i = st.rr % st.queues.len();
        let queue = &mut st.queues[i].1;
        let job = queue.pop_front();
        if queue.is_empty() {
            // The next tenant slides into slot `i` and is served next.
            st.queues.remove(i);
            st.rr = i;
        } else {
            st.rr = i + 1;
        }
        if job.is_some() {
            return job;
        }
    }
    None
}

/// Runs the queued job `fingerprint` whole and settles it.
fn execute(inner: &Inner, fingerprint: u64) {
    let (spec, journal) = {
        let mut st = inner.state.lock().expect("scheduler state poisoned");
        let Some(job) = st.jobs.get_mut(&fingerprint) else {
            return;
        };
        let Some(journal) = job.journal.clone() else {
            return;
        };
        job.status = JobStatus::Running {
            completed: 0,
            total: job.spec.replications() as usize,
        };
        (job.spec.clone(), journal)
    };
    let sink = RecordingSink { inner, fingerprint };
    let published = exec::run_whole(
        &inner.store,
        &spec,
        &journal,
        Some(&inner.interrupt),
        Some(&sink),
    );
    inner.executed_units.fetch_add(1, Ordering::SeqCst);
    settle(inner, fingerprint, published);
}

/// Ends a job's run with its publish outcome: `Done`, releasing the
/// journal (the store now answers every resubmission before the job
/// table is consulted, so the journal is never read again), or
/// `Failed`, keeping it for the next submission to resume from.
fn settle(inner: &Inner, fingerprint: u64, published: Result<String, CkptError>) {
    let mut st = inner.state.lock().expect("scheduler state poisoned");
    if let Some(job) = st.jobs.get_mut(&fingerprint) {
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

    /// On every engine, a job the service runs publishes the bytes a
    /// local run of the same spec renders, whichever of several workers
    /// takes it.
    #[test]
    fn every_engine_publishes_the_bytes_of_a_local_run() {
        let engines = [
            (EngineKind::Direct, ReactivationMode::Resample),
            (EngineKind::San, ReactivationMode::Resample),
            (EngineKind::San, ReactivationMode::Lazy),
        ];
        let store = store_in("engines");
        let sched = Scheduler::new(
            store.clone(),
            Tuning {
                workers: 3,
                snapshot_every: 1,
            },
        );
        for (engine, mode) in engines {
            let cfg = SystemConfig::builder().processors(512).build().unwrap();
            let spec = ExperimentSpec::builder(cfg)
                .engine(engine)
                .reactivation(mode)
                .transient(SimTime::from_hours(5.0))
                .horizon(SimTime::from_hours(60.0))
                .replications(5)
                .seed(3)
                .jobs(2)
                .build()
                .unwrap();
            let local = crate::result::render(&spec, &spec.to_experiment().run().unwrap());
            let out = sched.submit("t", &spec).unwrap();
            assert_eq!(
                sched.wait(&out.id, Duration::from_secs(120)).unwrap(),
                JobStatus::Done { cached: false },
                "{} {mode:?}",
                engine.name()
            );
            assert_eq!(
                sched.result(&out.id).unwrap().unwrap(),
                local,
                "{} {mode:?}",
                engine.name()
            );
        }
        assert_eq!(sched.executed_units(), engines.len());
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// A failed job resumes when it is resubmitted to the same
    /// scheduler: the new run replays the journal the failed one kept
    /// and publishes what an uninterrupted run renders.
    #[test]
    fn resubmitting_a_failed_job_resumes_it_from_the_journal() {
        let store = store_in("resubmit");
        let sched = Scheduler::new(store.clone(), Tuning::default());
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
        // The journal already holds replications 0, 1 and 3.
        let journal = store.open_journal(spec.fingerprint(), 1).unwrap();
        for rep in [0u32, 1, 3] {
            let i = rep as usize;
            journal.record(0, rep, &whole.replicates()[i], whole.profiles()[i].events);
        }
        journal.persist().unwrap();
        drop(journal);

        // The first run fails: it is interrupted before it runs anything.
        sched.inner.interrupt.store(true, Ordering::SeqCst);
        let first = sched.submit("t", &spec).unwrap();
        assert!(
            matches!(
                sched.wait(&first.id, Duration::from_secs(120)),
                Some(JobStatus::Failed { .. })
            ),
            "the interrupted run fails"
        );
        assert_eq!(sched.executed_units(), 1);
        assert!(
            store.journal_path(spec.fingerprint()).exists(),
            "a failed job keeps its journal"
        );
        sched.inner.interrupt.store(false, Ordering::SeqCst);

        let again = sched.submit("t", &spec).unwrap();
        assert_eq!(again.id, first.id);
        assert!(
            !again.deduplicated && !again.cached,
            "a failed job runs again: {again:?}"
        );
        assert_eq!(
            sched.wait(&again.id, Duration::from_secs(120)).unwrap(),
            JobStatus::Done { cached: false }
        );
        assert_eq!(sched.executed_units(), 2);
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
        let store = store_in("release");
        let sched = Scheduler::new(store.clone(), Tuning::default());
        let out = sched.submit("t", &small_spec(5)).unwrap();
        assert_eq!(
            sched.wait(&out.id, Duration::from_secs(120)).unwrap(),
            JobStatus::Done { cached: false }
        );
        let fingerprint = Scheduler::parse_id(&out.id).unwrap();
        assert!(
            sched.lock().jobs[&fingerprint].journal.is_none(),
            "a published job must not keep its journal"
        );
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// Publishing deletes the journal file; a restarted scheduler still
    /// answers the resubmission from the result, byte for byte.
    #[test]
    fn finished_jobs_leave_no_journal_file_and_still_hit() {
        let spec = small_spec(6);
        let store = store_in("no_journal");
        let sched = Scheduler::new(store.clone(), Tuning::default());
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
            "a published job left its journal file"
        );

        let restarted = Scheduler::new(store.clone(), Tuning::default());
        let again = restarted.submit("t", &spec).unwrap();
        assert!(again.cached, "resubmission must hit the cache");
        assert_eq!(restarted.result(&again.id).unwrap().unwrap(), body);
        assert_eq!(restarted.executed_units(), 0);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn round_robin_stays_fair_as_drained_tenants_leave() {
        let mut st = State {
            queues: Vec::new(),
            rr: 0,
            jobs: HashMap::new(),
            shutdown: false,
        };
        for (tenant, jobs) in [("a", 2), ("b", 1), ("c", 3)] {
            let queue = std::iter::repeat_n(u64::from(tenant.as_bytes()[0]), jobs).collect();
            st.queues.push((tenant.to_string(), queue));
        }
        let order: Vec<u8> = std::iter::from_fn(|| next_job(&mut st))
            .map(|fingerprint| fingerprint as u8)
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

    #[test]
    fn only_the_canonical_spelling_of_an_id_parses() {
        assert_eq!(Scheduler::parse_id("00000000deadbeef"), Some(0xdead_beef));
        assert_eq!(Scheduler::parse_id("+0000000deadbeef"), None, "a sign");
        assert_eq!(Scheduler::parse_id("00000000DEADBEEF"), None, "uppercase");
        assert_eq!(Scheduler::parse_id("00000000deadbee"), None, "15 digits");
    }
}
