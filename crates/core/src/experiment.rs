//! Steady-state experiment runner: the paper's estimation procedure
//! (transient discard + independent replications at 95 % confidence)
//! over either simulation engine.
//!
//! # One replication range
//!
//! A run is the fixed range `0..replications` over one model build; a
//! replication read back from a [`ReplicationStore`] takes the place of
//! running it, so a resumed run aggregates into the same estimate bit
//! for bit.
//!
//! # Parallel execution
//!
//! Replications are embarrassingly parallel: replication `k` always
//! draws from seed `base_seed + k`, so its sample path is fixed no
//! matter which thread runs it or in what order. [`Experiment::jobs`]
//! sets the worker count (default: all available cores); scheduling
//! never changes sampling, so results are bit-identical across any
//! `jobs` value.

use crate::config::SystemConfig;
use crate::direct::DirectSimulator;
use crate::metrics::Metrics;
use crate::san_model::{CheckpointSan, ModelError, RunOptions as SanRunOptions};
use ckpt_des::SimTime;
use ckpt_obs::{
    MetricsRegistry, ModelEvent, ObsEvent, Observer, ProgressSink, ProgressSnapshot, Recorder,
    ReplicationTelemetry, RunManifest,
};
use ckpt_san::ReactivationMode;
use ckpt_stats::{ConfidenceInterval, Replications};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub use ckpt_obs::ReplicationProfile;

/// Why an experiment did not produce an estimate.
///
/// This is the typed error surface of the experiment layer: model
/// construction problems ([`ModelError`]), worker panics that survived
/// the supervisor's retry, and cooperative interruption. Callers that
/// only care about the message can rely on [`fmt::Display`]; the CLI
/// maps each variant to a distinct exit code.
#[derive(Debug)]
pub enum ExperimentError {
    /// The underlying simulation model failed to build or execute.
    Model(ModelError),
    /// A replication panicked, was retried once with the same seed, and
    /// panicked again — a deterministic fault the supervisor cannot
    /// absorb.
    ReplicationPanicked {
        /// The replication index (seed `base_seed + rep`).
        rep: u32,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A cooperative interrupt (see [`RunControl::interrupt`]) stopped
    /// the run before every replication completed. Finished
    /// replications were already handed to the [`ReplicationStore`], so
    /// a resumed run picks up where this one stopped.
    Interrupted {
        /// Replications that completed before the stop.
        completed: usize,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Model(e) => write!(f, "{e}"),
            ExperimentError::ReplicationPanicked { rep, message } => {
                write!(f, "replication {rep} panicked twice (same seed): {message}")
            }
            ExperimentError::Interrupted { completed } => {
                write!(f, "interrupted after {completed} completed replication(s)")
            }
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for ExperimentError {
    fn from(e: ModelError) -> ExperimentError {
        ExperimentError::Model(e)
    }
}

/// A supervised worker fault: one replication panicked and the
/// supervisor's single same-seed retry recovered it. Surfaced through
/// [`Estimate::faults`] and counted in the run manifest; the retry's
/// recording (if any) also carries a [`ModelEvent::WorkerFault`] entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFault {
    /// The replication index that faulted.
    pub rep: u32,
    /// The panic payload, when it was a string.
    pub message: String,
    /// Always `true` for faults attached to a successful estimate — a
    /// failed retry aborts the run with
    /// [`ExperimentError::ReplicationPanicked`] instead.
    pub retried: bool,
}

/// A completed replication as persisted by a [`ReplicationStore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedReplication {
    /// The replication's measurement-window metrics.
    pub metrics: Metrics,
    /// Simulation events the replication processed.
    pub events: u64,
}

/// One replication's outcome, as a range run returns it and
/// [`Experiment::estimate`] aggregates it.
#[derive(Debug, Clone)]
struct Replicate {
    /// The replication's measurement-window metrics.
    metrics: Metrics,
    /// Its wall-clock cost and event count.
    profile: ReplicationProfile,
    /// Its recording, when [`Experiment::observe`] was set and it ran.
    recording: Option<Recorder>,
    /// The panic the supervisor's same-seed retry recovered, if any.
    fault: Option<WorkerFault>,
}

impl From<CachedReplication> for Replicate {
    /// A stored replication: its metrics and event count, no wall time
    /// (nothing ran now), no recording and no fault.
    fn from(cached: CachedReplication) -> Replicate {
        Replicate {
            metrics: cached.metrics,
            profile: ReplicationProfile {
                wall_secs: 0.0,
                events: cached.events,
            },
            recording: None,
            fault: None,
        }
    }
}

/// Durable storage for completed replications — the hook the
/// crash-safe harness plugs into.
///
/// The runner calls [`record`](ReplicationStore::record) from worker
/// threads as soon as each replication finishes (hence `Sync`), and
/// consults [`lookup`](ReplicationStore::lookup) before running a
/// replication so a resumed experiment replays cached results instead
/// of re-simulating. Lookups are skipped when observation is enabled:
/// a cached result has no recording, and replaying part of a run would
/// leave the recordings misaligned with the replicates.
pub trait ReplicationStore: Sync {
    /// Returns the cached result for replication `rep`, if present.
    fn lookup(&self, rep: u32) -> Option<CachedReplication>;
    /// Persists the result of replication `rep`.
    fn record(&self, rep: u32, metrics: &Metrics, events: u64);
}

/// External control handles for [`Experiment::run_controlled`]: a
/// replication cache for resume and an interrupt flag for graceful
/// shutdown. The default has neither, which is exactly
/// [`Experiment::run`].
#[derive(Clone, Copy, Default)]
pub struct RunControl<'a> {
    /// Cache of completed replications (see [`ReplicationStore`]).
    pub store: Option<&'a dyn ReplicationStore>,
    /// When set, workers stop claiming new replications as soon as the
    /// flag reads `true`; in-flight replications finish (and are
    /// recorded) and the run returns [`ExperimentError::Interrupted`].
    pub interrupt: Option<&'a AtomicBool>,
    /// When set, every completed replication reports a
    /// [`ProgressSnapshot`] (label `replications`). Emission is
    /// serialized under a lock so `completed` arrives strictly
    /// increasing — the deterministic-stream contract of
    /// [`ckpt_obs::JsonlSink`] — at any `jobs` value.
    pub progress: Option<&'a dyn ProgressSink>,
}

impl fmt::Debug for RunControl<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunControl")
            .field("store", &self.store.map(|_| "dyn ReplicationStore"))
            .field("interrupt", &self.interrupt)
            .field("progress", &self.progress.map(|_| "dyn ProgressSink"))
            .finish()
    }
}

/// Renders a panic payload for fault reports.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Default worker count: every core the OS grants us, 1 if unknown.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `count` indexed tasks across up to `jobs` worker threads and
/// returns the results in index order; slot `i` is `None` only when an
/// interrupt stopped the run before task `i` was claimed.
///
/// Workers pull indices from a shared counter, so thread scheduling
/// decides only *when* each task runs — task `i` computes the same
/// value regardless. Because the counter hands out indices in order
/// and every claimed task runs to completion, the completed slots
/// always form a prefix of `0..count`. With `jobs <= 1` or `count <= 1`
/// this degenerates to a plain sequential loop on the calling thread.
pub fn run_indexed<T, F>(
    count: usize,
    jobs: usize,
    interrupt: Option<&AtomicBool>,
    task: F,
) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = jobs.min(count);
    if workers > 1 {
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..count).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    if interrupt.is_some_and(|f| f.load(Ordering::SeqCst)) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let value = task(i);
                    slots.lock().expect("a sibling worker panicked")[i] = Some(value);
                });
            }
        });
        return slots.into_inner().expect("workers joined cleanly");
    }
    let mut out: Vec<Option<T>> = Vec::with_capacity(count);
    for i in 0..count {
        if interrupt.is_some_and(|f| f.load(Ordering::SeqCst)) {
            break;
        }
        out.push(Some(task(i)));
    }
    out.resize_with(count, || None);
    out
}

/// What each replication records beyond its metrics (see
/// [`Experiment::observe`]): always a [`MetricsRegistry`] (event
/// counters, activity firings, sim-time-weighted phase times) and
/// [`ReplicationTelemetry`] (the inter-failure gap histogram and event
/// count from the observed stream, plus the engine's queue-depth and
/// dirty-set histograms, RNG-draw and elided-redraw counts, whose
/// probes observation switches on for the whole replication, transient
/// included), and optionally a trace.
///
/// Observation never perturbs the simulation: observers are pure
/// consumers of the event stream, so results stay bit-identical to an
/// unobserved run at any [`Experiment::jobs`] value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObserveSpec {
    /// Keep the last `n` model events of each replication in a ring
    /// buffer ([`ckpt_obs::TraceBuffer`]); `None` disables tracing.
    pub trace_capacity: Option<usize>,
}

impl ObserveSpec {
    /// Registry and telemetry, no trace.
    #[must_use]
    pub fn metrics() -> ObserveSpec {
        ObserveSpec {
            trace_capacity: None,
        }
    }

    /// Registry and telemetry plus a model-event trace of the given
    /// capacity.
    #[must_use]
    pub fn full(trace_capacity: usize) -> ObserveSpec {
        ObserveSpec {
            trace_capacity: Some(trace_capacity),
        }
    }
}

/// Which simulation engine evaluates the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The fast hand-written event simulator (default).
    #[default]
    Direct,
    /// The paper-faithful SAN composition.
    San,
}

impl EngineKind {
    /// Stable lower-case name, used in manifests and CLI output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Direct => "direct",
            EngineKind::San => "san",
        }
    }
}

/// Result of an experiment: per-replication metrics plus aggregate
/// confidence intervals. Built only by running an [`Experiment`].
#[derive(Debug, Clone)]
pub struct Estimate {
    config: SystemConfig,
    engine: EngineKind,
    base_seed: u64,
    transient: SimTime,
    horizon: SimTime,
    jobs: usize,
    replicates: Vec<Metrics>,
    profiles: Vec<ReplicationProfile>,
    recordings: Vec<Recorder>,
    faults: Vec<WorkerFault>,
    level: f64,
}

impl Estimate {
    /// The configuration that produced this estimate.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Per-replication metrics.
    #[must_use]
    pub fn replicates(&self) -> &[Metrics] {
        &self.replicates
    }

    /// Wall-clock profiles of the replications behind this estimate,
    /// one entry per replication.
    #[must_use]
    pub fn profiles(&self) -> &[ReplicationProfile] {
        &self.profiles
    }

    /// The engine that produced this estimate.
    #[must_use]
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// Per-replication observability recordings, in replication (index)
    /// order — one per replication when [`Experiment::observe`] was
    /// set, empty otherwise.
    #[must_use]
    pub fn recordings(&self) -> &[Recorder] {
        &self.recordings
    }

    /// Worker faults the supervisor recovered during this run, in
    /// replication order. Empty for a clean run; each entry is a
    /// replication that panicked once and succeeded on its same-seed
    /// retry.
    #[must_use]
    pub fn faults(&self) -> &[WorkerFault] {
        &self.faults
    }

    /// Merges every replication's [`MetricsRegistry`] into one
    /// aggregate (index order, so the result is deterministic at any
    /// `jobs` value). `None` when the run was not observed.
    #[must_use]
    pub fn merged_registry(&self) -> Option<MetricsRegistry> {
        let mut iter = self.recordings.iter().map(Recorder::registry);
        let mut merged = iter.next()?.clone();
        for r in iter {
            merged.merge(r);
        }
        Some(merged)
    }

    /// Merges every replication's [`ReplicationTelemetry`] into one
    /// aggregate, in replication-index order. Histogram merges are
    /// associative over a fixed bucket layout, so the result — and its
    /// JSON — is byte-identical at any `jobs` value. `None` when the
    /// run was not observed.
    #[must_use]
    pub fn merged_telemetry(&self) -> Option<ReplicationTelemetry> {
        let mut iter = self.recordings.iter().map(Recorder::telemetry);
        let mut merged = iter.next()?.clone();
        for t in iter {
            merged.merge(t);
        }
        Some(merged)
    }

    /// Run manifest: full provenance (tool version, engine, seeds,
    /// horizon, host parallelism, the complete configuration, and
    /// per-replication wall/event profiles) for reproducing or auditing
    /// this estimate.
    #[must_use]
    pub fn manifest(&self) -> RunManifest {
        RunManifest {
            tool: "ckptsim".to_string(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            engine: self.engine.name().to_string(),
            estimation: "replications".to_string(),
            base_seed: self.base_seed,
            transient_hours: self.transient.as_hours(),
            horizon_hours: self.horizon.as_hours(),
            replications: self.replicates.len(),
            faults: self.faults.len(),
            jobs: self.jobs,
            host_parallelism: std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get),
            policy: self.config.policy().to_string(),
            config: self.config.summary(),
            profiles: self.profiles.clone(),
        }
    }

    /// Total wall-clock seconds across all profiled runs.
    #[must_use]
    pub fn total_wall_secs(&self) -> f64 {
        self.profiles.iter().map(|p| p.wall_secs).sum()
    }

    /// Aggregate simulation-event throughput: total events over total
    /// *compute* time. Under parallel execution this is per-worker
    /// throughput, not wall-clock speedup.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        let wall = self.total_wall_secs();
        if wall > 0.0 {
            self.profiles.iter().map(|p| p.events).sum::<u64>() as f64 / wall
        } else {
            0.0
        }
    }

    /// Confidence interval of the useful work fraction across
    /// replications.
    #[must_use]
    pub fn useful_work_fraction(&self) -> ConfidenceInterval {
        self.replicates
            .iter()
            .map(Metrics::useful_work_fraction)
            .collect::<Replications>()
            .confidence_interval(self.level)
    }

    /// Confidence interval of the total useful work (fraction ×
    /// processors, the paper's "job units").
    #[must_use]
    pub fn total_useful_work(&self) -> ConfidenceInterval {
        let procs = self.config.processors();
        self.replicates
            .iter()
            .map(|m| m.total_useful_work(procs))
            .collect::<Replications>()
            .confidence_interval(self.level)
    }

    /// Mean of an arbitrary per-replication metric.
    #[must_use]
    pub fn mean_of<F: Fn(&Metrics) -> f64>(&self, f: F) -> f64 {
        if self.replicates.is_empty() {
            return 0.0;
        }
        self.replicates.iter().map(f).sum::<f64>() / self.replicates.len() as f64
    }
}

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} procs: useful work fraction {}",
            self.config.processors(),
            self.useful_work_fraction()
        )
    }
}

/// Builder-style experiment definition.
///
/// Defaults follow the paper: 1000-hour transient, 95 % confidence.
/// How long a figure point takes depends on the engine and horizon —
/// the direct engine runs a default point in seconds, the SAN engine
/// in tens of seconds per replication; replications run across worker
/// threads (see [`Experiment::jobs`]), so wall time divides by the
/// core count. Raise the horizon or replication count for tighter
/// intervals.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct Experiment {
    config: SystemConfig,
    engine: EngineKind,
    transient: SimTime,
    horizon: SimTime,
    replications: u32,
    base_seed: u64,
    level: f64,
    jobs: usize,
    observe: Option<ObserveSpec>,
    reactivation: ReactivationMode,
}

impl Experiment {
    /// Creates an experiment over `config` with the paper's estimation
    /// defaults.
    #[must_use]
    pub fn new(config: SystemConfig) -> Experiment {
        Experiment {
            config,
            engine: EngineKind::Direct,
            transient: SimTime::from_hours(1_000.0),
            horizon: SimTime::from_hours(20_000.0),
            replications: 5,
            base_seed: 0x5eed,
            level: 0.95,
            jobs: default_jobs(),
            observe: None,
            reactivation: ReactivationMode::default(),
        }
    }

    /// Selects the simulation engine.
    #[must_use]
    pub fn engine(mut self, engine: EngineKind) -> Experiment {
        self.engine = engine;
        self
    }

    /// Selects the reactivation realisation (SAN engine only; the
    /// direct engine encodes the paper's resampling explicitly).
    /// [`ReactivationMode::Resample`], the default, is the bit-identity
    /// oracle; [`ReactivationMode::Lazy`] elides the redraws of
    /// marking-independent exponential timers — distribution-equivalent
    /// on a different stream.
    #[must_use]
    pub fn reactivation(mut self, mode: ReactivationMode) -> Experiment {
        self.reactivation = mode;
        self
    }

    /// Transient (warm-up) period discarded before measuring.
    #[must_use]
    pub fn transient(mut self, t: SimTime) -> Experiment {
        self.transient = t;
        self
    }

    /// Measurement horizon per replication.
    #[must_use]
    pub fn horizon(mut self, t: SimTime) -> Experiment {
        self.horizon = t;
        self
    }

    /// Number of independent replications.
    #[must_use]
    pub fn replications(mut self, n: u32) -> Experiment {
        self.replications = n.max(1);
        self
    }

    /// Base seed; replication `k` uses `base_seed + k`.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Experiment {
        self.base_seed = seed;
        self
    }

    /// Confidence level for the aggregate intervals (default 0.95).
    #[must_use]
    pub fn confidence(mut self, level: f64) -> Experiment {
        self.level = level;
        self
    }

    /// Worker threads for replication execution (clamped to at least
    /// 1). The default is the machine's available parallelism.
    /// `jobs(1)` forces the sequential path; any value yields
    /// bit-identical metrics because replication `k` always draws from
    /// seed `base_seed + k`.
    #[must_use]
    pub fn jobs(mut self, n: usize) -> Experiment {
        self.jobs = n.max(1);
        self
    }

    /// Attaches a [`Recorder`] to every replication (default: none —
    /// the zero-cost no-observer path). Recordings come back through
    /// [`Estimate::recordings`] in replication order. Observation
    /// never changes sampling: metrics stay bit-identical to an
    /// unobserved run.
    #[must_use]
    pub fn observe(mut self, spec: ObserveSpec) -> Experiment {
        self.observe = Some(spec);
        self
    }

    /// Runs all replications and aggregates them.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::Model`] if the SAN engine was
    /// selected and the model cannot be built or executed (the direct
    /// engine is infallible once the config validated), or
    /// [`ExperimentError::ReplicationPanicked`] if a replication
    /// panicked twice on the same seed.
    pub fn run(self) -> Result<Estimate, ExperimentError> {
        self.run_controlled(RunControl::default())
    }

    /// Like [`Experiment::run`], but with external [`RunControl`]
    /// handles: a [`ReplicationStore`] that caches finished
    /// replications (and pre-seeds resumed runs) and an interrupt flag
    /// for graceful shutdown. Neither handle ever changes *sampling* —
    /// replication `k` still draws from seed `base_seed + k` — so a
    /// resumed run is bit-identical to an uninterrupted one.
    ///
    /// # Errors
    ///
    /// Everything [`Experiment::run`] returns, plus
    /// [`ExperimentError::Interrupted`] when the interrupt flag stopped
    /// the run early.
    pub fn run_controlled(self, control: RunControl<'_>) -> Result<Estimate, ExperimentError> {
        let replicates = self.run_replications(control)?;
        Ok(self.estimate(replicates))
    }

    /// Aggregates `replicates`, in replication order, into this
    /// experiment's [`Estimate`] — the one way an estimate is built,
    /// whether the replicates just ran or were read back from a
    /// journal.
    fn estimate(&self, replicates: Vec<Replicate>) -> Estimate {
        let mut est = Estimate {
            config: self.config.clone(),
            engine: self.engine,
            base_seed: self.base_seed,
            transient: self.transient,
            horizon: self.horizon,
            jobs: self.jobs,
            replicates: Vec::with_capacity(replicates.len()),
            profiles: Vec::with_capacity(replicates.len()),
            recordings: Vec::new(),
            faults: Vec::new(),
            level: self.level,
        };
        for r in replicates {
            est.replicates.push(r.metrics);
            est.profiles.push(r.profile);
            est.recordings.extend(r.recording);
            est.faults.extend(r.fault);
        }
        est
    }

    /// Runs replication `k` (seed `base_seed + k`) on the configured
    /// engine and profiles its wall time and event count. When
    /// observation is enabled the recorder watches exactly the
    /// measurement window (transient excluded), so its phase times are
    /// comparable to the replication's [`Metrics`].
    fn run_one(&self, san_model: Option<&CheckpointSan>, k: u32) -> Result<Replicate, ModelError> {
        let seed = self.base_seed + u64::from(k);
        let mut recorder = self.observe.map(|spec| Recorder::new(spec.trace_capacity));
        let start = Instant::now();
        let (metrics, events, engine_telem) = match san_model {
            None => {
                let mut sim = DirectSimulator::new(&self.config, seed);
                if recorder.is_some() {
                    sim.enable_telemetry();
                }
                sim.run(self.transient);
                sim.reset_metrics();
                if let Some(rec) = recorder.as_mut() {
                    rec.on_window_begin(sim.now(), sim.current_phase());
                    sim.set_observer(rec);
                }
                sim.run(self.horizon);
                let out = (sim.metrics(), sim.events_processed());
                let end = sim.now();
                let telem = sim.telemetry_snapshot();
                drop(sim);
                if let Some(rec) = recorder.as_mut() {
                    rec.on_window_end(end);
                }
                (out.0, out.1, telem)
            }
            Some(model) => {
                let opts = SanRunOptions {
                    seed,
                    transient: self.transient,
                    horizon: self.horizon,
                    reactivation: self.reactivation,
                    ..SanRunOptions::default()
                };
                let (outcome, telem) = match recorder.as_mut() {
                    None => (model.run(&opts)?, None),
                    Some(rec) => model.run_observed(&opts, rec, true)?,
                };
                (outcome.metrics, outcome.events, telem)
            }
        };
        if let (Some(rec), Some(snapshot)) = (recorder.as_mut(), engine_telem) {
            rec.absorb_engine_telemetry(&snapshot);
        }
        Ok(Replicate {
            metrics,
            profile: ReplicationProfile {
                wall_secs: start.elapsed().as_secs_f64(),
                events,
            },
            recording: recorder,
            fault: None,
        })
    }

    /// Supervised replication: consults the [`ReplicationStore`] cache
    /// first (unless observing — a cached result has no recording),
    /// catches a panicking worker, retries it once with the same seed,
    /// and records the completion back into the store. A recovered
    /// fault leaves a [`ModelEvent::WorkerFault`] in the retry's
    /// recording and a [`WorkerFault`] report in the replicate.
    fn run_one_supervised(
        &self,
        san_model: Option<&CheckpointSan>,
        k: u32,
        store: Option<&dyn ReplicationStore>,
    ) -> Result<Replicate, ExperimentError> {
        if self.observe.is_none() {
            if let Some(cached) = store.and_then(|s| s.lookup(k)) {
                return Ok(cached.into());
            }
        }
        let attempt = |fault: Option<WorkerFault>| -> Result<Replicate, ModelError> {
            let mut replicate = self.run_one(san_model, k)?;
            if let (Some(f), Some(rec)) = (&fault, replicate.recording.as_mut()) {
                // Stamp the audit event at the end of the replication's
                // window so the trace stays monotone in time.
                rec.on_event(
                    self.transient + self.horizon,
                    ObsEvent::Model(ModelEvent::WorkerFault { retried: f.retried }),
                );
            }
            if let Some(s) = store {
                s.record(k, &replicate.metrics, replicate.profile.events);
            }
            replicate.fault = fault;
            Ok(replicate)
        };
        match catch_unwind(AssertUnwindSafe(|| attempt(None))) {
            Ok(result) => Ok(result?),
            Err(payload) => {
                let fault = WorkerFault {
                    rep: k,
                    message: panic_message(payload.as_ref()),
                    retried: true,
                };
                catch_unwind(AssertUnwindSafe(|| attempt(Some(fault))))
                    .map_err(|second| ExperimentError::ReplicationPanicked {
                        rep: k,
                        message: panic_message(second.as_ref()),
                    })?
                    .map_err(ExperimentError::from)
            }
        }
    }

    /// Runs the range `0..replications` on one model build — the one
    /// place replications run — and returns its replicates in index
    /// order. Errors surface in the order a sequential run would report
    /// them; an interrupt that stopped the run before every replication
    /// was claimed is [`ExperimentError::Interrupted`] counting the
    /// completed replications, which always form a prefix.
    fn run_replications(&self, control: RunControl<'_>) -> Result<Vec<Replicate>, ExperimentError> {
        let san_model = match self.engine {
            EngineKind::San => Some(CheckpointSan::build(&self.config)?),
            EngineKind::Direct => None,
        };
        let total = self.replications as usize;
        // Completions so far. Counted and emitted under this one lock, so
        // snapshots leave in strictly increasing `completed` order at any
        // worker count.
        let done = Mutex::new(0usize);
        let started = Instant::now();
        let slots = run_indexed(total, self.jobs, control.interrupt, |i| {
            let result = self.run_one_supervised(san_model.as_ref(), i as u32, control.store);
            if let Some(sink) = control.progress {
                let mut done = done.lock().expect("progress lock poisoned");
                *done += 1;
                let mut snapshot = ProgressSnapshot::new("replications", *done, total);
                // Provenance extras (HumanSink-only; the JSONL sink
                // ignores them, keeping the stream deterministic).
                let elapsed = started.elapsed().as_secs_f64();
                snapshot.eta_secs = Some(elapsed / *done as f64 * (total - *done) as f64);
                if let Ok(r) = &result {
                    snapshot.events_per_sec = Some(r.profile.events_per_sec());
                }
                snapshot.workers = Some(self.jobs.min(total).max(1));
                sink.progress(&snapshot);
            }
            result
        });
        let mut replicates = Vec::with_capacity(total);
        let mut interrupted = false;
        for slot in slots {
            match slot {
                Some(result) => replicates.push(result?),
                None => interrupted = true,
            }
        }
        if interrupted {
            return Err(ExperimentError::Interrupted {
                completed: replicates.len(),
            });
        }
        Ok(replicates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cfg: SystemConfig, engine: EngineKind) -> Estimate {
        Experiment::new(cfg)
            .engine(engine)
            .transient(SimTime::from_hours(100.0))
            .horizon(SimTime::from_hours(1_000.0))
            .replications(3)
            .run()
            .unwrap()
    }

    #[test]
    fn direct_experiment_produces_ci() {
        let cfg = SystemConfig::builder().build().unwrap();
        let est = quick(cfg, EngineKind::Direct);
        assert_eq!(est.replicates().len(), 3);
        let ci = est.useful_work_fraction();
        assert!(ci.mean > 0.0 && ci.mean < 1.0);
        assert!(ci.half_width >= 0.0);
        let tu = est.total_useful_work();
        assert!((tu.mean - ci.mean * 65_536.0).abs() < 1e-6);
        assert!(est.to_string().contains("65536"));
    }

    #[test]
    fn san_engine_runs_too() {
        let cfg = SystemConfig::builder().build().unwrap();
        let est = quick(cfg, EngineKind::San);
        let ci = est.useful_work_fraction();
        assert!(ci.mean > 0.0 && ci.mean < 1.0);
    }

    #[test]
    fn replications_differ_but_are_reproducible() {
        let cfg = SystemConfig::builder().build().unwrap();
        let a = quick(cfg.clone(), EngineKind::Direct);
        let b = quick(cfg, EngineKind::Direct);
        for (x, y) in a.replicates().iter().zip(b.replicates()) {
            assert_eq!(x.useful_work_secs, y.useful_work_secs);
        }
        let vals: Vec<f64> = a
            .replicates()
            .iter()
            .map(Metrics::useful_work_fraction)
            .collect();
        assert!(vals.windows(2).any(|w| w[0] != w[1]), "reps must differ");
    }

    #[test]
    fn mean_of_extracts_metric() {
        let cfg = SystemConfig::builder().build().unwrap();
        let est = quick(cfg, EngineKind::Direct);
        let mean = est.mean_of(|m| m.counters.checkpoints_completed as f64);
        assert!(mean > 0.0);
    }

    #[test]
    fn observed_run_matches_unobserved_and_records() {
        // Observers and switched-on probes are pure consumers: attaching
        // them must not perturb the sample path on either engine, in
        // either reactivation mode.
        let bits = |m: &Metrics| {
            let mut v = vec![
                m.window_secs.to_bits(),
                m.useful_work_secs.to_bits(),
                m.work_lost_secs.to_bits(),
            ];
            v.extend(
                ckpt_obs::PhaseKind::ALL
                    .iter()
                    .map(|&p| m.phase_times.get(p).to_bits()),
            );
            v
        };
        let cfg = SystemConfig::builder().build().unwrap();
        for engine in [EngineKind::Direct, EngineKind::San] {
            for mode in [ReactivationMode::Resample, ReactivationMode::Lazy] {
                let run = |observe: Option<ObserveSpec>| {
                    let exp = Experiment::new(cfg.clone())
                        .engine(engine)
                        .reactivation(mode)
                        .transient(SimTime::from_hours(100.0))
                        .horizon(SimTime::from_hours(1_000.0))
                        .replications(2);
                    match observe {
                        Some(spec) => exp.observe(spec),
                        None => exp,
                    }
                    .run()
                    .unwrap()
                };
                let plain = run(None);
                for spec in [ObserveSpec::full(64), ObserveSpec::metrics()] {
                    let observed = run(Some(spec));
                    let label = format!("{engine:?}/{mode:?}/{spec:?}");
                    assert_eq!(observed.recordings().len(), 2, "{label}");
                    for (a, b) in plain.replicates().iter().zip(observed.replicates()) {
                        assert_eq!(bits(a), bits(b), "{label}");
                        assert_eq!(a.counters, b.counters, "{label}");
                    }
                    for (a, b) in plain.profiles().iter().zip(observed.profiles()) {
                        assert_eq!(a.events, b.events, "{label}");
                    }
                    let reg = observed.merged_registry().unwrap();
                    assert!(reg.window_secs() > 0.0, "{label}");
                    let t = observed.merged_telemetry().unwrap();
                    assert!(t.rng_draws > 0 && !t.queue_depth.is_empty(), "{label}");
                    let trace = observed.recordings()[0].trace();
                    assert_eq!(
                        trace.is_some_and(|t| !t.is_empty()),
                        spec.trace_capacity.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn manifest_captures_provenance() {
        let cfg = SystemConfig::builder().build().unwrap();
        let est = quick(cfg, EngineKind::Direct);
        let m = est.manifest();
        assert_eq!(m.engine, "direct");
        assert_eq!(m.estimation, "replications");
        assert_eq!(m.replications, 3);
        assert_eq!(m.base_seed, 0x5eed);
        assert_eq!(m.profiles.len(), 3);
        let json = m.to_json();
        assert!(json.contains("schema_version"));
        assert!(json.contains("\n  \"estimation\": \"replications\",\n"));
        assert!(json.contains("\"processors\""));
        assert!(json.contains("\"host_parallelism\""));
    }

    use std::collections::HashMap;
    use std::sync::atomic::AtomicU32;

    /// In-memory [`ReplicationStore`] that can also inject panics: it
    /// panics on the first `panic_on_record` calls to [`record`] for
    /// the matching replication, then behaves normally — exercising the
    /// supervisor's same-seed retry without touching engine internals.
    #[derive(Default)]
    struct TestStore {
        cached: Mutex<HashMap<u32, CachedReplication>>,
        panic_rep: Option<u32>,
        panics_left: AtomicU32,
    }

    impl TestStore {
        fn panicking(rep: u32, times: u32) -> TestStore {
            TestStore {
                cached: Mutex::new(HashMap::new()),
                panic_rep: Some(rep),
                panics_left: AtomicU32::new(times),
            }
        }

        fn preloaded(entries: impl IntoIterator<Item = (u32, CachedReplication)>) -> TestStore {
            TestStore {
                cached: Mutex::new(entries.into_iter().collect()),
                panic_rep: None,
                panics_left: AtomicU32::new(0),
            }
        }
    }

    impl ReplicationStore for TestStore {
        fn lookup(&self, rep: u32) -> Option<CachedReplication> {
            self.cached.lock().unwrap().get(&rep).copied()
        }

        fn record(&self, rep: u32, metrics: &Metrics, events: u64) {
            if self.panic_rep == Some(rep) {
                let left = self.panics_left.load(Ordering::SeqCst);
                if left > 0 {
                    self.panics_left.store(left - 1, Ordering::SeqCst);
                    panic!("injected fault in replication {rep}");
                }
            }
            self.cached.lock().unwrap().insert(
                rep,
                CachedReplication {
                    metrics: *metrics,
                    events,
                },
            );
        }
    }

    fn controlled(
        cfg: SystemConfig,
        jobs: usize,
        control: RunControl<'_>,
    ) -> Result<Estimate, ExperimentError> {
        Experiment::new(cfg)
            .transient(SimTime::from_hours(100.0))
            .horizon(SimTime::from_hours(1_000.0))
            .replications(3)
            .jobs(jobs)
            .run_controlled(control)
    }

    #[test]
    fn supervisor_retries_a_panicking_replication_once() {
        let cfg = SystemConfig::builder().build().unwrap();
        let clean = quick(cfg.clone(), EngineKind::Direct);
        let store = TestStore::panicking(1, 1);
        let est = controlled(
            cfg,
            1,
            RunControl {
                store: Some(&store),
                interrupt: None,
                progress: None,
            },
        )
        .unwrap();
        // The fault is reported, and the retry (same seed) reproduces
        // the clean run bit for bit.
        assert_eq!(est.faults().len(), 1);
        assert_eq!(est.faults()[0].rep, 1);
        assert!(est.faults()[0].retried);
        assert!(est.faults()[0].message.contains("injected fault"));
        assert_eq!(est.manifest().faults, 1);
        for (a, b) in clean.replicates().iter().zip(est.replicates()) {
            assert_eq!(a, b);
        }
        // The store holds all three completions despite the fault.
        assert_eq!(store.cached.lock().unwrap().len(), 3);
    }

    #[test]
    fn replication_panicking_twice_is_a_structured_failure() {
        let cfg = SystemConfig::builder().build().unwrap();
        let store = TestStore::panicking(2, 2);
        let err = controlled(
            cfg,
            1,
            RunControl {
                store: Some(&store),
                interrupt: None,
                progress: None,
            },
        )
        .unwrap_err();
        match err {
            ExperimentError::ReplicationPanicked { rep, ref message } => {
                assert_eq!(rep, 2);
                assert!(message.contains("injected fault"));
            }
            other => panic!("expected ReplicationPanicked, got {other}"),
        }
    }

    #[test]
    fn cached_replications_short_circuit_resumed_runs() {
        let cfg = SystemConfig::builder().build().unwrap();
        let store = TestStore::default();
        let full = controlled(
            cfg.clone(),
            1,
            RunControl {
                store: Some(&store),
                interrupt: None,
                progress: None,
            },
        )
        .unwrap();
        // Drop one entry to simulate a partially-complete run, resume.
        let partial: Vec<(u32, CachedReplication)> = store
            .cached
            .lock()
            .unwrap()
            .iter()
            .filter(|(k, _)| **k != 2)
            .map(|(k, v)| (*k, *v))
            .collect();
        let resumed_store = TestStore::preloaded(partial);
        for jobs in [1, 8] {
            let resumed = controlled(
                cfg.clone(),
                jobs,
                RunControl {
                    store: Some(&resumed_store),
                    interrupt: None,
                    progress: None,
                },
            )
            .unwrap();
            for (a, b) in full.replicates().iter().zip(resumed.replicates()) {
                assert_eq!(a, b, "resume at jobs={jobs} must be bit-identical");
            }
            // Cached replications replay instantly.
            assert_eq!(resumed.profiles()[0].wall_secs, 0.0);
            assert!(resumed.profiles()[2].wall_secs > 0.0 || resumed.profiles()[2].events > 0);
        }
    }

    #[test]
    fn interrupt_flag_stops_the_run_cooperatively() {
        let cfg = SystemConfig::builder().build().unwrap();
        let flag = AtomicBool::new(true);
        let err = controlled(
            cfg,
            1,
            RunControl {
                store: None,
                interrupt: Some(&flag),
                progress: None,
            },
        )
        .unwrap_err();
        match err {
            ExperimentError::Interrupted { completed } => assert_eq!(completed, 0),
            other => panic!("expected Interrupted, got {other}"),
        }
    }

    #[test]
    fn observation_bypasses_the_replication_cache() {
        let cfg = SystemConfig::builder().build().unwrap();
        let store = TestStore::default();
        let control = RunControl {
            store: Some(&store),
            interrupt: None,
            progress: None,
        };
        controlled(cfg.clone(), 1, control).unwrap();
        let observed = Experiment::new(cfg)
            .transient(SimTime::from_hours(100.0))
            .horizon(SimTime::from_hours(1_000.0))
            .replications(3)
            .jobs(1)
            .observe(ObserveSpec::full(64))
            .run_controlled(control)
            .unwrap();
        // Every replication re-ran (no zero-cost cache hits), so each
        // has a recording.
        assert_eq!(observed.recordings().len(), 3);
        assert!(observed.profiles().iter().all(|p| p.events > 0));
    }

    #[test]
    fn san_engine_rejects_ablations() {
        let cfg = SystemConfig::builder()
            .buffered_recovery(false)
            .build()
            .unwrap();
        let err = Experiment::new(cfg)
            .engine(EngineKind::San)
            .replications(1)
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("buffered_recovery"));
    }
}
