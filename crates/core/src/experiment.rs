//! Steady-state experiment runner: the paper's estimation procedure
//! (transient discard + independent replications at 95 % confidence)
//! over either simulation engine.
//!
//! # Parallel execution
//!
//! Replications are embarrassingly parallel: replication `k` always
//! draws from seed `base_seed + k`, so its sample path is fixed no
//! matter which thread runs it or in what order. [`Experiment::jobs`]
//! sets the worker count (default: all available cores); scheduling
//! never changes sampling, so results are bit-identical across any
//! `jobs` value. Sequential
//! stopping runs in *chunks*: each round launches
//! `min(jobs, remaining)` replications, then re-tests the confidence
//! interval, so a parallel run may overshoot the target by at most one
//! chunk — each replication it adds is still the same seed-`k` path.

use crate::config::SystemConfig;
use crate::direct::DirectSimulator;
use crate::metrics::Metrics;
use crate::san_model::{CheckpointSan, ModelError, RunOptions as SanRunOptions};
use ckpt_des::prof::PhaseProfile;
use ckpt_des::{QueueKind, SimTime};
use ckpt_obs::{
    MetricsRegistry, ModelEvent, ObsEvent, Observer, ProgressSink, ProgressSnapshot, Recorder,
    ReplicationTelemetry, RunManifest, RunProfile, SpanKind, SpanRecord,
};
use ckpt_san::ReactivationMode;
use ckpt_stats::{ConfidenceInterval, Replications};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

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

/// Default worker count: every core the OS grants us.
#[must_use]
fn default_jobs() -> usize {
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
fn run_indexed<T, F>(
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

/// Wall-clock cost of one replication: how long it took and how many
/// simulation events (direct-engine events or SAN activity firings) it
/// processed, including its transient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationProfile {
    /// Wall-clock duration of the replication in seconds.
    pub wall_secs: f64,
    /// Simulation events the replication processed.
    pub events: u64,
    /// Hot-phase wall-time breakdown; all-zero except for SAN runs
    /// under the `prof` feature (see [`ckpt_des::prof`]). Feeds the
    /// phase-level leaves of [`Estimate::span_tree`].
    pub phases: PhaseProfile,
}

impl ReplicationProfile {
    /// Simulation events per wall-clock second (0 for an instantaneous
    /// measurement).
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// What each replication records beyond its metrics (see
/// [`Experiment::observe`]).
///
/// Observation never perturbs the simulation: observers are pure
/// consumers of the event stream, so results stay bit-identical to an
/// unobserved run at any [`Experiment::jobs`] value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObserveSpec {
    /// Keep the last `n` model events of each replication in a ring
    /// buffer ([`ckpt_obs::TraceBuffer`]); `None` disables tracing.
    pub trace_capacity: Option<usize>,
    /// Accumulate a [`MetricsRegistry`] (event counters, activity
    /// firings, sim-time-weighted phase times) per replication.
    pub registry: bool,
    /// Accumulate [`ReplicationTelemetry`] per replication
    /// (inter-failure gap histogram and event counts always; the
    /// engines' queue-depth / dirty-set histograms and RNG-draw counts
    /// additionally when the build has the `telemetry` feature).
    pub histograms: bool,
}

impl ObserveSpec {
    /// Registry only — the cheap default for phase-time accounting.
    #[must_use]
    pub fn metrics() -> ObserveSpec {
        ObserveSpec {
            trace_capacity: None,
            registry: true,
            histograms: false,
        }
    }

    /// Registry plus a model-event trace of the given capacity.
    #[must_use]
    pub fn full(trace_capacity: usize) -> ObserveSpec {
        ObserveSpec {
            trace_capacity: Some(trace_capacity),
            registry: true,
            histograms: false,
        }
    }

    /// The same spec with telemetry histograms enabled.
    #[must_use]
    pub fn with_histograms(mut self) -> ObserveSpec {
        self.histograms = true;
        self
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

/// How the steady-state estimate is formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Estimation {
    /// Independent replications (the paper's procedure): each
    /// replication runs its own transient and measurement window with a
    /// distinct seed.
    #[default]
    Replications,
    /// Batch means: one long run after a single transient, cut into
    /// equal batches whose means are treated as (approximately)
    /// independent. Cheaper per observation — one transient instead of
    /// many — at the cost of residual batch correlation.
    BatchMeans {
        /// Number of batches the horizon is cut into.
        batches: u32,
    },
}

/// Result of an experiment: per-replication metrics plus aggregate
/// confidence intervals.
#[derive(Debug, Clone)]
pub struct Estimate {
    config: SystemConfig,
    engine: EngineKind,
    estimation: Estimation,
    base_seed: u64,
    transient: SimTime,
    horizon: SimTime,
    jobs: usize,
    warmup: u32,
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

    /// Wall-clock profiles of the runs behind this estimate: one entry
    /// per replication under [`Estimation::Replications`], a single
    /// aggregate entry for the whole run under
    /// [`Estimation::BatchMeans`].
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
    /// set under [`Estimation::Replications`], empty otherwise
    /// (batch-means runs one continuous sample path, which has no
    /// per-replication windows to record).
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
    /// `jobs` value). `None` when no registry was recorded.
    #[must_use]
    pub fn merged_registry(&self) -> Option<MetricsRegistry> {
        let mut iter = self.recordings.iter().filter_map(Recorder::registry);
        let mut merged = iter.next()?.clone();
        for r in iter {
            merged.merge(r);
        }
        Some(merged)
    }

    /// Merges every replication's [`ReplicationTelemetry`] into one
    /// aggregate, in replication-index order. Histogram merges are
    /// associative over a fixed bucket layout, so the result — and its
    /// JSON — is byte-identical at any `jobs` value. `None` when
    /// telemetry was not enabled (see [`ObserveSpec::histograms`]).
    #[must_use]
    pub fn merged_telemetry(&self) -> Option<ReplicationTelemetry> {
        let mut iter = self.recordings.iter().filter_map(Recorder::telemetry);
        let mut merged = iter.next()?.clone();
        for t in iter {
            merged.merge(t);
        }
        Some(merged)
    }

    /// Per-replication [`SpanRecord`]s (wall time, events, RNG draws),
    /// in index order, with phase-level child spans where a hot-phase
    /// profile was recorded (SAN engine under the `prof` feature).
    #[must_use]
    pub fn replication_spans(&self) -> Vec<SpanRecord> {
        self.profiles
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut span = SpanRecord::new(SpanKind::Replication, format!("rep {i}"));
                span.wall_nanos = (p.wall_secs * 1.0e9) as u64;
                span.events = p.events;
                if let Some(t) = self.recordings.get(i).and_then(Recorder::telemetry) {
                    span.rng_draws = t.rng_draws;
                }
                for phase in ckpt_des::prof::HotPhase::ALL {
                    let nanos = p.phases.nanos[phase as usize];
                    let count = p.phases.counts[phase as usize];
                    if count > 0 {
                        let mut child = SpanRecord::new(SpanKind::Phase, phase.name());
                        child.wall_nanos = nanos;
                        child.events = count;
                        span.children.push(child);
                    }
                }
                span
            })
            .collect()
    }

    /// The experiment's span tree: one [`SpanKind::Experiment`] root
    /// (total wall time, events, RNG draws) over the
    /// [`Estimate::replication_spans`]. Spans are provenance — wall
    /// nanoseconds differ between runs — so they serialize under the
    /// `provenance` section of telemetry documents, never into
    /// bit-identity-checked output.
    #[must_use]
    pub fn span_tree(&self, label: &str) -> SpanRecord {
        let mut root = SpanRecord::new(SpanKind::Experiment, label);
        root.wall_nanos = (self.total_wall_secs() * 1.0e9) as u64;
        root.events = self.profiles.iter().map(|p| p.events).sum();
        root.rng_draws = self
            .recordings
            .iter()
            .filter_map(Recorder::telemetry)
            .map(|t| t.rng_draws)
            .sum();
        root.children = self.replication_spans();
        root
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
            estimation: match self.estimation {
                Estimation::Replications => "replications".to_string(),
                Estimation::BatchMeans { batches } => format!("batch_means:{batches}"),
            },
            base_seed: self.base_seed,
            transient_hours: self.transient.as_hours(),
            horizon_hours: self.horizon.as_hours(),
            replications: self.replicates.len(),
            faults: self.faults.len(),
            jobs: self.jobs,
            host_parallelism: std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get),
            warmup: self.warmup,
            policy: self.config.policy().to_string(),
            config: self.config.summary(),
            profiles: self
                .profiles
                .iter()
                .map(|p| RunProfile {
                    wall_secs: p.wall_secs,
                    events: p.events,
                })
                .collect(),
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

    /// Lag-1 autocorrelation of the per-replication useful-work
    /// fractions — a diagnostic for [`Estimation::BatchMeans`]: values
    /// near zero indicate the batches behave independently and the
    /// confidence interval can be trusted.
    #[must_use]
    pub fn lag1_autocorrelation(&self) -> f64 {
        let series: Vec<f64> = self
            .replicates
            .iter()
            .map(Metrics::useful_work_fraction)
            .collect();
        ckpt_stats::estimate::autocorrelation(&series, 1)
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
    estimation: Estimation,
    transient: SimTime,
    horizon: SimTime,
    replications: u32,
    target_precision: Option<(f64, u32)>,
    base_seed: u64,
    level: f64,
    jobs: usize,
    warmup: u32,
    observe: Option<ObserveSpec>,
    reactivation: ReactivationMode,
    queue: QueueKind,
}

impl Experiment {
    /// Creates an experiment over `config` with the paper's estimation
    /// defaults.
    #[must_use]
    pub fn new(config: SystemConfig) -> Experiment {
        Experiment {
            config,
            engine: EngineKind::Direct,
            estimation: Estimation::Replications,
            transient: SimTime::from_hours(1_000.0),
            horizon: SimTime::from_hours(20_000.0),
            replications: 5,
            target_precision: None,
            base_seed: 0x5eed,
            level: 0.95,
            jobs: default_jobs(),
            warmup: 0,
            observe: None,
            reactivation: ReactivationMode::default(),
            queue: QueueKind::default(),
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

    /// Selects the event-queue backend for both engines. The choice is
    /// bit-identical — both backends pop the same `(time, FIFO)` order
    /// — so it changes dispatch cost only.
    #[must_use]
    pub fn queue(mut self, queue: QueueKind) -> Experiment {
        self.queue = queue;
        self
    }

    /// Selects the estimation procedure (default: independent
    /// replications, as in the paper).
    #[must_use]
    pub fn estimation(mut self, estimation: Estimation) -> Experiment {
        self.estimation = estimation;
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

    /// Warm-up replications run and discarded before the measured ones
    /// (default 0). Warm-up touches the same code paths as a real
    /// replication — model build, event loop, reward accumulation — so
    /// first-run effects (cold instruction cache, lazy page faults,
    /// allocator growth) land outside the recorded wall-clock profiles.
    /// Warm-up never changes sampling: measured replication `k` still
    /// draws from seed `base_seed + k`, so metrics are bit-identical
    /// with any warm-up count. Only [`Estimation::Replications`] runs
    /// warm-up; batch means is one continuous path. The count is
    /// recorded in the manifest.
    #[must_use]
    pub fn warmup(mut self, n: u32) -> Experiment {
        self.warmup = n;
        self
    }

    /// Attaches a [`Recorder`] to every replication (default: none —
    /// the zero-cost no-observer path). Recordings come back through
    /// [`Estimate::recordings`] in replication order; only
    /// [`Estimation::Replications`] records (batch means is one
    /// continuous path with no per-replication windows). Observation
    /// never changes sampling: metrics stay bit-identical to an
    /// unobserved run.
    #[must_use]
    pub fn observe(mut self, spec: ObserveSpec) -> Experiment {
        self.observe = Some(spec);
        self
    }

    /// Sequential stopping (Möbius-style): after the configured
    /// replications, keep adding replications until the useful-work
    /// fraction's relative CI half-width drops to `rel_half_width`, or
    /// `max_replications` is reached. Only applies to
    /// [`Estimation::Replications`].
    #[must_use]
    pub fn target_precision(mut self, rel_half_width: f64, max_replications: u32) -> Experiment {
        self.target_precision = Some((rel_half_width, max_replications));
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
    /// Only [`Estimation::Replications`] consults the control handles;
    /// batch means is one continuous sample path with nothing to cache
    /// or partially complete.
    ///
    /// # Errors
    ///
    /// Everything [`Experiment::run`] returns, plus
    /// [`ExperimentError::Interrupted`] when the interrupt flag stopped
    /// the run early.
    pub fn run_controlled(self, control: RunControl<'_>) -> Result<Estimate, ExperimentError> {
        let (replicates, profiles, recordings, faults) = match self.estimation {
            Estimation::Replications => self.run_replications(control)?,
            Estimation::BatchMeans { batches } => self.run_batch_means(batches.max(2))?,
        };
        Ok(Estimate {
            config: self.config,
            engine: self.engine,
            estimation: self.estimation,
            base_seed: self.base_seed,
            transient: self.transient,
            horizon: self.horizon,
            jobs: self.jobs,
            warmup: self.warmup,
            replicates,
            profiles,
            recordings,
            faults,
            level: self.level,
        })
    }

    /// Runs replication `k` (seed `base_seed + k`) on the configured
    /// engine and profiles its wall time and event count. When
    /// observation is enabled the recorder watches exactly the
    /// measurement window (transient excluded), so its phase times are
    /// comparable to the replication's [`Metrics`].
    fn run_one(
        &self,
        san_model: Option<&CheckpointSan>,
        k: u32,
    ) -> Result<(Metrics, ReplicationProfile, Option<Recorder>), ModelError> {
        let seed = self.base_seed + u64::from(k);
        let mut recorder = self.observe.map(|spec| {
            let rec = Recorder::new(spec.trace_capacity, spec.registry);
            if spec.histograms {
                rec.with_telemetry()
            } else {
                rec
            }
        });
        let start = Instant::now();
        // A replication runs entirely on one thread, so differencing
        // the thread-local draw counter around it attributes its RNG
        // consumption exactly (0 in non-`telemetry` builds).
        let draws_before = ckpt_des::telem::rng_draws();
        let elided_before = ckpt_des::telem::redraws_elided();
        let (metrics, events, phases, engine_telem) = match san_model {
            None => {
                let mut sim = DirectSimulator::with_queue(&self.config, seed, self.queue);
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
                (out.0, out.1, PhaseProfile::default(), telem)
            }
            Some(model) => {
                let opts = SanRunOptions {
                    seed,
                    transient: self.transient,
                    horizon: self.horizon,
                    reactivation: self.reactivation,
                    queue: self.queue,
                    ..SanRunOptions::default()
                };
                match recorder.as_mut() {
                    None => {
                        let outcome = model.run(&opts)?;
                        (
                            outcome.metrics,
                            outcome.events,
                            outcome.phases,
                            Default::default(),
                        )
                    }
                    Some(rec) if rec.telemetry().is_some() => {
                        let (outcome, telem) = model.run_observed_with_telemetry(&opts, rec)?;
                        (outcome.metrics, outcome.events, outcome.phases, telem)
                    }
                    Some(rec) => {
                        let outcome = model.run_observed(&opts, rec)?;
                        (
                            outcome.metrics,
                            outcome.events,
                            outcome.phases,
                            Default::default(),
                        )
                    }
                }
            }
        };
        if let Some(rec) = recorder.as_mut() {
            rec.absorb_engine_telemetry(
                &engine_telem,
                ckpt_des::telem::rng_draws() - draws_before,
                ckpt_des::telem::redraws_elided() - elided_before,
            );
        }
        let profile = ReplicationProfile {
            wall_secs: start.elapsed().as_secs_f64(),
            events,
            phases,
        };
        Ok((metrics, profile, recorder))
    }

    /// Supervised replication: consults the [`ReplicationStore`] cache
    /// first (unless observing — a cached result has no recording),
    /// catches a panicking worker, retries it once with the same seed,
    /// and records the completion back into the store. A recovered
    /// fault leaves a [`ModelEvent::WorkerFault`] in the retry's
    /// recording and a [`WorkerFault`] report in the estimate.
    #[allow(clippy::type_complexity)]
    fn run_one_supervised(
        &self,
        san_model: Option<&CheckpointSan>,
        k: u32,
        store: Option<&dyn ReplicationStore>,
    ) -> Result<
        (
            Metrics,
            ReplicationProfile,
            Option<Recorder>,
            Option<WorkerFault>,
        ),
        ExperimentError,
    > {
        if self.observe.is_none() {
            if let Some(cached) = store.and_then(|s| s.lookup(k)) {
                let profile = ReplicationProfile {
                    wall_secs: 0.0,
                    events: cached.events,
                    phases: PhaseProfile::default(),
                };
                return Ok((cached.metrics, profile, None, None));
            }
        }
        let attempt = |fault: Option<&WorkerFault>| -> Result<
            (Metrics, ReplicationProfile, Option<Recorder>),
            ModelError,
        > {
            let (metrics, profile, mut recorder) = self.run_one(san_model, k)?;
            if let (Some(f), Some(rec)) = (fault, recorder.as_mut()) {
                // Stamp the audit event at the end of the replication's
                // window so the trace stays monotone in time.
                rec.on_event(
                    self.transient + self.horizon,
                    ObsEvent::Model(ModelEvent::WorkerFault { retried: f.retried }),
                );
            }
            if let Some(s) = store {
                s.record(k, &metrics, profile.events);
            }
            Ok((metrics, profile, recorder))
        };
        match catch_unwind(AssertUnwindSafe(|| attempt(None))) {
            Ok(result) => {
                let (metrics, profile, recorder) = result?;
                Ok((metrics, profile, recorder, None))
            }
            Err(payload) => {
                let fault = WorkerFault {
                    rep: k,
                    message: panic_message(payload.as_ref()),
                    retried: true,
                };
                match catch_unwind(AssertUnwindSafe(|| attempt(Some(&fault)))) {
                    Ok(result) => {
                        let (metrics, profile, recorder) = result?;
                        Ok((metrics, profile, recorder, Some(fault)))
                    }
                    Err(second) => Err(ExperimentError::ReplicationPanicked {
                        rep: k,
                        message: panic_message(second.as_ref()),
                    }),
                }
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn run_replications(
        &self,
        control: RunControl<'_>,
    ) -> Result<
        (
            Vec<Metrics>,
            Vec<ReplicationProfile>,
            Vec<Recorder>,
            Vec<WorkerFault>,
        ),
        ExperimentError,
    > {
        let san_model = match self.engine {
            EngineKind::San => Some(CheckpointSan::build(&self.config)?),
            EngineKind::Direct => None,
        };
        // Warm-up: run and discard replications sequentially before
        // anything is timed. Seeds cycle over the leading replication
        // indices; results are dropped, so the measured run's sampling
        // and metrics are unaffected.
        for w in 0..self.warmup {
            self.run_one(san_model.as_ref(), w % self.replications.max(1))?;
        }
        let mut replicates = Vec::with_capacity(self.replications as usize);
        let mut profiles = Vec::with_capacity(self.replications as usize);
        let mut recordings = Vec::new();
        let mut faults = Vec::new();
        // Incremental accumulator for the stopping rule: pushing each
        // new replication is O(1), where rebuilding from the replicate
        // list every round made the stopping loop quadratic.
        let mut accum = Replications::new();
        // Live progress: completions are counted and emitted under one
        // lock so snapshots leave in strictly increasing `completed`
        // order at any worker count. The planned total grows when
        // sequential stopping schedules another round.
        let progress = control.progress.map(|sink| (sink, Mutex::new(0usize)));
        let planned = AtomicUsize::new(self.replications as usize);
        let run_started = Instant::now();
        let launch = |from: u32,
                      count: u32,
                      replicates: &mut Vec<Metrics>,
                      profiles: &mut Vec<ReplicationProfile>,
                      recordings: &mut Vec<Recorder>,
                      faults: &mut Vec<WorkerFault>,
                      accum: &mut Replications|
         -> Result<(), ExperimentError> {
            let chunk = run_indexed(count as usize, self.jobs, control.interrupt, |i| {
                let result =
                    self.run_one_supervised(san_model.as_ref(), from + i as u32, control.store);
                if let Some((sink, counter)) = &progress {
                    let mut done = counter.lock().expect("progress lock poisoned");
                    *done += 1;
                    let total = planned.load(Ordering::Relaxed);
                    let mut snapshot = ProgressSnapshot::new("replications", *done, total);
                    // Provenance extras (HumanSink-only; the JSONL sink
                    // ignores them, keeping the stream deterministic).
                    let elapsed = run_started.elapsed().as_secs_f64();
                    if *done > 0 && total >= *done {
                        snapshot.eta_secs = Some(elapsed / *done as f64 * (total - *done) as f64);
                    }
                    if let Ok((_, profile, _, _)) = &result {
                        snapshot.events_per_sec = Some(profile.events_per_sec());
                    }
                    snapshot.workers = Some(self.jobs.min(count as usize).max(1));
                    sink.progress(&snapshot);
                }
                result
            });
            // Index order is preserved, so replication k lands at slot
            // k (metrics, profile, and recording alike) and errors
            // surface in the same order as a sequential run would
            // report them. Empty slots mean the interrupt flag stopped
            // the run before those replications were claimed; the
            // claimed ones always form a prefix.
            let mut interrupted = false;
            for slot in chunk {
                let Some(result) = slot else {
                    interrupted = true;
                    continue;
                };
                let (metrics, profile, recorder, fault) = result?;
                accum.push(metrics.useful_work_fraction());
                replicates.push(metrics);
                profiles.push(profile);
                if let Some(r) = recorder {
                    recordings.push(r);
                }
                if let Some(f) = fault {
                    faults.push(f);
                }
            }
            if interrupted {
                return Err(ExperimentError::Interrupted {
                    completed: replicates.len(),
                });
            }
            Ok(())
        };
        launch(
            0,
            self.replications,
            &mut replicates,
            &mut profiles,
            &mut recordings,
            &mut faults,
            &mut accum,
        )?;
        if let Some((target, max_reps)) = self.target_precision {
            let mut k = self.replications;
            while k < max_reps
                && accum.confidence_interval(self.level).relative_half_width() > target
            {
                // Chunked stopping: one round per CI test, sized to
                // keep every worker busy without overshooting the cap.
                let round = (max_reps - k).min(self.jobs.max(1) as u32);
                planned.store((k + round) as usize, Ordering::Relaxed);
                launch(
                    k,
                    round,
                    &mut replicates,
                    &mut profiles,
                    &mut recordings,
                    &mut faults,
                    &mut accum,
                )?;
                k += round;
            }
        }
        Ok((replicates, profiles, recordings, faults))
    }

    /// One long run, one transient, `batches` measurement slices.
    ///
    /// Inherently sequential (each batch continues the same sample
    /// path), so `jobs` does not apply; the profile is a single entry
    /// covering the whole run, and [`Experiment::observe`] is ignored
    /// (there are no per-replication windows to record).
    #[allow(clippy::type_complexity)]
    fn run_batch_means(
        &self,
        batches: u32,
    ) -> Result<
        (
            Vec<Metrics>,
            Vec<ReplicationProfile>,
            Vec<Recorder>,
            Vec<WorkerFault>,
        ),
        ExperimentError,
    > {
        let slice = self.horizon / f64::from(batches);
        let mut replicates = Vec::with_capacity(batches as usize);
        let start = Instant::now();
        let events = match self.engine {
            EngineKind::Direct => {
                let mut sim = DirectSimulator::new(&self.config, self.base_seed);
                sim.run(self.transient);
                for _ in 0..batches {
                    sim.reset_metrics();
                    sim.run(slice);
                    replicates.push(sim.metrics());
                }
                sim.events_processed()
            }
            EngineKind::San => {
                // The SAN runner owns its transient handling; emulate
                // batches with one transient and per-slice windows using
                // successive replications of increasing transient would
                // re-simulate, so run slices through the direct window
                // API equivalent: a single simulator with reward resets.
                let model = CheckpointSan::build(&self.config)?;
                let (batch_metrics, batch_events) =
                    model.run_batched_profiled(self.base_seed, self.transient, slice, batches)?;
                replicates.extend(batch_metrics);
                batch_events
            }
        };
        let profiles = vec![ReplicationProfile {
            wall_secs: start.elapsed().as_secs_f64(),
            events,
            phases: PhaseProfile::default(),
        }];
        Ok((replicates, profiles, Vec::new(), Vec::new()))
    }
}

/// Result of a terminating job-completion experiment: wall-clock times
/// to finish a fixed amount of useful work.
#[derive(Debug, Clone)]
pub struct CompletionEstimate {
    times_secs: Vec<f64>,
    timed_out: u32,
    level: f64,
}

impl CompletionEstimate {
    /// Completion times of the replications that finished, in seconds.
    #[must_use]
    pub fn times_secs(&self) -> &[f64] {
        &self.times_secs
    }

    /// Replications that hit the deadline without finishing.
    #[must_use]
    pub fn timed_out(&self) -> u32 {
        self.timed_out
    }

    /// Confidence interval of the completion time (seconds) over the
    /// finished replications.
    #[must_use]
    pub fn completion_time(&self) -> ConfidenceInterval {
        self.times_secs
            .iter()
            .copied()
            .collect::<Replications>()
            .confidence_interval(self.level)
    }
}

impl Experiment {
    /// Terminating analysis: the wall-clock time to complete `solve`
    /// seconds of useful work (the quantity Daly's `expected_wall_time`
    /// predicts), one run per configured replication. Runs that exceed
    /// `deadline` are reported as timed out rather than failing.
    ///
    /// Uses the direct engine regardless of the configured
    /// [`EngineKind`] (job runs are a direct-simulator feature).
    #[must_use]
    pub fn job_completion(&self, solve: SimTime, deadline: SimTime) -> CompletionEstimate {
        let outcomes = run_indexed(self.replications as usize, self.jobs, None, |i| {
            let seed = self.base_seed + i as u64;
            let mut sim = DirectSimulator::new(&self.config, seed);
            sim.run_until_useful_work(solve.as_secs(), deadline)
                .map(SimTime::as_secs)
        })
        .into_iter()
        .map(|slot| slot.expect("no interrupt flag was installed"))
        .collect::<Vec<_>>();
        let mut times = Vec::new();
        let mut timed_out = 0;
        // `outcomes` is in replication order, so `times_secs` matches
        // the sequential path element for element.
        for outcome in outcomes {
            match outcome {
                Some(t) => times.push(t),
                None => timed_out += 1,
            }
        }
        CompletionEstimate {
            times_secs: times,
            timed_out,
            level: self.level,
        }
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
    fn target_precision_adds_replications_until_tight() {
        let cfg = SystemConfig::builder().build().unwrap();
        let loose = Experiment::new(cfg.clone())
            .transient(SimTime::from_hours(100.0))
            .horizon(SimTime::from_hours(500.0))
            .replications(3)
            .run()
            .unwrap();
        let initial_width = loose.useful_work_fraction().relative_half_width();
        // Ask for half that width; the runner must add replications.
        let tight = Experiment::new(cfg)
            .transient(SimTime::from_hours(100.0))
            .horizon(SimTime::from_hours(500.0))
            .replications(3)
            .target_precision(initial_width / 2.0, 40)
            .run()
            .unwrap();
        assert!(
            tight.replicates().len() > 3,
            "sequential stopping must add replications"
        );
        assert!(
            tight.useful_work_fraction().relative_half_width() <= initial_width / 2.0
                || tight.replicates().len() == 40,
            "either the target was met or the cap was hit"
        );
    }

    #[test]
    fn batch_means_direct_matches_replications() {
        let cfg = SystemConfig::builder().build().unwrap();
        let reps = Experiment::new(cfg.clone())
            .transient(SimTime::from_hours(200.0))
            .horizon(SimTime::from_hours(2_000.0))
            .replications(4)
            .run()
            .unwrap();
        let batches = Experiment::new(cfg)
            .estimation(Estimation::BatchMeans { batches: 8 })
            .transient(SimTime::from_hours(200.0))
            .horizon(SimTime::from_hours(8_000.0))
            .run()
            .unwrap();
        assert_eq!(batches.replicates().len(), 8);
        let a = reps.useful_work_fraction().mean;
        let b = batches.useful_work_fraction().mean;
        assert!((a - b).abs() < 0.05, "replications {a} vs batch means {b}");
    }

    #[test]
    fn batch_means_san_engine_runs() {
        let cfg = SystemConfig::builder().build().unwrap();
        let est = Experiment::new(cfg)
            .engine(EngineKind::San)
            .estimation(Estimation::BatchMeans { batches: 4 })
            .transient(SimTime::from_hours(100.0))
            .horizon(SimTime::from_hours(2_000.0))
            .run()
            .unwrap();
        assert_eq!(est.replicates().len(), 4);
        let ci = est.useful_work_fraction();
        assert!(ci.mean > 0.0 && ci.mean < 1.0);
        // Batch windows tile the horizon.
        let total: f64 = est.replicates().iter().map(|m| m.window_secs).sum();
        assert!((total - 2_000.0 * 3600.0).abs() < 1.0);
    }

    #[test]
    fn batch_means_autocorrelation_is_low_for_long_batches() {
        let cfg = SystemConfig::builder().build().unwrap();
        let est = Experiment::new(cfg)
            .estimation(Estimation::BatchMeans { batches: 16 })
            .transient(SimTime::from_hours(200.0))
            .horizon(SimTime::from_hours(16_000.0))
            .run()
            .unwrap();
        let r1 = est.lag1_autocorrelation();
        assert!(
            r1.abs() < 0.5,
            "1000-hour batches should be nearly independent: lag-1 = {r1}"
        );
    }

    #[test]
    fn batch_count_is_clamped_to_two() {
        let cfg = SystemConfig::builder().build().unwrap();
        let est = Experiment::new(cfg)
            .estimation(Estimation::BatchMeans { batches: 0 })
            .transient(SimTime::from_hours(50.0))
            .horizon(SimTime::from_hours(500.0))
            .run()
            .unwrap();
        assert_eq!(est.replicates().len(), 2);
    }

    #[test]
    fn job_completion_estimates_wall_time() {
        let cfg = SystemConfig::builder().build().unwrap();
        let est = Experiment::new(cfg)
            .replications(4)
            .job_completion(SimTime::from_hours(20.0), SimTime::from_hours(1_000.0));
        assert_eq!(est.times_secs().len(), 4);
        assert_eq!(est.timed_out(), 0);
        let ci = est.completion_time();
        // 20 h of work at fraction ≈0.65 needs ≈31 h of wall clock.
        assert!(
            ci.mean > 20.0 * 3600.0 && ci.mean < 60.0 * 3600.0,
            "completion {} h",
            ci.mean / 3600.0
        );
    }

    #[test]
    fn job_completion_reports_timeouts() {
        let cfg = SystemConfig::builder()
            .processors(262_144)
            .checkpoint_interval(SimTime::from_mins(240.0))
            .build()
            .unwrap();
        let est = Experiment::new(cfg)
            .replications(2)
            .job_completion(SimTime::from_hours(100.0), SimTime::from_hours(300.0));
        assert_eq!(est.timed_out(), 2);
        assert!(est.times_secs().is_empty());
    }

    #[test]
    fn observed_run_matches_unobserved_and_records() {
        let cfg = SystemConfig::builder().build().unwrap();
        let plain = quick(cfg.clone(), EngineKind::Direct);
        let observed = Experiment::new(cfg)
            .transient(SimTime::from_hours(100.0))
            .horizon(SimTime::from_hours(1_000.0))
            .replications(3)
            .observe(ObserveSpec::full(64))
            .run()
            .unwrap();
        assert_eq!(observed.recordings().len(), 3);
        // Observers are pure consumers: attaching one must not perturb
        // the sample path.
        for (a, b) in plain.replicates().iter().zip(observed.replicates()) {
            assert_eq!(a.useful_work_secs, b.useful_work_secs);
            assert_eq!(a.counters, b.counters);
        }
        let reg = observed.merged_registry().unwrap();
        assert!(reg.window_secs() > 0.0);
        assert!(!observed.recordings()[0].trace().unwrap().is_empty());
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
