//! The validated experiment specification: one serializable value that
//! fully determines a run.
//!
//! [`ExperimentSpec`] replaces the free-function config plumbing the
//! CLI, sweep engine, and bench binaries used to share: each front end
//! builds a spec (validated at build time, so nonsensical combinations
//! like a transient cutoff beyond the horizon are rejected before any
//! simulation starts), serializes it into snapshots and manifests, and
//! turns it into a runnable [`Experiment`] with
//! [`ExperimentSpec::to_experiment`].
//!
//! The spec also defines the **fingerprint** that guards snapshot
//! resume: an FNV-1a 64 hash of the spec's canonical JSON *excluding
//! `jobs`* — worker count never changes sampling (replication `k`
//! always draws from seed `base_seed + k`), so a snapshot taken at
//! `--jobs 8` must remain valid for a resume at `--jobs 1`.

use crate::json::{parse, JsonValue};
use ckpt_core::config::{
    CoordinationMode, ErrorPropagation, GenericCorrelated, RecoveryTimeModel, SystemConfig,
};
use ckpt_core::{
    san_model, ConfigError, EngineKind, Experiment, PolicySpec, QueueKind, ReactivationMode,
};
use ckpt_des::SimTime;
use std::fmt;

/// Why a spec failed to validate or deserialize.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The embedded system configuration failed its own validation.
    Config(ConfigError),
    /// The transient cutoff is not strictly before the horizon, so the
    /// measurement window would be empty (or negative).
    TransientExceedsHorizon {
        /// Requested transient, hours.
        transient_hours: f64,
        /// Requested horizon, hours.
        horizon_hours: f64,
    },
    /// Zero replications requested.
    NoReplications,
    /// Confidence level outside (0, 1).
    BadConfidence {
        /// The rejected level.
        level: f64,
    },
    /// The SAN engine was selected together with an ablation switch it
    /// does not implement (the direct simulator carries the ablations).
    UnsupportedAblation {
        /// The offending switch.
        switch: &'static str,
    },
    /// Lazy reactivation was requested together with the direct
    /// engine; only the SAN engine has reactivation timers to elide.
    LazyReactivationNeedsSan,
    /// The spec JSON was malformed or missing fields.
    Parse(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Config(e) => write!(f, "{e}"),
            SpecError::TransientExceedsHorizon {
                transient_hours,
                horizon_hours,
            } => write!(
                f,
                "transient cutoff ({transient_hours} h) must be strictly less than the horizon ({horizon_hours} h)"
            ),
            SpecError::NoReplications => write!(f, "at least one replication is required"),
            SpecError::BadConfidence { level } => {
                write!(f, "confidence level must be in (0, 1), got {level}")
            }
            SpecError::UnsupportedAblation { switch } => write!(
                f,
                "the SAN engine implements the paper's semantics only; '{switch}' is an ablation handled by the direct simulator"
            ),
            SpecError::LazyReactivationNeedsSan => write!(
                f,
                "lazy reactivation is a SAN-engine execution mode; the direct simulator has no reactivation timers (use --engine san)"
            ),
            SpecError::Parse(msg) => write!(f, "invalid experiment spec: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<ConfigError> for SpecError {
    fn from(e: ConfigError) -> SpecError {
        SpecError::Config(e)
    }
}

/// A validated, serializable experiment definition. Construct with
/// [`ExperimentSpec::builder`] or deserialize with
/// [`ExperimentSpec::from_json`]; both paths run the same validation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    config: SystemConfig,
    engine: EngineKind,
    transient: SimTime,
    horizon: SimTime,
    replications: u32,
    seed: u64,
    level: f64,
    jobs: Option<usize>,
    reactivation: ReactivationMode,
    queue: QueueKind,
}

/// Builder for [`ExperimentSpec`] — defaults mirror
/// [`Experiment::new`]: direct engine, independent replications,
/// 1000-hour transient, 20000-hour horizon, 5 replications, seed
/// `0x5eed`, 95 % confidence.
#[derive(Debug, Clone)]
pub struct ExperimentSpecBuilder {
    spec: ExperimentSpec,
}

impl ExperimentSpec {
    /// Starts a builder with the paper's defaults over `config`.
    #[must_use]
    pub fn builder(config: SystemConfig) -> ExperimentSpecBuilder {
        ExperimentSpecBuilder {
            spec: ExperimentSpec {
                config,
                engine: EngineKind::Direct,
                transient: SimTime::from_hours(1_000.0),
                horizon: SimTime::from_hours(20_000.0),
                replications: 5,
                seed: 0x5eed,
                level: 0.95,
                jobs: None,
                reactivation: ReactivationMode::default(),
                queue: QueueKind::default(),
            },
        }
    }

    /// The system configuration under test.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The selected engine.
    #[must_use]
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// Transient (warm-up) period discarded before measuring.
    #[must_use]
    pub fn transient(&self) -> SimTime {
        self.transient
    }

    /// Measurement horizon per replication.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Number of independent replications.
    #[must_use]
    pub fn replications(&self) -> u32 {
        self.replications
    }

    /// Base RNG seed; replication `k` draws from `seed + k`.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Confidence level of the aggregate intervals.
    #[must_use]
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Worker threads, when pinned (`None` leaves the experiment's
    /// host-dependent default). Excluded from the fingerprint: jobs
    /// never change sampling.
    #[must_use]
    pub fn jobs(&self) -> Option<usize> {
        self.jobs
    }

    /// The reactivation execution mode (SAN engine only; the
    /// [`ReactivationMode::Resample`] default is the paper-faithful
    /// bit-pinned oracle).
    #[must_use]
    pub fn reactivation(&self) -> ReactivationMode {
        self.reactivation
    }

    /// The `"queue"` key: accepted for spec compatibility and part of
    /// the fingerprint when non-default, but inert — every engine runs
    /// its single future-event list.
    #[must_use]
    pub fn queue(&self) -> QueueKind {
        self.queue
    }

    /// Converts the spec into a runnable [`Experiment`]. Chain
    /// runtime-only options (observation, target precision) on the
    /// returned builder.
    #[must_use]
    pub fn to_experiment(&self) -> Experiment {
        let mut exp = Experiment::new(self.config.clone())
            .engine(self.engine)
            .transient(self.transient)
            .horizon(self.horizon)
            .replications(self.replications)
            .seed(self.seed)
            .confidence(self.level);
        if let Some(jobs) = self.jobs {
            exp = exp.jobs(jobs);
        }
        exp.reactivation(self.reactivation)
    }

    /// Serializes the spec as one compact JSON object. Deterministic:
    /// the same spec always renders the same bytes, and
    /// [`ExperimentSpec::from_json`] restores an equal spec (f64 fields
    /// round-trip bit-identically — see [`crate::json`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        self.render(true).to_json()
    }

    /// The resume fingerprint: FNV-1a 64 over the canonical JSON with
    /// `jobs` excluded, so a snapshot written at one `--jobs` value
    /// resumes at any other.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.render(false).to_json().as_bytes())
    }

    fn render(&self, with_jobs: bool) -> JsonValue {
        let mut fields = vec![
            ("schema_version".to_string(), JsonValue::from_u64(1)),
            ("kind".to_string(), JsonValue::from_text("experiment_spec")),
            (
                "engine".to_string(),
                JsonValue::from_text(self.engine.name()),
            ),
            // Independent replications are the one estimation
            // procedure; the key stays so every fingerprint keeps its
            // bytes.
            (
                "estimation".to_string(),
                JsonValue::from_text("replications"),
            ),
            (
                "transient_secs".to_string(),
                JsonValue::from_f64(self.transient.as_secs()),
            ),
            (
                "horizon_secs".to_string(),
                JsonValue::from_f64(self.horizon.as_secs()),
            ),
            (
                "replications".to_string(),
                JsonValue::from_u64(u64::from(self.replications)),
            ),
            ("seed".to_string(), JsonValue::from_u64(self.seed)),
            ("level".to_string(), JsonValue::from_f64(self.level)),
        ];
        // Like the config's `policy` key, the execution-mode switches
        // render as the keys' *absence* when left at their defaults, so
        // every fingerprint and snapshot minted before the switches
        // existed remains valid, while any non-default mode perturbs
        // the fingerprint.
        let engine_at = fields
            .iter()
            .position(|(k, _)| k == "engine")
            .map_or(fields.len(), |i| i + 1);
        if self.queue != QueueKind::default() {
            fields.insert(
                engine_at,
                ("queue".to_string(), JsonValue::from_text(self.queue.name())),
            );
        }
        if self.reactivation != ReactivationMode::default() {
            fields.insert(
                engine_at,
                (
                    "reactivation".to_string(),
                    JsonValue::from_text(self.reactivation.name()),
                ),
            );
        }
        if with_jobs {
            fields.push((
                "jobs".to_string(),
                match self.jobs {
                    Some(j) => JsonValue::from_u64(j as u64),
                    None => JsonValue::Null,
                },
            ));
        }
        fields.push(("config".to_string(), config_to_json(&self.config)));
        JsonValue::Object(fields)
    }

    /// Deserializes and re-validates a spec produced by
    /// [`ExperimentSpec::to_json`].
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] for malformed JSON or missing fields, plus
    /// every validation error [`ExperimentSpecBuilder::build`] can
    /// return.
    pub fn from_json(input: &str) -> Result<ExperimentSpec, SpecError> {
        let doc = parse(input).map_err(|e| SpecError::Parse(e.to_string()))?;
        if doc.get("kind").and_then(JsonValue::as_str) != Some("experiment_spec") {
            return Err(SpecError::Parse("not an experiment_spec document".into()));
        }
        if doc.get("schema_version").and_then(JsonValue::as_u64) != Some(1) {
            return Err(SpecError::Parse("unsupported schema_version".into()));
        }
        let config = config_from_json(
            doc.get("config")
                .ok_or_else(|| SpecError::Parse("missing config".into()))?,
        )?;
        let engine = match doc.get("engine").and_then(JsonValue::as_str) {
            Some("direct") => EngineKind::Direct,
            Some("san") => EngineKind::San,
            other => return Err(SpecError::Parse(format!("unknown engine {other:?}"))),
        };
        match doc
            .get("estimation")
            .ok_or_else(|| SpecError::Parse("missing estimation".into()))?
        {
            JsonValue::String(s) if s == "replications" => {}
            obj if obj.get("batch_means").is_some() => {
                return Err(SpecError::Parse(
                    "batch-means estimation was retired; use \"replications\"".into(),
                ))
            }
            _ => return Err(SpecError::Parse("unknown estimation".into())),
        }
        let reactivation = match doc.get("reactivation") {
            None | Some(JsonValue::Null) => ReactivationMode::default(),
            Some(v) => v
                .as_str()
                .ok_or_else(|| SpecError::Parse("malformed reactivation".into()))
                .and_then(|s| ReactivationMode::parse(s).map_err(SpecError::Parse))?,
        };
        let queue = match doc.get("queue") {
            None | Some(JsonValue::Null) => QueueKind::default(),
            Some(v) => v
                .as_str()
                .ok_or_else(|| SpecError::Parse("malformed queue".into()))
                .and_then(|s| QueueKind::parse(s).map_err(SpecError::Parse))?,
        };
        let mut b = ExperimentSpec::builder(config)
            .engine(engine)
            .reactivation(reactivation)
            .queue(queue)
            .transient(req_secs(&doc, "transient_secs")?)
            .horizon(req_secs(&doc, "horizon_secs")?)
            .replications(
                u32::try_from(req_u64(&doc, "replications")?)
                    .map_err(|_| SpecError::Parse("replications out of range".into()))?,
            )
            .seed(req_u64(&doc, "seed")?)
            .confidence(req_f64(&doc, "level")?);
        if let Some(jobs) = doc.get("jobs").and_then(JsonValue::as_u64) {
            b = b.jobs(jobs as usize);
        }
        b.build()
    }
}

impl ExperimentSpecBuilder {
    /// Selects the simulation engine.
    #[must_use]
    pub fn engine(mut self, engine: EngineKind) -> ExperimentSpecBuilder {
        self.spec.engine = engine;
        self
    }

    /// Transient (warm-up) period discarded before measuring.
    #[must_use]
    pub fn transient(mut self, t: SimTime) -> ExperimentSpecBuilder {
        self.spec.transient = t;
        self
    }

    /// Measurement horizon per replication.
    #[must_use]
    pub fn horizon(mut self, t: SimTime) -> ExperimentSpecBuilder {
        self.spec.horizon = t;
        self
    }

    /// Number of independent replications.
    #[must_use]
    pub fn replications(mut self, n: u32) -> ExperimentSpecBuilder {
        self.spec.replications = n;
        self
    }

    /// Base RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> ExperimentSpecBuilder {
        self.spec.seed = seed;
        self
    }

    /// Confidence level for the aggregate intervals.
    #[must_use]
    pub fn confidence(mut self, level: f64) -> ExperimentSpecBuilder {
        self.spec.level = level;
        self
    }

    /// Pins the worker-thread count (otherwise the experiment uses its
    /// host-dependent default).
    #[must_use]
    pub fn jobs(mut self, n: usize) -> ExperimentSpecBuilder {
        self.spec.jobs = Some(n);
        self
    }

    /// Selects the reactivation execution mode (SAN engine only).
    #[must_use]
    pub fn reactivation(mut self, mode: ReactivationMode) -> ExperimentSpecBuilder {
        self.spec.reactivation = mode;
        self
    }

    /// Sets the inert `"queue"` key (see [`ExperimentSpec::queue`]).
    #[must_use]
    pub fn queue(mut self, queue: QueueKind) -> ExperimentSpecBuilder {
        self.spec.queue = queue;
        self
    }

    /// Validates and returns the spec.
    ///
    /// # Errors
    ///
    /// Rejects an empty measurement window
    /// ([`SpecError::TransientExceedsHorizon`]), zero replications, a
    /// confidence level outside (0, 1), and SAN + ablation-switch
    /// combinations the SAN engine would refuse at run time.
    pub fn build(self) -> Result<ExperimentSpec, SpecError> {
        let s = &self.spec;
        if s.transient.as_secs() >= s.horizon.as_secs() || s.horizon.is_zero() {
            return Err(SpecError::TransientExceedsHorizon {
                transient_hours: s.transient.as_hours(),
                horizon_hours: s.horizon.as_hours(),
            });
        }
        if s.replications == 0 {
            return Err(SpecError::NoReplications);
        }
        if !(s.level > 0.0 && s.level < 1.0) {
            return Err(SpecError::BadConfidence { level: s.level });
        }
        if s.reactivation == ReactivationMode::Lazy && s.engine == EngineKind::Direct {
            return Err(SpecError::LazyReactivationNeedsSan);
        }
        if s.engine == EngineKind::San {
            if let Some(switch) = san_model::unsupported_ablation(&s.config) {
                return Err(SpecError::UnsupportedAblation { switch });
            }
        }
        Ok(self.spec)
    }
}

fn opt_f64(v: Option<&JsonValue>) -> Option<f64> {
    v.and_then(JsonValue::as_f64)
}

fn req_f64(doc: &JsonValue, key: &str) -> Result<f64, SpecError> {
    opt_f64(doc.get(key)).ok_or_else(|| SpecError::Parse(format!("missing number '{key}'")))
}

/// A time key: a number that must also be a valid [`SimTime`]
/// (finite, non-negative).
fn secs_of(secs: f64, key: &str) -> Result<SimTime, SpecError> {
    SimTime::try_from_secs(secs).map_err(|e| SpecError::Parse(format!("'{key}': {e}")))
}

fn req_secs(doc: &JsonValue, key: &str) -> Result<SimTime, SpecError> {
    secs_of(req_f64(doc, key)?, key)
}

fn req_u64(doc: &JsonValue, key: &str) -> Result<u64, SpecError> {
    doc.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| SpecError::Parse(format!("missing integer '{key}'")))
}

fn req_bool(doc: &JsonValue, key: &str) -> Result<bool, SpecError> {
    doc.get(key)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| SpecError::Parse(format!("missing boolean '{key}'")))
}

/// Serializes a [`SystemConfig`] as a typed JSON object (every Table-3
/// field plus the feature switches, durations in seconds).
#[must_use]
pub fn config_to_json(cfg: &SystemConfig) -> JsonValue {
    fn num(v: f64) -> JsonValue {
        JsonValue::from_f64(v)
    }
    fn opt_num(v: Option<f64>) -> JsonValue {
        v.map_or(JsonValue::Null, JsonValue::from_f64)
    }
    let coordination = match cfg.coordination() {
        CoordinationMode::FixedQuiesce => "fixed_quiesce",
        CoordinationMode::SystemExponential => "system_exponential",
        CoordinationMode::MaxOfN => "max_of_n",
    };
    let recovery = match cfg.recovery_time_model() {
        RecoveryTimeModel::Exponential => JsonValue::from_text("exponential"),
        RecoveryTimeModel::Deterministic => JsonValue::from_text("deterministic"),
        RecoveryTimeModel::LogNormal { cv } => {
            JsonValue::Object(vec![("log_normal_cv".to_string(), num(cv))])
        }
    };
    let error_propagation = cfg.error_propagation().map_or(JsonValue::Null, |e| {
        JsonValue::Object(vec![
            ("probability".to_string(), num(e.probability)),
            ("factor".to_string(), num(e.factor)),
            ("window_secs".to_string(), num(e.window)),
        ])
    });
    let generic_correlated = cfg.generic_correlated().map_or(JsonValue::Null, |g| {
        JsonValue::Object(vec![
            ("coefficient".to_string(), num(g.coefficient)),
            ("factor".to_string(), num(g.factor)),
        ])
    });
    let jitter = cfg
        .compute_fraction_jitter()
        .map_or(JsonValue::Null, |(lo, hi)| {
            JsonValue::Array(vec![num(lo), num(hi)])
        });
    let mut fields = vec![
        (
            "processors".to_string(),
            JsonValue::from_u64(cfg.processors()),
        ),
        (
            "procs_per_node".to_string(),
            JsonValue::from_u64(u64::from(cfg.procs_per_node())),
        ),
        (
            "compute_nodes_per_io_node".to_string(),
            JsonValue::from_u64(u64::from(cfg.compute_nodes_per_io_node())),
        ),
        (
            "checkpoint_interval_secs".to_string(),
            num(cfg.checkpoint_interval().as_secs()),
        ),
        ("mttq_secs".to_string(), num(cfg.mttq().as_secs())),
        (
            "broadcast_overhead_secs".to_string(),
            num(cfg.broadcast_overhead().as_secs()),
        ),
        (
            "software_overhead_secs".to_string(),
            num(cfg.software_overhead().as_secs()),
        ),
        (
            "coordination".to_string(),
            JsonValue::from_text(coordination),
        ),
        (
            "timeout_secs".to_string(),
            opt_num(cfg.timeout().map(SimTime::as_secs)),
        ),
        (
            "background_checkpoint_write".to_string(),
            JsonValue::Bool(cfg.background_checkpoint_write()),
        ),
        (
            "buffered_recovery".to_string(),
            JsonValue::Bool(cfg.buffered_recovery()),
        ),
        (
            "mttf_per_node_secs".to_string(),
            num(cfg.mttf_per_node().as_secs()),
        ),
        (
            "mttr_system_secs".to_string(),
            num(cfg.mttr_system().as_secs()),
        ),
        ("mttr_io_secs".to_string(), num(cfg.mttr_io().as_secs())),
        ("recovery_time_model".to_string(), recovery),
        (
            "severe_failure_threshold".to_string(),
            JsonValue::from_u64(u64::from(cfg.severe_failure_threshold())),
        ),
        (
            "reboot_time_secs".to_string(),
            num(cfg.reboot_time().as_secs()),
        ),
        (
            "model_master_failures".to_string(),
            JsonValue::Bool(cfg.model_master_failures()),
        ),
        (
            "model_io_failures".to_string(),
            JsonValue::Bool(cfg.model_io_failures()),
        ),
        (
            "failures_enabled".to_string(),
            JsonValue::Bool(cfg.failures_enabled()),
        ),
        ("error_propagation".to_string(), error_propagation),
        ("generic_correlated".to_string(), generic_correlated),
        (
            "spatial_correlation".to_string(),
            opt_num(cfg.spatial_correlation()),
        ),
        (
            "app_cycle_period_secs".to_string(),
            num(cfg.app_cycle_period().as_secs()),
        ),
        ("compute_fraction".to_string(), num(cfg.compute_fraction())),
        ("compute_fraction_jitter".to_string(), jitter),
        (
            "compute_io_bandwidth_mbps".to_string(),
            num(cfg.compute_io_bandwidth_mbps()),
        ),
        (
            "fs_bandwidth_per_io_mbps".to_string(),
            num(cfg.fs_bandwidth_per_io_mbps()),
        ),
        (
            "checkpoint_size_per_node_mb".to_string(),
            num(cfg.checkpoint_size_per_node_mb()),
        ),
        (
            "app_io_data_per_node_mb".to_string(),
            num(cfg.app_io_data_per_node_mb()),
        ),
    ];
    // The policy key is emitted only for non-default policies: the
    // fixed-interval default renders as the key's *absence*, so every
    // fingerprint and snapshot minted before policies existed remains
    // valid, while any other policy perturbs the fingerprint.
    if cfg.policy() != PolicySpec::Fixed {
        let at = fields
            .iter()
            .position(|(k, _)| k == "checkpoint_interval_secs")
            .map_or(fields.len(), |i| i + 1);
        fields.insert(at, ("policy".to_string(), policy_to_json(cfg.policy())));
    }
    JsonValue::Object(fields)
}

/// Serializes a [`PolicySpec`] (the `policy` key of [`config_to_json`]).
#[must_use]
pub fn policy_to_json(policy: PolicySpec) -> JsonValue {
    match policy {
        PolicySpec::Fixed => JsonValue::from_text("fixed"),
        PolicySpec::DalyOptimal => JsonValue::from_text("daly_optimal"),
        PolicySpec::LoadAdaptive {
            window,
            floor_secs,
            ceil_secs,
        } => JsonValue::Object(vec![(
            "load_adaptive".to_string(),
            JsonValue::Object(vec![
                ("window".to_string(), JsonValue::from_u64(u64::from(window))),
                ("floor_secs".to_string(), JsonValue::from_f64(floor_secs)),
                ("ceil_secs".to_string(), JsonValue::from_f64(ceil_secs)),
            ]),
        )]),
    }
}

/// Parses the optional `policy` key of a config document; a missing or
/// null key is the fixed-interval default.
fn policy_from_json(doc: &JsonValue) -> Result<PolicySpec, SpecError> {
    match doc.get("policy") {
        None | Some(JsonValue::Null) => Ok(PolicySpec::Fixed),
        Some(JsonValue::String(s)) if s == "fixed" => Ok(PolicySpec::Fixed),
        Some(JsonValue::String(s)) if s == "daly_optimal" => Ok(PolicySpec::DalyOptimal),
        Some(obj) => match obj.get("load_adaptive") {
            Some(p) => Ok(PolicySpec::LoadAdaptive {
                window: u32::try_from(req_u64(p, "window")?)
                    .map_err(|_| SpecError::Parse("policy window out of range".into()))?,
                floor_secs: req_f64(p, "floor_secs")?,
                ceil_secs: req_f64(p, "ceil_secs")?,
            }),
            None => Err(SpecError::Parse("unknown policy".into())),
        },
    }
}

/// Reconstructs a [`SystemConfig`] from [`config_to_json`] output,
/// re-running the builder's validation.
///
/// # Errors
///
/// [`SpecError::Parse`] for missing/malformed fields,
/// [`SpecError::Config`] when the values fail config validation.
pub fn config_from_json(doc: &JsonValue) -> Result<SystemConfig, SpecError> {
    let secs = |key: &str| req_secs(doc, key);
    let coordination = match doc.get("coordination").and_then(JsonValue::as_str) {
        Some("fixed_quiesce") => CoordinationMode::FixedQuiesce,
        Some("system_exponential") => CoordinationMode::SystemExponential,
        Some("max_of_n") => CoordinationMode::MaxOfN,
        other => return Err(SpecError::Parse(format!("unknown coordination {other:?}"))),
    };
    let recovery = match doc
        .get("recovery_time_model")
        .ok_or_else(|| SpecError::Parse("missing recovery_time_model".into()))?
    {
        JsonValue::String(s) if s == "exponential" => RecoveryTimeModel::Exponential,
        JsonValue::String(s) if s == "deterministic" => RecoveryTimeModel::Deterministic,
        obj => match obj.get("log_normal_cv").and_then(JsonValue::as_f64) {
            Some(cv) => RecoveryTimeModel::LogNormal { cv },
            None => return Err(SpecError::Parse("unknown recovery_time_model".into())),
        },
    };
    let error_propagation = match doc.get("error_propagation") {
        None | Some(JsonValue::Null) => None,
        Some(e) => Some(ErrorPropagation {
            probability: req_f64(e, "probability")?,
            factor: req_f64(e, "factor")?,
            window: req_f64(e, "window_secs")?,
        }),
    };
    let generic_correlated = match doc.get("generic_correlated") {
        None | Some(JsonValue::Null) => None,
        Some(g) => Some(GenericCorrelated {
            coefficient: req_f64(g, "coefficient")?,
            factor: req_f64(g, "factor")?,
        }),
    };
    let jitter = match doc.get("compute_fraction_jitter") {
        None | Some(JsonValue::Null) => None,
        Some(JsonValue::Array(pair)) if pair.len() == 2 => {
            match (pair[0].as_f64(), pair[1].as_f64()) {
                (Some(lo), Some(hi)) => Some((lo, hi)),
                _ => return Err(SpecError::Parse("malformed compute_fraction_jitter".into())),
            }
        }
        Some(_) => return Err(SpecError::Parse("malformed compute_fraction_jitter".into())),
    };
    let mut b = SystemConfig::builder()
        .processors(req_u64(doc, "processors")?)
        .procs_per_node(
            u32::try_from(req_u64(doc, "procs_per_node")?)
                .map_err(|_| SpecError::Parse("procs_per_node out of range".into()))?,
        )
        .compute_nodes_per_io_node(
            u32::try_from(req_u64(doc, "compute_nodes_per_io_node")?)
                .map_err(|_| SpecError::Parse("compute_nodes_per_io_node out of range".into()))?,
        )
        .checkpoint_interval(secs("checkpoint_interval_secs")?)
        .policy(policy_from_json(doc)?)
        .mttq(secs("mttq_secs")?)
        .broadcast_overhead(secs("broadcast_overhead_secs")?)
        .software_overhead(secs("software_overhead_secs")?)
        .coordination(coordination)
        .timeout(
            opt_f64(doc.get("timeout_secs"))
                .map(|t| secs_of(t, "timeout_secs"))
                .transpose()?,
        )
        .background_checkpoint_write(req_bool(doc, "background_checkpoint_write")?)
        .buffered_recovery(req_bool(doc, "buffered_recovery")?)
        .mttf_per_node(secs("mttf_per_node_secs")?)
        .mttr_system(secs("mttr_system_secs")?)
        .mttr_io(secs("mttr_io_secs")?)
        .recovery_time_model(recovery)
        .severe_failure_threshold(
            u32::try_from(req_u64(doc, "severe_failure_threshold")?)
                .map_err(|_| SpecError::Parse("severe_failure_threshold out of range".into()))?,
        )
        .reboot_time(secs("reboot_time_secs")?)
        .model_master_failures(req_bool(doc, "model_master_failures")?)
        .model_io_failures(req_bool(doc, "model_io_failures")?)
        .failures_enabled(req_bool(doc, "failures_enabled")?)
        .error_propagation(error_propagation)
        .generic_correlated(generic_correlated)
        .app_cycle_period(secs("app_cycle_period_secs")?)
        .compute_fraction(req_f64(doc, "compute_fraction")?)
        .compute_fraction_jitter(jitter)
        .compute_io_bandwidth_mbps(req_f64(doc, "compute_io_bandwidth_mbps")?)
        .fs_bandwidth_per_io_mbps(req_f64(doc, "fs_bandwidth_per_io_mbps")?)
        .checkpoint_size_per_node_mb(req_f64(doc, "checkpoint_size_per_node_mb")?)
        .app_io_data_per_node_mb(req_f64(doc, "app_io_data_per_node_mb")?);
    if let Some(p) = opt_f64(doc.get("spatial_correlation")) {
        b = b.spatial_correlation(Some(p));
    }
    b.build().map_err(SpecError::Config)
}

/// FNV-1a 64: the spec fingerprint, and the journal's per-line
/// checksum.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_spec() -> ExperimentSpec {
        let cfg = SystemConfig::builder()
            .processors(131_072)
            .coordination(CoordinationMode::MaxOfN)
            .timeout(Some(SimTime::from_secs(600.0)))
            .error_propagation(Some(ErrorPropagation {
                probability: 0.2,
                factor: 800.0,
                window: 180.0,
            }))
            .generic_correlated(Some(GenericCorrelated {
                coefficient: 0.0025,
                factor: 400.0,
            }))
            .recovery_time_model(RecoveryTimeModel::LogNormal { cv: 1.5 })
            .compute_fraction(0.91)
            .build()
            .unwrap();
        ExperimentSpec::builder(cfg)
            .engine(EngineKind::San)
            .transient(SimTime::from_hours(123.456))
            .horizon(SimTime::from_hours(7_890.12))
            .replications(7)
            .seed(u64::MAX - 3)
            .confidence(0.99)
            .jobs(8)
            .build()
            .unwrap()
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let spec = full_spec();
        let j = spec.to_json();
        let back = ExperimentSpec::from_json(&j).unwrap();
        assert_eq!(spec, back);
        // And a second serialization is byte-identical (determinism).
        assert_eq!(j, back.to_json());
    }

    #[test]
    fn round_trip_preserves_default_config_too() {
        let spec = ExperimentSpec::builder(SystemConfig::builder().build().unwrap())
            .build()
            .unwrap();
        let back = ExperimentSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back);
        assert_eq!(back.jobs(), None);
    }

    #[test]
    fn fingerprint_ignores_jobs_but_nothing_else() {
        let base = full_spec();
        let mut other = base.clone();
        other.jobs = Some(1);
        assert_eq!(base.fingerprint(), other.fingerprint());
        let mut reseeded = base.clone();
        reseeded.seed = 1;
        assert_ne!(base.fingerprint(), reseeded.fingerprint());
        let mut longer = base.clone();
        longer.horizon = SimTime::from_hours(8_000.0);
        assert_ne!(base.fingerprint(), longer.fingerprint());
    }

    /// The exact bytes every fingerprint, snapshot and cached result
    /// rests on. Comparing fingerprints with each other cannot catch a
    /// change that moves all of them at once; these pins can.
    #[test]
    fn canonical_json_and_fingerprint_are_pinned() {
        macro_rules! default_config_json {
            () => {
                concat!(
                    r#"{"processors":65536,"procs_per_node":8,"#,
                    r#""compute_nodes_per_io_node":64,"#,
                    r#""checkpoint_interval_secs":1800,"mttq_secs":10,"#,
                    r#""broadcast_overhead_secs":0.001,"#,
                    r#""software_overhead_secs":0.001,"#,
                    r#""coordination":"fixed_quiesce","timeout_secs":null,"#,
                    r#""background_checkpoint_write":true,"buffered_recovery":true,"#,
                    r#""mttf_per_node_secs":31557600,"mttr_system_secs":600,"#,
                    r#""mttr_io_secs":60,"recovery_time_model":"deterministic","#,
                    r#""severe_failure_threshold":1000,"reboot_time_secs":3600,"#,
                    r#""model_master_failures":true,"model_io_failures":true,"#,
                    r#""failures_enabled":true,"error_propagation":null,"#,
                    r#""generic_correlated":null,"spatial_correlation":null,"#,
                    r#""app_cycle_period_secs":180,"compute_fraction":0.95,"#,
                    r#""compute_fraction_jitter":null,"#,
                    r#""compute_io_bandwidth_mbps":350,"#,
                    r#""fs_bandwidth_per_io_mbps":125,"#,
                    r#""checkpoint_size_per_node_mb":256,"#,
                    r#""app_io_data_per_node_mb":10}"#,
                )
            };
        }
        let default = ExperimentSpec::builder(SystemConfig::builder().build().unwrap())
            .build()
            .unwrap();
        assert_eq!(
            default.to_json(),
            concat!(
                r#"{"schema_version":1,"kind":"experiment_spec","#,
                r#""engine":"direct","estimation":"replications","#,
                r#""transient_secs":3600000,"horizon_secs":72000000,"#,
                r#""replications":5,"seed":24301,"level":0.95,"jobs":null,"config":"#,
                default_config_json!(),
                "}"
            )
        );
        assert_eq!(default.fingerprint(), 0x373e_33fa_1b29_d7fa);
        let lazy = ExperimentSpec::builder(SystemConfig::builder().build().unwrap())
            .engine(EngineKind::San)
            .reactivation(ReactivationMode::Lazy)
            .build()
            .unwrap();
        assert_eq!(
            lazy.to_json(),
            concat!(
                r#"{"schema_version":1,"kind":"experiment_spec","engine":"san","#,
                r#""reactivation":"lazy","estimation":"replications","#,
                r#""transient_secs":3600000,"horizon_secs":72000000,"#,
                r#""replications":5,"seed":24301,"level":0.95,"jobs":null,"config":"#,
                default_config_json!(),
                "}"
            )
        );
        assert_eq!(lazy.fingerprint(), 0x0f52_3e21_3399_d33e);
    }

    #[test]
    fn rejects_transient_at_or_beyond_horizon() {
        let cfg = SystemConfig::builder().build().unwrap();
        let err = ExperimentSpec::builder(cfg.clone())
            .transient(SimTime::from_hours(500.0))
            .horizon(SimTime::from_hours(400.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, SpecError::TransientExceedsHorizon { .. }));
        assert!(err.to_string().contains("strictly less"));
        let eq = ExperimentSpec::builder(cfg)
            .transient(SimTime::from_hours(400.0))
            .horizon(SimTime::from_hours(400.0))
            .build();
        assert!(eq.is_err());
    }

    #[test]
    fn rejects_degenerate_estimation_parameters() {
        let cfg = SystemConfig::builder().build().unwrap();
        assert!(matches!(
            ExperimentSpec::builder(cfg.clone()).replications(0).build(),
            Err(SpecError::NoReplications)
        ));
        assert!(matches!(
            ExperimentSpec::builder(cfg).confidence(1.0).build(),
            Err(SpecError::BadConfidence { .. })
        ));
    }

    #[test]
    fn rejects_san_with_ablation_switches() {
        let cfg = SystemConfig::builder()
            .buffered_recovery(false)
            .build()
            .unwrap();
        let err = ExperimentSpec::builder(cfg)
            .engine(EngineKind::San)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SpecError::UnsupportedAblation {
                switch: "buffered_recovery"
            }
        );
        // The direct engine accepts the same ablation.
        let cfg = SystemConfig::builder()
            .buffered_recovery(false)
            .build()
            .unwrap();
        assert!(ExperimentSpec::builder(cfg).build().is_ok());
    }

    #[test]
    fn policy_round_trips_and_perturbs_fingerprint() {
        let base = ExperimentSpec::builder(SystemConfig::builder().build().unwrap())
            .build()
            .unwrap();
        // The fixed default renders without a policy key: pre-policy
        // documents and fingerprints stay valid.
        assert!(!base.to_json().contains("\"policy\""));

        for policy in [
            PolicySpec::DalyOptimal,
            PolicySpec::LoadAdaptive {
                window: 5,
                floor_secs: 120.0,
                ceil_secs: 7200.0,
            },
        ] {
            let cfg = SystemConfig::builder().policy(policy).build().unwrap();
            let spec = ExperimentSpec::builder(cfg).build().unwrap();
            assert_ne!(
                spec.fingerprint(),
                base.fingerprint(),
                "{policy} must perturb the fingerprint"
            );
            let back = ExperimentSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(spec, back);
            assert_eq!(back.config().policy(), policy);
        }
    }

    #[test]
    fn rejects_san_with_adaptive_policy() {
        let cfg = SystemConfig::builder()
            .policy(PolicySpec::load_adaptive_default())
            .build()
            .unwrap();
        let err = ExperimentSpec::builder(cfg.clone())
            .engine(EngineKind::San)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SpecError::UnsupportedAblation {
                switch: "load_adaptive_policy"
            }
        );
        // The direct engine accepts it; SAN accepts the static policies.
        assert!(ExperimentSpec::builder(cfg).build().is_ok());
        let daly = SystemConfig::builder()
            .policy(PolicySpec::DalyOptimal)
            .build()
            .unwrap();
        assert!(ExperimentSpec::builder(daly)
            .engine(EngineKind::San)
            .build()
            .is_ok());
    }

    #[test]
    fn execution_modes_round_trip_and_perturb_fingerprint() {
        let base = ExperimentSpec::builder(SystemConfig::builder().build().unwrap())
            .build()
            .unwrap();
        // Defaults render without the keys: pre-switch documents and
        // fingerprints stay valid.
        assert!(!base.to_json().contains("\"reactivation\""));
        assert!(!base.to_json().contains("\"queue\""));
        assert_eq!(base.reactivation(), ReactivationMode::Resample);
        assert_eq!(base.queue(), QueueKind::IndexedHeap);

        let lazy = ExperimentSpec::builder(SystemConfig::builder().build().unwrap())
            .engine(EngineKind::San)
            .reactivation(ReactivationMode::Lazy)
            .queue(QueueKind::Calendar)
            .build()
            .unwrap();
        assert!(lazy.to_json().contains("\"reactivation\":\"lazy\""));
        assert!(lazy.to_json().contains("\"queue\":\"calendar\""));
        let back = ExperimentSpec::from_json(&lazy.to_json()).unwrap();
        assert_eq!(lazy, back);
        assert_eq!(back.reactivation(), ReactivationMode::Lazy);
        assert_eq!(back.queue(), QueueKind::Calendar);

        let san_default = ExperimentSpec::builder(SystemConfig::builder().build().unwrap())
            .engine(EngineKind::San)
            .build()
            .unwrap();
        assert_ne!(lazy.fingerprint(), san_default.fingerprint());
        let calendar_only = ExperimentSpec::builder(SystemConfig::builder().build().unwrap())
            .engine(EngineKind::San)
            .queue(QueueKind::Calendar)
            .build()
            .unwrap();
        assert_ne!(calendar_only.fingerprint(), san_default.fingerprint());
        assert_ne!(calendar_only.fingerprint(), lazy.fingerprint());
    }

    #[test]
    fn rejects_lazy_reactivation_on_direct_engine() {
        let cfg = SystemConfig::builder().build().unwrap();
        let err = ExperimentSpec::builder(cfg.clone())
            .reactivation(ReactivationMode::Lazy)
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::LazyReactivationNeedsSan);
        assert!(err.to_string().contains("--engine san"));
        // The SAN engine accepts it; the inert queue key fits any engine.
        assert!(ExperimentSpec::builder(cfg.clone())
            .engine(EngineKind::San)
            .reactivation(ReactivationMode::Lazy)
            .build()
            .is_ok());
        assert!(ExperimentSpec::builder(cfg)
            .queue(QueueKind::Calendar)
            .build()
            .is_ok());
    }

    #[test]
    fn from_json_rejects_unknown_execution_modes() {
        let lazy = ExperimentSpec::builder(SystemConfig::builder().build().unwrap())
            .engine(EngineKind::San)
            .reactivation(ReactivationMode::Lazy)
            .queue(QueueKind::Calendar)
            .build()
            .unwrap();
        let bad = lazy.to_json().replace("\"lazy\"", "\"eager\"");
        assert!(matches!(
            ExperimentSpec::from_json(&bad),
            Err(SpecError::Parse(msg)) if msg.contains("unknown reactivation mode")
        ));
        let bad = lazy.to_json().replace("\"calendar\"", "\"wheel\"");
        assert!(matches!(
            ExperimentSpec::from_json(&bad),
            Err(SpecError::Parse(msg)) if msg.contains("unknown queue kind")
        ));
    }

    #[test]
    fn from_json_rejects_retired_batch_means() {
        let spec = ExperimentSpec::builder(SystemConfig::builder().build().unwrap())
            .build()
            .unwrap();
        let old = spec.to_json().replace(
            "\"estimation\":\"replications\"",
            "\"estimation\":{\"batch_means\":8}",
        );
        assert_ne!(old, spec.to_json());
        let err = ExperimentSpec::from_json(&old).unwrap_err();
        assert!(
            matches!(&err, SpecError::Parse(msg) if msg.contains("batch-means estimation was retired")),
            "{err:?}"
        );
        let unknown = spec
            .to_json()
            .replace("\"replications\",", "\"jackknife\",");
        assert!(matches!(
            ExperimentSpec::from_json(&unknown),
            Err(SpecError::Parse(msg)) if msg == "unknown estimation"
        ));
    }

    #[test]
    fn from_json_rejects_foreign_documents() {
        assert!(ExperimentSpec::from_json("{}").is_err());
        assert!(ExperimentSpec::from_json("not json").is_err());
        let spec = full_spec();
        let j = spec.to_json().replace("experiment_spec", "other_doc");
        assert!(matches!(
            ExperimentSpec::from_json(&j),
            Err(SpecError::Parse(_))
        ));
    }

    #[test]
    fn to_experiment_carries_every_field() {
        // Smoke: the produced experiment runs and reflects the spec's
        // replication count.
        let cfg = SystemConfig::builder().build().unwrap();
        let spec = ExperimentSpec::builder(cfg)
            .transient(SimTime::from_hours(50.0))
            .horizon(SimTime::from_hours(300.0))
            .replications(2)
            .jobs(1)
            .build()
            .unwrap();
        let est = spec.to_experiment().run().unwrap();
        assert_eq!(est.replicates().len(), 2);
    }
}
