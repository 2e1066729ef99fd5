//! The paper-faithful SAN composition of the checkpoint model.
//!
//! Twelve submodels — `app_workload`, `compute_nodes`, `coordination`,
//! `io_nodes`, `master` (computing & checkpointing module),
//! `comp_node_failure`, `comp_node_recovery`, `io_node_failure`,
//! `io_node_recovery`, `system_reboot` (failure & recovery module),
//! `correlated_failures`, and `useful_work` — are built against one
//! [`SanBuilder`] and composed by **state sharing**, exactly as in the
//! paper's Figure 1 / Table 1. Each submodel lives in its own
//! constructor function so the mapping to the paper is one-to-one.
//!
//! The semantics intentionally match the direct simulator
//! ([`crate::direct`]) event for event; the integration tests
//! cross-validate the two engines.
//!
//! # Example
//!
//! ```
//! use ckpt_core::config::SystemConfig;
//! use ckpt_core::san_model::CheckpointSan;
//! use ckpt_des::SimTime;
//!
//! let cfg = SystemConfig::builder().build()?;
//! let model = CheckpointSan::build(&cfg)?;
//! let outcome = model.run(&ckpt_core::san_model::RunOptions {
//!     seed: 7,
//!     transient: SimTime::from_hours(100.0),
//!     horizon: SimTime::from_hours(1_000.0),
//!     ..Default::default()
//! })?;
//! assert!(outcome.metrics.useful_work_fraction() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod bridge;
mod effects;
mod ids;
#[cfg(test)]
mod tests;

pub use ids::Ids;

use crate::config::{CoordinationMode, RecoveryTimeModel, SystemConfig};
use crate::metrics::{Counters, Metrics, PhaseKind, PhaseTimes};
use bridge::SanBridge;
use ckpt_des::telem::TelemetrySnapshot;
use ckpt_des::{QueueKind, SimTime};
use ckpt_obs::{Observer, TraceBuffer};
use ckpt_san::{
    ActivityId, Delay, InputGate, Pred, Reactivation, ReactivationMode, San, SanBuilder, SanError,
    Simulator,
};
use ckpt_stats::Dist;
use std::fmt;

/// Error building or running the SAN model.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The SAN layer reported a construction or execution error.
    San(SanError),
    /// The SAN composition implements only the paper's semantics; the
    /// direct simulator carries the ablation switches.
    UnsupportedAblation {
        /// Which switch was set to a non-paper value.
        switch: &'static str,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::San(e) => write!(f, "SAN error: {e}"),
            ModelError::UnsupportedAblation { switch } => write!(
                f,
                "the SAN model implements the paper's semantics only; '{switch}' is an ablation handled by the direct simulator"
            ),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::San(e) => Some(e),
            ModelError::UnsupportedAblation { .. } => None,
        }
    }
}

impl From<SanError> for ModelError {
    fn from(e: SanError) -> ModelError {
        ModelError::San(e)
    }
}

/// Options for one steady-state SAN replication — the single
/// configuration point of [`CheckpointSan::run`] /
/// [`CheckpointSan::run_observed`].
///
/// `Default` mirrors the experiment layer's defaults (seed `0x5eed`,
/// 1000-hour transient, 20000-hour horizon, default reactivation), so
/// call sites override only what they care about:
///
/// ```
/// use ckpt_core::san_model::RunOptions;
/// use ckpt_des::SimTime;
///
/// let opts = RunOptions {
///     seed: 42,
///     horizon: SimTime::from_hours(2_000.0),
///     ..Default::default()
/// };
/// assert_eq!(opts.transient, SimTime::from_hours(1_000.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// RNG seed of the replication.
    pub seed: u64,
    /// Warm-up period discarded before measuring.
    pub transient: SimTime,
    /// Measurement window after the transient.
    pub horizon: SimTime,
    /// Reactivation realisation. [`ReactivationMode::Resample`] (the
    /// default) is the bit-identity oracle; [`ReactivationMode::Lazy`]
    /// elides the redraws of marking-independent exponential timers —
    /// distribution-equivalent, different stream.
    pub reactivation: ReactivationMode,
    /// Ignored: accepted for spec compatibility; the executor runs its
    /// single future-event list (see [`QueueKind`]).
    pub queue: QueueKind,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            seed: 0x5eed,
            transient: SimTime::from_hours(1_000.0),
            horizon: SimTime::from_hours(20_000.0),
            reactivation: ReactivationMode::default(),
            queue: QueueKind::default(),
        }
    }
}

/// Result of one steady-state SAN replication: the window's metrics
/// plus the total activity firings processed (transient included) for
/// throughput accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// Measures accumulated over the measurement window.
    pub metrics: Metrics,
    /// Activity firings processed across transient + window.
    pub events: u64,
}

/// Handles to the activities whose firing counts become [`Counters`].
#[derive(Debug, Clone, Copy, Default)]
struct ActivityHandles {
    dump_chkpt: Option<ActivityId>,
    skip_chkpt: Option<ActivityId>,
    comp_failure: Option<ActivityId>,
    io_failure: Option<ActivityId>,
    master_failure: Option<ActivityId>,
    generic_failure: Option<ActivityId>,
    recovery_stage2: Option<ActivityId>,
    reboot: Option<ActivityId>,
}

/// The composed SAN plus the handles needed to read measures off it.
pub struct CheckpointSan {
    san: San,
    ids: Ids,
    acts: ActivityHandles,
}

impl fmt::Debug for CheckpointSan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointSan")
            .field("places", &self.san.place_count())
            .field("activities", &self.san.activity_count())
            .finish()
    }
}

/// The first switch of `cfg` the SAN composition does not implement,
/// or `None` when `cfg` stays within the paper's semantics. These
/// ablations run on the direct simulator only: [`CheckpointSan::build`]
/// refuses them, and experiment-spec validation reports them before
/// any simulation runs.
#[must_use]
pub fn unsupported_ablation(cfg: &SystemConfig) -> Option<&'static str> {
    if !cfg.background_checkpoint_write() {
        Some("background_checkpoint_write")
    } else if !cfg.buffered_recovery() {
        Some("buffered_recovery")
    } else if cfg.spatial_correlation().is_some() {
        Some("spatial_correlation")
    } else if cfg.compute_fraction_jitter().is_some() {
        Some("compute_fraction_jitter")
    } else if cfg.policy().static_interval(cfg).is_none() {
        // The SAN composition compiles the trigger interval into an
        // activity distribution at build time, so dynamic policies
        // (load-adaptive) only run on the direct engine.
        Some("load_adaptive_policy")
    } else {
        None
    }
}

impl CheckpointSan {
    /// Builds the composed model for `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnsupportedAblation`] when `cfg` selects a
    /// non-paper ablation (see [`unsupported_ablation`]), or a
    /// [`SanError`] if composition fails.
    pub fn build(cfg: &SystemConfig) -> Result<CheckpointSan, ModelError> {
        if let Some(switch) = unsupported_ablation(cfg) {
            return Err(ModelError::UnsupportedAblation { switch });
        }

        let mut b = SanBuilder::new("coordinated_checkpointing");
        let ids = Ids::register(&mut b);
        let mut acts = ActivityHandles::default();

        submodel_useful_work(cfg, &ids, &mut b);
        submodel_master(cfg, &ids, &mut b);
        submodel_compute_nodes(cfg, &ids, &mut b, &mut acts);
        submodel_coordination(cfg, &ids, &mut b);
        submodel_app_workload(cfg, &ids, &mut b);
        submodel_io_nodes(cfg, &ids, &mut b);
        if cfg.failures_enabled() {
            submodel_comp_node_failure(cfg, &ids, &mut b, &mut acts);
            if cfg.model_io_failures() {
                submodel_io_node_failure(cfg, &ids, &mut b, &mut acts);
            }
            if cfg.model_master_failures() {
                submodel_master_failure(cfg, &ids, &mut b, &mut acts);
            }
            submodel_correlated_failures(cfg, &ids, &mut b, &mut acts);
        }
        submodel_comp_node_recovery(cfg, &ids, &mut b, &mut acts);
        submodel_io_node_recovery(cfg, &ids, &mut b);
        submodel_system_reboot(cfg, &ids, &mut b, &mut acts);

        Ok(CheckpointSan {
            san: b.build()?,
            ids,
            acts,
        })
    }

    /// The underlying SAN (e.g. for inspection or custom rewards).
    #[must_use]
    pub fn san(&self) -> &San {
        &self.san
    }

    /// The shared place/fluid handles.
    #[must_use]
    pub fn ids(&self) -> &Ids {
        &self.ids
    }

    /// Runs one steady-state replication: `opts.transient` warm-up is
    /// discarded, then measures accumulate for `opts.horizon`. This is
    /// the single steady-state entry point; attach an observer with
    /// [`CheckpointSan::run_observed`].
    ///
    /// # Errors
    ///
    /// Propagates SAN execution errors.
    pub fn run(&self, opts: &RunOptions) -> Result<RunOutcome, ModelError> {
        self.run_inner(opts, None, false)
            .map(|(outcome, _)| outcome)
    }

    /// Like [`CheckpointSan::run`], but streams the measurement window
    /// to `observer`: every activity firing and impulse-reward update,
    /// plus the derived model events and phase transitions of the
    /// shared vocabulary (see [`ckpt_obs`]). The observer's window
    /// opens after the transient discard, aligned with the reward
    /// reset, and closes at the horizon. With `telemetry` the engine's
    /// hot-loop probes run from construction (transient included) and
    /// their snapshot comes back with the outcome. Observation never
    /// affects results: metrics are bit-identical to an unobserved run
    /// on the same seed.
    ///
    /// # Errors
    ///
    /// Propagates SAN execution errors.
    pub fn run_observed(
        &self,
        opts: &RunOptions,
        observer: &mut dyn Observer,
        telemetry: bool,
    ) -> Result<(RunOutcome, Option<TelemetrySnapshot>), ModelError> {
        self.run_inner(opts, Some(observer), telemetry)
    }

    /// Runs one replication from time zero (no transient) with a
    /// [`TraceBuffer`] of `capacity` entries attached, returning the
    /// metrics and the recorded trace — the SAN counterpart of
    /// attaching a [`TraceBuffer`] to the direct engine with
    /// [`crate::direct::DirectSimulator::set_observer`], so the two
    /// engines can be diffed event by event on the same seed.
    ///
    /// # Errors
    ///
    /// Propagates SAN execution errors.
    pub fn run_traced(
        &self,
        seed: u64,
        horizon: SimTime,
        capacity: usize,
    ) -> Result<(Metrics, TraceBuffer), ModelError> {
        let mut buf = TraceBuffer::new(capacity);
        let opts = RunOptions {
            seed,
            transient: SimTime::ZERO,
            horizon,
            ..RunOptions::default()
        };
        let (outcome, _) = self.run_inner(&opts, Some(&mut buf), false)?;
        Ok((outcome.metrics, buf))
    }

    fn run_inner(
        &self,
        opts: &RunOptions,
        observer: Option<&mut dyn Observer>,
        telemetry: bool,
    ) -> Result<(RunOutcome, Option<TelemetrySnapshot>), ModelError> {
        let ids = self.ids;
        let mut sim = Simulator::with_reactivation(&self.san, opts.seed, opts.reactivation)?;
        if telemetry {
            sim.enable_telemetry();
        }

        // Phase-time rate rewards (used for the time-breakdown metric).
        // Each declares its support places via `reads`, so the executor
        // re-evaluates it only when one of those places changes instead
        // of on every event.
        sim.add_reward(
            ckpt_san::RewardSpec::rate("t_exec", move |m| {
                if m.has_token(ids.execution) {
                    1.0
                } else {
                    0.0
                }
            })
            .reads(&[ids.execution]),
        )?;
        sim.add_reward(
            ckpt_san::RewardSpec::rate("t_coord", move |m| {
                if m.has_token(ids.quiescing) {
                    1.0
                } else {
                    0.0
                }
            })
            .reads(&[ids.quiescing]),
        )?;
        sim.add_reward(
            ckpt_san::RewardSpec::rate("t_dump", move |m| {
                if m.has_token(ids.checkpointing) {
                    1.0
                } else {
                    0.0
                }
            })
            .reads(&[ids.checkpointing]),
        )?;
        sim.add_reward(
            ckpt_san::RewardSpec::rate("t_recover", move |m| {
                if m.has_token(ids.recovering_wait_io)
                    || m.has_token(ids.recovering_stage1)
                    || m.has_token(ids.recovering_stage2)
                {
                    1.0
                } else {
                    0.0
                }
            })
            .reads(&[
                ids.recovering_wait_io,
                ids.recovering_stage1,
                ids.recovering_stage2,
            ]),
        )?;
        sim.add_reward(
            ckpt_san::RewardSpec::rate("t_reboot", move |m| {
                if m.has_token(ids.rebooting) {
                    1.0
                } else {
                    0.0
                }
            })
            .reads(&[ids.rebooting]),
        )?;

        sim.run_for(opts.transient)?;
        let w0 = sim.marking().fluid(ids.work);
        let lost0 = sim.marking().fluid(ids.lost);
        let counters0 = self.read_counters(&sim);
        sim.reset_rewards();
        // The observer's measurement window opens here, aligned with the
        // reward reset, so registry accumulations reconcile with the
        // reward-variable estimates.
        let mut obs_bridge = observer.map(|obs| {
            obs.on_window_begin(sim.now(), bridge::phase_of(&ids, sim.marking()));
            SanBridge::new(ids, obs, sim.marking())
        });
        if let Some(b) = obs_bridge.as_mut() {
            sim.set_observer(b);
        }
        sim.run_for(opts.horizon)?;

        let report = sim.reward_report();
        let mut phase_times = PhaseTimes::default();
        for (name, kind) in [
            ("t_exec", PhaseKind::Executing),
            ("t_coord", PhaseKind::Coordinating),
            ("t_dump", PhaseKind::Dumping),
            ("t_recover", PhaseKind::Recovering),
            ("t_reboot", PhaseKind::Rebooting),
        ] {
            phase_times.add(kind, report.value(name)?.total);
        }

        let counters1 = self.read_counters(&sim);
        let metrics = Metrics {
            window_secs: opts.horizon.as_secs(),
            useful_work_secs: sim.marking().fluid(ids.work) - w0,
            work_lost_secs: sim.marking().fluid(ids.lost) - lost0,
            counters: diff_counters(counters0, counters1),
            phase_times,
        };
        let events = sim.events_processed();
        let telemetry = sim.telemetry_snapshot();
        let end = sim.now();
        if let Some(b) = obs_bridge.as_mut() {
            b.finish(end);
        }
        Ok((RunOutcome { metrics, events }, telemetry))
    }

    fn read_counters(&self, sim: &Simulator<'_>) -> Counters {
        let count = |a: Option<ActivityId>| a.map_or(0, |id| sim.firing_count(id));
        Counters {
            compute_failures: count(self.acts.comp_failure),
            io_failures: count(self.acts.io_failure),
            master_failures: count(self.acts.master_failure),
            generic_failures: count(self.acts.generic_failure),
            checkpoints_completed: count(self.acts.dump_chkpt),
            checkpoints_aborted_timeout: count(self.acts.skip_chkpt),
            checkpoints_aborted_io: 0,
            checkpoints_aborted_master: count(self.acts.master_failure),
            recoveries: count(self.acts.recovery_stage2),
            failed_recoveries: 0,
            reboots: count(self.acts.reboot),
            correlated_windows: 0,
            spatial_co_failures: 0,
        }
    }
}

fn diff_counters(a: Counters, b: Counters) -> Counters {
    Counters {
        compute_failures: b.compute_failures - a.compute_failures,
        io_failures: b.io_failures - a.io_failures,
        master_failures: b.master_failures - a.master_failures,
        generic_failures: b.generic_failures - a.generic_failures,
        checkpoints_completed: b.checkpoints_completed - a.checkpoints_completed,
        checkpoints_aborted_timeout: b.checkpoints_aborted_timeout - a.checkpoints_aborted_timeout,
        checkpoints_aborted_io: b.checkpoints_aborted_io - a.checkpoints_aborted_io,
        checkpoints_aborted_master: b.checkpoints_aborted_master - a.checkpoints_aborted_master,
        recoveries: b.recoveries - a.recoveries,
        failed_recoveries: b.failed_recoveries - a.failed_recoveries,
        reboots: b.reboots - a.reboots,
        correlated_windows: b.correlated_windows - a.correlated_windows,
        spatial_co_failures: b.spatial_co_failures - a.spatial_co_failures,
    }
}

// ---------------------------------------------------------------------
// Submodels (Table 1 of the paper)
// ---------------------------------------------------------------------

/// `useful_work`: the fluid accumulator W flows at rate 1 while the
/// compute nodes perform computation or application I/O.
fn submodel_useful_work(_cfg: &SystemConfig, ids: &Ids, b: &mut SanBuilder) {
    let i = *ids;
    b.flow(ids.work, move |m| {
        if m.has_token(i.execution) || (m.has_token(i.quiescing) && m.has_token(i.app_io)) {
            1.0
        } else {
            0.0
        }
    });
}

/// `master`: periodic checkpoint initiation and the 'ready' timeout.
fn submodel_master(cfg: &SystemConfig, ids: &Ids, b: &mut SanBuilder) {
    // The interval timer runs while the master sleeps and the system
    // executes; disabling (recovery) aborts it, re-enabling restarts it.
    // The policy's static interval equals `checkpoint_interval()` under
    // the default fixed policy; dynamic policies are rejected by
    // `CheckpointSan::build`.
    let interval = cfg
        .policy()
        .static_interval(cfg)
        .unwrap_or_else(|| cfg.checkpoint_interval());
    b.timed_activity(
        "checkpoint_trigger",
        Delay::from(Dist::deterministic(interval.as_secs())),
    )
    .input_arc(ids.master_sleep, 1)
    .input_gate(InputGate::when(
        "system_executing",
        Pred::has(ids.execution),
    ))
    .output_arc(ids.master_checkpointing, 1)
    .build();

    if let Some(timeout) = cfg.timeout() {
        // Runs from the broadcast until coordination completes (the
        // compute nodes leave `quiescing`); firing marks `timedout`,
        // which triggers `skip_chkpt` in the compute_nodes submodel.
        b.timed_activity(
            "master_timeout",
            Delay::from(Dist::deterministic(timeout.as_secs())),
        )
        .input_arc(ids.master_checkpointing, 1)
        .input_gate(InputGate::when(
            "awaiting_ready",
            Pred::empty(ids.checkpointing).and(Pred::empty(ids.timedout)),
        ))
        .output_arc(ids.master_checkpointing, 1)
        .output_arc(ids.timedout, 1)
        .build();
    }

    // Reset to master_sleep when the protocol finishes.
    b.instantaneous_activity("master_reset", 5)
        .input_arc(ids.protocol_done, 1)
        .input_arc(ids.master_checkpointing, 1)
        .output_arc(ids.master_sleep, 1)
        .build();
}

/// `compute_nodes`: execution → quiescing → checkpointing → execution.
fn submodel_compute_nodes(
    cfg: &SystemConfig,
    ids: &Ids,
    b: &mut SanBuilder,
    acts: &mut ActivityHandles,
) {
    let i = *ids;

    // Quiesce broadcast delivery.
    b.timed_activity(
        "recv_quiesce_bcast",
        Delay::from(Dist::deterministic(
            cfg.quiesce_broadcast_latency().as_secs(),
        )),
    )
    .input_arc(ids.execution, 1)
    .input_gate(InputGate::when(
        "master_broadcasting",
        Pred::has(ids.master_checkpointing),
    ))
    .output_arc(ids.quiescing, 1)
    .output_arc(ids.to_coordination, 1)
    .build();

    // Coordination finished: move to the checkpoint-dump state and record
    // the quiesce point.
    b.instantaneous_activity("coordinate", 4)
        .input_arc(ids.quiescing, 1)
        .input_arc(ids.complete_coordination, 1)
        .output_arc(ids.checkpointing, 1)
        .effect("record_quiesce_point", move |m| {
            let w = m.fluid(i.work);
            m.set_fluid(i.w_candidate, w);
        })
        .build();

    // Dump to the I/O nodes (needs them idle; waiting happens here).
    acts.dump_chkpt = Some(
        b.timed_activity(
            "dump_chkpt",
            Delay::from(Dist::deterministic(cfg.checkpoint_dump_time().as_secs())),
        )
        .input_arc(ids.checkpointing, 1)
        .input_gate(InputGate::when(
            "ionode_is_idle",
            Pred::has(ids.ionode_idle),
        ))
        .output_arc(ids.execution, 1)
        .output_arc(ids.enable_chkpt, 1)
        .output_arc(ids.protocol_done, 1)
        .effect("checkpoint_buffered", move |m| {
            m.set_tokens(i.buffered, 1);
            let wc = m.fluid(i.w_candidate);
            m.set_fluid(i.w_buffered, wc);
            // The application resets at the compute state.
            m.set_tokens(i.app_compute, 1);
            m.set_tokens(i.app_io, 0);
        })
        .build(),
    );

    // Timeout abort: abandon the checkpoint and resume computing.
    acts.skip_chkpt = Some(
        b.instantaneous_activity("skip_chkpt", 4)
            .input_arc(ids.quiescing, 1)
            .input_arc(ids.timedout, 1)
            .output_arc(ids.execution, 1)
            .output_arc(ids.protocol_done, 1)
            .effect("clear_coordination", move |m| {
                m.set_tokens(i.to_coordination, 0);
                m.set_tokens(i.coordinating, 0);
                m.set_tokens(i.complete_coordination, 0);
                m.set_tokens(i.app_compute, 1);
                m.set_tokens(i.app_io, 0);
            })
            .build(),
    );
}

/// `coordination`: waits for non-preemptive application I/O, then samples
/// the coordination time per the configured [`CoordinationMode`].
fn submodel_coordination(cfg: &SystemConfig, ids: &Ids, b: &mut SanBuilder) {
    b.instantaneous_activity("start_coord", 3)
        .input_arc(ids.to_coordination, 1)
        .input_gate(InputGate::when("app_not_in_io", Pred::has(ids.app_compute)))
        .output_arc(ids.coordinating, 1)
        .build();

    let mttq = cfg.mttq().as_secs();
    let delay = match cfg.coordination() {
        CoordinationMode::FixedQuiesce => Delay::from(Dist::deterministic(mttq)),
        CoordinationMode::SystemExponential => Delay::from(Dist::exponential_mean(mttq)),
        CoordinationMode::MaxOfN => {
            // Max over the compute nodes, per the paper's Section 5.
            let n = cfg.node_count();
            Delay::from(Dist::max_exponential(n, 1.0 / mttq))
        }
    };
    b.timed_activity("coord", delay)
        .input_arc(ids.coordinating, 1)
        .output_arc(ids.complete_coordination, 1)
        .build();
}

/// `app_workload`: the BSP compute/I-O cycle. With a compute fraction of
/// 1 the application computes forever and no activities are needed.
fn submodel_app_workload(cfg: &SystemConfig, ids: &Ids, b: &mut SanBuilder) {
    if cfg.io_phase().is_zero() {
        return;
    }
    b.timed_activity(
        "compute_phase",
        Delay::from(Dist::deterministic(cfg.compute_phase().as_secs())),
    )
    .input_arc(ids.app_compute, 1)
    .input_gate(InputGate::when("executing", Pred::has(ids.execution)))
    .output_arc(ids.app_io, 1)
    .build();

    // Non-preemptive I/O finishes even under a pending quiesce.
    b.timed_activity(
        "io_phase",
        Delay::from(Dist::deterministic(cfg.io_phase().as_secs())),
    )
    .input_arc(ids.app_io, 1)
    .input_gate(InputGate::when(
        "executing_or_quiescing",
        Pred::has(ids.execution).or(Pred::has(ids.quiescing)),
    ))
    .output_arc(ids.app_compute, 1)
    .output_arc(ids.app_data_ready, 1)
    .build();
}

/// `io_nodes`: background writes of checkpoints and application data.
fn submodel_io_nodes(cfg: &SystemConfig, ids: &Ids, b: &mut SanBuilder) {
    let i = *ids;

    b.instantaneous_activity("start_write_chkpt", 2)
        .input_arc(ids.enable_chkpt, 1)
        .input_arc(ids.ionode_idle, 1)
        .output_arc(ids.writing_chkpt, 1)
        .build();

    b.timed_activity(
        "write_chkpt",
        Delay::from(Dist::deterministic(
            cfg.checkpoint_fs_write_time().as_secs(),
        )),
    )
    .input_arc(ids.writing_chkpt, 1)
    .output_arc(ids.ionode_idle, 1)
    .effect("checkpoint_on_fs", move |m| {
        let wb = m.fluid(i.w_buffered);
        m.set_fluid(i.w_fs, wb);
    })
    .build();

    if !cfg.app_data_write_time().is_zero() {
        b.instantaneous_activity("start_write_app_data", 1)
            .input_arc(ids.app_data_ready, 1)
            .input_arc(ids.ionode_idle, 1)
            .output_arc(ids.writing_app_data, 1)
            .build();

        // If the I/O nodes are busy the cycle's data simply stays in
        // their buffers (the next write covers it).
        b.instantaneous_activity("drop_app_data", 0)
            .input_arc(ids.app_data_ready, 1)
            .input_gate(InputGate::when("ionode_busy", Pred::empty(ids.ionode_idle)))
            .build();

        b.timed_activity(
            "write_app_data",
            Delay::from(Dist::deterministic(cfg.app_data_write_time().as_secs())),
        )
        .input_arc(ids.writing_app_data, 1)
        .output_arc(ids.ionode_idle, 1)
        .build();
    }
}

/// Marking-dependent exponential delay whose rate is multiplied by the
/// error-propagation factor while the correlated window is open.
fn modulated_failure_delay(base_rate: f64, window_factor: f64, window: ckpt_san::PlaceId) -> Delay {
    // Without error propagation the rate is marking-independent, so the
    // closure would probe the window place and branch on every Resample
    // redraw for nothing. A plain distribution delay makes the exact
    // same single exponential draw (bit-identical stream) without the
    // dispatch.
    if window_factor == 1.0 {
        return Delay::from(Dist::exponential(base_rate));
    }
    Delay::from_fn(move |m, rng| {
        let rate = if m.has_token(window) {
            base_rate * window_factor
        } else {
            base_rate
        };
        rng.exponential(rate)
    })
}

/// `comp_node_failure`: Poisson failures of the compute nodes; the
/// effect dispatches between rollback and failed-recovery handling, and
/// with probability `p_e` opens a correlated-failure window.
fn submodel_comp_node_failure(
    cfg: &SystemConfig,
    ids: &Ids,
    b: &mut SanBuilder,
    acts: &mut ActivityHandles,
) {
    let i = *ids;
    let threshold = cfg.severe_failure_threshold();
    let (pe, factor) = match cfg.error_propagation() {
        Some(ep) => (ep.probability, ep.factor),
        None => (0.0, 1.0),
    };
    let delay = modulated_failure_delay(cfg.compute_failure_rate(), factor, ids.corr_window);

    let ab = b
        .timed_activity("comp_failure", delay)
        .reactivation(Reactivation::Resample)
        .input_gate(InputGate::when("not_rebooting", Pred::empty(ids.rebooting)));
    acts.comp_failure = Some(if pe > 0.0 {
        ab.case(pe, |c| {
            c.effect("failure_with_propagation", move |m| {
                m.set_tokens(i.corr_window, 1);
                effects::compute_failure_effect(&i, threshold, m);
            })
        })
        .case(1.0 - pe, |c| {
            c.effect("failure", move |m| {
                effects::compute_failure_effect(&i, threshold, m);
            })
        })
        .build()
    } else {
        ab.effect("failure", move |m| {
            effects::compute_failure_effect(&i, threshold, m);
        })
        .build()
    });
}

/// `io_node_failure`: Poisson failures of the I/O nodes with
/// state-dependent consequences.
fn submodel_io_node_failure(
    cfg: &SystemConfig,
    ids: &Ids,
    b: &mut SanBuilder,
    acts: &mut ActivityHandles,
) {
    let i = *ids;
    let threshold = cfg.severe_failure_threshold();
    let factor = cfg.error_propagation().map_or(1.0, |e| e.factor);
    let delay = modulated_failure_delay(cfg.io_failure_rate(), factor, ids.corr_window);
    acts.io_failure = Some(
        b.timed_activity("io_failure", delay)
            .reactivation(Reactivation::Resample)
            .input_gate(InputGate::when("not_rebooting", Pred::empty(ids.rebooting)))
            .effect("io_failure_effect", move |m| {
                effects::io_failure_effect(&i, threshold, m);
            })
            .build(),
    );
}

/// Master failures abort an in-progress checkpoint; outside the protocol
/// the master recovers independently, so the activity is enabled only
/// while the master is checkpointing (statistically equivalent because
/// the failure process is memoryless).
fn submodel_master_failure(
    cfg: &SystemConfig,
    ids: &Ids,
    b: &mut SanBuilder,
    acts: &mut ActivityHandles,
) {
    let i = *ids;
    let factor = cfg.error_propagation().map_or(1.0, |e| e.factor);
    let delay = modulated_failure_delay(cfg.node_failure_rate(), factor, ids.corr_window);
    acts.master_failure = Some(
        b.timed_activity("master_failure", delay)
            .reactivation(Reactivation::Resample)
            .input_gate(InputGate::when(
                "checkpoint_in_progress",
                Pred::has(ids.master_checkpointing)
                    .and(Pred::has(ids.quiescing).or(Pred::has(ids.checkpointing))),
            ))
            .effect("master_abort", move |m| {
                effects::abort_checkpoint(&i, m);
            })
            .build(),
    );
}

/// `correlated_failures`: the window timer plus the generic
/// correlated-failure stream of rate `α·r·n·λ`.
fn submodel_correlated_failures(
    cfg: &SystemConfig,
    ids: &Ids,
    b: &mut SanBuilder,
    acts: &mut ActivityHandles,
) {
    let i = *ids;
    if let Some(ep) = cfg.error_propagation() {
        b.timed_activity("close_window", Delay::from(Dist::deterministic(ep.window)))
            .input_arc(ids.corr_window, 1)
            .build();
    }

    let rate = cfg.generic_correlated_rate();
    if rate > 0.0 {
        let threshold = cfg.severe_failure_threshold();
        let pe = cfg.error_propagation().map_or(0.0, |e| e.probability);
        let ab = b
            .timed_activity("generic_failure", Delay::from(Dist::exponential(rate)))
            .reactivation(Reactivation::Resample)
            .input_gate(InputGate::when("not_rebooting", Pred::empty(ids.rebooting)));
        acts.generic_failure = Some(if pe > 0.0 {
            ab.case(pe, |c| {
                c.effect("generic_with_propagation", move |m| {
                    m.set_tokens(i.corr_window, 1);
                    effects::compute_failure_effect(&i, threshold, m);
                })
            })
            .case(1.0 - pe, |c| {
                c.effect("generic", move |m| {
                    effects::compute_failure_effect(&i, threshold, m);
                })
            })
            .build()
        } else {
            ab.effect("generic", move |m| {
                effects::compute_failure_effect(&i, threshold, m);
            })
            .build()
        });
    }
}

/// `comp_node_recovery`: the two recovery stages plus the instantaneous
/// dispatch out of the wait-for-I/O state.
fn submodel_comp_node_recovery(
    cfg: &SystemConfig,
    ids: &Ids,
    b: &mut SanBuilder,
    acts: &mut ActivityHandles,
) {
    let i = *ids;

    // Leave the wait state as soon as the I/O nodes are back.
    b.instantaneous_activity("recovery_from_wait_stage1", 2)
        .input_arc(ids.recovering_wait_io, 1)
        .input_arc(ids.ionode_idle, 1)
        .input_gate(InputGate::when("not_buffered", Pred::empty(ids.buffered)))
        .output_arc(ids.reading_chkpt, 1)
        .output_arc(ids.recovering_stage1, 1)
        .build();
    b.instantaneous_activity("recovery_from_wait_stage2", 2)
        .input_arc(ids.recovering_wait_io, 1)
        .input_gate(InputGate::when(
            "buffered_and_io_up",
            Pred::has(ids.buffered)
                .and(Pred::has(ids.ionode_idle).or(Pred::has(ids.writing_chkpt))),
        ))
        .output_arc(ids.recovering_stage2, 1)
        .build();

    // Stage 1: I/O nodes read the checkpoint from the file system.
    b.timed_activity(
        "recovery_stage1",
        Delay::from(Dist::deterministic(cfg.checkpoint_fs_read_time().as_secs())),
    )
    .input_arc(ids.recovering_stage1, 1)
    .output_arc(ids.recovering_stage2, 1)
    .effect("checkpoint_read_back", move |m| {
        m.set_tokens(i.reading_chkpt, 0);
        m.set_tokens(i.ionode_idle, 1);
        m.set_tokens(i.buffered, 1);
        let wfs = m.fluid(i.w_fs);
        m.set_fluid(i.w_buffered, wfs);
    })
    .build();

    // Stage 2: compute nodes read the checkpoint and reinitialize.
    let mttr = cfg.mttr_system().as_secs();
    let stage2_delay = match cfg.recovery_time_model() {
        RecoveryTimeModel::Exponential => Delay::from(Dist::exponential_mean(mttr)),
        RecoveryTimeModel::Deterministic => Delay::from(Dist::deterministic(mttr)),
        RecoveryTimeModel::LogNormal { cv } => Delay::from(Dist::log_normal_mean_cv(mttr, cv)),
    };
    acts.recovery_stage2 = Some(
        b.timed_activity("recovery_stage2", stage2_delay)
            .input_arc(ids.recovering_stage2, 1)
            .output_arc(ids.execution, 1)
            .effect("recovery_complete", move |m| {
                m.set_tokens(i.failed_recoveries, 0);
                m.set_tokens(i.corr_window, 0);
                m.set_tokens(i.app_compute, 1);
                m.set_tokens(i.app_io, 0);
            })
            .build(),
    );
}

/// `io_node_recovery`: restart of the I/O-node unit.
fn submodel_io_node_recovery(cfg: &SystemConfig, ids: &Ids, b: &mut SanBuilder) {
    b.timed_activity(
        "io_restart",
        Delay::from(Dist::exponential_mean(cfg.mttr_io().as_secs())),
    )
    .input_arc(ids.io_restarting, 1)
    .output_arc(ids.ionode_idle, 1)
    .build();
}

/// `system_reboot`: after the reboot the I/O processors are ready but the
/// compute nodes still must read the last checkpoint and recover.
fn submodel_system_reboot(
    cfg: &SystemConfig,
    ids: &Ids,
    b: &mut SanBuilder,
    acts: &mut ActivityHandles,
) {
    let i = *ids;
    acts.reboot = Some(
        b.timed_activity(
            "reboot",
            Delay::from(Dist::deterministic(cfg.reboot_time().as_secs())),
        )
        .input_arc(ids.rebooting, 1)
        .output_arc(ids.recovering_wait_io, 1)
        .effect("reboot_complete", move |m| {
            m.set_tokens(i.io_down, 0);
            m.set_tokens(i.ionode_idle, 1);
            m.set_tokens(i.failed_recoveries, 0);
        })
        .build(),
    );
}
