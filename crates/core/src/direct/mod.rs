//! Direct event-driven simulator of the paper's model.
//!
//! This is a hand-written discrete-event implementation of exactly the
//! semantics described in DESIGN.md §4 (the same semantics the SAN
//! composition in [`crate::san_model`] encodes declaratively). Having two
//! independently written simulators lets the test suite cross-validate
//! them against each other; the direct one is the faster of the two and
//! is what figure regeneration, `optimize` and the service run by
//! default.
//!
//! # Example
//!
//! ```
//! use ckpt_core::config::SystemConfig;
//! use ckpt_core::direct::DirectSimulator;
//! use ckpt_des::SimTime;
//!
//! let cfg = SystemConfig::builder().build()?;
//! let mut sim = DirectSimulator::new(&cfg, 7);
//! sim.run(SimTime::from_hours(1_000.0));    // warm-up
//! sim.reset_metrics();                      // discard the transient
//! sim.run(SimTime::from_hours(10_000.0));   // measure
//! let m = sim.metrics();
//! assert!(m.useful_work_fraction() > 0.0);
//! # Ok::<(), ckpt_core::config::ConfigError>(())
//! ```

mod events;
mod timers;

use crate::config::{CoordinationMode, RecoveryTimeModel, SystemConfig};
use crate::metrics::{Counters, Metrics, PhaseKind, PhaseTimes};
use crate::policy::CheckpointPolicy;
use crate::trace::{AbortReason, TraceEvent};
use ckpt_des::telem::{HotTelemetry, TelemetrySnapshot};
use ckpt_des::{QueueKind, RngFactory, SimRng, SimTime, StreamId, Ticket, TimerKey};
use ckpt_obs::{ObsEvent, Observer};
use ckpt_stats::dist::sample_max_exponential;
use events::{AppPhase, Event, IoState, RecoveryStage, SysPhase};
use std::fmt;
use timers::Timers;

/// Config-derived durations and rates, computed once by
/// [`DirectSimulator::new`] so that no event handler repeats a division
/// or a [`SimTime`] validity check. Each is the exact value its
/// [`SystemConfig`] getter returns (see `Derived::new`), so results do
/// not change by a bit.
#[derive(Debug, Clone, Copy)]
struct Derived {
    app_cycle_period: SimTime,
    /// Compute-phase length of an unjittered cycle.
    compute_phase: SimTime,
    /// Whether the application alternates phases at all: false with no
    /// jitter and a zero-length I/O phase, when `AppPhaseEnd` stays
    /// disarmed.
    app_phases: bool,
    app_data_write_time: SimTime,
    dump_time: SimTime,
    fs_write_time: SimTime,
    fs_read_time: SimTime,
    quiesce_latency: SimTime,
    compute_failure_rate: f64,
    io_failure_rate: f64,
    node_failure_rate: f64,
    generic_correlated_rate: f64,
    node_count: u64,
}

impl Derived {
    fn new(cfg: &SystemConfig) -> Derived {
        Derived {
            app_cycle_period: cfg.app_cycle_period(),
            compute_phase: cfg.compute_phase(),
            app_phases: cfg.compute_fraction_jitter().is_some() || !cfg.io_phase().is_zero(),
            app_data_write_time: cfg.app_data_write_time(),
            dump_time: cfg.checkpoint_dump_time(),
            fs_write_time: cfg.checkpoint_fs_write_time(),
            fs_read_time: cfg.checkpoint_fs_read_time(),
            quiesce_latency: cfg.quiesce_broadcast_latency(),
            compute_failure_rate: cfg.compute_failure_rate(),
            io_failure_rate: cfg.io_failure_rate(),
            node_failure_rate: cfg.node_failure_rate(),
            generic_correlated_rate: cfg.generic_correlated_rate(),
            node_count: cfg.node_count(),
        }
    }
}

/// The direct event-driven simulator (see module docs).
pub struct DirectSimulator<'c> {
    cfg: &'c SystemConfig,
    /// Durations and rates derived from `cfg`, computed once.
    derived: Derived,
    /// Future-event list: one timer per event kind (see [`timers`]).
    timers: Timers,
    now: SimTime,

    phase: SysPhase,
    app: AppPhase,
    io: IoState,

    /// Virtual job progress, in system-seconds; accrues at rate 1 while
    /// the application executes and rolls back to the last recoverable
    /// checkpoint on failure.
    w: f64,
    /// Progress at the quiesce point of the checkpoint being taken.
    w_candidate: f64,
    /// Progress at the quiesce point of the checkpoint buffered in the
    /// I/O nodes (valid while `buffered`).
    w_buffered: f64,
    /// Progress at the quiesce point of the checkpoint on the file
    /// system.
    w_fs: f64,
    /// Whether a recoverable checkpoint is buffered in the I/O nodes.
    buffered: bool,

    window_open: bool,
    consecutive_failed_recoveries: u32,

    /// Checkpoint-interval policy, consulted each time the trigger is
    /// armed and fed every recorded model event. Deterministic (see
    /// [`CheckpointPolicy`]); the fixed policy reproduces the historical
    /// constant interval bit-for-bit.
    policy: Box<dyn CheckpointPolicy>,

    // RNG streams (one per stochastic component; reproducible from the seed).
    rng_compute: SimRng,
    rng_io: SimRng,
    rng_master: SimRng,
    rng_generic: SimRng,
    rng_coord: SimRng,
    rng_recovery: SimRng,
    rng_propagation: SimRng,
    rng_spatial: SimRng,
    rng_workload: SimRng,
    /// Duration of the current cycle's I/O phase (jittered workloads).
    cycle_io_phase: SimTime,

    // Measurement window.
    window_start: SimTime,
    w_at_window_start: f64,
    work_lost: f64,
    counters: Counters,
    phase_times: PhaseTimes,
    events_processed: u64,
    observer: Option<&'c mut dyn Observer>,
    /// Last phase reported to the observer (suppresses no-op `Phase`
    /// notifications).
    observed_phase: PhaseKind,
    /// Queue-depth distribution probe; `Some` once
    /// [`DirectSimulator::enable_telemetry`] switched it on (see
    /// [`ckpt_des::telem`]); boxed, so an unobserved run carries one
    /// null pointer rather than two histograms.
    telem: Option<Box<HotTelemetry>>,
}

impl<'c> DirectSimulator<'c> {
    /// Creates a simulator at time zero in the executing state, with the
    /// first checkpoint one interval away.
    #[must_use]
    pub fn new(cfg: &'c SystemConfig, seed: u64) -> DirectSimulator<'c> {
        let f = RngFactory::new(seed);
        let mut sim = DirectSimulator {
            cfg,
            derived: Derived::new(cfg),
            timers: Timers::default(),
            now: SimTime::ZERO,
            phase: SysPhase::Executing,
            app: AppPhase::Compute,
            io: IoState::Idle,
            w: 0.0,
            w_candidate: 0.0,
            w_buffered: 0.0,
            w_fs: 0.0,
            buffered: false,
            window_open: false,
            consecutive_failed_recoveries: 0,
            policy: cfg.policy().build(cfg),
            rng_compute: f.stream(StreamId::new("compute_failure", 0)),
            rng_io: f.stream(StreamId::new("io_failure", 0)),
            rng_master: f.stream(StreamId::new("master_failure", 0)),
            rng_generic: f.stream(StreamId::new("generic_failure", 0)),
            rng_coord: f.stream(StreamId::new("coordination", 0)),
            rng_recovery: f.stream(StreamId::new("recovery", 0)),
            rng_propagation: f.stream(StreamId::new("propagation", 0)),
            rng_spatial: f.stream(StreamId::new("spatial", 0)),
            rng_workload: f.stream(StreamId::new("workload", 0)),
            cycle_io_phase: cfg.io_phase(),
            window_start: SimTime::ZERO,
            w_at_window_start: 0.0,
            work_lost: 0.0,
            counters: Counters::default(),
            phase_times: PhaseTimes::default(),
            events_processed: 0,
            observer: None,
            observed_phase: PhaseKind::Executing,
            telem: None,
        };
        sim.schedule_app_phase_end();
        sim.arm_checkpoint_trigger();
        sim.reschedule_failure_streams();
        sim
    }

    /// Every RNG stream [`DirectSimulator::new`] creates; a stream
    /// added there belongs here too, or telemetry undercounts draws.
    fn streams(&self) -> [&SimRng; 9] {
        [
            &self.rng_compute,
            &self.rng_io,
            &self.rng_master,
            &self.rng_generic,
            &self.rng_coord,
            &self.rng_recovery,
            &self.rng_propagation,
            &self.rng_spatial,
            &self.rng_workload,
        ]
    }

    /// Same as [`DirectSimulator::new`]: `queue` is ignored (see
    /// [`QueueKind`]). The direct engine runs on a per-kind
    /// [`TimerTable`](ckpt_des::TimerTable), not a general event queue.
    #[must_use]
    pub fn with_queue(cfg: &'c SystemConfig, seed: u64, queue: QueueKind) -> DirectSimulator<'c> {
        let _ = queue;
        DirectSimulator::new(cfg, seed)
    }

    // ------------------------------------------------------------------
    // Public API
    // ------------------------------------------------------------------

    /// Runs for `duration` of simulated time.
    pub fn run(&mut self, duration: SimTime) {
        self.run_until(self.now + duration);
    }

    /// Runs until the net useful work accumulated since construction
    /// reaches `target` system-seconds (a *terminating* simulation: the
    /// wall-clock completion time of a job with that solve time), or
    /// until `deadline` as a safety stop. Returns the completion time,
    /// or `None` if the deadline struck first.
    ///
    /// This is the quantity Daly's `expected_wall_time` predicts; the
    /// integration tests compare the two.
    pub fn run_until_useful_work(&mut self, target: f64, deadline: SimTime) -> Option<SimTime> {
        assert!(target >= 0.0 && target.is_finite(), "bad work target");
        loop {
            self.run_app_cycle(deadline, Some(target));
            if self.w >= target {
                return Some(self.now);
            }
            let (t, _) = self.timers.next()?;
            if t > deadline {
                return None;
            }
            // If the system is accruing and would cross the target before
            // the next event, stop exactly at the crossing.
            if self.accruing() {
                let crossing = crossing(self.now, self.w, target);
                if crossing <= t {
                    self.advance_clock(crossing);
                    return Some(self.now);
                }
            }
            let (t, event) = self.timers.pop_before(t).expect("the peeked event is due");
            self.fire(t, event);
        }
    }

    /// Runs until the absolute simulated time `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) {
        loop {
            self.run_app_cycle(horizon, None);
            let Some((t, event)) = self.timers.pop_before(horizon) else {
                break;
            };
            self.fire(t, event);
            debug_assert!(
                !self.cfg.failures_enabled()
                    || self.phase == SysPhase::Rebooting
                    || self.timers.is_armed(Event::ComputeFailure),
                "compute-failure stream lost after {event:?} in phase {:?}",
                self.phase
            );
        }
        if horizon > self.now {
            self.advance_clock(horizon);
        }
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed since construction.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Switches the hot-loop telemetry probe on. Construction passes no
    /// probe, so a probe switched on before the first run sees every
    /// event, transient included. Probes never change results.
    pub fn enable_telemetry(&mut self) {
        self.telem.get_or_insert_with(Box::default);
    }

    /// The telemetry accumulated so far, with the RNG words drawn
    /// across all streams since construction; `None` unless
    /// [`DirectSimulator::enable_telemetry`] was called.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        let telem = self.telem.as_ref()?;
        let rng_draws = self.streams().iter().map(|r| r.words_drawn()).sum();
        Some(telem.snapshot(rng_draws, 0))
    }

    /// Attaches an observer receiving every subsequent model event plus
    /// phase transitions. Observation never affects simulation results
    /// (observers are pure consumers; see [`ckpt_obs::Observer`]), so
    /// runs stay bit-identical with or without one.
    pub fn set_observer(&mut self, observer: &'c mut dyn Observer) {
        self.observed_phase = self.current_phase();
        self.observer = Some(observer);
    }

    /// Detaches the observer, if any.
    pub fn clear_observer(&mut self) {
        self.observer = None;
    }

    /// Coarse phase the system is currently in.
    #[must_use]
    pub fn current_phase(&self) -> PhaseKind {
        self.phase_kind()
    }

    fn record(&mut self, event: TraceEvent) {
        self.policy.observe(self.now, event);
        if let Some(o) = self.observer.as_deref_mut() {
            o.on_event(self.now, ObsEvent::Model(event));
        }
    }

    /// Reports a phase transition to the observer, if one is attached
    /// and the coarse phase actually changed since the last report.
    fn notify_phase(&mut self) {
        if self.observer.is_some() {
            let p = self.phase_kind();
            if p != self.observed_phase {
                self.observed_phase = p;
                if let Some(o) = self.observer.as_deref_mut() {
                    o.on_event(self.now, ObsEvent::Phase(p));
                }
            }
        }
    }

    /// Restarts the observation window at the current instant (transient
    /// discard): zeroes counters, phase times and lost-work totals.
    pub fn reset_metrics(&mut self) {
        self.window_start = self.now;
        self.w_at_window_start = self.w;
        self.work_lost = 0.0;
        self.counters = Counters::default();
        self.phase_times = PhaseTimes::default();
    }

    /// Snapshot of the measures over the current observation window.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        Metrics {
            window_secs: (self.now - self.window_start).as_secs(),
            useful_work_secs: self.w - self.w_at_window_start,
            work_lost_secs: self.work_lost,
            counters: self.counters,
            phase_times: self.phase_times,
        }
    }

    // ------------------------------------------------------------------
    // Clock, accrual, bookkeeping
    // ------------------------------------------------------------------

    /// True while useful work accrues: the application is executing, or
    /// it is finishing non-preemptive I/O under a pending quiesce.
    fn accruing(&self) -> bool {
        match self.phase {
            SysPhase::Executing => true,
            SysPhase::Quiescing => self.app == AppPhase::Io,
            _ => false,
        }
    }

    fn phase_kind(&self) -> PhaseKind {
        match self.phase {
            SysPhase::Executing => PhaseKind::Executing,
            SysPhase::Quiescing => PhaseKind::Coordinating,
            SysPhase::WaitingIoIdle | SysPhase::Dumping => PhaseKind::Dumping,
            SysPhase::Recovering(_) => PhaseKind::Recovering,
            SysPhase::Rebooting => PhaseKind::Rebooting,
        }
    }

    fn advance_clock(&mut self, to: SimTime) {
        let dt = (to - self.now).as_secs();
        if dt > 0.0 {
            self.phase_times.add(self.phase_kind(), dt);
            if self.accruing() {
                self.w += dt;
            }
        }
        self.now = to;
    }

    /// The executing phase's application-cycle kernel (DESIGN.md §7k):
    /// fires the application's own events for as long as the next one is
    /// due at or before `limit`, pops before every other timer and, given
    /// a work `target`, is due before useful work reaches it. Returns at
    /// once outside [`SysPhase::Executing`], and when the application
    /// does not alternate phases (no application timer is ever armed
    /// then).
    ///
    /// The two application timers ([`timers::APP_CYCLE`]) leave the table
    /// for the whole run of them and are held here as `(due, ticket)`
    /// pairs. In this phase their handlers, inlined below, arm and cancel
    /// no other timer, draw only from `rng_workload`, record nothing and
    /// leave the phase as it is, so the least key among the other timers,
    /// taken once, bounds the whole run; a tie with another timer is
    /// decided by the whole key, the ticket taken where `schedule` took
    /// its sequence. The clock, the telemetry probe and the counters move
    /// exactly as [`DirectSimulator::fire`] moves them.
    #[inline]
    fn run_app_cycle(&mut self, limit: SimTime, target: Option<f64>) {
        if self.phase != SysPhase::Executing || !self.derived.app_phases {
            return;
        }
        let others = self.timers.least_key(!timers::APP_CYCLE);
        let mut phase_end = self.timers.withdraw(Event::AppPhaseEnd);
        let mut data_done = self.timers.withdraw(Event::AppDataWriteDone);
        let others_armed = self.timers.len();
        let key = |timer: Option<(SimTime, Ticket)>| {
            timer.map_or(TimerKey::NEVER, |(due, ticket)| TimerKey::of(due, ticket))
        };
        let mut first = None;
        let (mut now, mut w) = (self.now, self.w);
        loop {
            let bound = match target {
                None => others,
                Some(target) if w < target => {
                    others.min(TimerKey::first_at(crossing(now, w, target)))
                }
                Some(_) => break,
            };
            let (phase_key, data_key) = (key(phase_end), key(data_done));
            let ends_phase = phase_key < data_key;
            let (next, next_key) = if ends_phase {
                (phase_end, phase_key)
            } else {
                (data_done, data_key)
            };
            let Some((due, _)) = next else { break };
            if next_key >= bound || due > limit {
                break;
            }
            first.get_or_insert(due);
            // `advance_clock` in this phase.
            let dt = (due - now).as_secs();
            if dt > 0.0 {
                self.phase_times.add(PhaseKind::Executing, dt);
                w += dt;
            }
            now = due;
            self.events_processed += 1;
            if let Some(telem) = &mut self.telem {
                let armed = usize::from(phase_end.is_some()) + usize::from(data_done.is_some());
                telem.record_queue_depth(others_armed + armed - 1);
            }
            if ends_phase {
                let ends_compute = self.app == AppPhase::Compute;
                let length = if ends_compute {
                    self.app = AppPhase::Io;
                    self.cycle_io_phase
                } else {
                    self.app = AppPhase::Compute;
                    self.compute_phase()
                };
                phase_end = Some((now + length, self.timers.ticket()));
                // `start_app_data_write`, after the re-arm as there.
                let write_time = self.derived.app_data_write_time;
                if !ends_compute && !write_time.is_zero() && self.io == IoState::Idle {
                    self.io = IoState::WritingAppData;
                    data_done = Some((now + write_time, self.timers.ticket()));
                }
            } else {
                debug_assert_eq!(self.io, IoState::WritingAppData);
                self.io = IoState::Idle;
                data_done = None;
            }
        }
        (self.now, self.w) = (now, w);
        if let Some(first) = first {
            self.timers.advance_watermark(first, now);
        }
        if let Some((due, ticket)) = phase_end {
            self.timers.schedule_with(Event::AppPhaseEnd, due, ticket);
        }
        if let Some((due, ticket)) = data_done {
            self.timers
                .schedule_with(Event::AppDataWriteDone, due, ticket);
        }
    }

    /// Advances the clock to `t` and handles `event`, just popped from
    /// the timer table.
    fn fire(&mut self, t: SimTime, event: Event) {
        self.advance_clock(t);
        self.events_processed += 1;
        if let Some(telem) = &mut self.telem {
            telem.record_queue_depth(self.timers.len());
        }
        self.dispatch(event);
        self.notify_phase();
    }

    /// Schedules a singleton event `delay` from now, replacing any
    /// pending instance.
    fn schedule(&mut self, event: Event, delay: SimTime) {
        self.timers.schedule(event, self.now + delay);
    }

    // ------------------------------------------------------------------
    // Sampling helpers
    // ------------------------------------------------------------------

    fn rate_factor(&self) -> f64 {
        match (self.window_open, self.cfg.error_propagation()) {
            (true, Some(ep)) => ep.factor,
            _ => 1.0,
        }
    }

    fn sample_coordination(&mut self) -> SimTime {
        let mttq = self.cfg.mttq().as_secs();
        let secs = match self.cfg.coordination() {
            CoordinationMode::FixedQuiesce => mttq,
            CoordinationMode::SystemExponential => self.rng_coord.exponential(1.0 / mttq),
            CoordinationMode::MaxOfN => {
                // Section 5 defines the coordination time over the
                // compute *nodes* ("Let n and Xi denote the number of
                // compute nodes and the ith node's quiesce time").
                sample_max_exponential(self.derived.node_count, 1.0 / mttq, &mut self.rng_coord)
            }
        };
        SimTime::from_secs(secs)
    }

    fn sample_recovery(&mut self) -> SimTime {
        let mttr = self.cfg.mttr_system().as_secs();
        let secs = match self.cfg.recovery_time_model() {
            RecoveryTimeModel::Exponential => self.rng_recovery.exponential(1.0 / mttr),
            RecoveryTimeModel::Deterministic => mttr,
            RecoveryTimeModel::LogNormal { cv } => {
                use ckpt_stats::{Dist, Sample};
                Dist::log_normal_mean_cv(mttr, cv).sample(&mut self.rng_recovery)
            }
        };
        SimTime::from_secs(secs)
    }

    fn sample_io_restart(&mut self) -> SimTime {
        let mttr = self.cfg.mttr_io().as_secs();
        SimTime::from_secs(self.rng_io.exponential(1.0 / mttr))
    }

    /// (Re)schedules every failure stream at its current rate; cancels
    /// them all during a reboot or when failures are disabled.
    fn reschedule_failure_streams(&mut self) {
        for ev in [
            Event::ComputeFailure,
            Event::IoFailure,
            Event::MasterFailure,
            Event::GenericFailure,
        ] {
            self.timers.cancel(ev);
        }
        if !self.cfg.failures_enabled() || self.phase == SysPhase::Rebooting {
            return;
        }
        let factor = self.rate_factor();
        let compute_rate = self.derived.compute_failure_rate * factor;
        if compute_rate > 0.0 {
            let d = self.rng_compute.exponential(compute_rate);
            self.schedule(Event::ComputeFailure, SimTime::from_secs(d));
        }
        if self.cfg.model_io_failures() {
            let io_rate = self.derived.io_failure_rate * factor;
            if io_rate > 0.0 {
                let d = self.rng_io.exponential(io_rate);
                self.schedule(Event::IoFailure, SimTime::from_secs(d));
            }
        }
        if self.cfg.model_master_failures() {
            let master_rate = self.derived.node_failure_rate * factor;
            let d = self.rng_master.exponential(master_rate);
            self.schedule(Event::MasterFailure, SimTime::from_secs(d));
        }
        let generic_rate = self.derived.generic_correlated_rate;
        if generic_rate > 0.0 {
            let d = self.rng_generic.exponential(generic_rate);
            self.schedule(Event::GenericFailure, SimTime::from_secs(d));
        }
    }

    // ------------------------------------------------------------------
    // State-machine helpers
    // ------------------------------------------------------------------

    fn arm_checkpoint_trigger(&mut self) {
        let interval = self.policy.next_interval(self.now);
        self.schedule(Event::CheckpointTrigger, interval);
    }

    fn schedule_app_phase_end(&mut self) {
        if !self.derived.app_phases {
            self.timers.cancel(Event::AppPhaseEnd);
            return;
        }
        let d = match self.app {
            AppPhase::Compute => self.compute_phase(),
            AppPhase::Io => self.cycle_io_phase,
        };
        self.schedule(Event::AppPhaseEnd, d);
    }

    /// Length of the compute phase starting now.
    fn compute_phase(&mut self) -> SimTime {
        match self.cfg.compute_fraction_jitter() {
            Some((lo, hi)) => {
                // Extension: jittered workloads sample this cycle's
                // compute fraction at the start of the compute phase.
                let fraction = lo + (hi - lo) * self.rng_workload.open_unit();
                let period = self.derived.app_cycle_period;
                self.cycle_io_phase = period * (1.0 - fraction);
                period * fraction
            }
            None => self.derived.compute_phase,
        }
    }

    /// Returns the system to normal execution: application restarts at
    /// the compute phase, the master re-arms its interval timer.
    fn resume_execution(&mut self) {
        self.phase = SysPhase::Executing;
        self.app = AppPhase::Compute;
        self.schedule_app_phase_end();
        self.arm_checkpoint_trigger();
    }

    /// Cancels every pending checkpoint-protocol event.
    fn cancel_protocol_events(&mut self) {
        for ev in [
            Event::QuiesceArrive,
            Event::CoordinationDone,
            Event::MasterTimeout,
            Event::DumpDone,
        ] {
            self.timers.cancel(ev);
        }
    }

    /// Progress value recovery would roll back to right now.
    fn recovery_point(&self) -> f64 {
        if self.buffered && self.cfg.buffered_recovery() {
            self.w_buffered
        } else {
            self.w_fs
        }
    }

    /// Opens (or extends) a correlated-failure window with probability
    /// `p_e`, per the error-propagation model.
    fn maybe_open_window(&mut self) {
        let Some(ep) = self.cfg.error_propagation() else {
            return;
        };
        if self.window_open {
            // An already-open window is not extended (its close timer
            // keeps running), matching the SAN model's semantics where
            // the window place already holds a token.
            return;
        }
        if self.rng_propagation.bernoulli(ep.probability) {
            self.counters.correlated_windows += 1;
            self.record(TraceEvent::WindowOpened);
            self.window_open = true;
            self.schedule(Event::WindowClose, SimTime::from_secs(ep.window));
            self.reschedule_failure_streams();
        }
    }

    fn close_window(&mut self) {
        if self.window_open {
            self.record(TraceEvent::WindowClosed);
            self.window_open = false;
            self.timers.cancel(Event::WindowClose);
            self.reschedule_failure_streams();
        }
    }

    /// Rolls the computation back to the last recoverable checkpoint and
    /// starts the recovery process.
    fn rollback_and_recover(&mut self) {
        self.record(TraceEvent::Rollback {
            from_buffer: self.buffered && self.cfg.buffered_recovery(),
        });
        if matches!(
            self.phase,
            SysPhase::Quiescing | SysPhase::WaitingIoIdle | SysPhase::Dumping
        ) {
            self.record(TraceEvent::CheckpointAborted(AbortReason::ComputeFailure));
        }
        let point = self.recovery_point();
        let lost = (self.w - point).max(0.0);
        self.work_lost += lost;
        self.w = point;
        self.timers.cancel(Event::CheckpointTrigger);
        self.timers.cancel(Event::AppPhaseEnd);
        self.cancel_protocol_events();
        // Application data in flight belongs to rolled-back computation.
        if self.io == IoState::WritingAppData {
            self.timers.cancel(Event::AppDataWriteDone);
            self.io = IoState::Idle;
        }
        self.maybe_open_window();
        self.start_recovery();
    }

    /// Begins (or restarts) recovery from the current I/O-node state.
    fn start_recovery(&mut self) {
        self.timers.cancel(Event::RecoveryStage1Done);
        self.timers.cancel(Event::RecoveryStage2Done);
        match self.io {
            IoState::Restarting | IoState::Down => {
                self.phase = SysPhase::Recovering(RecoveryStage::WaitIo);
            }
            IoState::ReadingCkpt => {
                // A previous recovery attempt's read was aborted with the
                // event above; restart the read.
                self.begin_stage1();
            }
            IoState::WritingCkpt => {
                if self.buffered && self.cfg.buffered_recovery() {
                    self.begin_stage2();
                } else {
                    // Ablation path (no buffered recovery): wait for the
                    // write to finish, then read the checkpoint back.
                    self.phase = SysPhase::Recovering(RecoveryStage::WaitIo);
                }
            }
            IoState::WritingAppData => {
                // rollback_and_recover clears this state first; reaching
                // here means recovery restarted while app data was in
                // flight, which cannot happen (no execution during
                // recovery).
                unreachable!("recovery started while I/O nodes write app data")
            }
            IoState::Idle => {
                if self.buffered && self.cfg.buffered_recovery() {
                    self.begin_stage2();
                } else {
                    self.begin_stage1();
                }
            }
        }
    }

    fn begin_stage1(&mut self) {
        self.phase = SysPhase::Recovering(RecoveryStage::ReadBack);
        self.io = IoState::ReadingCkpt;
        self.schedule(Event::RecoveryStage1Done, self.derived.fs_read_time);
    }

    fn begin_stage2(&mut self) {
        self.phase = SysPhase::Recovering(RecoveryStage::Reinit);
        let t = self.sample_recovery();
        self.schedule(Event::RecoveryStage2Done, t);
    }

    /// A failure hit during recovery: count it and either restart the
    /// recovery or escalate to a full reboot.
    fn recovery_failed(&mut self) {
        self.record(TraceEvent::RecoveryInterrupted);
        self.counters.failed_recoveries += 1;
        self.consecutive_failed_recoveries += 1;
        if self.consecutive_failed_recoveries > self.cfg.severe_failure_threshold() {
            self.start_reboot();
            return;
        }
        if self.io == IoState::ReadingCkpt {
            self.timers.cancel(Event::RecoveryStage1Done);
            self.io = IoState::Idle;
        }
        self.maybe_open_window();
        self.start_recovery();
    }

    fn start_reboot(&mut self) {
        self.record(TraceEvent::RebootStarted);
        self.counters.reboots += 1;
        // Everything stops: protocol, recovery, I/O activity, failures.
        self.timers.cancel(Event::CheckpointTrigger);
        self.timers.cancel(Event::AppPhaseEnd);
        self.cancel_protocol_events();
        self.timers.cancel(Event::RecoveryStage1Done);
        self.timers.cancel(Event::RecoveryStage2Done);
        self.timers.cancel(Event::IoRestartDone);
        self.timers.cancel(Event::AppDataWriteDone);
        self.timers.cancel(Event::CkptFsWriteDone);
        self.window_open = false;
        self.timers.cancel(Event::WindowClose);
        self.buffered = false;
        self.io = IoState::Down;
        self.phase = SysPhase::Rebooting;
        self.reschedule_failure_streams(); // cancels them during reboot
        self.schedule(Event::RebootDone, self.cfg.reboot_time());
    }

    /// Aborts an in-progress checkpoint attempt and resumes execution.
    fn abort_checkpoint(&mut self) {
        self.cancel_protocol_events();
        self.resume_execution();
    }

    /// The I/O nodes became idle; serve whoever was waiting on them.
    fn io_became_idle(&mut self) {
        self.io = IoState::Idle;
        match self.phase {
            SysPhase::WaitingIoIdle => self.begin_dump(),
            SysPhase::Recovering(RecoveryStage::WaitIo) => {
                if self.buffered && self.cfg.buffered_recovery() {
                    self.begin_stage2();
                } else {
                    self.begin_stage1();
                }
            }
            _ => {}
        }
    }

    fn begin_dump(&mut self) {
        debug_assert_eq!(self.io, IoState::Idle);
        self.phase = SysPhase::Dumping;
        self.schedule(Event::DumpDone, self.derived.dump_time);
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::CheckpointTrigger => self.on_checkpoint_trigger(),
            Event::QuiesceArrive => self.on_quiesce_arrive(),
            Event::CoordinationDone => self.on_coordination_done(),
            Event::MasterTimeout => self.on_master_timeout(),
            Event::DumpDone => self.on_dump_done(),
            Event::CkptFsWriteDone => self.on_fs_write_done(),
            Event::AppPhaseEnd => self.on_app_phase_end(),
            Event::AppDataWriteDone => self.on_app_data_done(),
            Event::ComputeFailure => self.on_compute_failure(),
            Event::IoFailure => self.on_io_failure(),
            Event::MasterFailure => self.on_master_failure(),
            Event::GenericFailure => self.on_generic_failure(),
            Event::RecoveryStage1Done => self.on_stage1_done(),
            Event::RecoveryStage2Done => self.on_stage2_done(),
            Event::IoRestartDone => self.on_io_restart_done(),
            Event::RebootDone => self.on_reboot_done(),
            Event::WindowClose => self.on_window_close(),
        }
    }

    fn on_checkpoint_trigger(&mut self) {
        debug_assert_eq!(self.phase, SysPhase::Executing);
        self.record(TraceEvent::CheckpointInitiated);
        self.schedule(Event::QuiesceArrive, self.derived.quiesce_latency);
        if let Some(t) = self.cfg.timeout() {
            self.schedule(Event::MasterTimeout, t);
        }
    }

    fn on_quiesce_arrive(&mut self) {
        debug_assert_eq!(self.phase, SysPhase::Executing);
        self.phase = SysPhase::Quiescing;
        match self.app {
            AppPhase::Compute => {
                // Computation stops immediately; coordination begins.
                self.timers.cancel(Event::AppPhaseEnd);
                let y = self.sample_coordination();
                self.schedule(Event::CoordinationDone, y);
            }
            AppPhase::Io => {
                // Non-preemptive I/O: coordination starts when the I/O
                // phase completes (handled in on_app_phase_end).
            }
        }
    }

    fn on_coordination_done(&mut self) {
        debug_assert_eq!(self.phase, SysPhase::Quiescing);
        self.timers.cancel(Event::MasterTimeout);
        self.record(TraceEvent::CoordinationComplete);
        self.w_candidate = self.w;
        if self.io == IoState::Idle {
            self.begin_dump();
        } else {
            self.phase = SysPhase::WaitingIoIdle;
        }
    }

    fn on_master_timeout(&mut self) {
        // Normally fires in Quiescing; with a pathological timeout shorter
        // than the broadcast latency it can fire while still Executing.
        debug_assert!(matches!(
            self.phase,
            SysPhase::Quiescing | SysPhase::Executing
        ));
        self.counters.checkpoints_aborted_timeout += 1;
        self.record(TraceEvent::CheckpointAborted(AbortReason::Timeout));
        self.abort_checkpoint();
    }

    fn on_dump_done(&mut self) {
        debug_assert_eq!(self.phase, SysPhase::Dumping);
        debug_assert_eq!(self.io, IoState::Idle);
        self.counters.checkpoints_completed += 1;
        self.record(TraceEvent::CheckpointCompleted);
        self.buffered = true;
        self.w_buffered = self.w_candidate;
        self.io = IoState::WritingCkpt;
        self.schedule(Event::CkptFsWriteDone, self.derived.fs_write_time);
        if self.cfg.background_checkpoint_write() {
            self.resume_execution();
        } else {
            // Ablation: block until the file-system write completes.
            self.phase = SysPhase::Dumping;
        }
    }

    fn on_fs_write_done(&mut self) {
        debug_assert_eq!(self.io, IoState::WritingCkpt);
        self.record(TraceEvent::CheckpointOnFs);
        self.w_fs = self.w_buffered;
        if !self.cfg.background_checkpoint_write() && self.phase == SysPhase::Dumping {
            self.io = IoState::Idle;
            self.resume_execution();
            return;
        }
        self.io_became_idle();
    }

    /// An application phase ended outside the executing phase, where
    /// `run_app_cycle` handles it.
    fn on_app_phase_end(&mut self) {
        match (self.phase, self.app) {
            (SysPhase::Quiescing, AppPhase::Io) => {
                // The quiesce was waiting for this I/O to finish.
                self.app = AppPhase::Compute;
                self.start_app_data_write();
                let y = self.sample_coordination();
                self.schedule(Event::CoordinationDone, y);
            }
            (phase, app) => {
                debug_assert!(false, "AppPhaseEnd in phase {phase:?} app {app:?}");
            }
        }
    }

    /// The application's cycle data is buffered on the I/O nodes; write
    /// it to the file system in the background if they are free.
    fn start_app_data_write(&mut self) {
        let write_time = self.derived.app_data_write_time;
        if write_time.is_zero() {
            return;
        }
        if self.io == IoState::Idle {
            self.io = IoState::WritingAppData;
            self.schedule(Event::AppDataWriteDone, write_time);
        }
        // If the I/O nodes are busy the data simply stays buffered; the
        // model does not queue a separate write (the next cycle's write
        // covers it).
    }

    /// The app-data write finished outside the executing phase, where
    /// `run_app_cycle` handles it.
    fn on_app_data_done(&mut self) {
        debug_assert_ne!(self.phase, SysPhase::Executing);
        debug_assert_eq!(self.io, IoState::WritingAppData);
        self.io_became_idle();
    }

    fn on_compute_failure(&mut self) {
        self.counters.compute_failures += 1;
        // Draw the next arrival of this Poisson stream.
        let rate = self.derived.compute_failure_rate * self.rate_factor();
        let d = self.rng_compute.exponential(rate);
        self.schedule(Event::ComputeFailure, SimTime::from_secs(d));
        self.maybe_spatial_co_failure();
        self.apply_compute_failure();
    }

    /// Extension: with probability `spatial_correlation`, the failing
    /// compute node takes its I/O node down with it (shared rack/power
    /// domain), destroying the buffered checkpoint an instant before the
    /// rollback that needs it.
    fn maybe_spatial_co_failure(&mut self) {
        let Some(p) = self.cfg.spatial_correlation() else {
            return;
        };
        if self.phase == SysPhase::Rebooting {
            return;
        }
        if matches!(self.io, IoState::Restarting | IoState::Down) {
            return;
        }
        if !self.rng_spatial.bernoulli(p) {
            return;
        }
        self.counters.spatial_co_failures += 1;
        self.timers.cancel(Event::AppDataWriteDone);
        self.timers.cancel(Event::CkptFsWriteDone);
        self.timers.cancel(Event::RecoveryStage1Done);
        self.buffered = false;
        self.io = IoState::Restarting;
        let t = self.sample_io_restart();
        self.schedule(Event::IoRestartDone, t);
    }

    fn on_generic_failure(&mut self) {
        self.counters.generic_failures += 1;
        let rate = self.derived.generic_correlated_rate;
        let d = self.rng_generic.exponential(rate);
        self.schedule(Event::GenericFailure, SimTime::from_secs(d));
        self.apply_compute_failure();
    }

    /// Common effect of a compute-node (or generic correlated) failure.
    fn apply_compute_failure(&mut self) {
        match self.phase {
            SysPhase::Rebooting => {}
            SysPhase::Recovering(_) => self.recovery_failed(),
            SysPhase::Executing
            | SysPhase::Quiescing
            | SysPhase::WaitingIoIdle
            | SysPhase::Dumping => {
                self.consecutive_failed_recoveries = 0;
                self.rollback_and_recover();
            }
        }
    }

    fn on_io_failure(&mut self) {
        self.record(TraceEvent::IoFailure);
        self.counters.io_failures += 1;
        let rate = self.derived.io_failure_rate * self.rate_factor();
        let d = self.rng_io.exponential(rate);
        self.schedule(Event::IoFailure, SimTime::from_secs(d));

        if self.phase == SysPhase::Rebooting {
            return;
        }
        match self.io {
            IoState::Restarting => {
                // Already restarting; a further failure folds into the
                // ongoing restart.
            }
            IoState::Down => {}
            IoState::WritingAppData => {
                // Application results are lost: the computation rolls
                // back too, and the buffers perish with the restart.
                self.timers.cancel(Event::AppDataWriteDone);
                self.buffered = false;
                self.io = IoState::Restarting;
                let t = self.sample_io_restart();
                self.schedule(Event::IoRestartDone, t);
                self.consecutive_failed_recoveries = 0;
                self.rollback_and_recover();
            }
            IoState::WritingCkpt => {
                // The in-flight checkpoint is aborted; the previous one on
                // the file system stays valid. Compute nodes are not
                // affected unless they were mid-protocol.
                self.counters.checkpoints_aborted_io += 1;
                self.record(TraceEvent::CheckpointAborted(AbortReason::IoFailure));
                self.timers.cancel(Event::CkptFsWriteDone);
                self.buffered = false;
                self.io = IoState::Restarting;
                let t = self.sample_io_restart();
                self.schedule(Event::IoRestartDone, t);
                if self.phase == SysPhase::Recovering(RecoveryStage::Reinit) {
                    // Stage 2 was reading from the buffers that just died.
                    self.timers.cancel(Event::RecoveryStage2Done);
                    self.recovery_failed();
                }
            }
            IoState::ReadingCkpt => {
                // Failure during recovery stage 1.
                self.timers.cancel(Event::RecoveryStage1Done);
                self.io = IoState::Restarting;
                let t = self.sample_io_restart();
                self.schedule(Event::IoRestartDone, t);
                self.recovery_failed();
            }
            IoState::Idle => {
                self.io = IoState::Restarting;
                let t = self.sample_io_restart();
                self.schedule(Event::IoRestartDone, t);
                if self.phase == SysPhase::Recovering(RecoveryStage::Reinit) {
                    self.timers.cancel(Event::RecoveryStage2Done);
                    self.buffered = false;
                    self.recovery_failed();
                } else if self.phase == SysPhase::Dumping {
                    // The dump's receiving side died: abort the attempt.
                    self.counters.checkpoints_aborted_io += 1;
                    self.record(TraceEvent::CheckpointAborted(AbortReason::IoFailure));
                    self.abort_checkpoint();
                }
            }
        }
    }

    fn on_master_failure(&mut self) {
        let rate = self.derived.node_failure_rate * self.rate_factor();
        let d = self.rng_master.exponential(rate);
        self.schedule(Event::MasterFailure, SimTime::from_secs(d));
        match self.phase {
            SysPhase::Quiescing | SysPhase::WaitingIoIdle | SysPhase::Dumping => {
                self.counters.master_failures += 1;
                self.counters.checkpoints_aborted_master += 1;
                self.record(TraceEvent::CheckpointAborted(AbortReason::MasterFailure));
                self.abort_checkpoint();
            }
            _ => {
                // Outside checkpointing the master recovers independently
                // and the computation is unaffected.
            }
        }
    }

    fn on_stage1_done(&mut self) {
        debug_assert_eq!(self.phase, SysPhase::Recovering(RecoveryStage::ReadBack));
        debug_assert_eq!(self.io, IoState::ReadingCkpt);
        self.io = IoState::Idle;
        // The checkpoint is now buffered in the I/O nodes' memories.
        self.buffered = true;
        self.w_buffered = self.w_fs;
        self.begin_stage2();
    }

    fn on_stage2_done(&mut self) {
        debug_assert_eq!(self.phase, SysPhase::Recovering(RecoveryStage::Reinit));
        self.record(TraceEvent::RecoveryComplete);
        self.counters.recoveries += 1;
        self.consecutive_failed_recoveries = 0;
        self.close_window();
        self.resume_execution();
    }

    fn on_io_restart_done(&mut self) {
        debug_assert_eq!(self.io, IoState::Restarting);
        self.io_became_idle();
    }

    fn on_reboot_done(&mut self) {
        debug_assert_eq!(self.phase, SysPhase::Rebooting);
        self.record(TraceEvent::RebootComplete);
        self.consecutive_failed_recoveries = 0;
        self.io = IoState::Idle;
        self.buffered = false;
        // I/O processors are ready; compute nodes still must read the
        // last checkpoint and recover. Recovery must begin before the
        // failure streams restart: while phase == Rebooting the
        // rescheduler keeps them off.
        self.start_recovery();
        self.reschedule_failure_streams();
    }

    fn on_window_close(&mut self) {
        self.record(TraceEvent::WindowClosed);
        self.window_open = false;
        self.reschedule_failure_streams();
    }
}

/// The instant useful work at `w` reaches `target` if it keeps
/// accruing from `now` with no event in between.
fn crossing(now: SimTime, w: f64, target: f64) -> SimTime {
    now + SimTime::from_secs(target - w)
}

impl fmt::Debug for DirectSimulator<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DirectSimulator")
            .field("now", &self.now)
            .field("phase", &self.phase)
            .field("io", &self.io)
            .field("events", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests;
