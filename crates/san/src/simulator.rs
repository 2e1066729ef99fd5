//! Discrete-event execution of a SAN.

use crate::activity::{ActivityId, Reactivation, Timing};
use crate::error::SanError;
use crate::marking::Marking;
use crate::model::San;
use crate::reward::{RewardReport, RewardSpec, RewardValue};
use ckpt_des::prof::{HotPhase, PhaseProfile, PhaseProfiler};
use ckpt_des::telem::{HotTelemetry, TelemetrySnapshot};
use ckpt_des::{EventId, EventQueue, QueueKind, SimRng, SimTime};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Upper bound on instantaneous firings between two time advances before
/// the simulator reports a livelock.
const INSTANTANEOUS_LIMIT: u32 = 100_000;

/// One deferred schedule-reconciliation action (incremental mode).
///
/// The classification pass pushes these in ascending activity order;
/// the batch sampling pass fills `at` for the entries that draw a
/// delay; the apply pass executes the queue operations in the same
/// order. Keeping all three passes in ascending activity order makes
/// the RNG draw sequence AND the queue-operation sequence (hence
/// event-id assignment) identical to the one-activity-at-a-time
/// reference path.
struct PendingOp {
    /// Activity index.
    act: u32,
    /// Absolute completion time, filled in by the sampling pass
    /// (cancels keep `SimTime::ZERO`).
    at: SimTime,
    kind: PendingKind,
}

enum PendingKind {
    /// The activity was disabled while scheduled: abort its completion.
    Cancel(EventId),
    /// The activity became enabled: draw a delay and schedule it.
    Schedule,
    /// A `Resample` activity saw a marking change while scheduled:
    /// redraw and move its completion in place.
    Reschedule(EventId),
}

/// Which scheduling strategy a [`Simulator`] uses to reconcile activity
/// schedules after each firing.
///
/// Both strategies are **bit-identical**: same RNG draw sequence, same
/// firing order, same rewards, same final marking. The full scan is kept
/// as the reference executor (and as an equivalence oracle in tests and
/// benchmarks); the incremental scheduler is the default because its
/// per-event cost is proportional to what the firing actually changed,
/// not to the total number of activities in the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// Visit only activities whose dependency set (input-arc places ∪
    /// declared [`InputGate::reads`](crate::InputGate::reads) sets)
    /// intersects the places dirtied by the current event, plus the
    /// conservatively re-checked "global" activities (undeclared gates,
    /// `Resample` timers). The default.
    #[default]
    Incremental,
    /// Re-examine every activity after every event — the original O(A)
    /// reference behaviour.
    FullScan,
}

/// How a [`Simulator`] realises the [`Reactivation::Resample`] policy
/// for timers whose delay is a marking-independent exponential.
///
/// [`ReactivationMode::Resample`] (the default) redraws the delay and
/// moves the queue entry on every marking change — the reference
/// behaviour, bit-identical to the original executor. For an
/// exponential that is pure overhead: by memorylessness the remaining
/// delay conditioned on "not yet fired" has exactly the original
/// distribution, so [`ReactivationMode::Lazy`] keeps the scheduled
/// completion instead, skipping the redraw *and* the queue move.
///
/// Lazy mode is **distribution-equivalent, not bit-identical**: skipped
/// draws shift the RNG stream, so a lazy run is statistically a new
/// stream over the same model (validated by the KS/moment and
/// CI-overlap suites). Timers with
/// marking-dependent delays ([`crate::Delay::MarkingDependent`]) are
/// never elided — a rate modulated by the marking must be observed at
/// the marking change — and [`Reactivation::Keep`] timers are
/// untouched by either mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReactivationMode {
    /// Redraw `Resample` timers on every marking change (reference).
    #[default]
    Resample,
    /// Keep marking-independent exponential timers in place; redraw
    /// only marking-dependent ones.
    Lazy,
}

impl ReactivationMode {
    /// Stable lowercase name, as accepted by [`ReactivationMode::parse`].
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ReactivationMode::Resample => "resample",
            ReactivationMode::Lazy => "lazy",
        }
    }

    /// Parses a mode name as written on a command line.
    ///
    /// # Errors
    ///
    /// Returns a message naming the valid values.
    pub fn parse(s: &str) -> Result<ReactivationMode, String> {
        match s {
            "resample" => Ok(ReactivationMode::Resample),
            "lazy" => Ok(ReactivationMode::Lazy),
            other => Err(format!(
                "unknown reactivation mode '{other}' (resample|lazy)"
            )),
        }
    }
}

impl fmt::Display for ReactivationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Cold per-reward state: consulted when registering, reporting, or
/// accruing impulses, but not on the per-event integration path (whose
/// working set lives in the simulator's dense parallel arrays).
struct RewardState {
    spec: RewardSpec,
    impulse_count: u64,
}

/// How [`Simulator::integrate_to`] obtains a reward's current rate.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RateMode {
    /// No rate component (impulse-only reward): skip.
    NoRate,
    /// Evaluate the rate closure against the marking every step.
    Evaluate,
    /// Read the cached value maintained by
    /// [`Simulator::refresh_dirty_rate_caches`] (declared
    /// [`RewardSpec::reads`] support under incremental scheduling).
    Cached,
}

/// Receives notifications from a running [`Simulator`].
///
/// The executor is model-agnostic, so its observation surface is too:
/// every activity firing (timed and instantaneous) and every impulse
/// reward accrual is reported, with the post-firing marking available
/// for inspection. Model-aware layers (e.g. the checkpoint model in
/// `ckpt-core`) translate these into domain events.
///
/// Observers are pure consumers: they receive references to state the
/// simulator already computed and cannot influence the run, so results
/// with an observer attached are bit-identical to an unobserved run.
pub trait SanObserver {
    /// `activity` (named `name`) fired at `at`, leaving `marking`.
    fn activity_fired(&mut self, at: SimTime, name: &str, marking: &Marking);

    /// An impulse of reward variable `name` accrued on a firing,
    /// bringing its running total to `total`.
    fn reward_updated(&mut self, _at: SimTime, _name: &str, _total: f64) {}
}

/// Executes a [`San`] under standard SAN simulation semantics:
///
/// * an activity is *enabled* while its input arcs are satisfied and all
///   input-gate predicates hold;
/// * enabled **instantaneous** activities fire immediately, highest
///   priority first (ties by definition order);
/// * enabled **timed** activities sample a completion delay when they
///   become enabled; if they become disabled the sampled completion is
///   **aborted**, and on other marking changes the
///   [`Reactivation`] policy decides whether the sample is kept or
///   redrawn;
/// * on completion, input arcs are consumed, input-gate functions run, a
///   probabilistic case is selected by (marking-dependent) weights, and
///   the case's output arcs/gates are applied;
/// * between events, fluid places and rate rewards are integrated over
///   the constant marking.
///
/// See the [crate-level example](crate).
pub struct Simulator<'m> {
    san: &'m San,
    marking: Marking,
    now: SimTime,
    queue: EventQueue<ActivityId>,
    scheduled: Vec<Option<EventId>>,
    sampled_version: Vec<u64>,
    rng: SimRng,
    rewards: Vec<RewardState>,
    /// Running totals, parallel to `rewards`. Split out of
    /// [`RewardState`] so the per-event integration loop walks a dense
    /// f64 array instead of striding over the full (spec-carrying)
    /// reward structs.
    totals: Vec<f64>,
    /// How to obtain each reward's rate during integration; parallel to
    /// `rewards`.
    rate_mode: Vec<RateMode>,
    /// `rate(marking)` as of the last support change, for
    /// [`RateMode::Cached`] rewards; parallel to `rewards`.
    rate_cache: Vec<f64>,
    /// Reward name → index into `rewards`; shared with every
    /// [`RewardReport`] this simulator hands out, so producing a report
    /// does not rebuild a `HashMap` per call.
    reward_names: Arc<HashMap<String, usize>>,
    /// Place index → declared-support rate rewards reading it; drives
    /// dirty-place-gated cache refresh under incremental scheduling.
    rate_by_place: Vec<Vec<u32>>,
    /// Activity index → `(reward index, impulse index)` pairs, so firing
    /// only touches rewards that actually attach an impulse to it.
    impulse_map: Vec<Vec<(u32, u32)>>,
    firing_counts: Vec<u64>,
    /// Running total of firings; kept so `events_processed` is O(1).
    events_total: u64,
    window_start: SimTime,
    observer: Option<&'m mut dyn SanObserver>,
    scheduling: Scheduling,
    reactivation: ReactivationMode,
    /// Reused per multi-case firing; never reallocated in steady state.
    weights_scratch: Vec<f64>,
    /// Visit bitmask scratch for incremental reconciliation: one bit per
    /// timed activity to revisit this event.
    timed_acc: Vec<u64>,
    /// Candidate bitmask scratch for incremental settling: one bit per
    /// instantaneous activity that may have become enabled.
    inst_acc: Vec<u64>,
    /// Deferred reconciliation actions; reused across events, never
    /// reallocated in steady state.
    pending: Vec<PendingOp>,
    /// Hot-phase wall-time attribution; a no-op unless the `prof`
    /// feature is enabled (see [`ckpt_des::prof`]).
    prof: PhaseProfiler,
    /// Queue-depth / dirty-set distribution probes; zero-sized no-ops
    /// unless the `telemetry` feature is enabled (see
    /// [`ckpt_des::telem`]).
    telem: HotTelemetry,
}

impl<'m> Simulator<'m> {
    /// Creates a simulator over `san` seeded with `seed`, settles any
    /// initially enabled instantaneous activities, and schedules the
    /// initially enabled timed ones. Uses [`Scheduling::Incremental`];
    /// see [`Simulator::with_scheduling`] to choose.
    ///
    /// # Errors
    ///
    /// Returns [`SanError`] if the initial settling livelocks or a delay
    /// sampler misbehaves.
    pub fn new(san: &'m San, seed: u64) -> Result<Simulator<'m>, SanError> {
        Simulator::with_scheduling(san, seed, Scheduling::default())
    }

    /// Creates a simulator with an explicit [`Scheduling`] strategy and
    /// the default reactivation mode and queue backend.
    ///
    /// # Errors
    ///
    /// Returns [`SanError`] if the initial settling livelocks or a delay
    /// sampler misbehaves.
    pub fn with_scheduling(
        san: &'m San,
        seed: u64,
        scheduling: Scheduling,
    ) -> Result<Simulator<'m>, SanError> {
        Simulator::with_exec_options(
            san,
            seed,
            scheduling,
            ReactivationMode::default(),
            QueueKind::default(),
        )
    }

    /// Creates a simulator with every execution switch explicit:
    /// [`Scheduling`], [`ReactivationMode`], and the event-queue backend
    /// ([`QueueKind`]).
    ///
    /// The defaults (`Incremental`, `Resample`, `IndexedHeap`) are the
    /// pinned bit-identical reference; `Lazy` is a
    /// distribution-equivalent opt-in, while `Calendar` is bit-identical
    /// (both backends pop the same `(time, FIFO)` order).
    ///
    /// # Errors
    ///
    /// Returns [`SanError`] if the initial settling livelocks or a delay
    /// sampler misbehaves.
    pub fn with_exec_options(
        san: &'m San,
        seed: u64,
        scheduling: Scheduling,
        reactivation: ReactivationMode,
        queue: QueueKind,
    ) -> Result<Simulator<'m>, SanError> {
        let n = san.activities.len();
        let mut sim = Simulator {
            san,
            marking: san.initial_marking(),
            now: SimTime::ZERO,
            queue: EventQueue::with_kind(queue),
            scheduled: vec![None; n],
            sampled_version: vec![0; n],
            rng: SimRng::seed_from_u64(seed),
            rewards: Vec::new(),
            totals: Vec::new(),
            rate_mode: Vec::new(),
            rate_cache: Vec::new(),
            reward_names: Arc::new(HashMap::new()),
            rate_by_place: vec![Vec::new(); san.place_count()],
            impulse_map: vec![Vec::new(); n],
            firing_counts: vec![0; n],
            events_total: 0,
            window_start: SimTime::ZERO,
            observer: None,
            scheduling,
            reactivation,
            weights_scratch: Vec::new(),
            timed_acc: vec![0; san.compiled.mask_words],
            inst_acc: vec![0; san.compiled.mask_words],
            pending: Vec::with_capacity(n),
            prof: PhaseProfiler::new(),
            telem: HotTelemetry::new(),
        };
        // Initialization settles and schedules with the full scan in both
        // modes: it visits every activity in ascending index order, which
        // is exactly what the incremental scheduler must be equivalent to,
        // and there is no previous event to diff against.
        sim.settle_instantaneous()?;
        sim.update_schedules()?;
        Ok(sim)
    }

    /// The scheduling strategy this simulator runs with.
    #[must_use]
    pub fn scheduling(&self) -> Scheduling {
        self.scheduling
    }

    /// The reactivation mode this simulator runs with.
    #[must_use]
    pub fn reactivation(&self) -> ReactivationMode {
        self.reactivation
    }

    /// The event-queue backend this simulator runs on.
    #[must_use]
    pub fn queue_kind(&self) -> QueueKind {
        self.queue.kind()
    }

    /// The hot-phase profile accumulated so far. All-zero unless the
    /// `prof` cargo feature is enabled (check
    /// [`ckpt_des::prof::ENABLED`]).
    #[must_use]
    pub fn phase_profile(&self) -> &PhaseProfile {
        self.prof.profile()
    }

    /// Returns the accumulated hot-phase profile and resets it.
    pub fn take_phase_profile(&mut self) -> PhaseProfile {
        self.prof.take()
    }

    /// The hot-loop telemetry distributions accumulated so far. Empty
    /// unless the `telemetry` cargo feature is enabled (check
    /// [`ckpt_des::telem::ENABLED`]).
    #[must_use]
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.telem.snapshot()
    }

    /// Registers a reward variable. Rewards accumulate from the moment
    /// they are registered (or from the last [`Simulator::reset_rewards`]).
    ///
    /// # Errors
    ///
    /// Returns [`SanError::DuplicateReward`] if the name is taken.
    pub fn add_reward(&mut self, spec: RewardSpec) -> Result<(), SanError> {
        if self.reward_names.contains_key(spec.name()) {
            return Err(SanError::DuplicateReward {
                name: spec.name().into(),
            });
        }
        let reward_idx = u32::try_from(self.rewards.len()).expect("more than 2^32 rewards");
        Arc::make_mut(&mut self.reward_names).insert(spec.name().to_string(), self.rewards.len());
        for (impulse_idx, (act, _)) in spec.impulses().iter().enumerate() {
            let impulse_idx = u32::try_from(impulse_idx).expect("more than 2^32 impulses");
            self.impulse_map[act.0].push((reward_idx, impulse_idx));
        }
        // Rate rewards with a declared support are cached under
        // incremental scheduling: the rate is evaluated now and
        // re-evaluated only when a support place changes, instead of on
        // every integration step. The full scan has no dirty-place
        // information, so it keeps evaluating directly — same bits,
        // original cost.
        let mut rate_mode = RateMode::NoRate;
        let mut cached_rate = 0.0;
        if let Some(rate) = spec.rate_fn() {
            rate_mode = RateMode::Evaluate;
            if let Some(reads) = spec.rate_reads() {
                if self.scheduling == Scheduling::Incremental {
                    rate_mode = RateMode::Cached;
                    cached_rate = rate(&self.marking);
                    for p in reads {
                        self.rate_by_place[p.0].push(reward_idx);
                    }
                }
            }
        }
        self.rewards.push(RewardState {
            spec,
            impulse_count: 0,
        });
        self.totals.push(0.0);
        self.rate_mode.push(rate_mode);
        self.rate_cache.push(cached_rate);
        Ok(())
    }

    /// Attaches an observer notified of every subsequent activity
    /// firing and impulse-reward accrual. Observation never affects
    /// simulation results (see [`SanObserver`]).
    pub fn set_observer(&mut self, observer: &'m mut dyn SanObserver) {
        self.observer = Some(observer);
    }

    /// Detaches the observer, if any.
    pub fn clear_observer(&mut self) {
        self.observer = None;
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to the current marking.
    #[must_use]
    pub fn marking(&self) -> &Marking {
        &self.marking
    }

    /// How many times `activity` has fired since construction.
    #[must_use]
    pub fn firing_count(&self, activity: ActivityId) -> u64 {
        self.firing_counts[activity.0]
    }

    /// Total number of activity firings (timed and instantaneous) since
    /// construction — the SAN analogue of "events processed", used for
    /// throughput reporting. Maintained as a running counter, so this is
    /// O(1) and safe to poll per event.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_total
    }

    /// Zeroes all reward accumulators and restarts the observation
    /// window at the current time — the "transient discard" step of
    /// steady-state simulation.
    pub fn reset_rewards(&mut self) {
        self.totals.fill(0.0);
        for r in &mut self.rewards {
            r.impulse_count = 0;
        }
        self.window_start = self.now;
    }

    /// Snapshot of all reward variables over the current window.
    #[must_use]
    pub fn reward_report(&self) -> RewardReport {
        let window = (self.now - self.window_start).as_secs();
        let values: Vec<RewardValue> = self
            .rewards
            .iter()
            .zip(&self.totals)
            .map(|(r, &total)| RewardValue {
                total,
                window,
                impulse_count: r.impulse_count,
            })
            .collect();
        RewardReport::new(Arc::clone(&self.reward_names), values)
    }

    /// Runs for `duration` of simulated time from the current instant.
    ///
    /// # Errors
    ///
    /// Returns [`SanError`] on instantaneous livelock or invalid sampled
    /// delays.
    pub fn run_for(&mut self, duration: SimTime) -> Result<(), SanError> {
        self.run_until(self.now + duration)
    }

    /// Runs until `condition` holds on the marking (checked after every
    /// event) or until `horizon`. Returns the time the condition first
    /// held, or `None` if the horizon struck first.
    ///
    /// # Errors
    ///
    /// Returns [`SanError`] on instantaneous livelock or invalid sampled
    /// delays.
    pub fn run_until_condition<P>(
        &mut self,
        condition: P,
        horizon: SimTime,
    ) -> Result<Option<SimTime>, SanError>
    where
        P: Fn(&Marking) -> bool,
    {
        if condition(&self.marking) {
            return Ok(Some(self.now));
        }
        loop {
            let span = self.prof.begin();
            let ev = self.queue.pop_before(horizon);
            self.prof.end(HotPhase::QueueOps, span);
            let Some(ev) = ev else { break };
            let t = ev.time();
            self.step_event(t, ev.into_payload())?;
            if condition(&self.marking) {
                return Ok(Some(self.now));
            }
        }
        if horizon > self.now {
            self.integrate_to(horizon);
            self.now = horizon;
        }
        Ok(None)
    }

    /// Runs until the absolute time `horizon`. Events exactly at the
    /// horizon fire; integration closes the window exactly at `horizon`.
    ///
    /// # Errors
    ///
    /// Returns [`SanError`] on instantaneous livelock or invalid sampled
    /// delays.
    pub fn run_until(&mut self, horizon: SimTime) -> Result<(), SanError> {
        loop {
            let span = self.prof.begin();
            let ev = self.queue.pop_before(horizon);
            self.prof.end(HotPhase::QueueOps, span);
            let Some(ev) = ev else { break };
            let t = ev.time();
            self.step_event(t, ev.into_payload())?;
        }
        if horizon > self.now {
            self.integrate_to(horizon);
            self.now = horizon;
        }
        Ok(())
    }

    /// Processes one timed completion at `t`: advance the clock, fire,
    /// settle instantaneous activities, reconcile timed schedules.
    ///
    /// The whole body runs under an `event_dispatch` span whose nested
    /// instrumented regions (integration, firing, settle,
    /// reconciliation, sampling, queue ops) are attributed to their own
    /// phases — what remains in `event_dispatch` is the per-event
    /// bookkeeping glue, previously invisible as unattributed time.
    fn step_event(&mut self, t: SimTime, activity: ActivityId) -> Result<(), SanError> {
        let dispatch = self.prof.begin();
        self.telem.record_queue_depth(self.queue.len());
        // `ENABLED` is a compile-time constant, so the occupancy scan
        // (calendar backend only) vanishes entirely from non-telemetry
        // builds.
        if ckpt_des::telem::ENABLED {
            if let Some(occ) = self.queue.band_occupancy() {
                self.telem.record_band_occupancy(occ);
            }
        }
        self.integrate_to(t);
        self.now = t;
        self.scheduled[activity.0] = None;
        let result = match self.scheduling {
            Scheduling::FullScan => self.step_full_scan(activity),
            Scheduling::Incremental => self.step_incremental(activity),
        };
        self.prof
            .end_excluding_nested(HotPhase::EventDispatch, dispatch);
        result
    }

    fn step_full_scan(&mut self, activity: ActivityId) -> Result<(), SanError> {
        self.fire(activity)?;
        let span = self.prof.begin();
        self.settle_instantaneous()?;
        self.prof
            .end_excluding_nested(HotPhase::InstantaneousSettle, span);
        let span = self.prof.begin();
        self.update_schedules()?;
        self.prof
            .end_excluding_nested(HotPhase::ScheduleReconciliation, span);
        Ok(())
    }

    fn step_incremental(&mut self, activity: ActivityId) -> Result<(), SanError> {
        self.marking.begin_dirty_window();
        self.fire(activity)?;
        let span = self.prof.begin();
        self.settle_incremental()?;
        self.prof
            .end_excluding_nested(HotPhase::InstantaneousSettle, span);
        let span = self.prof.begin();
        self.update_schedules_incremental(activity)?;
        self.prof
            .end_excluding_nested(HotPhase::ScheduleReconciliation, span);
        self.refresh_dirty_rate_caches();
        self.telem
            .record_dirty_set(self.marking.dirty_places().len());
        #[cfg(debug_assertions)]
        self.assert_schedule_consistency();
        Ok(())
    }

    /// Re-evaluates declared-support rate-reward caches whose support
    /// intersects the places dirtied by the current event. Rewards whose
    /// support did not change keep their cache — their rate function
    /// promised (via [`RewardSpec::reads`]) to depend on nothing else,
    /// so the cached value still equals a fresh evaluation.
    fn refresh_dirty_rate_caches(&mut self) {
        let marking = &self.marking;
        let rewards = &self.rewards;
        let rate_cache = &mut self.rate_cache;
        for &p in marking.dirty_places() {
            for &ri in &self.rate_by_place[p as usize] {
                let rate = rewards[ri as usize]
                    .spec
                    .rate_fn()
                    .expect("cached reward has a rate");
                rate_cache[ri as usize] = rate(marking);
            }
        }
    }

    /// Advances fluid places and rate rewards over `[self.now, to)`.
    fn integrate_to(&mut self, to: SimTime) {
        let dt = (to - self.now).as_secs();
        if dt <= 0.0 {
            return;
        }
        let span = self.prof.begin();
        for (fluid, rate) in &self.san.flows {
            let r = rate(&self.marking);
            if r != 0.0 {
                self.marking.integrate_fluid(*fluid, r * dt);
            }
        }
        let marking = &self.marking;
        let rewards = &self.rewards;
        let rate_cache = &self.rate_cache;
        let totals = &mut self.totals;
        for (k, &mode) in self.rate_mode.iter().enumerate() {
            // Cached reads hold `rate(marking)` as of the last support
            // change; `v != 0.0` mirrors the evaluated path's guard so
            // the accumulated total is bit-identical either way.
            let v = match mode {
                RateMode::NoRate => continue,
                RateMode::Cached => rate_cache[k],
                RateMode::Evaluate => {
                    let rate = rewards[k].spec.rate_fn().expect("rate mode has a rate");
                    rate(marking)
                }
            };
            if v != 0.0 {
                totals[k] += v * dt;
            }
        }
        self.prof.end(HotPhase::RewardAccumulation, span);
    }

    /// Fires one activity: consume inputs, run gates, pick a case, apply
    /// outputs, record impulses.
    fn fire(&mut self, id: ActivityId) -> Result<(), SanError> {
        let span = self.prof.begin();
        let result = self.fire_inner(id);
        self.prof.end(HotPhase::ActivityFiring, span);
        result
    }

    fn fire_inner(&mut self, id: ActivityId) -> Result<(), SanError> {
        let san = self.san;
        let def = &san.activities[id.0];
        debug_assert!(
            def.enabled(&self.marking),
            "activity '{}' fired while disabled — scheduling bug",
            def.name
        );
        // Select the case on the pre-firing marking. The single-case fast
        // path draws no randomness and touches no weight buffer.
        let case_idx = if def.cases.len() == 1 {
            0
        } else {
            self.weights_scratch.clear();
            self.weights_scratch
                .extend(def.cases.iter().map(|c| c.weight.eval(&self.marking)));
            let weights = &self.weights_scratch;
            if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
                return Err(SanError::BadCaseWeights {
                    activity: def.name.clone(),
                });
            }
            let total: f64 = weights.iter().sum();
            if total <= 0.0 {
                return Err(SanError::BadCaseWeights {
                    activity: def.name.clone(),
                });
            }
            let mut x = self.rng.open_unit() * total;
            let mut chosen = weights.len() - 1;
            for (i, w) in weights.iter().enumerate() {
                if x < *w {
                    chosen = i;
                    break;
                }
                x -= w;
            }
            chosen
        };

        for &(p, count) in &def.input_arcs {
            self.marking.remove_tokens(p, count);
        }
        for g in &def.input_gates {
            g.apply(&mut self.marking);
        }
        let case = &def.cases[case_idx];
        for &(p, count) in &case.output_arcs {
            self.marking.add_tokens(p, count);
        }
        for g in &case.output_gates {
            g.apply(&mut self.marking);
        }
        self.firing_counts[id.0] += 1;
        self.events_total += 1;

        // Impulse rewards attached to this activity, in registration
        // order (same order the reward-list scan used to produce).
        for &(reward_idx, impulse_idx) in &self.impulse_map[id.0] {
            let r = &mut self.rewards[reward_idx as usize];
            let f = &r.spec.impulses()[impulse_idx as usize].1;
            let total = self.totals[reward_idx as usize] + f(&self.marking);
            self.totals[reward_idx as usize] = total;
            r.impulse_count += 1;
            if let Some(obs) = self.observer.as_deref_mut() {
                obs.reward_updated(self.now, r.spec.name(), total);
            }
        }
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.activity_fired(self.now, &def.name, &self.marking);
        }
        Ok(())
    }

    /// Fires enabled instantaneous activities (highest priority first)
    /// until none remain, re-checking every activity each round — the
    /// full-scan reference path, also used during initialization.
    fn settle_instantaneous(&mut self) -> Result<(), SanError> {
        let mut fired = 0u32;
        loop {
            let mut best: Option<(u32, usize)> = None;
            for (i, def) in self.san.activities.iter().enumerate() {
                if let Timing::Instantaneous { priority } = def.timing {
                    if def.enabled(&self.marking) {
                        let better = match best {
                            None => true,
                            Some((bp, _)) => priority > bp,
                        };
                        if better {
                            best = Some((priority, i));
                        }
                    }
                }
            }
            let Some((_, idx)) = best else {
                return Ok(());
            };
            self.fire(ActivityId(idx))?;
            fired += 1;
            if fired > INSTANTANEOUS_LIMIT {
                return Err(SanError::InstantaneousLivelock {
                    limit: INSTANTANEOUS_LIMIT,
                });
            }
        }
    }

    /// Incremental settle: between events no instantaneous activity is
    /// enabled (the previous settle reached a fixpoint, and neither
    /// schedule reconciliation nor fluid integration changes discrete
    /// token counts), so the only activities that can have become enabled
    /// are those depending on a place dirtied during this event — plus
    /// the conservatively re-checked global set. The candidate set is a
    /// bitmask: folding a dirty place in is an OR over the precomputed
    /// `place → instantaneous dependents` row. Candidates accumulate as
    /// firings dirty further places; priority order and tie-breaking
    /// match the full scan exactly.
    fn settle_incremental(&mut self) -> Result<(), SanError> {
        let san = self.san;
        let compiled = &san.compiled;
        self.inst_acc.copy_from_slice(&compiled.global_inst_mask);
        let mut consumed = 0usize;
        let mut fired = 0u32;
        loop {
            // Fold places dirtied since the previous round into the
            // candidate set.
            loop {
                let dirty = self.marking.dirty_places();
                if consumed >= dirty.len() {
                    break;
                }
                let p = dirty[consumed] as usize;
                consumed += 1;
                for (acc, &row) in self.inst_acc.iter_mut().zip(compiled.place_inst_row(p)) {
                    *acc |= row;
                }
            }
            if self.inst_acc.iter().all(|&w| w == 0) {
                return Ok(()); // no candidates at all — the common case
            }
            // `inst_priority_order` is sorted (priority desc, index asc),
            // so the first enabled candidate is exactly the activity the
            // full scan's "first maximum" selection would pick.
            let mut chosen = None;
            for &a in &san.deps.inst_priority_order {
                let idx = a as usize;
                if self.inst_acc[idx >> 6] & (1u64 << (idx & 63)) != 0
                    && compiled.enabled(idx, &self.marking)
                {
                    chosen = Some(idx);
                    break;
                }
            }
            let Some(idx) = chosen else {
                return Ok(());
            };
            self.fire(ActivityId(idx))?;
            fired += 1;
            if fired > INSTANTANEOUS_LIMIT {
                return Err(SanError::InstantaneousLivelock {
                    limit: INSTANTANEOUS_LIMIT,
                });
            }
        }
    }

    /// Reconciles timed-activity schedules with the current marking by
    /// examining every activity — the full-scan reference path, also used
    /// during initialization.
    fn update_schedules(&mut self) -> Result<(), SanError> {
        let version = self.marking.version();
        for i in 0..self.san.activities.len() {
            self.reconcile_timed(i, version)?;
        }
        Ok(())
    }

    /// Incremental schedule reconciliation: visits the just-fired
    /// activity (its pop cleared `scheduled`, and it may be immediately
    /// re-enabled without dirtying any place it depends on), every global
    /// activity, and every timed activity depending on a place dirtied
    /// during this event — in ascending activity index, so delay draws
    /// happen in exactly the order the full scan would make them.
    ///
    /// Activities outside that set are provably no-ops under the full
    /// scan: their enabling cannot have changed (their dependency places
    /// did not), so they sit in the `(enabled, scheduled)` states
    /// `(true, Some)` with `Keep` or `(false, None)`, neither of which
    /// draws randomness or touches the queue.
    ///
    /// Three passes, all in ascending activity order:
    ///
    /// 1. **Visit & classify** — the visit set is a bitmask (global row
    ///    OR the dirty places' dependency rows OR the fired bit;
    ///    ascending iteration over set bits replaces the old
    ///    stamp/push/sort scratch machinery), and each visited activity's
    ///    compiled enabling check decides cancel / schedule / reschedule.
    /// 2. **Batch sampling** — all delay draws for this event run
    ///    back-to-back through the block-buffered RNG under a single
    ///    `delay_sampling` span.
    /// 3. **Apply** — all queue operations execute under a single
    ///    `queue_ops` span.
    ///
    /// Queue operations draw no randomness and sampling touches no queue
    /// state, so hoisting all draws ahead of all queue operations leaves
    /// both the RNG stream and the queue-op sequence (hence event-id
    /// assignment and same-time tie-breaking) bit-identical to the
    /// interleaved reference path.
    fn update_schedules_incremental(&mut self, fired: ActivityId) -> Result<(), SanError> {
        let compiled = &self.san.compiled;
        let lazy = self.reactivation == ReactivationMode::Lazy;
        {
            let acc = &mut self.timed_acc;
            // Lazy mode's global row omits elidable `Resample` timers
            // with declared reads: their place rows (which the
            // dependency index also populates for them) cover every
            // marking change that can affect their enabling, and their
            // redraws are skipped anyway.
            acc.copy_from_slice(if lazy {
                &compiled.global_timed_mask_lazy
            } else {
                &compiled.global_timed_mask
            });
            debug_assert!(
                compiled.is_timed(fired.0),
                "queue completed a non-timed activity"
            );
            acc[fired.0 >> 6] |= 1u64 << (fired.0 & 63);
            for &p in self.marking.dirty_places() {
                for (a, &row) in acc.iter_mut().zip(compiled.place_timed_row(p as usize)) {
                    *a |= row;
                }
            }
        }
        let version = self.marking.version();
        let mut pending = std::mem::take(&mut self.pending);
        debug_assert!(pending.is_empty());
        let mut draws = 0usize;
        for w in 0..self.timed_acc.len() {
            let mut bits = self.timed_acc[w];
            while bits != 0 {
                let a = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let enabled = compiled.enabled(a, &self.marking);
                match (enabled, self.scheduled[a]) {
                    (false, Some(ev)) => {
                        // Disabling aborts the activity; draws nothing.
                        self.scheduled[a] = None;
                        pending.push(PendingOp {
                            act: a as u32,
                            at: SimTime::ZERO,
                            kind: PendingKind::Cancel(ev),
                        });
                    }
                    (false, None) => {}
                    (true, Some(ev)) => {
                        if compiled.is_resample(a) && self.sampled_version[a] != version {
                            if lazy && compiled.is_lazy_elidable(a) {
                                // Memoryless: the scheduled completion
                                // already has the distribution a fresh
                                // draw would produce.
                                ckpt_des::telem::note_redraw_elided();
                            } else {
                                draws += 1;
                                pending.push(PendingOp {
                                    act: a as u32,
                                    at: SimTime::ZERO,
                                    kind: PendingKind::Reschedule(ev),
                                });
                            }
                        }
                    }
                    (true, None) => {
                        draws += 1;
                        pending.push(PendingOp {
                            act: a as u32,
                            at: SimTime::ZERO,
                            kind: PendingKind::Schedule,
                        });
                    }
                }
            }
        }
        let result = self.apply_pending(&mut pending, draws, version);
        pending.clear();
        self.pending = pending;
        result
    }

    /// Passes 2 and 3 of incremental reconciliation: batch-sample every
    /// delay, then execute every queue operation, both in the pending
    /// list's (ascending activity) order.
    fn apply_pending(
        &mut self,
        pending: &mut [PendingOp],
        draws: usize,
        version: u64,
    ) -> Result<(), SanError> {
        let san = self.san;
        if draws > 0 {
            let span = self.prof.begin();
            for op in pending.iter_mut() {
                if matches!(op.kind, PendingKind::Cancel(_)) {
                    continue;
                }
                let act = op.act as usize;
                let Timing::Timed(delay) = &san.activities[act].timing else {
                    unreachable!("pending draw for a non-timed activity");
                };
                let d = delay.sample(&self.marking, &mut self.rng);
                if !d.is_finite() || d < 0.0 {
                    self.prof.end(HotPhase::DelaySampling, span);
                    return Err(SanError::BadDelay {
                        activity: san.activities[act].name.clone(),
                        value: d,
                    });
                }
                op.at = self.now + SimTime::from_secs(d);
            }
            self.prof.end(HotPhase::DelaySampling, span);
        }
        if !pending.is_empty() {
            let span = self.prof.begin();
            for op in pending.iter() {
                let act = op.act as usize;
                match op.kind {
                    PendingKind::Cancel(ev) => {
                        self.queue.cancel(ev);
                    }
                    PendingKind::Schedule => {
                        let ev = self.queue.schedule(op.at, ActivityId(act));
                        self.scheduled[act] = Some(ev);
                        self.sampled_version[act] = version;
                    }
                    PendingKind::Reschedule(ev) => {
                        let moved = self.queue.reschedule(ev, op.at);
                        debug_assert!(moved, "rescheduled a stale handle");
                        self.sampled_version[act] = version;
                    }
                }
            }
            self.prof.end(HotPhase::QueueOps, span);
        }
        Ok(())
    }

    /// Brings one timed activity's schedule in line with the marking.
    /// Shared by both scheduling strategies; instantaneous activities are
    /// ignored.
    fn reconcile_timed(&mut self, i: usize, version: u64) -> Result<(), SanError> {
        let def = &self.san.activities[i];
        let Timing::Timed(delay) = &def.timing else {
            return Ok(());
        };
        let enabled = def.enabled(&self.marking);
        match (enabled, self.scheduled[i]) {
            (false, Some(ev)) => {
                // Disabling aborts the activity.
                let span = self.prof.begin();
                self.queue.cancel(ev);
                self.prof.end(HotPhase::QueueOps, span);
                self.scheduled[i] = None;
            }
            (false, None) => {}
            (true, Some(ev)) => {
                if def.reactivation == Reactivation::Resample && self.sampled_version[i] != version
                {
                    if self.reactivation == ReactivationMode::Lazy
                        && self.san.compiled.is_lazy_elidable(i)
                    {
                        // Memoryless: keep the scheduled completion.
                        ckpt_des::telem::note_redraw_elided();
                        return Ok(());
                    }
                    // Redraw in place: cancelling draws no randomness, so
                    // sampling before the queue move keeps the RNG stream
                    // identical to the cancel-then-schedule sequence while
                    // halving the heap traffic. The handle stays valid, so
                    // `scheduled[i]` needs no update.
                    let at = self.sample_delay(i, delay)?;
                    let span = self.prof.begin();
                    let moved = self.queue.reschedule(ev, at);
                    self.prof.end(HotPhase::QueueOps, span);
                    debug_assert!(moved, "rescheduled a stale handle");
                    self.sampled_version[i] = self.marking.version();
                }
            }
            (true, None) => {
                self.schedule_timed(i, delay)?;
            }
        }
        Ok(())
    }

    /// Verifies the incremental scheduler's core invariants against a
    /// ground-truth scan (debug builds only): every timed activity is
    /// scheduled iff enabled, no instantaneous activity is enabled
    /// between events, the compiled enabling check agrees with the
    /// trait-dispatch reference for every activity, and the marking's
    /// dirty bitmask mirrors its dirty list. A schedule violation means
    /// some gate's declared [`reads`](crate::InputGate::reads) set is
    /// stale — its predicate changed without any declared place
    /// changing; a compiled/reference disagreement means a gate-program
    /// compilation bug.
    #[cfg(debug_assertions)]
    fn assert_schedule_consistency(&self) {
        self.marking.assert_dirty_consistency();
        for (i, def) in self.san.activities.iter().enumerate() {
            let reference = def.enabled(&self.marking);
            debug_assert_eq!(
                self.san.compiled.enabled(i, &self.marking),
                reference,
                "compiled enabling check for activity '{}' disagrees with \
                 the trait-dispatch reference — gate-program compilation bug",
                def.name
            );
            match def.timing {
                Timing::Timed(_) => {
                    debug_assert_eq!(
                        reference,
                        self.scheduled[i].is_some(),
                        "timed activity '{}' out of sync with its schedule — \
                         a gate predicate changed without any of its declared \
                         reads() places changing",
                        def.name
                    );
                }
                Timing::Instantaneous { .. } => {
                    debug_assert!(
                        !reference,
                        "instantaneous activity '{}' enabled after settling — \
                         a gate predicate changed without any of its declared \
                         reads() places changing",
                        def.name
                    );
                }
            }
        }
    }

    /// Draws activity `idx`'s firing delay and converts it to an
    /// absolute completion time, validating the sample.
    fn sample_delay(
        &mut self,
        idx: usize,
        delay: &crate::activity::Delay,
    ) -> Result<SimTime, SanError> {
        let span = self.prof.begin();
        let d = delay.sample(&self.marking, &mut self.rng);
        self.prof.end(HotPhase::DelaySampling, span);
        if !d.is_finite() || d < 0.0 {
            return Err(SanError::BadDelay {
                activity: self.san.activities[idx].name.clone(),
                value: d,
            });
        }
        Ok(self.now + SimTime::from_secs(d))
    }

    fn schedule_timed(
        &mut self,
        idx: usize,
        delay: &crate::activity::Delay,
    ) -> Result<(), SanError> {
        let at = self.sample_delay(idx, delay)?;
        let span = self.prof.begin();
        let ev = self.queue.schedule(at, ActivityId(idx));
        self.prof.end(HotPhase::QueueOps, span);
        self.scheduled[idx] = Some(ev);
        self.sampled_version[idx] = self.marking.version();
        Ok(())
    }
}

impl fmt::Debug for Simulator<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("model", &self.san.name())
            .field("now", &self.now)
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::Delay;
    use crate::gate::{InputGate, OutputGate};
    use crate::model::SanBuilder;
    use ckpt_stats::Dist;

    /// up --fail(exp 0.1)--> down --repair(exp 0.9)--> up
    fn repair_model() -> San {
        let mut b = SanBuilder::new("repair");
        let up = b.place("up", 1);
        let down = b.place("down", 0);
        b.timed_activity("fail", Delay::from(Dist::exponential(0.1)))
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build();
        b.timed_activity("repair", Delay::from(Dist::exponential(0.9)))
            .input_arc(down, 1)
            .output_arc(up, 1)
            .build();
        b.build().unwrap()
    }

    #[test]
    fn repair_model_availability() {
        let san = repair_model();
        let up = san.place_by_name("up").unwrap();
        let mut sim = Simulator::new(&san, 1).unwrap();
        sim.add_reward(RewardSpec::rate("avail", move |m| {
            if m.has_token(up) {
                1.0
            } else {
                0.0
            }
        }))
        .unwrap();
        sim.run_for(SimTime::from_secs(200_000.0)).unwrap();
        let a = sim.reward_report().value("avail").unwrap().time_average();
        assert!((a - 0.9).abs() < 0.01, "availability {a}");
    }

    #[test]
    fn deterministic_cycle_counts_firings() {
        let mut b = SanBuilder::new("clock");
        let p = b.place("p", 1);
        let tick = b
            .timed_activity("tick", Delay::from(Dist::deterministic(2.0)))
            .input_arc(p, 1)
            .output_arc(p, 1)
            .build();
        let san = b.build().unwrap();
        let mut sim = Simulator::new(&san, 0).unwrap();
        sim.run_until(SimTime::from_secs(10.0)).unwrap();
        // Fires at t = 2, 4, 6, 8, 10.
        assert_eq!(sim.firing_count(tick), 5);
        assert_eq!(sim.now(), SimTime::from_secs(10.0));
    }

    #[test]
    fn instantaneous_priority_order() {
        // A timed source enables two instantaneous activities; the
        // higher-priority one must fire first and steal the token.
        let mut b = SanBuilder::new("prio");
        let src = b.place("src", 1);
        let trigger = b.place("trigger", 0);
        let hi = b.place("hi", 0);
        let lo = b.place("lo", 0);
        b.timed_activity("arm", Delay::from(Dist::deterministic(1.0)))
            .input_arc(src, 1)
            .output_arc(trigger, 1)
            .build();
        let low = b
            .instantaneous_activity("low", 1)
            .input_arc(trigger, 1)
            .output_arc(lo, 1)
            .build();
        let high = b
            .instantaneous_activity("high", 2)
            .input_arc(trigger, 1)
            .output_arc(hi, 1)
            .build();
        let san = b.build().unwrap();
        let mut sim = Simulator::new(&san, 0).unwrap();
        sim.run_until(SimTime::from_secs(5.0)).unwrap();
        assert_eq!(sim.firing_count(high), 1);
        assert_eq!(sim.firing_count(low), 0);
        assert!(sim.marking().has_token(hi));
        assert!(!sim.marking().has_token(lo));
    }

    #[test]
    fn instantaneous_livelock_is_detected() {
        // Two instantaneous activities ping-ponging a token forever.
        let mut b = SanBuilder::new("livelock");
        let a = b.place("a", 1);
        let c = b.place("c", 0);
        b.instantaneous_activity("ab", 0)
            .input_arc(a, 1)
            .output_arc(c, 1)
            .build();
        b.instantaneous_activity("ba", 0)
            .input_arc(c, 1)
            .output_arc(a, 1)
            .build();
        let san = b.build().unwrap();
        let err = Simulator::new(&san, 0).unwrap_err();
        assert!(matches!(err, SanError::InstantaneousLivelock { .. }));
    }

    #[test]
    fn disabling_aborts_timed_activity() {
        // "slow" would fire at t=10 but "blocker" disables it at t=1 by
        // stealing the shared token; "slow" must never fire.
        let mut b = SanBuilder::new("abort");
        let shared = b.place("shared", 1);
        let out = b.place("out", 0);
        let slow = b
            .timed_activity("slow", Delay::from(Dist::deterministic(10.0)))
            .input_arc(shared, 1)
            .output_arc(out, 1)
            .build();
        let fast = b
            .timed_activity("fast", Delay::from(Dist::deterministic(1.0)))
            .input_arc(shared, 1)
            .output_arc(out, 1)
            .build();
        let san = b.build().unwrap();
        let mut sim = Simulator::new(&san, 0).unwrap();
        sim.run_until(SimTime::from_secs(100.0)).unwrap();
        assert_eq!(sim.firing_count(fast), 1);
        assert_eq!(sim.firing_count(slow), 0);
    }

    #[test]
    fn resample_policy_tracks_marking_dependent_rate() {
        // Failure rate is 100x while "window" holds a token. The window
        // opens at t=5 (deterministic). With Resample, failures inside
        // the window occur at the high rate.
        let mut b = SanBuilder::new("modulated");
        let window = b.place("window", 0);
        let armed = b.place("armed", 1);
        let failures = b.place("failures", 0);
        let alive = b.place("alive", 1);
        b.timed_activity("open_window", Delay::from(Dist::deterministic(5.0)))
            .input_arc(armed, 1)
            .output_arc(window, 1)
            .build();
        let wid = window;
        let fail = b
            .timed_activity(
                "fail",
                Delay::from_fn(move |m, rng| {
                    let rate = if m.has_token(wid) { 100.0 } else { 0.01 };
                    rng.exponential(rate)
                }),
            )
            .reactivation(Reactivation::Resample)
            .input_arc(alive, 1)
            .output_arc(alive, 1)
            .output_arc(failures, 1)
            .build();
        let san = b.build().unwrap();
        let mut sim = Simulator::new(&san, 7).unwrap();
        sim.run_until(SimTime::from_secs(5.0)).unwrap();
        let before = sim.firing_count(fail);
        sim.run_until(SimTime::from_secs(6.0)).unwrap();
        let after = sim.firing_count(fail);
        // Expect ~100 failures in the one second inside the window and
        // almost none in the five seconds before it.
        assert!(before < 5, "failures before window: {before}");
        assert!(
            after - before > 50,
            "failures inside window: {}",
            after - before
        );
    }

    #[test]
    fn keep_policy_preserves_deterministic_timer() {
        // A deterministic "interval" timer must not be perturbed by other
        // activity firings while it counts down (Keep is the default).
        let mut b = SanBuilder::new("timer");
        let run = b.place("run", 1);
        let ticks = b.place("ticks", 0);
        let noise = b.place("noise", 1);
        let timer = b
            .timed_activity("interval", Delay::from(Dist::deterministic(10.0)))
            .input_arc(run, 1)
            .output_arc(run, 1)
            .output_arc(ticks, 1)
            .build();
        b.timed_activity("noisy", Delay::from(Dist::exponential(5.0)))
            .input_arc(noise, 1)
            .output_arc(noise, 1)
            .build();
        let san = b.build().unwrap();
        let mut sim = Simulator::new(&san, 3).unwrap();
        sim.run_until(SimTime::from_secs(100.0)).unwrap();
        assert_eq!(
            sim.firing_count(timer),
            10,
            "timer must tick exactly every 10 s"
        );
    }

    #[test]
    fn cases_split_probabilistically() {
        let mut b = SanBuilder::new("cases");
        let src = b.place("src", 1);
        let heads = b.place("heads", 0);
        let tails = b.place("tails", 0);
        b.timed_activity("flip", Delay::from(Dist::deterministic(1.0)))
            .input_arc(src, 1)
            .case(0.25, |c| c.output_arc(heads, 1).output_arc(src, 1))
            .case(0.75, |c| c.output_arc(tails, 1).output_arc(src, 1))
            .build();
        let san = b.build().unwrap();
        let mut sim = Simulator::new(&san, 11).unwrap();
        sim.run_until(SimTime::from_secs(100_000.0)).unwrap();
        let h = sim.marking().tokens(san.place_by_name("heads").unwrap()) as f64;
        let t = sim.marking().tokens(san.place_by_name("tails").unwrap()) as f64;
        let frac = h / (h + t);
        assert!((frac - 0.25).abs() < 0.02, "heads fraction {frac}");
    }

    #[test]
    fn input_and_output_gates_run_in_order() {
        let mut b = SanBuilder::new("gates");
        let src = b.place("src", 1);
        let staged = b.place("staged", 0);
        let done = b.place("done", 0);
        b.timed_activity("go", Delay::from(Dist::deterministic(1.0)))
            .input_arc(src, 1)
            .input_gate(InputGate::new(
                "stage",
                |_| true,
                move |m| m.add_tokens(staged, 2),
            ))
            .output_gate(OutputGate::new("finish", move |m| {
                let n = m.tokens(staged);
                m.remove_tokens(staged, n);
                m.add_tokens(done, n);
            }))
            .build();
        let san = b.build().unwrap();
        let mut sim = Simulator::new(&san, 0).unwrap();
        sim.run_until(SimTime::from_secs(2.0)).unwrap();
        assert_eq!(sim.marking().tokens(done), 2);
        assert_eq!(sim.marking().tokens(staged), 0);
    }

    #[test]
    fn fluid_integration_and_reset() {
        let mut b = SanBuilder::new("fluid");
        let on = b.place("on", 1);
        let off = b.place("off", 0);
        let acc = b.fluid_place("acc", 0.0);
        let on_c = on;
        b.flow(acc, move |m| if m.has_token(on_c) { 2.0 } else { 0.0 });
        b.timed_activity("stop", Delay::from(Dist::deterministic(3.0)))
            .input_arc(on, 1)
            .output_arc(off, 1)
            .build();
        let san = b.build().unwrap();
        let mut sim = Simulator::new(&san, 0).unwrap();
        sim.run_until(SimTime::from_secs(10.0)).unwrap();
        // Flow of 2.0 for 3 seconds, then off.
        assert!((sim.marking().fluid(acc) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn impulse_rewards_fire_with_activity() {
        let san = repair_model();
        let fail = san.activity_by_name("fail").unwrap();
        let mut sim = Simulator::new(&san, 5).unwrap();
        sim.add_reward(RewardSpec::impulse_only("failures").with_impulse(fail, |_| 1.0))
            .unwrap();
        sim.run_for(SimTime::from_secs(100_000.0)).unwrap();
        let v = sim.reward_report().value("failures").unwrap();
        assert_eq!(v.total as u64, v.impulse_count);
        // Long-run failure frequency: up fraction (0.9) × rate 0.1 = 0.09/s.
        let freq = v.total / 100_000.0;
        assert!((freq - 0.09).abs() < 0.005, "failure frequency {freq}");
    }

    #[test]
    fn reset_rewards_discards_transient() {
        let san = repair_model();
        let up = san.place_by_name("up").unwrap();
        let mut sim = Simulator::new(&san, 2).unwrap();
        sim.add_reward(RewardSpec::rate("avail", move |m| {
            if m.has_token(up) {
                1.0
            } else {
                0.0
            }
        }))
        .unwrap();
        sim.run_for(SimTime::from_secs(1_000.0)).unwrap();
        sim.reset_rewards();
        let r = sim.reward_report().value("avail").unwrap();
        assert_eq!(r.total, 0.0);
        assert_eq!(r.window, 0.0);
        sim.run_for(SimTime::from_secs(50_000.0)).unwrap();
        let r = sim.reward_report().value("avail").unwrap();
        assert!((r.window - 50_000.0).abs() < 1e-6);
        assert!((r.time_average() - 0.9).abs() < 0.02);
    }

    #[test]
    fn duplicate_reward_is_rejected() {
        let san = repair_model();
        let mut sim = Simulator::new(&san, 0).unwrap();
        sim.add_reward(RewardSpec::rate("x", |_| 1.0)).unwrap();
        let err = sim.add_reward(RewardSpec::rate("x", |_| 2.0)).unwrap_err();
        assert!(matches!(err, SanError::DuplicateReward { .. }));
    }

    #[test]
    fn identical_seeds_reproduce_exactly() {
        let san = repair_model();
        let run = |seed| {
            let mut sim = Simulator::new(&san, seed).unwrap();
            sim.run_for(SimTime::from_secs(10_000.0)).unwrap();
            (
                sim.firing_count(san.activity_by_name("fail").unwrap()),
                sim.firing_count(san.activity_by_name("repair").unwrap()),
            )
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn bad_delay_is_reported() {
        let mut b = SanBuilder::new("bad");
        let p = b.place("p", 1);
        b.timed_activity("nan", Delay::from_fn(|_, _| f64::NAN))
            .input_arc(p, 1)
            .output_arc(p, 1)
            .build();
        let san = b.build().unwrap();
        let err = match Simulator::new(&san, 0) {
            Err(e) => e,
            Ok(_) => panic!("expected BadDelay"),
        };
        assert!(matches!(err, SanError::BadDelay { .. }));
    }

    #[test]
    fn run_until_condition_stops_at_first_hit() {
        let san = repair_model();
        let down = san.place_by_name("down").unwrap();
        let mut sim = Simulator::new(&san, 4).unwrap();
        let hit = sim
            .run_until_condition(|m| m.has_token(down), SimTime::from_hours(10.0))
            .unwrap();
        let t = hit.expect("a failure occurs well within 10 h at rate 0.1/s");
        assert_eq!(sim.now(), t);
        assert!(sim.marking().has_token(down));
        // With an immediate condition the clock does not move.
        let t2 = sim
            .run_until_condition(|m| m.has_token(down), SimTime::from_hours(20.0))
            .unwrap();
        assert_eq!(t2, Some(t));
        // An impossible condition runs to the horizon and returns None.
        let none = sim
            .run_until_condition(|_| false, sim.now() + SimTime::from_secs(5.0))
            .unwrap();
        assert_eq!(none, None);
    }

    #[test]
    fn debug_output() {
        let san = repair_model();
        let sim = Simulator::new(&san, 0).unwrap();
        assert!(format!("{sim:?}").contains("repair"));
    }

    #[test]
    fn declared_rate_reward_is_bit_identical_to_conservative() {
        // Declaring the support places must change nothing but the cost:
        // cached and freshly-evaluated rate rewards accumulate the exact
        // same bits, under both scheduling strategies.
        let san = repair_model();
        let up = san.place_by_name("up").unwrap();
        let run = |declare: bool, scheduling: Scheduling| {
            let mut sim = Simulator::with_scheduling(&san, 6, scheduling).unwrap();
            let spec = RewardSpec::rate("avail", move |m| if m.has_token(up) { 1.0 } else { 0.0 });
            let spec = if declare { spec.reads(&[up]) } else { spec };
            sim.add_reward(spec).unwrap();
            sim.run_for(SimTime::from_secs(50_000.0)).unwrap();
            sim.reward_report().value("avail").unwrap().total
        };
        let reference = run(false, Scheduling::FullScan);
        for scheduling in [Scheduling::FullScan, Scheduling::Incremental] {
            assert_eq!(run(true, scheduling).to_bits(), reference.to_bits());
            assert_eq!(run(false, scheduling).to_bits(), reference.to_bits());
        }
    }

    /// Repair model with the failure timer marked `Resample` (plain
    /// exponential, declared dependencies) — the shape lazy mode elides
    /// — plus an unrelated `Keep` noise timer whose firings dirty the
    /// marking while the failure timer stays enabled. Under eager
    /// resampling every noise firing redraws the failure delay; under
    /// lazy mode those redraws are all elided.
    fn resample_repair_model() -> San {
        let mut b = SanBuilder::new("resample_repair");
        let up = b.place("up", 1);
        let down = b.place("down", 0);
        let noise = b.place("noise", 1);
        b.timed_activity("fail", Delay::from(Dist::exponential(0.1)))
            .reactivation(Reactivation::Resample)
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build();
        b.timed_activity("repair", Delay::from(Dist::exponential(0.9)))
            .reactivation(Reactivation::Resample)
            .input_arc(down, 1)
            .output_arc(up, 1)
            .build();
        b.timed_activity("noisy", Delay::from(Dist::exponential(2.0)))
            .input_arc(noise, 1)
            .output_arc(noise, 1)
            .build();
        b.build().unwrap()
    }

    #[test]
    fn reactivation_mode_round_trips_names() {
        for mode in [ReactivationMode::Resample, ReactivationMode::Lazy] {
            assert_eq!(ReactivationMode::parse(mode.name()), Ok(mode));
            assert_eq!(format!("{mode}"), mode.name());
        }
        assert!(ReactivationMode::parse("eager").is_err());
        assert_eq!(ReactivationMode::default(), ReactivationMode::Resample);
    }

    #[test]
    fn lazy_reactivation_reproduces_availability() {
        // Lazy is distribution-equivalent: the resample repair model's
        // long-run availability must still come out at ~0.9.
        let san = resample_repair_model();
        let up = san.place_by_name("up").unwrap();
        let mut sim = Simulator::with_exec_options(
            &san,
            1,
            Scheduling::Incremental,
            ReactivationMode::Lazy,
            QueueKind::IndexedHeap,
        )
        .unwrap();
        assert_eq!(sim.reactivation(), ReactivationMode::Lazy);
        sim.add_reward(RewardSpec::rate("avail", move |m| {
            if m.has_token(up) {
                1.0
            } else {
                0.0
            }
        }))
        .unwrap();
        sim.run_for(SimTime::from_secs(200_000.0)).unwrap();
        let a = sim.reward_report().value("avail").unwrap().time_average();
        assert!((a - 0.9).abs() < 0.01, "availability {a}");
    }

    #[test]
    fn lazy_full_scan_matches_lazy_incremental_exactly() {
        // Elided visits draw no randomness and touch no queue state, so
        // the two scheduling strategies stay bit-identical under lazy
        // mode exactly as they are under eager resampling.
        let san = resample_repair_model();
        let run = |scheduling| {
            let mut sim = Simulator::with_exec_options(
                &san,
                9,
                scheduling,
                ReactivationMode::Lazy,
                QueueKind::IndexedHeap,
            )
            .unwrap();
            sim.run_for(SimTime::from_secs(50_000.0)).unwrap();
            (
                sim.firing_count(san.activity_by_name("fail").unwrap()),
                sim.firing_count(san.activity_by_name("repair").unwrap()),
            )
        };
        assert_eq!(run(Scheduling::FullScan), run(Scheduling::Incremental));
    }

    #[test]
    fn lazy_keeps_marking_dependent_timers_eager() {
        // Same modulated-rate model as the Resample test: under lazy
        // mode the closure delay must still be redrawn on the window
        // opening, or the 100x rate burst would be missed.
        let mut b = SanBuilder::new("modulated_lazy");
        let window = b.place("window", 0);
        let armed = b.place("armed", 1);
        let failures = b.place("failures", 0);
        let alive = b.place("alive", 1);
        b.timed_activity("open_window", Delay::from(Dist::deterministic(5.0)))
            .input_arc(armed, 1)
            .output_arc(window, 1)
            .build();
        let wid = window;
        let fail = b
            .timed_activity(
                "fail",
                Delay::from_fn(move |m, rng| {
                    let rate = if m.has_token(wid) { 100.0 } else { 0.01 };
                    rng.exponential(rate)
                }),
            )
            .reactivation(Reactivation::Resample)
            .input_arc(alive, 1)
            .output_arc(alive, 1)
            .output_arc(failures, 1)
            .build();
        let san = b.build().unwrap();
        let mut sim = Simulator::with_exec_options(
            &san,
            7,
            Scheduling::Incremental,
            ReactivationMode::Lazy,
            QueueKind::IndexedHeap,
        )
        .unwrap();
        sim.run_until(SimTime::from_secs(5.0)).unwrap();
        let before = sim.firing_count(fail);
        sim.run_until(SimTime::from_secs(6.0)).unwrap();
        let after = sim.firing_count(fail);
        assert!(before < 5, "failures before window: {before}");
        assert!(
            after - before > 50,
            "failures inside window: {}",
            after - before
        );
    }

    #[test]
    fn calendar_queue_is_bit_identical_to_heap() {
        // Both backends pop the same (time, FIFO) order, so switching
        // the backend changes nothing observable — on the eager path
        // and on the lazy path alike.
        let san = resample_repair_model();
        let run = |reactivation, queue| {
            let mut sim = Simulator::with_exec_options(
                &san,
                13,
                Scheduling::Incremental,
                reactivation,
                queue,
            )
            .unwrap();
            sim.run_for(SimTime::from_secs(50_000.0)).unwrap();
            (
                sim.firing_count(san.activity_by_name("fail").unwrap()),
                sim.firing_count(san.activity_by_name("repair").unwrap()),
            )
        };
        for mode in [ReactivationMode::Resample, ReactivationMode::Lazy] {
            assert_eq!(
                run(mode, QueueKind::IndexedHeap),
                run(mode, QueueKind::Calendar),
                "queue backends diverged under {mode}"
            );
        }
        // And the lazy stream really is a different stream.
        assert_ne!(
            run(ReactivationMode::Resample, QueueKind::IndexedHeap),
            run(ReactivationMode::Lazy, QueueKind::IndexedHeap)
        );
    }

    #[test]
    fn phase_profile_matches_build_features() {
        let san = repair_model();
        let mut sim = Simulator::new(&san, 12).unwrap();
        sim.run_for(SimTime::from_secs(1_000.0)).unwrap();
        if ckpt_des::prof::ENABLED {
            assert!(!sim.phase_profile().is_empty());
            let taken = sim.take_phase_profile();
            assert!(taken.total_nanos() > 0 || taken.counts.iter().any(|&c| c > 0));
        } else {
            assert!(sim.phase_profile().is_empty());
        }
        assert!(sim.phase_profile().is_empty() || ckpt_des::prof::ENABLED);
    }
}
