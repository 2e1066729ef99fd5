//! Discrete-event execution of a SAN.

use crate::activity::{ActivityId, Timing};
use crate::error::SanError;
use crate::marking::Marking;
use crate::model::San;
use crate::reward::{RewardReport, RewardSpec, RewardValue};
use ckpt_des::telem::{HotTelemetry, TelemetrySnapshot};
use ckpt_des::{SimRng, SimTime, TimerTable};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Upper bound on instantaneous firings between two time advances before
/// the simulator reports a livelock.
const INSTANTANEOUS_LIMIT: u32 = 100_000;

/// Which activities a [`Simulator`] visits after each firing, and how
/// it checks their enabling.
///
/// Both strategies run the same settle loop and the same per-activity
/// reconcile, in ascending activity index, so they are
/// **bit-identical**: same RNG draw sequence, same firing order, same
/// rewards, same final marking. They differ only in the visit set and
/// the enabling check. The full scan is kept as the reference executor
/// (and as an equivalence oracle in tests and benchmarks); the
/// incremental scheduler is the default because its per-event cost is
/// proportional to what the firing actually changed, not to the total
/// number of activities in the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// Visit only the fired activity, the `Resample` timers, and the
    /// activities whose dependency set (input-arc places ∪ the places
    /// their gate predicates read) intersects the places dirtied by the
    /// current event; check enabling with the compiled gate programs.
    /// The default.
    #[default]
    Incremental,
    /// Visit every activity after every event and check enabling by
    /// walking its definition ([`Pred::eval`](crate::Pred::eval)) — the
    /// O(A) reference behaviour.
    FullScan,
}

/// How a [`Simulator`] realises the
/// [`Reactivation::Resample`](crate::Reactivation::Resample) policy for
/// timers whose delay is a marking-independent exponential.
///
/// [`ReactivationMode::Resample`] (the default) redraws the delay and
/// re-arms the timer on every marking change — the reference
/// behaviour, bit-identical to the original executor. For an
/// exponential that is pure overhead: by memorylessness the remaining
/// delay conditioned on "not yet fired" has exactly the original
/// distribution, so [`ReactivationMode::Lazy`] keeps the scheduled
/// completion instead, skipping the redraw *and* the re-arm.
///
/// Lazy mode is **distribution-equivalent, not bit-identical**: skipped
/// draws shift the RNG stream, so a lazy run is statistically a new
/// stream over the same model (validated by the KS/moment and
/// CI-overlap suites). Timers with
/// marking-dependent delays ([`crate::Delay::MarkingDependent`]) are
/// never elided — a rate modulated by the marking must be observed at
/// the marking change — and
/// [`Reactivation::Keep`](crate::Reactivation::Keep) timers are
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
///   [`Reactivation`](crate::Reactivation) policy decides whether the
///   sample is kept or redrawn;
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
    /// Pending completions, one slot per activity (only timed ones are
    /// ever armed).
    timers: TimerTable,
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
    /// dirty-place-gated cache refresh (empty under the full scan).
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
    /// Visit bitmask scratch for reconciliation: one bit per timed
    /// activity to revisit this event.
    timed_acc: Vec<u64>,
    /// Candidate bitmask scratch for settling: one bit per
    /// instantaneous activity that may have become enabled.
    inst_acc: Vec<u64>,
    /// Queue-depth / dirty-set distribution probes; `Some` once
    /// [`Simulator::enable_telemetry`] switched them on (see
    /// [`ckpt_des::telem`]); boxed, so an unobserved run carries one
    /// null pointer rather than two histograms.
    telem: Option<Box<HotTelemetry>>,
    /// Reactivation redraws lazy mode skipped since construction.
    redraws_elided: u64,
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
    /// the default reactivation mode.
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
        Simulator::with_exec_options(san, seed, scheduling, ReactivationMode::default())
    }

    /// Creates a simulator with every execution switch explicit:
    /// [`Scheduling`] and [`ReactivationMode`].
    ///
    /// The defaults (`Incremental`, `Resample`) are the pinned
    /// bit-identical reference; `Lazy` is a distribution-equivalent
    /// opt-in.
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
    ) -> Result<Simulator<'m>, SanError> {
        let n = san.activities.len();
        let mut sim = Simulator {
            san,
            marking: san.initial_marking(),
            now: SimTime::ZERO,
            timers: TimerTable::new(n),
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
            telem: None,
            redraws_elided: 0,
        };
        // Initialization visits every activity in both modes: there is
        // no previous event to diff against.
        sim.settle(true)?;
        sim.update_schedules(None)?;
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

    /// Switches the hot-loop telemetry probes on. Construction passes
    /// no probe, so probes switched on before the first run see every
    /// timed event, transient included. Probes never change results.
    pub fn enable_telemetry(&mut self) {
        self.telem.get_or_insert_with(Box::default);
    }

    /// The telemetry accumulated so far, with the RNG words drawn and
    /// the reactivation redraws elided since construction; `None`
    /// unless [`Simulator::enable_telemetry`] was called.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.telem
            .as_ref()
            .map(|t| t.snapshot(self.rng.words_drawn(), self.redraws_elided))
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
        // every integration step. The full scan keeps evaluating
        // directly — same bits, original cost — so it stays the oracle
        // for the cache too.
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
        while let Some((t, a)) = self.timers.pop_before(horizon) {
            self.step_event(t, ActivityId(a))?;
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
        while let Some((t, a)) = self.timers.pop_before(horizon) {
            self.step_event(t, ActivityId(a))?;
        }
        if horizon > self.now {
            self.integrate_to(horizon);
            self.now = horizon;
        }
        Ok(())
    }

    /// Processes one timed completion at `t`, just popped (and so
    /// disarmed): advance the clock, fire, settle instantaneous
    /// activities, reconcile timed schedules.
    fn step_event(&mut self, t: SimTime, activity: ActivityId) -> Result<(), SanError> {
        if let Some(telem) = &mut self.telem {
            telem.record_queue_depth(self.timers.len());
        }
        self.integrate_to(t);
        self.now = t;
        self.marking.begin_dirty_window();
        self.fire(activity)?;
        let scan = self.scheduling == Scheduling::FullScan;
        self.settle(scan)?;
        self.update_schedules((!scan).then_some(activity))?;
        self.refresh_dirty_rate_caches();
        if let Some(telem) = &mut self.telem {
            telem.record_dirty_set(self.marking.dirty_places().len());
        }
        #[cfg(debug_assertions)]
        self.assert_schedule_consistency();
        Ok(())
    }

    /// Activity `a`'s enabling check under this simulator's
    /// [`Scheduling`]: the compiled gate programs, or the definition
    /// walk the full scan keeps as the reference. Both agree on every
    /// marking.
    #[inline]
    fn enabled(&self, a: usize) -> bool {
        match self.scheduling {
            Scheduling::Incremental => self.san.compiled.enabled(a, &self.marking),
            Scheduling::FullScan => self.san.activities[a].enabled(&self.marking),
        }
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
    }

    /// Fires one activity: consume inputs, run gates, pick a case, apply
    /// outputs, record impulses.
    fn fire(&mut self, id: ActivityId) -> Result<(), SanError> {
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

    /// Fires enabled instantaneous activities (highest priority first,
    /// ties by definition order) until none remain.
    ///
    /// The candidates are a bitmask. With `all` (initialization and the
    /// full scan) it starts as every instantaneous activity. Otherwise
    /// it starts empty: between events no instantaneous activity is
    /// enabled (the previous settle reached a fixpoint, and neither
    /// schedule reconciliation nor fluid integration changes discrete
    /// token counts), so the only ones that can have become enabled
    /// depend on a place dirtied during this event. Each round folds in
    /// the `place → instantaneous dependents` rows of the places dirtied
    /// since the previous round, then fires the first enabled candidate
    /// in `inst_priority_order`, which is sorted (priority desc, index
    /// asc).
    fn settle(&mut self, all: bool) -> Result<(), SanError> {
        let san = self.san;
        let compiled = &san.compiled;
        if all {
            self.inst_acc.copy_from_slice(&compiled.inst_words);
        } else {
            self.inst_acc.fill(0);
        }
        let mut consumed = 0usize;
        let mut fired = 0u32;
        loop {
            for &p in &self.marking.dirty_places()[consumed..] {
                for (acc, &row) in self
                    .inst_acc
                    .iter_mut()
                    .zip(compiled.place_inst_row(p as usize))
                {
                    *acc |= row;
                }
            }
            consumed = self.marking.dirty_places().len();
            if self.inst_acc.iter().all(|&w| w == 0) {
                return Ok(()); // no candidates at all — the common case
            }
            let chosen = compiled
                .inst_priority_order
                .iter()
                .map(|&a| a as usize)
                .find(|&a| self.inst_acc[a >> 6] & (1u64 << (a & 63)) != 0 && self.enabled(a));
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

    /// Brings timed-activity schedules in line with the marking,
    /// visiting activities in ascending index so delay draws and queue
    /// operations happen in one fixed order whatever the visit set.
    ///
    /// `None` (initialization and the full scan) visits every timed
    /// activity. `Some(fired)` visits the fired activity (its pop
    /// disarmed its timer, and it may be re-enabled without dirtying
    /// any place it depends on), the global row, and every timed
    /// activity depending on a place dirtied during this event.
    /// Activities outside that set are provably no-ops under the full
    /// scan: their enabling cannot have changed (their dependency places
    /// did not), so they sit in the `(enabled, armed)` states
    /// `(true, true)` with `Keep` or `(false, false)`, neither of which
    /// draws randomness or touches the timer table.
    fn update_schedules(&mut self, fired: Option<ActivityId>) -> Result<(), SanError> {
        let san = self.san;
        let compiled = &san.compiled;
        let acc = &mut self.timed_acc;
        match fired {
            None => acc.copy_from_slice(&compiled.timed_words),
            Some(fired) => {
                // Lazy mode's global row omits the elidable `Resample`
                // timers: their place rows cover every marking change
                // that can affect their enabling, and their redraws are
                // skipped anyway.
                acc.copy_from_slice(match self.reactivation {
                    ReactivationMode::Resample => &compiled.global_timed_mask,
                    ReactivationMode::Lazy => &compiled.global_timed_mask_lazy,
                });
                debug_assert!(
                    compiled.is_timed(fired.0),
                    "timer table completed a non-timed activity"
                );
                acc[fired.0 >> 6] |= 1u64 << (fired.0 & 63);
                for &p in self.marking.dirty_places() {
                    for (a, &row) in acc.iter_mut().zip(compiled.place_timed_row(p as usize)) {
                        *a |= row;
                    }
                }
            }
        }
        let version = self.marking.version();
        for w in 0..self.timed_acc.len() {
            let mut bits = self.timed_acc[w];
            while bits != 0 {
                let a = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let enabled = self.enabled(a);
                self.reconcile(a, enabled, version)?;
            }
        }
        Ok(())
    }

    /// Brings timed activity `a`'s schedule in line with its enabling
    /// at marking `version`: cancel it, redraw and re-arm it, elide the
    /// redraw (lazy mode), or draw and arm it. The only place the
    /// executor arms or cancels a timer (a pop disarms one).
    fn reconcile(&mut self, a: usize, enabled: bool, version: u64) -> Result<(), SanError> {
        let compiled = &self.san.compiled;
        match (enabled, self.timers.is_armed(a)) {
            (false, true) => {
                // Disabling aborts the activity; draws nothing.
                self.timers.cancel(a);
            }
            (false, false) => {}
            (true, true) if !compiled.is_resample(a) || self.sampled_version[a] == version => {}
            (true, true)
                if self.reactivation == ReactivationMode::Lazy && compiled.is_lazy_elidable(a) =>
            {
                // Memoryless: the scheduled completion already has the
                // distribution a fresh draw would produce.
                self.redraws_elided += 1;
            }
            (true, _) => {
                // Arm, or redraw: re-arming takes a fresh sequence, as
                // a cancel followed by a schedule would.
                let at = self.sample_delay(a)?;
                self.timers.schedule(a, at);
                self.sampled_version[a] = version;
            }
        }
        Ok(())
    }

    /// Verifies the scheduler's core invariants against a ground-truth
    /// scan (debug builds only): every timed activity is scheduled iff
    /// enabled, no instantaneous activity is enabled between events, the
    /// compiled enabling check agrees with the definition walk for every
    /// activity, and the marking's dirty bitmask mirrors its dirty list.
    /// A schedule violation means a dependency row misses a place some
    /// enabling rule reads; a compiled/reference disagreement means a
    /// gate-program compilation bug.
    #[cfg(debug_assertions)]
    fn assert_schedule_consistency(&self) {
        self.marking.assert_dirty_consistency();
        for (i, def) in self.san.activities.iter().enumerate() {
            let reference = def.enabled(&self.marking);
            debug_assert_eq!(
                self.san.compiled.enabled(i, &self.marking),
                reference,
                "compiled enabling check for activity '{}' disagrees with \
                 the definition walk — gate-program compilation bug",
                def.name
            );
            match def.timing {
                Timing::Timed(_) => {
                    debug_assert_eq!(
                        reference,
                        self.timers.is_armed(i),
                        "timed activity '{}' out of sync with its schedule — \
                         its enabling changed without any place of its \
                         dependency row changing",
                        def.name
                    );
                }
                Timing::Instantaneous { .. } => {
                    debug_assert!(
                        !reference,
                        "instantaneous activity '{}' enabled after settling — \
                         its enabling changed without any place of its \
                         dependency row changing",
                        def.name
                    );
                }
            }
        }
    }

    /// Draws timed activity `a`'s firing delay and converts it to an
    /// absolute completion time, validating the sample.
    fn sample_delay(&mut self, a: usize) -> Result<SimTime, SanError> {
        let def = &self.san.activities[a];
        let Timing::Timed(delay) = &def.timing else {
            unreachable!("drew a delay for instantaneous activity '{}'", def.name);
        };
        let d = delay.sample(&self.marking, &mut self.rng);
        if !d.is_finite() || d < 0.0 {
            return Err(SanError::BadDelay {
                activity: def.name.clone(),
                value: d,
            });
        }
        Ok(self.now + SimTime::from_secs(d))
    }
}

impl fmt::Debug for Simulator<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("model", &self.san.name())
            .field("now", &self.now)
            .field("pending_events", &self.timers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{Delay, Reactivation};
    use crate::gate::{InputGate, OutputGate};
    use crate::model::SanBuilder;
    use crate::pred::Pred;
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

    /// Records every firing as `(time, activity name)`.
    #[derive(Default)]
    struct FiringLog(Vec<(f64, String)>);

    impl SanObserver for FiringLog {
        fn activity_fired(&mut self, at: SimTime, name: &str, _: &Marking) {
            self.0.push((at.as_secs(), name.to_string()));
        }
    }

    /// Runs `san` to `horizon` under every scheduling strategy and
    /// reactivation mode, asserting they all log the same firings, and
    /// returns that log.
    fn firing_log(san: &San, horizon: f64) -> Vec<(f64, String)> {
        let mut logs = Vec::new();
        for scheduling in [Scheduling::Incremental, Scheduling::FullScan] {
            for mode in [ReactivationMode::Resample, ReactivationMode::Lazy] {
                let mut log = FiringLog::default();
                let mut sim = Simulator::with_exec_options(san, 0, scheduling, mode).unwrap();
                sim.set_observer(&mut log);
                sim.run_until(SimTime::from_secs(horizon)).unwrap();
                drop(sim);
                logs.push(log.0);
            }
        }
        assert!(logs.windows(2).all(|w| w[0] == w[1]), "{logs:?}");
        logs.swap_remove(0)
    }

    fn fired(log: &[(f64, &str)]) -> Vec<(f64, String)> {
        log.iter().map(|&(t, n)| (t, n.to_string())).collect()
    }

    #[test]
    fn equal_completion_times_fire_in_sampling_order() {
        // "b" is sampled at t=0 and "a" at t=1 (once "start" enables
        // it); both complete at t=2. Sampling order, not activity index,
        // breaks the tie.
        let mut b = SanBuilder::new("ties");
        let pa = b.place("pa", 0);
        let pb = b.place("pb", 1);
        let ps = b.place("ps", 1);
        let done = b.place("done", 0);
        b.timed_activity("a", Delay::from(Dist::deterministic(1.0)))
            .input_arc(pa, 1)
            .output_arc(done, 1)
            .build();
        b.timed_activity("b", Delay::from(Dist::deterministic(2.0)))
            .input_arc(pb, 1)
            .output_arc(done, 1)
            .build();
        b.timed_activity("start", Delay::from(Dist::deterministic(1.0)))
            .input_arc(ps, 1)
            .output_arc(pa, 1)
            .build();
        let san = b.build().unwrap();
        assert_eq!(
            firing_log(&san, 10.0),
            fired(&[(1.0, "start"), (2.0, "b"), (2.0, "a")])
        );
    }

    #[test]
    fn a_resample_redraw_to_a_shared_instant_fires_behind_its_peers() {
        // "r" is sampled at t=0 (due 1), then redrawn when "nudge" fires
        // at t=0.5: due 1.5, the instant "peer" (sampled at t=0) is due.
        // The redraw takes a fresh sequence, so "r" fires second even
        // though both its index and its first sample precede "peer".
        // "peer" has no arcs and a no-op gate, so its firing leaves the
        // marking (and so "r") alone.
        let mut b = SanBuilder::new("redraw_ties");
        let rr = b.place("rr", 1);
        let nn = b.place("nn", 1);
        let done = b.place("done", 0);
        b.timed_activity("r", Delay::from(Dist::deterministic(1.0)))
            .reactivation(Reactivation::Resample)
            .input_arc(rr, 1)
            .output_arc(done, 1)
            .build();
        b.timed_activity("peer", Delay::from(Dist::deterministic(1.5)))
            .output_gate(OutputGate::new("noop", |_| {}))
            .build();
        b.timed_activity("nudge", Delay::from(Dist::deterministic(0.5)))
            .input_arc(nn, 1)
            .output_arc(done, 1)
            .build();
        let san = b.build().unwrap();
        assert_eq!(
            firing_log(&san, 2.0),
            fired(&[(0.5, "nudge"), (1.5, "peer"), (1.5, "r")])
        );
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
            .input_gate(InputGate::when_with("stage", Pred::All(vec![]), move |m| {
                m.add_tokens(staged, 2)
            }))
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
        let mut sim =
            Simulator::with_exec_options(&san, 1, Scheduling::Incremental, ReactivationMode::Lazy)
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
            let mut sim =
                Simulator::with_exec_options(&san, 9, scheduling, ReactivationMode::Lazy).unwrap();
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
        let mut sim =
            Simulator::with_exec_options(&san, 7, Scheduling::Incremental, ReactivationMode::Lazy)
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
    fn lazy_reactivation_draws_a_different_stream() {
        // Lazy keeps samples that resample redraws, so the same seed
        // yields a different (distribution-equivalent) trajectory.
        let san = resample_repair_model();
        let run = |reactivation| {
            let mut sim =
                Simulator::with_exec_options(&san, 13, Scheduling::Incremental, reactivation)
                    .unwrap();
            sim.run_for(SimTime::from_secs(50_000.0)).unwrap();
            (
                sim.firing_count(san.activity_by_name("fail").unwrap()),
                sim.firing_count(san.activity_by_name("repair").unwrap()),
            )
        };
        assert_ne!(run(ReactivationMode::Resample), run(ReactivationMode::Lazy));
    }

    #[test]
    fn telemetry_is_off_until_enabled_and_never_perturbs() {
        let san = repair_model();
        let run = |telemetry: bool| {
            let mut sim = Simulator::new(&san, 12).unwrap();
            if telemetry {
                sim.enable_telemetry();
            }
            sim.run_for(SimTime::from_secs(1_000.0)).unwrap();
            (sim.events_processed(), sim.telemetry_snapshot())
        };
        let (events_off, off) = run(false);
        let (events_on, on) = run(true);
        assert!(off.is_none());
        assert_eq!(events_off, events_on);
        let on = on.unwrap();
        assert!(on.queue_depth.count() > 0);
        assert!(on.dirty_set.count() > 0);
        assert!(on.rng_draws > 0);
    }
}
