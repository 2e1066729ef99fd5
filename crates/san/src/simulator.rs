//! Discrete-event execution of a SAN.

use crate::activity::{ActivityId, Timing};
use crate::error::SanError;
use crate::marking::Marking;
use crate::model::San;
use crate::reward::{RewardReport, RewardSpec, RewardValue};
use ckpt_des::telem::{HotTelemetry, TelemetrySnapshot};
use ckpt_des::{SimRng, SimTime, Ticket, TimerTable};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Upper bound on instantaneous firings between two time advances before
/// the simulator reports a livelock.
const INSTANTANEOUS_LIMIT: u32 = 100_000;

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

/// A deferred exponential completion: the uniform drawn at `base` under
/// `ticket`, and a lower bound on the due time it maps to, in seconds.
#[derive(Debug, Clone, Copy)]
struct Deferred {
    lower: f64,
    base: SimTime,
    u: f64,
    ticket: Ticket,
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
    /// [`RewardSpec::reads`] support).
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
    /// Pending completions not yet in `timers`, per activity: drawn, but
    /// not due before the next timer (see [`Simulator::pop_before`]).
    /// A timed activity is pending iff it is armed in `timers` or
    /// deferred here, never both.
    deferred: Vec<Option<Deferred>>,
    /// At or below the lower bound of every deferred completion, in
    /// seconds; infinite if none is deferred. A cancel leaves it where
    /// it is, and each walk over the deferred completions makes it
    /// exact again.
    deferred_floor: f64,
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
    /// dirty-place-gated cache refresh.
    rate_by_place: Vec<Vec<u32>>,
    /// Activity index → `(reward index, impulse index)` pairs, so firing
    /// only touches rewards that actually attach an impulse to it.
    impulse_map: Vec<Vec<(u32, u32)>>,
    firing_counts: Vec<u64>,
    /// Running total of firings; kept so `events_processed` is O(1).
    events_total: u64,
    window_start: SimTime,
    observer: Option<&'m mut dyn SanObserver>,
    reactivation: ReactivationMode,
    /// Reused per multi-case firing; never reallocated in steady state.
    weights_scratch: Vec<f64>,
    /// Visit bitmask scratch for reconciliation: one bit per timed
    /// activity to revisit this event.
    timed_acc: Vec<u64>,
    /// Candidate bitmask scratch for settling: bit `r` set iff the
    /// instantaneous activity of priority rank `r` may have become
    /// enabled.
    inst_ranks: Vec<u64>,
    /// Queue-depth / dirty-set distribution probes; `Some` once
    /// [`Simulator::enable_telemetry`] switched them on (see
    /// [`ckpt_des::telem`]); boxed, so an unobserved run carries one
    /// null pointer rather than two histograms.
    telem: Option<Box<HotTelemetry>>,
    /// Reactivation redraws lazy mode skipped while telemetry was on
    /// (see [`Simulator::count_elided_redraws`]).
    redraws_elided: u64,
    /// The marking version the elided redraws were last counted at.
    elided_version: u64,
}

impl<'m> Simulator<'m> {
    /// Creates a simulator over `san` seeded with `seed`, settles any
    /// initially enabled instantaneous activities, and schedules the
    /// initially enabled timed ones, under the default
    /// [`ReactivationMode`].
    ///
    /// # Errors
    ///
    /// Returns [`SanError`] if the initial settling livelocks or a delay
    /// sampler misbehaves.
    pub fn new(san: &'m San, seed: u64) -> Result<Simulator<'m>, SanError> {
        Simulator::with_reactivation(san, seed, ReactivationMode::default())
    }

    /// Creates a simulator under an explicit [`ReactivationMode`]. The
    /// default (`Resample`) is the pinned bit-identical reference;
    /// `Lazy` is a distribution-equivalent opt-in.
    ///
    /// # Errors
    ///
    /// Returns [`SanError`] if the initial settling livelocks or a delay
    /// sampler misbehaves.
    pub fn with_reactivation(
        san: &'m San,
        seed: u64,
        reactivation: ReactivationMode,
    ) -> Result<Simulator<'m>, SanError> {
        let n = san.activities.len();
        let mut sim = Simulator {
            san,
            marking: san.initial_marking(),
            now: SimTime::ZERO,
            timers: TimerTable::new(n),
            deferred: vec![None; n],
            deferred_floor: f64::INFINITY,
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
            reactivation,
            weights_scratch: Vec::new(),
            timed_acc: vec![0; san.compiled.mask_words],
            inst_ranks: vec![0; san.compiled.rank_words],
            telem: None,
            redraws_elided: 0,
            elided_version: 0,
        };
        // Initialization visits every activity: there is no previous
        // event to diff against.
        sim.settle(true)?;
        sim.update_schedules(None)?;
        #[cfg(debug_assertions)]
        sim.assert_schedule_consistency();
        Ok(sim)
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

    /// The telemetry accumulated so far, with the RNG words drawn since
    /// construction and the reactivation redraws elided since the
    /// probes were switched on; `None` unless
    /// [`Simulator::enable_telemetry`] was called.
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
        // Rate rewards with a declared support are cached: the rate is
        // evaluated now and re-evaluated only when a support place
        // changes, instead of on every integration step. Debug builds
        // check the cache against a fresh evaluation on every step
        // (`assert_rate_caches_fresh`).
        let mut rate_mode = RateMode::NoRate;
        let mut cached_rate = 0.0;
        if let Some(rate) = spec.rate_fn() {
            rate_mode = RateMode::Evaluate;
            if let Some(reads) = spec.rate_reads() {
                rate_mode = RateMode::Cached;
                cached_rate = rate(&self.marking);
                for p in reads {
                    self.rate_by_place[p.0].push(reward_idx);
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
        while let Some((t, a)) = self.pop_before(horizon) {
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
        while let Some((t, a)) = self.pop_before(horizon) {
            self.step_event(t, ActivityId(a))?;
        }
        if horizon > self.now {
            self.integrate_to(horizon);
            self.now = horizon;
        }
        Ok(())
    }

    /// Pops the next completion due at or before `horizon`, deferred
    /// ones included.
    ///
    /// First it arms, at its exact due time and under its ticket, every
    /// deferred completion that could be that pop: those whose lower
    /// bound is at or before `bound`, the lesser of the next armed
    /// timer's due time and `horizon`. One pass suffices: whatever pops
    /// is due by `bound`, while a completion left deferred is due after
    /// it, so it can neither pop first nor tie with what does. One armed
    /// here orders by its ticket, as if armed when drawn. While the
    /// deferred floor is above `bound` there is nothing to arm.
    #[inline]
    fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, usize)> {
        let next = self.timers.next();
        let bound = next.map_or(horizon, |(due, _)| due.min(horizon));
        if self.deferred_floor > bound.as_secs() {
            // The timer found is the next: pop it by its slot rather
            // than scan for it again.
            return match next {
                Some((due, slot)) if due <= horizon => Some((self.timers.pop_slot(slot), slot)),
                _ => None,
            };
        }
        let compiled = &self.san.compiled;
        let mut floor = f64::INFINITY;
        for &a in &compiled.deferrable {
            let a = a as usize;
            let Some(d) = self.deferred[a] else {
                continue;
            };
            if d.lower > bound.as_secs() {
                floor = floor.min(d.lower);
                continue;
            }
            let exp = compiled
                .exp_timer(a)
                .expect("deferred timers are deferrable");
            let due = exp.exact_due(d.base, d.u);
            debug_assert!(
                due.as_secs() >= d.lower,
                "deferred due {due} below its bound {}",
                d.lower
            );
            self.timers.schedule_with(a, due, d.ticket);
            self.deferred[a] = None;
        }
        self.deferred_floor = floor;
        self.timers.pop_before(horizon)
    }

    /// Number of pending completions, armed or deferred.
    fn pending_count(&self) -> usize {
        self.timers.len() + self.deferred.iter().flatten().count()
    }

    /// Processes one timed completion at `t`, just popped (and so
    /// disarmed): advance the clock, fire, settle instantaneous
    /// activities, reconcile timed schedules.
    fn step_event(&mut self, t: SimTime, activity: ActivityId) -> Result<(), SanError> {
        if self.telem.is_some() {
            let depth = self.pending_count();
            if let Some(telem) = &mut self.telem {
                telem.record_queue_depth(depth);
            }
        }
        self.integrate_to(t);
        self.now = t;
        self.marking.begin_dirty_window();
        self.fire(activity)?;
        self.settle(false)?;
        self.update_schedules(Some(activity))?;
        self.refresh_dirty_rate_caches();
        if let Some(telem) = &mut self.telem {
            telem.record_dirty_set(self.marking.dirty_places().len());
            if self.reactivation == ReactivationMode::Lazy {
                self.count_elided_redraws();
            }
        }
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
        #[cfg(debug_assertions)]
        self.assert_rate_caches_fresh();
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
    /// The candidates are a bitmask over priority ranks (bit `r` is the
    /// activity at rank `r` of `inst_priority_order`, which is sorted
    /// priority desc, index asc). With `all` (initialization) it starts
    /// as every instantaneous activity. Otherwise it starts empty:
    /// between events no instantaneous activity is enabled (the
    /// previous settle reached a fixpoint, and neither schedule
    /// reconciliation nor fluid integration changes discrete token
    /// counts), so the only ones that can have become enabled depend
    /// on a place dirtied during this event. Each round folds in
    /// the `place → instantaneous dependents` rows of the places dirtied
    /// since the previous round, then fires the enabled candidate of
    /// least rank. A candidate found disabled stays a candidate. Debug
    /// builds check each round's choice against a scan of every rank
    /// ([`Simulator::assert_settle_matches_full_scan`]).
    fn settle(&mut self, all: bool) -> Result<(), SanError> {
        let san = self.san;
        let compiled = &san.compiled;
        if all {
            self.inst_ranks.copy_from_slice(&compiled.all_ranks);
        } else {
            self.inst_ranks.fill(0);
        }
        let mut consumed = 0usize;
        let mut fired = 0u32;
        loop {
            for &p in &self.marking.dirty_places()[consumed..] {
                for (acc, &row) in self
                    .inst_ranks
                    .iter_mut()
                    .zip(compiled.place_inst_row(p as usize))
                {
                    *acc |= row;
                }
            }
            consumed = self.marking.dirty_places().len();
            let next = self.first_enabled_candidate();
            #[cfg(debug_assertions)]
            self.assert_settle_matches_full_scan(next);
            let Some(idx) = next else {
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

    /// The enabled settle candidate of least priority rank, as an
    /// activity index.
    #[inline]
    fn first_enabled_candidate(&self) -> Option<usize> {
        let order = &self.san.compiled.inst_priority_order;
        for (w, &word) in self.inst_ranks.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let a = order[w << 6 | bits.trailing_zeros() as usize] as usize;
                if self.san.compiled.enabled(a, &self.marking) {
                    return Some(a);
                }
                bits &= bits - 1;
            }
        }
        None
    }

    /// Brings timed-activity schedules in line with the marking,
    /// visiting activities in ascending index so delay draws and queue
    /// operations happen in one fixed order whatever the visit set.
    ///
    /// `None` (initialization) visits every timed activity.
    /// `Some(fired)` visits the fired activity (its pop disarmed its
    /// timer, and it may be re-enabled without dirtying any place it
    /// depends on), the global row, and every timed activity depending
    /// on a place dirtied during this event. A visit to any other
    /// activity would be a no-op: its enabling cannot have changed
    /// (its dependency places did not), so it sits in the
    /// `(enabled, pending)` states `(true, true)` with `Keep` (or an
    /// elidable redraw in lazy mode) or `(false, false)`, neither of
    /// which draws randomness or touches the timer table. Debug builds
    /// check that after every event
    /// ([`Simulator::assert_schedule_consistency`]).
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
                let enabled = compiled.enabled(a, &self.marking);
                self.reconcile(a, enabled, version)?;
            }
        }
        Ok(())
    }

    /// Brings timed activity `a`'s schedule in line with its enabling
    /// at marking `version`: cancel it, redraw and re-arm it, elide the
    /// redraw (lazy mode), or draw and arm it. The only place the
    /// executor arms, defers or cancels a timer (a pop disarms one, and
    /// [`Simulator::pop_before`] arms deferred ones).
    fn reconcile(&mut self, a: usize, enabled: bool, version: u64) -> Result<(), SanError> {
        let compiled = &self.san.compiled;
        let armed = self.timers.is_armed(a);
        match (enabled, armed || self.deferred[a].is_some()) {
            (false, true) => {
                // Disabling aborts the activity; draws nothing.
                self.timers.cancel(a);
                self.deferred[a] = None;
            }
            (false, false) => {}
            (true, true) if !compiled.is_resample(a) || self.sampled_version[a] == version => {}
            (true, true)
                if self.reactivation == ReactivationMode::Lazy && compiled.is_lazy_elidable(a) =>
            {
                // Memoryless: the scheduled completion already has the
                // distribution a fresh draw would produce.
            }
            (true, _) => {
                // Arm, or redraw: re-arming takes a fresh sequence, as
                // a cancel followed by a schedule would.
                if let Some(exp) = compiled.exp_timer(a) {
                    // The uniform and the sequence are taken now, in the
                    // order `sample_delay` and `schedule` take them; the
                    // logarithm waits until the completion could be next.
                    let u = self.rng.open_unit();
                    let ticket = self.timers.ticket();
                    if armed {
                        self.timers.cancel(a);
                    }
                    let lower = exp.lower_due(self.now, u);
                    self.deferred[a] = Some(Deferred {
                        lower,
                        base: self.now,
                        u,
                        ticket,
                    });
                    self.deferred_floor = self.deferred_floor.min(lower);
                } else {
                    let at = self.sample_delay(a)?;
                    self.timers.schedule(a, at);
                }
                self.sampled_version[a] = version;
            }
        }
        Ok(())
    }

    /// Telemetry only: after an event that changed the marking, counts
    /// the redraws resample mode would have made and lazy mode skipped —
    /// every pending lazy-elidable timer still holding a sample from an
    /// older marking version. Most of these timers are on no row this
    /// event visited (lazy mode's global row omits them), so counting in
    /// [`Simulator::reconcile`] would miss them. Kept out of line so
    /// the unobserved hot path does not carry it.
    #[cold]
    #[inline(never)]
    fn count_elided_redraws(&mut self) {
        let version = self.marking.version();
        if version == self.elided_version {
            return;
        }
        self.elided_version = version;
        let compiled = &self.san.compiled;
        for (w, &word) in compiled.lazy_elidable_words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let a = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let pending = self.timers.is_armed(a) || self.deferred[a].is_some();
                if pending && self.sampled_version[a] != version {
                    self.redraws_elided += 1;
                }
            }
        }
    }

    /// Verifies the scheduler's invariants against a ground-truth scan
    /// (debug builds only): every timed activity is pending (armed or
    /// deferred, never both) iff enabled, and a `Resample` one pending
    /// under an older marking version only if lazy mode elides its
    /// redraw, so [`Simulator::reconcile`] would leave every timed
    /// activity as it is, the ones this event did not visit included;
    /// no instantaneous activity is enabled between events; the
    /// compiled enabling check agrees with the definition walk for
    /// every activity; and the marking's dirty bitmask mirrors its
    /// dirty list.
    /// A schedule violation means a dependency row misses a place some
    /// enabling rule reads, or the global row misses a `Resample`
    /// timer; a compiled/reference disagreement means a gate-program
    /// compilation bug.
    #[cfg(debug_assertions)]
    fn assert_schedule_consistency(&self) {
        self.marking.assert_dirty_consistency();
        let compiled = &self.san.compiled;
        let version = self.marking.version();
        for (i, def) in self.san.activities.iter().enumerate() {
            let reference = def.enabled(&self.marking);
            debug_assert_eq!(
                compiled.enabled(i, &self.marking),
                reference,
                "compiled enabling check for activity '{}' disagrees with \
                 the definition walk — gate-program compilation bug",
                def.name
            );
            match def.timing {
                Timing::Timed(_) => {
                    let pending = self.timers.is_armed(i) || self.deferred[i].is_some();
                    debug_assert!(
                        !(self.timers.is_armed(i) && self.deferred[i].is_some()),
                        "timed activity '{}' both armed and deferred",
                        def.name
                    );
                    debug_assert!(
                        self.deferred[i].is_none_or(|d| self.deferred_floor <= d.lower),
                        "timed activity '{}' deferred below the floor",
                        def.name
                    );
                    debug_assert_eq!(
                        reference, pending,
                        "timed activity '{}' out of sync with its schedule — \
                         its enabling changed without any place of its \
                         dependency row changing",
                        def.name
                    );
                    debug_assert!(
                        !pending
                            || !compiled.is_resample(i)
                            || self.sampled_version[i] == version
                            || (self.reactivation == ReactivationMode::Lazy
                                && compiled.is_lazy_elidable(i)),
                        "timed activity '{}' kept a sample the full scan \
                         would redraw — a `Resample` timer missing from the \
                         global row",
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

    /// Checks one settle round's choice, `next`, against the full scan's
    /// (debug builds only): the instantaneous activity of least priority
    /// rank that the definition walk finds enabled, over every rank.
    #[cfg(debug_assertions)]
    fn assert_settle_matches_full_scan(&self, next: Option<usize>) {
        let activities = &self.san.activities;
        let full_scan = self
            .san
            .compiled
            .inst_priority_order
            .iter()
            .map(|&a| a as usize)
            .find(|&a| activities[a].enabled(&self.marking));
        let name = |a: Option<usize>| a.map(|a| activities[a].name.as_str());
        debug_assert_eq!(
            name(next),
            name(full_scan),
            "settle chose another instantaneous activity than the full \
             scan — a dependency row misses a place its enabling reads"
        );
    }

    /// Checks every cached rate against a fresh evaluation on the
    /// current marking, to the bit (debug builds only): the value the
    /// full scan's per-step evaluation would integrate.
    #[cfg(debug_assertions)]
    fn assert_rate_caches_fresh(&self) {
        for (k, &mode) in self.rate_mode.iter().enumerate() {
            if mode != RateMode::Cached {
                continue;
            }
            let spec = &self.rewards[k].spec;
            let rate = spec.rate_fn().expect("cached reward has a rate");
            let fresh = rate(&self.marking);
            debug_assert!(
                fresh.to_bits() == self.rate_cache[k].to_bits(),
                "cached rate of reward '{}' is stale ({} cached, {fresh} fresh) \
                 — its declared reads omit a place the rate reads",
                spec.name(),
                self.rate_cache[k]
            );
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
            .field("pending_events", &self.pending_count())
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

    /// Tests run the executor's debug-only contract checks
    /// (`assert_schedule_consistency` after every event) and overflow
    /// checks: a test profile that drops either for speed fails here
    /// instead of silently testing less. Only `cargo test --release`,
    /// whose binaries live in the `release` output directory, tests the
    /// release code without them.
    #[test]
    fn test_builds_keep_debug_assertions_and_overflow_checks() {
        let exe = std::env::current_exe().unwrap();
        let profile_dir = exe.parent().and_then(std::path::Path::parent);
        if profile_dir.and_then(std::path::Path::file_name) == Some("release".as_ref()) {
            return;
        }
        let debug_assertions = cfg!(debug_assertions);
        assert!(
            debug_assertions,
            "the test profile must keep debug-assertions"
        );
        let max = std::hint::black_box(u8::MAX);
        assert!(
            std::panic::catch_unwind(|| max + 1).is_err(),
            "the test profile must keep overflow-checks"
        );
    }

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

    /// Runs `san` to `horizon` under both reactivation modes, asserting
    /// they log the same firings, and returns that log.
    fn firing_log(san: &San, horizon: f64) -> Vec<(f64, String)> {
        let mut logs = Vec::new();
        for mode in [ReactivationMode::Resample, ReactivationMode::Lazy] {
            let mut log = FiringLog::default();
            let mut sim = Simulator::with_reactivation(san, 0, mode).unwrap();
            sim.set_observer(&mut log);
            sim.run_until(SimTime::from_secs(horizon)).unwrap();
            drop(sim);
            logs.push(log.0);
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

    /// A timed source at t = 1 enables two instantaneous activities,
    /// `high` (priority 2) and `low` (priority 1), that drain one place.
    fn priority_model() -> San {
        let mut b = SanBuilder::new("prio");
        let src = b.place("src", 1);
        let trigger = b.place("trigger", 0);
        let hi = b.place("hi", 0);
        let lo = b.place("lo", 0);
        b.timed_activity("arm", Delay::from(Dist::deterministic(1.0)))
            .input_arc(src, 1)
            .output_arc(trigger, 1)
            .build();
        b.instantaneous_activity("low", 1)
            .input_arc(trigger, 1)
            .output_arc(lo, 1)
            .build();
        b.instantaneous_activity("high", 2)
            .input_arc(trigger, 1)
            .output_arc(hi, 1)
            .build();
        b.build().unwrap()
    }

    #[test]
    fn instantaneous_priority_order() {
        // The higher-priority activity must fire first and steal the
        // token.
        let san = priority_model();
        let mut sim = Simulator::new(&san, 0).unwrap();
        sim.run_until(SimTime::from_secs(5.0)).unwrap();
        let count = |name| sim.firing_count(san.activity_by_name(name).unwrap());
        assert_eq!((count("high"), count("low")), (1, 0));
        assert!(sim.marking().has_token(san.place_by_name("hi").unwrap()));
        assert!(!sim.marking().has_token(san.place_by_name("lo").unwrap()));
    }

    #[test]
    fn settle_fires_by_priority_rank_across_words() {
        // 130 instantaneous activities (three rank words), all waiting on
        // one trigger and each on a token of its own. Priorities repeat
        // and run against definition order, so rank order differs from
        // index order. Only ranks from 70 on hold their own token: the
        // walk passes 70 disabled candidates, into the second word, and
        // three trigger tokens fire ranks 70, 71 and 72 in that order.
        let priority = |k: usize| (k * 37) % 50;
        let mut by_rank: Vec<usize> = (0..130).collect();
        by_rank.sort_by_key(|&k| (std::cmp::Reverse(priority(k)), k));
        let mut b = SanBuilder::new("ranks");
        let src = b.place("src", 1);
        let trigger = b.place("trigger", 0);
        b.timed_activity("arm", Delay::from(Dist::deterministic(1.0)))
            .input_arc(src, 1)
            .output_arc(trigger, 3)
            .build();
        for k in 0..130 {
            let rank = by_rank.iter().position(|&j| j == k).unwrap();
            let own = b.place(format!("own{k}"), u64::from(rank >= 70));
            b.instantaneous_activity(format!("i{k}"), priority(k) as u32)
                .input_arc(trigger, 1)
                .input_arc(own, 1)
                .build();
        }
        let san = b.build().unwrap();
        assert_eq!(san.compiled.rank_words, 3);
        let mut log = FiringLog::default();
        let mut sim = Simulator::new(&san, 0).unwrap();
        sim.set_observer(&mut log);
        sim.run_until(SimTime::from_secs(2.0)).unwrap();
        drop(sim);
        let fired: Vec<&str> = log.0.iter().skip(1).map(|(_, n)| n.as_str()).collect();
        let expected: Vec<String> = by_rank[70..73].iter().map(|k| format!("i{k}")).collect();
        assert_eq!(fired, expected);
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
        // same bits.
        let san = repair_model();
        let up = san.place_by_name("up").unwrap();
        let run = |declare: bool| {
            let mut sim = Simulator::new(&san, 6).unwrap();
            let spec = RewardSpec::rate("avail", move |m| if m.has_token(up) { 1.0 } else { 0.0 });
            let spec = if declare { spec.reads(&[up]) } else { spec };
            sim.add_reward(spec).unwrap();
            sim.run_for(SimTime::from_secs(50_000.0)).unwrap();
            sim.reward_report().value("avail").unwrap().total
        };
        assert_eq!(run(true).to_bits(), run(false).to_bits());
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
        let mut sim = Simulator::with_reactivation(&san, 1, ReactivationMode::Lazy).unwrap();
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
    fn lazy_skipped_redraws_pass_the_full_scan_check() {
        // Under lazy mode no noise firing visits the pending `fail` or
        // `repair` timer, so each keeps a sample drawn under an older
        // marking. The full scan would visit it and elide the redraw,
        // so the per-event check accepts that, and this run makes it
        // accept it on most events: eager resampling redraws on every
        // noise firing and so draws about twice the words.
        let san = resample_repair_model();
        let draws = |mode| {
            let mut sim = Simulator::with_reactivation(&san, 9, mode).unwrap();
            sim.run_for(SimTime::from_secs(50_000.0)).unwrap();
            sim.rng.words_drawn()
        };
        let (lazy, eager) = (
            draws(ReactivationMode::Lazy),
            draws(ReactivationMode::Resample),
        );
        assert!(3 * lazy < 2 * eager, "lazy {lazy} words, eager {eager}");
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
        let mut sim = Simulator::with_reactivation(&san, 7, ReactivationMode::Lazy).unwrap();
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
            let mut sim = Simulator::with_reactivation(&san, 13, reactivation).unwrap();
            sim.run_for(SimTime::from_secs(50_000.0)).unwrap();
            (
                sim.firing_count(san.activity_by_name("fail").unwrap()),
                sim.firing_count(san.activity_by_name("repair").unwrap()),
            )
        };
        assert_ne!(run(ReactivationMode::Resample), run(ReactivationMode::Lazy));
    }

    #[test]
    fn elided_redraws_count_every_marking_change() {
        // `slow` never completes within the run, so it stays pending
        // while `tick` changes the marking once a second: resample mode
        // redraws it at each of the `N` changes, and lazy mode keeps
        // its first sample every time. Whether or not `slow` reads a
        // place `tick` changes, the count is `N` by construction.
        const N: u64 = 40;
        for reads_tick in [false, true] {
            let mut b = SanBuilder::new("elided");
            let clock = b.place("clock", 1);
            let ticks = b.place("ticks", 0);
            let slow_done = b.place("slow_done", 0);
            b.timed_activity("tick", Delay::from(Dist::deterministic(1.0)))
                .input_arc(clock, 1)
                .output_arc(clock, 1)
                .output_arc(ticks, 1)
                .build();
            let slow = b
                .timed_activity("slow", Delay::from(Dist::exponential(1e-12)))
                .reactivation(Reactivation::Resample)
                .output_arc(slow_done, 1);
            if reads_tick {
                slow.input_arc(clock, 1).output_arc(clock, 1).build();
            } else {
                slow.build();
            }
            let san = b.build().unwrap();
            let run = |mode, telemetry: bool| {
                let mut sim = Simulator::with_reactivation(&san, 3, mode).unwrap();
                if telemetry {
                    sim.enable_telemetry();
                }
                sim.run_for(SimTime::from_secs(N as f64 + 0.5)).unwrap();
                assert_eq!(sim.events_processed(), N);
                (
                    sim.rng.words_drawn(),
                    sim.telemetry_snapshot().map(|t| t.redraws_elided),
                )
            };
            let (lazy_words, elided) = run(ReactivationMode::Lazy, true);
            assert_eq!(elided, Some(N), "reads_tick {reads_tick}");
            let (eager_words, eager_elided) = run(ReactivationMode::Resample, true);
            assert_eq!(eager_elided, Some(0));
            assert_eq!(eager_words - lazy_words, N, "one word per redraw");
            // The count is telemetry: it never changes sampling.
            assert_eq!(run(ReactivationMode::Lazy, false), (lazy_words, None));
        }
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

    // Mutants of the executor's derived state that the per-event
    // full-scan checks must catch. Each leaves every timed activity
    // pending iff enabled and no instantaneous one enabled between
    // events, so only the check named in `expected` sees it. The checks
    // are debug-only, and so are these tests.

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "kept a sample the full scan would redraw")]
    fn a_resample_timer_missing_from_the_global_row_is_caught() {
        // A noise firing leaves `fail` unvisited: its places did not
        // change, so it stays enabled and armed, but on a sample the
        // full scan would have redrawn.
        let mut san = resample_repair_model();
        san.compiled.global_timed_mask.fill(0);
        let mut sim = Simulator::new(&san, 0).unwrap();
        sim.run_for(SimTime::from_secs(100.0)).unwrap();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "settle chose another instantaneous activity than the full scan")]
    fn an_instantaneous_activity_missing_from_its_rows_is_caught() {
        // With `high` in no place's row, settle never considers it and
        // `low` takes the token; that disables `high` again, so the
        // marking at the end of the event looks settled.
        let mut san = priority_model();
        let high = san.activity_by_name("high").unwrap();
        san.compiled.forget_inst_dependent(high.0);
        let mut sim = Simulator::new(&san, 0).unwrap();
        sim.run_until(SimTime::from_secs(5.0)).unwrap();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "declared reads omit a place the rate reads")]
    fn a_rate_reward_with_incomplete_reads_is_caught() {
        // The rate reads `up` but declares no support, so its cache
        // keeps the initial 1.0 after the first failure.
        let san = repair_model();
        let up = san.place_by_name("up").unwrap();
        let mut sim = Simulator::new(&san, 6).unwrap();
        let spec = RewardSpec::rate("avail", move |m| if m.has_token(up) { 1.0 } else { 0.0 });
        sim.add_reward(spec.reads(&[])).unwrap();
        sim.run_for(SimTime::from_secs(1_000.0)).unwrap();
    }
}
