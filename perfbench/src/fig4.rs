//! The `fig4_point` part: the paper's reference point (65,536
//! processors, Table 3 defaults, 1,000 h transient, 20,000 h horizon) run
//! through `ckpt_svc::run_local` exactly as `ckptsim run --jobs 1` runs
//! it, on three legs: SAN in the default modes, SAN with lazy
//! reactivation, and the direct engine, each on the workload's event
//! queue. Nearly all time goes to the engine hot loops. The untraced
//! rounds cycle through three seeds of the point.
//!
//! The traced pass runs each leg through `run_local` and, right after
//! it, replays the leg through the engines' public entry points
//! (`CheckpointSan::build` / `run`, `DirectSimulator::run`) under spans,
//! checks the replay is bit-identical to `run_local`, and times the
//! event queue and the samplers on their own.

use crate::common::{repeat, timed, Ctx, SETUPS};
use crate::hostspeed::{self, Probe, Timing};
use crate::report::{median, Digest, Report};
use crate::trace::Tracer;
use ckpt_analytic::daly;
use ckpt_core::direct::DirectSimulator;
use ckpt_core::san_model::{CheckpointSan, RunOptions as SanRunOptions};
use ckpt_core::{EngineKind, Estimate, Metrics, QueueKind, ReactivationMode, SystemConfig};
use ckpt_des::{EventId, EventQueue, SimRng, SimTime};
use ckpt_harness::ExperimentSpec;
use ckpt_stats::dist::sample_max_exponential;
use ckpt_stats::{Dist, Sample};
use ckpt_svc::{run_local, LocalRun};
use std::hint::black_box;

/// Known SAN-minus-direct offset of the useful-work fraction at this
/// point (EXPERIMENTS.md, cross-engine table).
const SAN_OFFSET: f64 = 0.008;

#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub processors: u64,
    pub reps: u32,
    pub transient_h: f64,
    pub horizon_h: f64,
    /// Horizon of the warm-up run of each leg during set-up.
    pub warmup_h: f64,
    /// Allowed |direct − Daly| of the useful-work fraction.
    pub daly_tol: f64,
    /// Allowed |SAN − direct − offset| of the useful-work fraction.
    pub san_tol: f64,
    /// Operations per micro-measurement of the queue and samplers.
    pub micro_ops: usize,
}

impl Size {
    pub const FULL: Size = Size {
        processors: 65_536,
        reps: 3,
        transient_h: 1_000.0,
        horizon_h: 20_000.0,
        warmup_h: 2_000.0,
        daly_tol: 0.012,
        san_tol: 0.015,
        micro_ops: 2_000_000,
    };
    /// Smoke size: too short for the statistical checks to mean
    /// anything, so their tolerances admit any fraction.
    pub const TINY: Size = Size {
        processors: 65_536,
        reps: 1,
        transient_h: 20.0,
        horizon_h: 200.0,
        warmup_h: 20.0,
        daly_tol: 1.0,
        san_tol: 1.0,
        micro_ops: 10_000,
    };
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    Direct,
    San,
    Lazy,
}

const LEGS: [Leg; 3] = [Leg::Direct, Leg::San, Leg::Lazy];

impl Leg {
    fn metric(self) -> &'static str {
        match self {
            Leg::Direct => "direct_s",
            Leg::San => "san_s",
            Leg::Lazy => "san_lazy_s",
        }
    }

    fn reactivation(self) -> ReactivationMode {
        match self {
            Leg::Lazy => ReactivationMode::Lazy,
            Leg::Direct | Leg::San => ReactivationMode::Resample,
        }
    }

    /// The host-speed probe whose slowdown tracks this leg's.
    fn probe(self) -> Probe {
        match self {
            Leg::Direct => Probe::EventLoop,
            Leg::San | Leg::Lazy => Probe::AllocChurn,
        }
    }

    /// Span name of one replication in the traced replay.
    fn replication_span(self) -> &'static str {
        match self {
            Leg::Direct => "core.direct.replication",
            Leg::San => "core.san_model.run",
            Leg::Lazy => "core.san_model.run_lazy",
        }
    }
}

fn config(size: &Size) -> SystemConfig {
    SystemConfig::builder()
        .processors(size.processors)
        .build()
        .expect("Table 3 defaults are valid")
}

/// The point every leg simulates: its size, event queue and seed.
#[derive(Debug, Clone, Copy)]
struct Point {
    size: Size,
    queue: QueueKind,
    seed: u64,
}

impl Point {
    /// The spec of `leg` at the point's size.
    fn spec(&self, leg: Leg) -> ExperimentSpec {
        let size = &self.size;
        self.spec_of(leg, size.transient_h, size.horizon_h, size.reps)
    }

    /// The spec of `leg`'s one-replication warm-up run.
    fn warm_spec(&self, leg: Leg) -> ExperimentSpec {
        let warmup_h = self.size.warmup_h;
        self.spec_of(leg, warmup_h / 10.0, warmup_h, 1)
    }

    fn spec_of(&self, leg: Leg, transient_h: f64, horizon_h: f64, reps: u32) -> ExperimentSpec {
        ExperimentSpec::builder(config(&self.size))
            .engine(if leg == Leg::Direct {
                EngineKind::Direct
            } else {
                EngineKind::San
            })
            .reactivation(leg.reactivation())
            .queue(self.queue)
            .transient(SimTime::from_hours(transient_h))
            .horizon(SimTime::from_hours(horizon_h))
            .replications(reps)
            .seed(self.seed)
            .jobs(1)
            .build()
            .expect("fig4 spec is valid")
    }
}

/// Daly's useful-work fraction at the configured interval, with the
/// non-overlapped protocol overhead (broadcast + quiesce + dump).
fn daly_fraction(cfg: &SystemConfig) -> f64 {
    let overhead = cfg.quiesce_broadcast_latency().as_secs()
        + cfg.mttq().as_secs()
        + cfg.checkpoint_dump_time().as_secs();
    daly::useful_work_fraction(
        cfg.checkpoint_interval().as_secs(),
        overhead,
        cfg.mttr_system().as_secs(),
        1.0 / cfg.compute_failure_rate(),
    )
}

fn digest_of(replicates: &[Metrics], events: &[u64]) -> Digest {
    let mut d = Digest::default();
    for m in replicates {
        d.str(&format!("{m:?}"));
    }
    for &e in events {
        d.u64(e);
    }
    d
}

fn estimate_digest(est: &Estimate) -> Digest {
    let events: Vec<u64> = est.profiles().iter().map(|p| p.events).collect();
    digest_of(est.replicates(), &events)
}

/// What the end-to-end legs produced in their first round: the
/// reference every later round and the traced replay must reproduce.
#[derive(Default)]
struct Reference {
    digests: Vec<Option<Digest>>,
    replicates: Vec<Vec<Metrics>>,
}

/// One untraced round: each leg through `run_local`, timed and checked.
fn e2e_round(
    point: &Point,
    reference: &mut Reference,
    walls: &mut [Vec<Timing>; 3],
    report: &mut Report,
) {
    let size = &point.size;
    let daly_uwf = daly_fraction(&config(size));
    let mut direct_uwf = None;
    for (i, leg) in LEGS.into_iter().enumerate() {
        let s = point.spec(leg);
        let (est, timing) = hostspeed::timed(leg.probe(), || run_local(&s, LocalRun::default()));
        let ok = match est {
            Err(e) => report.check("fig4.runs", false, || format!("{leg:?}: {e}")),
            Ok(est) => {
                walls[i].push(timing);
                let digest = estimate_digest(&est);
                let first = *reference.digests[i].get_or_insert(digest);
                let uwf = est.useful_work_fraction().mean;
                if reference.replicates[i].is_empty() {
                    reference.replicates[i] = est.replicates().to_vec();
                    report.notes.push(format!(
                        "fig4 {leg:?} seed {:#x}: useful-work fraction {uwf:.4} (Daly {daly_uwf:.4}), {} events",
                        point.seed,
                        est.profiles().iter().map(|p| p.events).sum::<u64>()
                    ));
                }
                let mut ok = report.check("fig4.runs", true, String::new);
                ok &= report.check("fig4.deterministic", digest == first, || {
                    format!("{leg:?} digest {:016x} != {:016x}", digest.0, first.0)
                });
                match leg {
                    Leg::Direct => {
                        direct_uwf = Some(uwf);
                        ok &= report.check(
                            "fig4.direct_vs_daly",
                            (uwf - daly_uwf).abs() <= size.daly_tol,
                            || {
                                format!(
                                    "direct {uwf:.4} vs Daly {daly_uwf:.4} (tol {})",
                                    size.daly_tol
                                )
                            },
                        );
                    }
                    Leg::San | Leg::Lazy => {
                        let direct = direct_uwf.unwrap_or(f64::NAN);
                        ok &= report.check(
                            "fig4.san_vs_direct",
                            (uwf - direct - SAN_OFFSET).abs() <= size.san_tol,
                            || {
                                format!(
                                    "{leg:?} {uwf:.4} vs direct {direct:.4} + {SAN_OFFSET} (tol {})",
                                    size.san_tol
                                )
                            },
                        );
                    }
                }
                ok
            }
        };
        report.op(ok);
    }
}

/// One leg of a traced round: the replicates `run_local` produced, and
/// the replicates and event counts of the replay that followed it.
#[derive(Default)]
struct LegRun {
    local: Vec<Metrics>,
    replayed: Vec<Metrics>,
    events: Vec<u64>,
}

/// Runs every leg through `run_local` under a span and right after it
/// replays the leg through the engines' public entry points under
/// spans, so both sides of the experiment overhead come from one round.
fn replay(point: &Point, tracer: &Tracer) -> Result<[LegRun; 3], String> {
    let Point { size, queue, seed } = *point;
    let cfg = config(&size);
    let transient = SimTime::from_hours(size.transient_h);
    let horizon = SimTime::from_hours(size.horizon_h);
    let mut out: [LegRun; 3] = Default::default();
    for (i, leg) in LEGS.into_iter().enumerate() {
        let s = point.spec(leg);
        let est = tracer
            .span("core.experiment.run_local", || {
                run_local(&s, LocalRun::default())
            })
            .map_err(|e| e.to_string())?;
        let run = &mut out[i];
        run.local = est.replicates().to_vec();
        let (metrics, events) = (&mut run.replayed, &mut run.events);
        if leg == Leg::Direct {
            for k in 0..u64::from(size.reps) {
                let (m, e) = tracer.span(leg.replication_span(), || {
                    let mut sim = DirectSimulator::with_queue(&cfg, seed + k, queue);
                    tracer.span("core.direct.run", || sim.run(transient));
                    sim.reset_metrics();
                    tracer.span("core.direct.run", || sim.run(horizon));
                    (sim.metrics(), sim.events_processed())
                });
                metrics.push(m);
                events.push(e);
            }
            continue;
        }
        let model = tracer
            .span("core.san_model.build", || CheckpointSan::build(&cfg))
            .map_err(|e| e.to_string())?;
        for k in 0..u64::from(size.reps) {
            let opts = SanRunOptions {
                seed: seed + k,
                transient,
                horizon,
                reactivation: leg.reactivation(),
                queue,
                ..SanRunOptions::default()
            };
            let outcome = tracer
                .span(leg.replication_span(), || model.run(&opts))
                .map_err(|e| e.to_string())?;
            metrics.push(outcome.metrics);
            events.push(outcome.events);
        }
    }
    Ok(out)
}

/// Nanoseconds per queue operation on a hold model shaped like the
/// fig4 SAN's future-event list: a dozen always-armed timers; every
/// event pops one, re-arms it, redraws another, and one event in five
/// cancels and re-arms a third — 3.2 queue operations per event.
fn queue_ns_per_op(queue: QueueKind, ops: usize, seed: u64) -> f64 {
    const TIMERS: usize = 12;
    let mut rng = SimRng::seed_from_u64(seed);
    let delays: Vec<f64> = (0..ops + TIMERS)
        .map(|_| rng.exponential(1.0 / 600.0))
        .collect();
    let mut next = delays.iter().copied().cycle();
    let mut q: EventQueue<usize> = EventQueue::with_kind(queue);
    let mut ids: Vec<EventId> = (0..TIMERS)
        .map(|t| q.schedule(SimTime::from_secs(next.next().unwrap_or(1.0)), t))
        .collect();
    let mut done = 0usize;
    let (_, secs) = timed(|| {
        let mut step = 0usize;
        while done < ops {
            let ev = q.pop().expect("timers stay armed");
            let now = ev.time();
            let fired = ev.into_payload();
            ids[fired] = q.schedule(now + SimTime::from_secs(next.next().unwrap_or(1.0)), fired);
            let redraw = (fired + 1 + step % (TIMERS - 1)) % TIMERS;
            q.reschedule(
                ids[redraw],
                now + SimTime::from_secs(next.next().unwrap_or(1.0)),
            );
            done += 3;
            if step.is_multiple_of(5) {
                let victim = (redraw + 1 + step % (TIMERS - 2)) % TIMERS;
                q.cancel(ids[victim]);
                ids[victim] =
                    q.schedule(now + SimTime::from_secs(next.next().unwrap_or(1.0)), victim);
                done += 2;
            }
            step += 1;
        }
        black_box(q.len());
    });
    secs * 1e9 / done as f64
}

fn exp_draw_ns(draws: usize, seed: u64) -> f64 {
    let dist = Dist::exponential(1.0 / 3600.0);
    let mut rng = SimRng::seed_from_u64(seed);
    let (sum, secs) = timed(|| (0..draws).map(|_| dist.sample(&mut rng)).sum::<f64>());
    black_box(sum);
    secs * 1e9 / draws as f64
}

fn max_of_n_draw_ns(draws: usize, n: u64, seed: u64) -> f64 {
    let mut rng = SimRng::seed_from_u64(seed);
    let (sum, secs) = timed(|| {
        (0..draws)
            .map(|_| sample_max_exponential(n, 1.0 / 30.0, &mut rng))
            .sum::<f64>()
    });
    black_box(sum);
    secs * 1e9 / draws as f64
}

/// Set-up: specs and model built, and each leg warmed up on a short
/// run. Returns its timing, normalised like the SAN legs, whose
/// warm-ups take most of it.
fn setup_once(point: &Point) -> Result<Timing, String> {
    let (res, timing) = hostspeed::timed(Probe::AllocChurn, || -> Result<(), String> {
        for leg in LEGS {
            black_box(point.spec(leg));
            run_local(&point.warm_spec(leg), LocalRun::default()).map_err(|e| e.to_string())?;
        }
        black_box(CheckpointSan::build(&config(&point.size)).map_err(|e| e.to_string())?);
        Ok(())
    });
    res.map(|()| timing)
}

/// Points a run's rounds cycle through, one seed each. The calendar
/// queue calibrates its bucket width from the event times it sees, so a
/// point's cost can depend on its seed; a run's medians cover several.
/// Each point's later rounds must reproduce its first bit for bit.
const POINTS: u64 = 3;

/// The part between its set-up and its report.
pub struct Part {
    points: Vec<Point>,
    setups: Vec<Timing>,
    /// One per point.
    references: Vec<Reference>,
    rounds: usize,
    walls: [Vec<Timing>; 3],
}

/// Sets the part up [`SETUPS`] times, for the median set-up time.
pub fn setup(ctx: &Ctx, size: &Size) -> Result<Part, String> {
    let points: Vec<Point> = (0..POINTS)
        .map(|k| Point {
            size: *size,
            queue: ctx.queue,
            seed: ctx.derive(0x4f14 + k),
        })
        .collect();
    let setups = (0..SETUPS)
        .map(|_| setup_once(&points[0]))
        .collect::<Result<Vec<_>, _>>()?;
    let references = points
        .iter()
        .map(|_| Reference {
            digests: vec![None; 3],
            replicates: vec![Vec::new(); 3],
        })
        .collect();
    Ok(Part {
        points,
        setups,
        references,
        rounds: 0,
        walls: Default::default(),
    })
}

impl Part {
    /// One timed and checked end-to-end round, on the next point.
    pub fn round(&mut self, report: &mut Report) {
        let k = self.rounds % self.points.len();
        self.rounds += 1;
        e2e_round(
            &self.points[k],
            &mut self.references[k],
            &mut self.walls,
            report,
        );
    }

    /// Reports the legs' median times, adds the set-up time and the
    /// digest.
    pub fn finish(self, report: &mut Report) {
        for (i, leg) in LEGS.into_iter().enumerate() {
            hostspeed::report_time(report, leg.metric(), &self.walls[i]);
        }
        report.setup_s += hostspeed::checked_median(report, "setup_s fig4_point", &self.setups);
        self.digest_into(report);
    }

    /// The traced pass: one checked end-to-end round on the first
    /// point, then the layers on the same point.
    pub fn traced(mut self, ctx: &Ctx, report: &mut Report, tracer: &Tracer) -> Result<(), String> {
        self.round(report);
        traced(ctx, &self.points[0], &self.references[0], report, tracer)?;
        self.digest_into(report);
        Ok(())
    }

    fn digest_into(&self, report: &mut Report) {
        for r in &self.references {
            for d in r.digests.iter().flatten() {
                report.digest.u64(d.0);
            }
        }
    }
}

/// The traced pass: after one checked end-to-end round, rounds of
/// `run_local` plus replay with the tracer off and on, in turn; then the
/// layer legs.
fn traced(
    ctx: &Ctx,
    point: &Point,
    reference: &Reference,
    report: &mut Report,
    tracer: &Tracer,
) -> Result<(), String> {
    let Point { size, queue, seed } = *point;
    let off = Tracer::new(false);
    let (mut off_walls, mut on_walls) = (Vec::new(), Vec::new());
    let mut per_round: Vec<[f64; 14]> = Vec::new();
    let mut failure = None;
    repeat(ctx.seconds, 2 * ctx.min_rounds().min(2), |round| {
        let on = round % 2 == 1;
        if on {
            tracer.clear();
        }
        let (out, wall) = timed(|| replay(point, if on { tracer } else { &off }));
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                let ok = report.check("fig4.replay_runs", false, || e.clone());
                report.op(ok);
                failure = Some(e);
                return;
            }
        };
        let same = out
            .iter()
            .zip(&reference.replicates)
            .all(|(run, first)| run.replayed == run.local && run.local == *first);
        let ok = report.check("fig4.replay_bit_identical", same, || {
            "replayed replicates differ from run_local's".into()
        });
        report.op(ok);
        if !on {
            off_walls.push(wall);
            return;
        }
        on_walls.push(wall);
        let events = |i: usize| out[i].events.iter().sum::<u64>() as f64;
        let khours = f64::from(size.reps) * (size.transient_h + size.horizon_h) / 1000.0;
        let rep_sum = |leg: Leg| tracer.total(leg.replication_span());
        // One `run_local` span per leg, in the order of LEGS.
        let local = tracer.durations("core.experiment.run_local");
        let replications: f64 = LEGS.into_iter().map(rep_sum).sum();
        per_round.push([
            median(&tracer.durations("core.san_model.build")) * 1e3,
            rep_sum(Leg::San) * 1e9 / events(1),
            events(1) / khours,
            rep_sum(Leg::Lazy) * 1e9 / events(2),
            events(2) / khours,
            tracer.total("core.direct.run") * 1e9 / events(0),
            events(0) / khours,
            1.0 - replications / local.iter().sum::<f64>(),
            rep_sum(Leg::Direct),
            rep_sum(Leg::San),
            rep_sum(Leg::Lazy),
            local[0],
            local[1],
            local[2],
        ]);
    });
    if let Some(e) = failure {
        return Err(e);
    }
    let col = |c: usize| median(&per_round.iter().map(|r| r[c]).collect::<Vec<_>>());
    report.metric("core.san_model.build_ms", col(0), "ms");
    report.metric("core.san_model.ns_per_event", col(1), "ns");
    report.metric("core.san_model.events_per_khour", col(2), "count");
    report.metric("core.san_model.lazy_ns_per_event", col(3), "ns");
    report.metric("core.san_model.lazy_events_per_khour", col(4), "count");
    report.metric("core.direct.ns_per_event", col(5), "ns");
    report.metric("core.direct.events_per_khour", col(6), "count");
    report.metric("core.experiment.overhead_share", col(7), "share");
    // The raw wall times behind the host-normalised end-to-end legs.
    report.metric("core.experiment.direct_run_local_s", col(11), "s");
    report.metric("core.experiment.san_run_local_s", col(12), "s");
    report.metric("core.experiment.lazy_run_local_s", col(13), "s");
    for (i, leg) in LEGS.into_iter().enumerate() {
        report.notes.push(format!(
            "fig4 {leg:?}: replication spans {:.4} s vs run_local {:.4} s in the same round (medians over {} traced rounds)",
            col(8 + i),
            col(11 + i),
            per_round.len()
        ));
    }

    let micro = |name: &str, f: &dyn Fn(u64) -> f64| {
        let xs: Vec<f64> = (0..5).map(|k| tracer.span(name, || f(seed + k))).collect();
        median(&xs)
    };
    let ops = size.micro_ops;
    let queue = micro("des.queue.hold", &|s| queue_ns_per_op(queue, ops, s));
    let exp = micro("stats.exp_draw", &|s| exp_draw_ns(ops, s));
    let max_n = micro("stats.max_of_n_draw", &|s| {
        max_of_n_draw_ns(ops / 4, size.processors, s)
    });
    report.metric("des.queue.ns_per_op", queue, "ns");
    report.metric("stats.exp_draw_ns", exp, "ns");
    report.metric("stats.max_of_n_draw_ns", max_n, "ns");
    report.add_traced_walls(&off_walls, &on_walls);
    Ok(())
}
