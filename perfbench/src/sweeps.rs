//! The `sweeps` part: every figure sweep of `figures::all_figures()` (14
//! figures, 369 cells, 1 to 2^30 processors) through `run_sweep` at
//! `--quick` size with `--jobs` = nproc, rendered with `table::to_csv`
//! and `svg::render`, then the default `ckptsim optimize` search through
//! `ckpt_cli::optimize::run_search`, all on the workload's event queue.
//! Hundreds of short direct-engine
//! experiments: per-experiment overhead and the sweep's parallel load
//! balance show here; there is no SAN and no disk I/O.
//!
//! The traced pass re-runs every cell one at a time under a span, so the
//! cell time the sweep spread over its workers can be set against the
//! sweep's wall time.

use crate::common::{repeat, timed, Ctx, SETUPS};
use crate::hostspeed::{self, Probe, Timing};
use crate::report::{median, Digest, Report};
use crate::trace::Tracer;
use ckpt_bench::figures::{all_figures, FigureSpec};
use ckpt_bench::sweep::Metric;
use ckpt_bench::{experiment_spec, run_sweep, svg, table, RunOptions, Series};
use ckpt_core::{EngineKind, Estimate, SystemConfig};
use ckpt_des::SimTime;
use ckpt_harness::json::{parse, JsonValue};
use ckpt_harness::ExecFlags;
use std::hint::black_box;

#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Figure sweeps: replications, transient and horizon per cell.
    pub reps: u32,
    pub transient_h: f64,
    pub horizon_h: f64,
    /// The optimize search: replications, transient and horizon per
    /// candidate.
    pub opt_reps: u32,
    pub opt_transient_h: f64,
    pub opt_horizon_h: f64,
}

impl Size {
    /// `--quick` figures and the default optimize options.
    pub const FULL: Size = Size {
        reps: 2,
        transient_h: 200.0,
        horizon_h: 2_000.0,
        opt_reps: 3,
        opt_transient_h: 1_000.0,
        opt_horizon_h: 20_000.0,
    };
    pub const TINY: Size = Size {
        reps: 1,
        transient_h: 2.0,
        horizon_h: 20.0,
        opt_reps: 1,
        opt_transient_h: 10.0,
        opt_horizon_h: 100.0,
    };
}

/// Optimize candidates for Table 3 defaults on the direct engine: the
/// seven-interval grid, Daly-optimal and load-adaptive.
const OPTIMIZE_CANDIDATES: usize = 9;

fn options(reps: u32, transient_h: f64, horizon_h: f64, seed: u64, ctx: &Ctx) -> RunOptions {
    RunOptions {
        engine: EngineKind::Direct,
        reps,
        transient: SimTime::from_hours(transient_h),
        horizon: SimTime::from_hours(horizon_h),
        seed,
        jobs: ctx.nproc,
        exec: ExecFlags {
            quiet: true,
            queue: ctx.queue,
            ..ExecFlags::default()
        },
        ..RunOptions::default()
    }
}

/// Everything a round needs, built during set-up.
struct Inputs {
    figures: Vec<(&'static str, FigureSpec)>,
    base: SystemConfig,
    opts: RunOptions,
    opt_opts: RunOptions,
}

fn inputs(ctx: &Ctx, size: &Size) -> Inputs {
    Inputs {
        figures: all_figures(),
        base: SystemConfig::builder()
            .build()
            .expect("Table 3 defaults are valid"),
        opts: options(
            size.reps,
            size.transient_h,
            size.horizon_h,
            ctx.derive(0x5e7),
            ctx,
        ),
        opt_opts: options(
            size.opt_reps,
            size.opt_transient_h,
            size.opt_horizon_h,
            ctx.derive(0x0b7),
            ctx,
        ),
    }
}

fn y_name(metric: Metric) -> &'static str {
    match metric {
        Metric::UsefulWorkFraction => "useful work fraction",
        Metric::TotalUsefulWork => "total useful work (job units)",
    }
}

fn x_scale(spec: &FigureSpec) -> svg::XScale {
    if spec.x_name.contains("processors") || spec.x_name == "nodes" {
        svg::XScale::Log2
    } else {
        svg::XScale::Linear
    }
}

/// The CSV and SVG of a figure, as `ckptsim all` renders them.
fn render(spec: &FigureSpec, series: &[Series]) -> (String, String) {
    (
        table::to_csv(&spec.x_name, series),
        svg::render(
            &spec.title,
            &spec.x_name,
            y_name(spec.metric),
            series,
            x_scale(spec),
        ),
    )
}

fn points_per_series(spec: &FigureSpec) -> Vec<usize> {
    let mut n = vec![0usize; spec.labels.len()];
    for c in &spec.cells {
        n[c.series] += 1;
    }
    n
}

/// What the first round produced: every later round, and the traced
/// cell re-runs, must reproduce it.
#[derive(Default)]
struct Reference {
    series: Vec<Vec<Series>>,
    digest: Option<Digest>,
    report: Option<String>,
}

/// Timings of one untraced round.
struct RoundWalls {
    figures: Timing,
    /// Wall seconds inside the `run_sweep` calls (rendering excluded).
    sweeps_only: f64,
    optimize: Timing,
}

impl RoundWalls {
    /// Seconds spent in `run_sweep` and `run_search`.
    fn sweeping(&self) -> f64 {
        self.sweeps_only + self.optimize.wall
    }
}

fn e2e_round(inp: &Inputs, reference: &mut Reference, report: &mut Report) -> RoundWalls {
    let mut digest = Digest::default();
    let mut sweeps_only = 0.0;
    let mut all_series = Vec::new();
    let ((), figures) = hostspeed::timed(Probe::EventLoop, || {
        for (id, spec) in &inp.figures {
            let (series, secs) =
                timed(|| run_sweep(&spec.labels, spec.cells.clone(), spec.metric, &inp.opts));
            sweeps_only += secs;
            let series = match series {
                Ok(s) => s,
                Err(e) => {
                    let ok = report.check("sweeps.runs", false, || format!("{id}: {e}"));
                    report.op(ok);
                    continue;
                }
            };
            let shape_ok = series.len() == spec.labels.len()
                && series
                    .iter()
                    .zip(points_per_series(spec))
                    .all(|(s, n)| s.points.len() == n)
                && series
                    .iter()
                    .flat_map(|s| &s.points)
                    .all(|p| p.y.is_finite() && p.half_width.is_finite());
            let mut ok = report.check("sweeps.runs", true, String::new);
            ok &= report.check("sweeps.figure_shape", shape_ok, || {
                format!("{id}: series × points or finiteness wrong")
            });
            let (csv, chart) = render(spec, &series);
            digest.str(id);
            for p in series.iter().flat_map(|s| &s.points) {
                digest.f64(p.x);
                digest.f64(p.y);
                digest.f64(p.half_width);
            }
            digest.str(&csv);
            black_box(chart.len());
            report.op(ok);
            all_series.push(series);
        }
    });
    let first = *reference.digest.get_or_insert(digest);
    let same = report.check("sweeps.deterministic", digest == first, || {
        format!("figures digest {:016x} != {:016x}", digest.0, first.0)
    });
    if reference.series.is_empty() {
        reference.series = all_series;
    }
    // The figure ops already counted; a drifting digest fails one more.
    if !same {
        report.op(false);
    }

    let (search, optimize) = hostspeed::timed(Probe::EventLoop, || {
        ckpt_cli::optimize::run_search(&inp.base, &inp.opt_opts)
    });
    let ok = match search {
        Err(e) => report.check("optimize.runs", false, || e.to_string()),
        Ok(doc) => {
            let mut ok = report.check("optimize.runs", true, String::new);
            ok &= check_optimize_report(&doc, reference.report.is_none(), report);
            let first = reference.report.get_or_insert_with(|| doc.clone());
            ok &= report.check("optimize.deterministic", *first == doc, || {
                "optimize report bytes changed between rounds".into()
            });
            ok
        }
    };
    report.op(ok);
    RoundWalls {
        figures,
        sweeps_only,
        optimize,
    }
}

/// The report lists every candidate and names a winner among them. The
/// `first` report's winner goes into the notes.
fn check_optimize_report(doc: &str, first: bool, report: &mut Report) -> bool {
    let parsed = parse(doc).ok();
    let candidates = parsed
        .as_ref()
        .and_then(|d| d.get("candidates"))
        .and_then(JsonValue::as_array)
        .map_or(0, <[JsonValue]>::len);
    let winner = parsed
        .as_ref()
        .and_then(|d| d.get("winner"))
        .and_then(|w| w.get("label"))
        .and_then(JsonValue::as_str)
        .map(str::to_string);
    let ok = candidates == OPTIMIZE_CANDIDATES && winner.is_some();
    if ok && first {
        report.notes.push(format!(
            "optimize winner: {}",
            winner.as_deref().unwrap_or_default()
        ));
    }
    report.check("optimize.names_winner", ok, || {
        format!("{candidates} candidates, winner {winner:?}")
    })
}

fn cell_value(metric: Metric, est: &Estimate) -> f64 {
    match metric {
        Metric::UsefulWorkFraction => est.useful_work_fraction().mean,
        Metric::TotalUsefulWork => est.total_useful_work().mean,
    }
}

/// Per-round totals of the traced cell re-runs.
#[derive(Default)]
struct CellTotals {
    figure_cells: usize,
    figure_events: u64,
    events: u64,
    profile_secs: f64,
}

/// Re-runs every figure cell and optimize candidate one at a time under
/// spans, and renders every figure under a span.
fn cell_reruns(
    inp: &Inputs,
    reference: &Reference,
    tracer: &Tracer,
    report: &mut Report,
) -> CellTotals {
    let mut totals = CellTotals::default();
    let run_cells = |cells: Vec<(SystemConfig, Option<(Metric, f64)>)>,
                     opts: &RunOptions,
                     span: &str,
                     totals: &mut CellTotals,
                     report: &mut Report| {
        for (config, expect) in cells {
            let est = experiment_spec(config, EngineKind::Direct, opts)
                .map_err(|e| e.to_string())
                .and_then(|s| {
                    tracer
                        .span(span, || s.to_experiment().jobs(1).run())
                        .map_err(|e| e.to_string())
                });
            let ok = match est {
                Err(e) => report.check("sweeps.cell_rerun_runs", false, || e),
                Ok(est) => {
                    totals.events += est.profiles().iter().map(|p| p.events).sum::<u64>();
                    totals.profile_secs += est.profiles().iter().map(|p| p.wall_secs).sum::<f64>();
                    match expect {
                        None => true,
                        Some((metric, y)) => {
                            let got = cell_value(metric, &est);
                            report.check(
                                "sweeps.cell_rerun_bit_identical",
                                got.to_bits() == y.to_bits(),
                                || format!("cell re-run {got} vs sweep {y}"),
                            )
                        }
                    }
                }
            };
            report.op(ok);
        }
    };
    for ((_, spec), series) in inp.figures.iter().zip(&reference.series) {
        let mut next = vec![0usize; spec.labels.len()];
        let cells = spec
            .cells
            .iter()
            .map(|c| {
                let y = series[c.series]
                    .points
                    .get(next[c.series])
                    .map_or(f64::NAN, |p| p.y);
                next[c.series] += 1;
                (c.config.clone(), Some((spec.metric, y)))
            })
            .collect();
        let before = totals.events;
        run_cells(cells, &inp.opts, "core.experiment.run", &mut totals, report);
        totals.figure_cells += spec.cells.len();
        totals.figure_events += totals.events - before;
        tracer.span("bench.render", || black_box(render(spec, series)));
    }
    let candidates =
        ckpt_cli::optimize::candidates(&inp.base, EngineKind::Direct).unwrap_or_default();
    let cells = ckpt_cli::optimize::cells(&candidates)
        .into_iter()
        .map(|c| (c.config, None))
        .collect();
    run_cells(
        cells,
        &inp.opt_opts,
        "core.experiment.run_optimize",
        &mut totals,
        report,
    );
    totals
}

/// Set-up: figure specs, optimize inputs, and a warm-up sweep over the
/// first series of Figure 4a. Returns the inputs and the wall time.
fn setup_once(ctx: &Ctx, size: &Size) -> Result<(Inputs, f64), String> {
    let (res, secs) = timed(|| -> Result<Inputs, String> {
        let inp = inputs(ctx, size);
        let (_, spec) = &inp.figures[0];
        let warm: Vec<_> = spec
            .cells
            .iter()
            .filter(|c| c.series == 0)
            .cloned()
            .collect();
        run_sweep(&spec.labels, warm, spec.metric, &inp.opts).map_err(|e| e.to_string())?;
        Ok(inp)
    });
    res.map(|inp| (inp, secs))
}

/// The part between its set-up and its report.
pub struct Part {
    inp: Inputs,
    setups: Vec<f64>,
    reference: Reference,
    figures: Vec<Timing>,
    optimize: Vec<Timing>,
}

/// Sets the part up [`SETUPS`] times, for the median set-up time; the
/// last set-up's inputs are kept.
pub fn setup(ctx: &Ctx, size: &Size) -> Result<Part, String> {
    let mut setups = Vec::new();
    let mut inp = None;
    for _ in 0..SETUPS {
        let (i, secs) = setup_once(ctx, size)?;
        setups.push(secs);
        inp = Some(i);
    }
    Ok(Part {
        inp: inp.expect("the set-ups ran"),
        setups,
        reference: Reference::default(),
        figures: Vec::new(),
        optimize: Vec::new(),
    })
}

impl Part {
    /// One timed and checked end-to-end round.
    pub fn round(&mut self, report: &mut Report) {
        let w = e2e_round(&self.inp, &mut self.reference, report);
        self.figures.push(w.figures);
        self.optimize.push(w.optimize);
    }

    /// Reports the median times, adds the set-up time and the digest.
    pub fn finish(self, report: &mut Report) {
        hostspeed::report_time(report, "figures_s", &self.figures);
        hostspeed::report_time(report, "optimize_s", &self.optimize);
        report.add_setup("sweeps", &self.setups);
        self.digest_into(report);
    }

    /// The traced pass: one checked end-to-end round, then every cell
    /// re-run one at a time, with the tracer off and on in turn.
    pub fn traced(mut self, ctx: &Ctx, report: &mut Report, tracer: &Tracer) -> Result<(), String> {
        let (inp, reference) = (&self.inp, &mut self.reference);
        let walls = e2e_round(inp, reference, report);
        let off = Tracer::new(false);
        let (mut off_walls, mut on_walls, mut rows) = (Vec::new(), Vec::new(), Vec::new());
        repeat(ctx.seconds, 2, |round| {
            let on = round % 2 == 1;
            if on {
                tracer.clear();
            }
            let (t, wall) =
                timed(|| cell_reruns(inp, reference, if on { tracer } else { &off }, report));
            if !on {
                off_walls.push(wall);
                return;
            }
            on_walls.push(wall);
            let cell_secs =
                tracer.total("core.experiment.run") + tracer.total("core.experiment.run_optimize");
            rows.push([
                t.figure_cells as f64,
                t.figure_events as f64,
                cell_secs * 1e9 / t.events as f64,
                1.0 - t.profile_secs / cell_secs,
                cell_secs / (ctx.nproc as f64 * walls.sweeping()),
                tracer.total("bench.render") * 1e3,
            ]);
        });
        let col = |c: usize| median(&rows.iter().map(|r| r[c]).collect::<Vec<_>>());
        report.metric("bench.sweep.cells", col(0), "count");
        report.metric("bench.sweep.events", col(1), "count");
        report.metric("bench.sweep.ns_per_event", col(2), "ns");
        report.metric("bench.sweep.overhead_share", col(3), "share");
        report.metric("bench.sweep.busy_share", col(4), "share");
        report.metric("bench.render_ms", col(5), "ms");
        report.add_traced_walls(&off_walls, &on_walls);
        self.digest_into(report);
        Ok(())
    }

    fn digest_into(&self, report: &mut Report) {
        if let Some(d) = self.reference.digest {
            report.digest.u64(d.0);
        }
        if let Some(doc) = &self.reference.report {
            report.digest.str(doc);
        }
    }
}
