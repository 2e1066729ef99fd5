//! Parallel parameter-sweep driver.
//!
//! Each cell of a sweep is described by a validated
//! [`ExperimentSpec`] (built from the cell's configuration and the
//! shared run options), so an invalid sweep definition surfaces as a
//! typed [`CkptError`] before any simulation starts — the driver has no
//! panicking paths.
//!
//! Crash safety: [`run_sweep_controlled`] threads a
//! [`SweepControl`] through to the experiment layer — an optional
//! [`SweepJournal`] that caches completed replications (keyed by cell
//! index) and an optional cooperative-interrupt flag. An interrupted
//! sweep returns [`ckpt_core::ExperimentError::Interrupted`]; resuming
//! with the same journal re-runs only the missing replications and
//! produces bit-identical series at any worker count.

use crate::args::RunOptions;
use ckpt_core::{
    run_indexed, Estimate, ExperimentError, ReplicationStore, RunControl, SystemConfig,
};
use ckpt_harness::spec::ExperimentSpec;
use ckpt_harness::{CkptError, SweepJournal};
use ckpt_obs::{ProgressSink, ProgressSnapshot};
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::Instant;

/// One evaluated point of a figure: the x value, the estimated metric
/// (mean over replications) and its 95 % half-width.
#[derive(Debug, Clone)]
pub struct Point {
    /// The x-axis value (e.g. number of processors).
    pub x: f64,
    /// Estimated y value.
    pub y: f64,
    /// Half-width of the 95 % confidence interval on y.
    pub half_width: f64,
}

/// A labeled curve of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label, matching the paper's (e.g. "MTTF (yrs) = 1").
    pub label: String,
    /// The evaluated points, in x order.
    pub points: Vec<Point>,
}

/// Which metric a sweep extracts from each [`Estimate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Useful work fraction (Figures 5–8).
    UsefulWorkFraction,
    /// Total useful work in job units (Figure 4).
    TotalUsefulWork,
}

impl Metric {
    fn extract(self, est: &Estimate) -> (f64, f64) {
        let ci = match self {
            Metric::UsefulWorkFraction => est.useful_work_fraction(),
            Metric::TotalUsefulWork => est.total_useful_work(),
        };
        (ci.mean, ci.half_width)
    }
}

/// A sweep job: one (series, x) cell with its configuration.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Index of the series this cell belongs to.
    pub series: usize,
    /// x-axis value.
    pub x: f64,
    /// Full model configuration for this cell.
    pub config: SystemConfig,
}

/// Crash-safety and liveness hooks for a sweep: an optional journal of
/// completed replications (cells are keyed by their index in the
/// `cells` vector), an optional cooperative-interrupt flag, and an
/// optional progress sink that replaces the old ad-hoc heartbeat
/// prints.
#[derive(Clone, Copy, Default)]
pub struct SweepControl<'a> {
    /// Journal that caches completed replications across runs.
    pub journal: Option<&'a SweepJournal>,
    /// Flag polled before starting each cell and each replication.
    pub interrupt: Option<&'a AtomicBool>,
    /// Receives one snapshot per completed cell, emitted under a lock
    /// in strictly increasing `completed` order.
    pub progress: Option<&'a dyn ProgressSink>,
}

impl std::fmt::Debug for SweepControl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepControl")
            .field("journal", &self.journal)
            .field("interrupt", &self.interrupt)
            .field("progress", &self.progress.map(|_| "dyn ProgressSink"))
            .finish()
    }
}

/// Builds a validated [`ExperimentSpec`] from a configuration, an
/// engine override and the shared run options — the single construction
/// path of every sweep cell, study and `ckptsim run`.
///
/// # Errors
///
/// [`CkptError::Spec`] if the combination fails validation (e.g. a SAN
/// run with an unsupported ablation switch).
pub fn experiment_spec(
    config: SystemConfig,
    engine: ckpt_core::EngineKind,
    opts: &RunOptions,
) -> Result<ExperimentSpec, CkptError> {
    ExperimentSpec::builder(config)
        .engine(engine)
        .transient(opts.transient)
        .horizon(opts.horizon)
        .replications(opts.reps)
        .seed(opts.seed)
        .jobs(opts.jobs)
        .reactivation(opts.exec.reactivation)
        .queue(opts.exec.queue)
        .build()
        .map_err(CkptError::from)
}

/// The resume fingerprint of a whole sweep: FNV-1a 64 over the sweep id
/// and every cell's spec fingerprint, in cell order. Worker count is
/// excluded (the per-cell fingerprints already exclude `jobs`), so a
/// snapshot taken at one `--jobs` resumes at any other.
///
/// # Errors
///
/// [`CkptError::Spec`] if any cell's spec fails validation.
pub fn sweep_fingerprint(id: &str, cells: &[Cell], opts: &RunOptions) -> Result<u64, CkptError> {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    };
    for byte in id.bytes() {
        eat(byte);
    }
    eat(0);
    for cell in cells {
        let spec = experiment_spec(cell.config.clone(), opts.engine, opts)?;
        for byte in spec.fingerprint().to_le_bytes() {
            eat(byte);
        }
    }
    Ok(hash)
}

/// Evaluates every cell in parallel (up to `opts.jobs` OS threads) and
/// assembles the labeled series — [`run_sweep_controlled`] with no
/// journal and no interrupt flag.
///
/// # Errors
///
/// See [`run_sweep_controlled`].
pub fn run_sweep(
    labels: &[String],
    cells: Vec<Cell>,
    metric: Metric,
    opts: &RunOptions,
) -> Result<Vec<Series>, CkptError> {
    run_sweep_controlled(labels, cells, metric, opts, SweepControl::default())
}

/// Evaluates every cell in parallel (up to `opts.jobs` OS threads) and
/// assembles the labeled series. Cells of a series are returned in the
/// order they were supplied, and every cell's result is independent of
/// the worker count — parallelism only changes scheduling, never
/// sampling.
///
/// When there are fewer cells than `opts.jobs`, leftover parallelism is
/// pushed one level down: each cell's experiment runs its replications
/// on `opts.jobs / workers` threads.
///
/// Long sweeps report each completed cell through `control.progress`
/// (the figure runner wires a stderr heartbeat unless `--csv` /
/// `--quiet`, plus a `--progress` JSONL stream), so a multi-minute
/// figure run is visibly alive. Snapshots are emitted under a lock in
/// strictly increasing `completed` order, and the deterministic fields
/// (label, completed, total) are scheduling-independent — a JSONL
/// stream is byte-identical at any worker count. The per-cell *detail*
/// text reflects completion order and is rendered by the human sink
/// only.
///
/// # Errors
///
/// * [`CkptError::Spec`] if any cell's configuration is invalid for the
///   selected engine (checked up front, before any cell runs);
/// * [`CkptError::Experiment`] if a cell fails mid-run — the first
///   failing cell in *index* order, so the reported error is
///   deterministic. A cooperative interrupt surfaces as
///   [`ExperimentError::Interrupted`] carrying the number of fully
///   evaluated cells.
pub fn run_sweep_controlled(
    labels: &[String],
    cells: Vec<Cell>,
    metric: Metric,
    opts: &RunOptions,
    control: SweepControl<'_>,
) -> Result<Vec<Series>, CkptError> {
    let workers = opts.jobs.max(1).min(cells.len().max(1));
    let inner_jobs = (opts.jobs.max(1) / workers).max(1);
    // Validate the whole sweep before running any of it.
    let specs = cells
        .iter()
        .map(|c| experiment_spec(c.config.clone(), opts.engine, opts))
        .collect::<Result<Vec<_>, _>>()?;

    // The counter lives under the sink's lock so `completed` arrives
    // strictly increasing at every sink, whatever the scheduling.
    let progress = control.progress.map(|sink| (sink, Mutex::new(0usize)));
    let started = Instant::now();

    let results = run_indexed(cells.len(), workers, control.interrupt, |i| {
        let cell = &cells[i];
        let store = control
            .journal
            .map(|j| j.cell_store(u32::try_from(i).unwrap_or(u32::MAX)));
        // Worker count and warm-up never change sampling, so they ride
        // on the experiment: each cell gets its share of the leftover
        // workers, and the resume fingerprint stays blind to both.
        let outcome = specs[i]
            .to_experiment()
            .jobs(inner_jobs)
            .warmup(opts.warmup)
            .run_controlled(RunControl {
                store: store.as_ref().map(|s| s as &dyn ReplicationStore),
                interrupt: control.interrupt,
                // Sweeps report at cell granularity; forwarding the sink
                // here would interleave replication counts from
                // unrelated cells.
                progress: None,
            })
            .map(|est| {
                let (y, half_width) = metric.extract(&est);
                (
                    cell.series,
                    Point {
                        x: cell.x,
                        y,
                        half_width,
                    },
                )
            });
        if let (Some((sink, counter)), true) = (&progress, outcome.is_ok()) {
            let mut finished = counter.lock().expect("progress counter poisoned");
            *finished += 1;
            let detail = format!(
                "{} x={} done",
                labels.get(cell.series).map_or("", |l| l.as_str()),
                cell.x
            );
            let mut snap = ProgressSnapshot::new("sweep", *finished, cells.len());
            snap.detail = Some(&detail);
            snap.workers = Some(workers);
            if *finished < cells.len() {
                let per_cell = started.elapsed().as_secs_f64() / *finished as f64;
                snap.eta_secs = Some(per_cell * (cells.len() - *finished) as f64);
            }
            sink.progress(&snap);
        }
        outcome
    });

    let mut series: Vec<Series> = labels
        .iter()
        .map(|l| Series {
            label: l.clone(),
            points: Vec::new(),
        })
        .collect();
    let mut interrupted = false;
    let mut completed = 0usize;
    // Slots are in index order, so the first error returned is the
    // first failing cell's, and it outranks an interrupt.
    for slot in results {
        match slot {
            Some(Ok((s, p))) => {
                completed += 1;
                series[s].points.push(p);
            }
            Some(Err(ExperimentError::Interrupted { .. })) | None => interrupted = true,
            Some(Err(e)) => return Err(e.into()),
        }
    }
    if interrupted {
        return Err(ExperimentError::Interrupted { completed }.into());
    }
    Ok(series)
}

/// Provenance manifest for one figure sweep: which figure ran, with
/// which engine/seed/horizon/worker settings, on how much host
/// parallelism, and how long it took. Pure provenance — nothing in the
/// simulation path reads it, so the wall-clock value does not affect
/// determinism.
#[must_use]
pub fn sweep_manifest_json(id: &str, cells: usize, opts: &RunOptions, wall_secs: f64) -> String {
    format!(
        "{{\n  \"schema_version\": 1,\n  \"tool\": \"ckptsim\",\n  \
         \"version\": \"{}\",\n  \"figure\": \"{}\",\n  \"engine\": \"{}\",\n  \
         \"base_seed\": {},\n  \"transient_hours\": {:.6},\n  \
         \"horizon_hours\": {:.6},\n  \"replications\": {},\n  \"jobs\": {},\n  \
         \"warmup\": {},\n  \
         \"host_parallelism\": {},\n  \"cells\": {},\n  \"wall_secs\": {:.6}\n}}\n",
        env!("CARGO_PKG_VERSION"),
        ckpt_obs::json_escape(id),
        opts.engine.name(),
        opts.seed,
        opts.transient.as_hours(),
        opts.horizon.as_hours(),
        opts.reps,
        opts.jobs,
        opts.warmup,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        cells,
        wall_secs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_des::SimTime;
    use std::sync::atomic::AtomicBool;

    fn small_cells(labels: &[String]) -> Vec<Cell> {
        let mut cells = Vec::new();
        for (s, _) in labels.iter().enumerate() {
            for procs in [8_192u64, 16_384] {
                cells.push(Cell {
                    series: s,
                    x: procs as f64,
                    config: SystemConfig::builder()
                        .processors(procs)
                        .failures_enabled(false)
                        .build()
                        .unwrap(),
                });
            }
        }
        cells
    }

    #[test]
    fn sweep_preserves_order_and_labels() {
        let labels = vec!["a".to_string(), "b".to_string()];
        let cells = small_cells(&labels);
        let opts = RunOptions {
            reps: 2,
            horizon: SimTime::from_hours(200.0),
            transient: SimTime::from_hours(20.0),
            ..RunOptions::default()
        };
        let series = run_sweep(&labels, cells, Metric::UsefulWorkFraction, &opts).unwrap();
        assert_eq!(series.len(), 2);
        for s in &series {
            assert_eq!(s.points.len(), 2);
            assert_eq!(s.points[0].x, 8_192.0);
            assert_eq!(s.points[1].x, 16_384.0);
            for p in &s.points {
                assert!(p.y > 0.9, "failure-free fraction high, got {}", p.y);
            }
        }
        // Identical configs in both series → identical results.
        assert_eq!(series[0].points[0].y, series[1].points[0].y);
    }

    #[test]
    fn sweep_manifest_renders_provenance() {
        let opts = RunOptions::default();
        let j = sweep_manifest_json("fig4a", 12, &opts, 1.5);
        assert!(j.contains("\"figure\": \"fig4a\""));
        assert!(j.contains("\"cells\": 12"));
        assert!(j.contains("\"engine\": \"direct\""));
        assert!(j.contains("\"schema_version\": 1"));
        assert!(j.contains("\"warmup\": 0"));
        assert!(j.ends_with("}\n"));
    }

    #[test]
    fn total_useful_work_metric_scales_fraction() {
        let labels = vec!["x".to_string()];
        let cells = vec![Cell {
            series: 0,
            x: 8_192.0,
            config: SystemConfig::builder()
                .processors(8_192)
                .failures_enabled(false)
                .build()
                .unwrap(),
        }];
        let opts = RunOptions {
            reps: 1,
            horizon: SimTime::from_hours(100.0),
            transient: SimTime::from_hours(10.0),
            ..RunOptions::default()
        };
        let frac = run_sweep(&labels, cells.clone(), Metric::UsefulWorkFraction, &opts).unwrap();
        let total = run_sweep(&labels, cells, Metric::TotalUsefulWork, &opts).unwrap();
        let f = frac[0].points[0].y;
        let t = total[0].points[0].y;
        assert!((t - f * 8_192.0).abs() < 1e-6);
    }

    #[test]
    fn invalid_sweep_definition_is_a_typed_error_not_a_panic() {
        // SAN engine + an ablation switch it refuses: caught up front.
        let labels = vec!["bad".to_string()];
        let cells = vec![Cell {
            series: 0,
            x: 1.0,
            config: SystemConfig::builder()
                .processors(8_192)
                .buffered_recovery(false)
                .build()
                .unwrap(),
        }];
        let opts = RunOptions {
            engine: ckpt_core::EngineKind::San,
            ..RunOptions::default()
        };
        let err = run_sweep(&labels, cells, Metric::UsefulWorkFraction, &opts).unwrap_err();
        assert!(matches!(err, CkptError::Spec(_)), "got {err:?}");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn preset_interrupt_flag_stops_the_sweep() {
        let labels = vec!["a".to_string()];
        let cells = small_cells(&labels);
        let opts = RunOptions {
            reps: 1,
            horizon: SimTime::from_hours(100.0),
            transient: SimTime::from_hours(10.0),
            ..RunOptions::default()
        };
        let flag = AtomicBool::new(true);
        let err = run_sweep_controlled(
            &labels,
            cells,
            Metric::UsefulWorkFraction,
            &opts,
            SweepControl {
                journal: None,
                interrupt: Some(&flag),
                progress: None,
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CkptError::Experiment(ExperimentError::Interrupted { completed: 0 })
        ));
    }

    #[test]
    fn journal_resume_reproduces_an_uninterrupted_sweep_bitwise() {
        let labels = vec!["a".to_string(), "b".to_string()];
        let cells = small_cells(&labels);
        let opts = RunOptions {
            reps: 2,
            jobs: 2,
            horizon: SimTime::from_hours(200.0),
            transient: SimTime::from_hours(20.0),
            ..RunOptions::default()
        };
        let clean = run_sweep(&labels, cells.clone(), Metric::UsefulWorkFraction, &opts).unwrap();

        let dir = std::env::temp_dir().join("ckpt_bench_sweep_resume_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.json");
        let fp = sweep_fingerprint("test", &cells, &opts).unwrap();

        // "Interrupted" run: journal only the first cell's replications
        // by running a truncated sweep, then persist.
        let journal = SweepJournal::create(&path, fp, 0);
        let partial: Vec<Cell> = cells[..1].to_vec();
        run_sweep_controlled(
            &labels,
            partial,
            Metric::UsefulWorkFraction,
            &opts,
            SweepControl {
                journal: Some(&journal),
                interrupt: None,
                progress: None,
            },
        )
        .unwrap();
        journal.persist().unwrap();
        assert_eq!(journal.completed(), 2);

        // Resume the full sweep at both jobs=1 and jobs=4.
        for jobs in [1usize, 4] {
            let resumed_journal = SweepJournal::resume(&path, fp, 0).unwrap();
            let resumed_opts = RunOptions {
                jobs,
                ..opts.clone()
            };
            let resumed = run_sweep_controlled(
                &labels,
                cells.clone(),
                Metric::UsefulWorkFraction,
                &resumed_opts,
                SweepControl {
                    journal: Some(&resumed_journal),
                    interrupt: None,
                    progress: None,
                },
            )
            .unwrap();
            for (cs, rs) in clean.iter().zip(&resumed) {
                assert_eq!(cs.label, rs.label);
                for (cp, rp) in cs.points.iter().zip(&rs.points) {
                    assert_eq!(cp.x, rp.x);
                    assert_eq!(cp.y.to_bits(), rp.y.to_bits(), "jobs={jobs}");
                    assert_eq!(cp.half_width.to_bits(), rp.half_width.to_bits());
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprint_tracks_run_parameters_but_not_jobs() {
        let labels = vec!["a".to_string()];
        let cells = small_cells(&labels);
        let opts = RunOptions::default();
        let base = sweep_fingerprint("fig", &cells, &opts).unwrap();
        let other_jobs = RunOptions {
            jobs: opts.jobs + 3,
            ..opts.clone()
        };
        assert_eq!(base, sweep_fingerprint("fig", &cells, &other_jobs).unwrap());
        let reseeded = RunOptions { seed: 1, ..opts };
        assert_ne!(base, sweep_fingerprint("fig", &cells, &reseeded).unwrap());
        assert_ne!(
            base,
            sweep_fingerprint("gif", &cells, &RunOptions::default()).unwrap()
        );
    }
}
