//! Crash-safe drivers behind `ckptsim figure`.
//!
//! [`run_figure`] runs one figure: it installs the graceful
//! SIGINT/SIGTERM handler, opens (or resumes) the progress journal when
//! `--snapshot` / `--resume` are given, runs the sweep through
//! [`crate::sweep::run_sweep_controlled`], persists the journal, and
//! renders the figure. [`run_all`] regenerates every figure into a
//! directory of CSV, SVG and manifest files. Failures never panic: they
//! map to a typed [`CkptError`] and its exit code (interrupts exit
//! `128 + signal` after saving the snapshot).

use crate::args::RunOptions;
use crate::figures::{self, FigureSpec};
use crate::sweep::{
    run_sweep, run_sweep_controlled, sweep_fingerprint, Metric, Series, SweepControl,
};
use crate::{svg, table};
use ckpt_core::ExperimentError;
use ckpt_harness::{signal, CkptError, SweepJournal};
use std::path::Path;
use std::time::Instant;

/// Writes `contents` to `path`, mapping failure to [`CkptError::Io`].
///
/// # Errors
///
/// [`CkptError::Io`] naming `path`.
pub fn write_file(path: impl AsRef<Path>, contents: &str) -> Result<(), CkptError> {
    let path = path.as_ref();
    std::fs::write(path, contents).map_err(|e| CkptError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

/// Persists `journal` (if any) and translates a cooperative interrupt
/// into [`CkptError::Interrupted`] with the delivering signal. Shared
/// by the figure runner and the CLI front end.
pub fn seal_interrupted(journal: Option<&SweepJournal>, error: CkptError) -> CkptError {
    if let Some(j) = journal {
        match j.persist() {
            Ok(()) => eprintln!(
                "snapshot saved: {} ({} replication(s) recorded); resume with --resume",
                j.path().display(),
                j.completed()
            ),
            Err(e) => eprintln!("warning: could not save snapshot: {e}"),
        }
    }
    if matches!(
        error,
        CkptError::Experiment(ExperimentError::Interrupted { .. })
    ) {
        CkptError::Interrupted {
            signal: signal::signal_number().unwrap_or(signal::SIGTERM),
        }
    } else {
        error
    }
}

/// Runs one figure end to end: signal handling, journal, sweep,
/// manifest, table. Returns the evaluated series.
///
/// # Errors
///
/// Everything [`run_sweep_controlled`] can return, plus journal I/O;
/// an interrupt surfaces as [`CkptError::Interrupted`] *after* the
/// snapshot is persisted.
pub fn run_figure(id: &str, spec: FigureSpec, opts: &RunOptions) -> Result<Vec<Series>, CkptError> {
    signal::install();
    let fingerprint = sweep_fingerprint(id, &spec.cells, opts)?;
    let journal = opts.exec.open_journal(fingerprint)?;
    let sink = opts.progress_sink()?;
    let control = SweepControl {
        journal: journal.as_ref(),
        interrupt: Some(signal::interrupt_flag()),
        progress: (!sink.is_empty()).then_some(&sink as &dyn ckpt_obs::ProgressSink),
    };
    let cell_count = spec.cells.len();
    let started = Instant::now();
    match run_sweep_controlled(&spec.labels, spec.cells, spec.metric, opts, control) {
        Ok(series) => {
            if let Some(j) = &journal {
                j.persist()?;
            }
            let wall_secs = started.elapsed().as_secs_f64();
            ckpt_obs::ProgressSink::message(
                &sink,
                &format!(
                    "sweep: {cell_count} cells on {} worker(s) in {wall_secs:.2} s",
                    opts.jobs
                ),
            );
            if let Some(path) = &opts.manifest {
                let manifest = crate::sweep_manifest_json(id, cell_count, opts, wall_secs);
                write_file(path, &manifest)?;
            }
            table::emit(&spec.title, &spec.x_name, &series, opts.csv);
            Ok(series)
        }
        Err(e) => Err(seal_interrupted(journal.as_ref(), e)),
    }
}

/// Regenerates every figure of [`figures::all_figures`] into
/// `out_dir`: `{id}.csv`, `{id}.svg` and `{id}.manifest.json` (the
/// run's provenance, wall time included), printing one summary line per
/// figure.
///
/// # Errors
///
/// Everything [`run_sweep`] can return, and [`CkptError::Io`] when
/// `out_dir` or a file in it cannot be written.
pub fn run_all(out_dir: &Path, opts: &RunOptions) -> Result<(), CkptError> {
    std::fs::create_dir_all(out_dir).map_err(|e| CkptError::Io {
        path: out_dir.display().to_string(),
        message: e.to_string(),
    })?;
    for (id, spec) in figures::all_figures() {
        let started = Instant::now();
        let cell_count = spec.cells.len();
        let series = run_sweep(&spec.labels, spec.cells, spec.metric, opts)?;
        let csv_path = out_dir.join(format!("{id}.csv"));
        write_file(&csv_path, &table::to_csv(&spec.x_name, &series))?;
        let manifest =
            crate::sweep_manifest_json(id, cell_count, opts, started.elapsed().as_secs_f64());
        write_file(out_dir.join(format!("{id}.manifest.json")), &manifest)?;
        let y_name = match spec.metric {
            Metric::UsefulWorkFraction => "useful work fraction",
            Metric::TotalUsefulWork => "total useful work (job units)",
        };
        let x_scale = if spec.x_name.contains("processors") || spec.x_name == "nodes" {
            svg::XScale::Log2
        } else {
            svg::XScale::Linear
        };
        let chart = svg::render(&spec.title, &spec.x_name, y_name, &series, x_scale);
        write_file(out_dir.join(format!("{id}.svg")), &chart)?;
        println!(
            "{id}: {} series × {} points → {} + .svg ({:.1}s)",
            series.len(),
            series.first().map_or(0, |s| s.points.len()),
            csv_path.display(),
            started.elapsed().as_secs_f64()
        );
    }
    let dir = out_dir.display();
    println!("done; open {dir}/*.svg or plot {dir}/*.csv");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures;
    use ckpt_des::SimTime;

    fn quick_opts() -> RunOptions {
        RunOptions {
            reps: 1,
            horizon: SimTime::from_hours(100.0),
            transient: SimTime::from_hours(10.0),
            exec: ckpt_harness::ExecFlags {
                quiet: true,
                ..ckpt_harness::ExecFlags::default()
            },
            csv: true,
            ..RunOptions::default()
        }
    }

    #[test]
    fn run_figure_without_journal_matches_plain_sweep() {
        let spec = figures::fig4gh(16);
        let opts = quick_opts();
        let series = run_figure("fig4h", spec, &opts).unwrap();
        assert_eq!(series.len(), 2);
        assert!(series.iter().all(|s| !s.points.is_empty()));
    }

    #[test]
    fn snapshot_then_resume_round_trips_through_the_runner() {
        let dir = std::env::temp_dir().join("ckpt_bench_runner_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runner.json");
        let _ = std::fs::remove_file(&path);

        let mut opts = quick_opts();
        opts.exec.snapshot = Some(path.display().to_string());
        let first = run_figure("fig4h", figures::fig4gh(16), &opts).unwrap();
        assert!(path.exists());

        let mut resume_opts = quick_opts();
        resume_opts.exec.resume = Some(path.display().to_string());
        let resumed = run_figure("fig4h", figures::fig4gh(16), &resume_opts).unwrap();
        for (a, b) in first.iter().zip(&resumed) {
            for (pa, pb) in a.points.iter().zip(&b.points) {
                assert_eq!(pa.y.to_bits(), pb.y.to_bits());
                assert_eq!(pa.half_width.to_bits(), pb.half_width.to_bits());
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resuming_under_different_run_options_is_refused() {
        let dir = std::env::temp_dir().join("ckpt_bench_runner_fp_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fp.json");
        let _ = std::fs::remove_file(&path);

        let mut opts = quick_opts();
        opts.exec.snapshot = Some(path.display().to_string());
        run_figure("fig4h", figures::fig4gh(16), &opts).unwrap();

        let mut other = quick_opts();
        other.exec.resume = Some(path.display().to_string());
        other.seed = 1234; // different sampling → different fingerprint
        let err = run_figure("fig4h", figures::fig4gh(16), &other).unwrap_err();
        assert!(matches!(
            err,
            CkptError::Snapshot(ckpt_harness::SnapshotError::FingerprintMismatch { .. })
        ));
        assert_eq!(err.exit_code(), 3);
        std::fs::remove_file(&path).unwrap();
    }
}
