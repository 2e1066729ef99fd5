//! Subcommand implementations.

use crate::config_flags::parse_config;
use ckpt_analytic::{availability, coordination, daly, vaidya, young};
use ckpt_bench::args::OPTIONAL_FLAGS;
use ckpt_bench::runner::{self, write_file};
use ckpt_bench::studies::Study;
use ckpt_bench::{experiment_spec, figures, RunOptions};
use ckpt_core::{
    san_model, Estimate, ObserveSpec, PhaseKind, ReplicationStore, RunControl, SystemConfig,
};
use ckpt_harness::{signal, CkptError, SpecError};
use ckpt_obs::{ProgressSink, Recorder};
use ckpt_svc::{run_local, LocalRun};
use std::fmt::Write as _;

/// Ring-buffer capacity behind `--trace`: large enough to keep every
/// model event of a default-length replication; if a longer run
/// overflows it, the JSONL notes the dropped count per replication.
const TRACE_CAPACITY: usize = 1 << 20;

/// Renders the per-replication trace buffers as JSON Lines, one model
/// event per line, tagged with the replication index (index order, so
/// the file is identical at any `--jobs`). Replications whose ring
/// buffer overflowed get a leading marker line with the dropped count.
fn trace_jsonl(recordings: &[Recorder]) -> String {
    let mut out = String::new();
    for (rep, rec) in recordings.iter().enumerate() {
        let Some(buf) = rec.trace() else { continue };
        if buf.dropped() > 0 {
            out.push_str(&format!(
                "{{\"rep\":{rep},\"dropped\":{}}}\n",
                buf.dropped()
            ));
        }
        for entry in buf.iter() {
            let body = entry.to_json();
            out.push_str(&format!("{{\"rep\":{rep},{}\n", &body[1..]));
        }
    }
    out
}

/// Renders the full metrics report (schema 2): manifest, merged
/// registry and telemetry, and per replication its registry, telemetry
/// and the registry-vs-engine phase-time reconciliation verdict.
fn metrics_json(est: &Estimate) -> String {
    let mut s = String::from("{\n\"schema_version\": 2,\n\"manifest\": ");
    s.push_str(est.manifest().to_json().trim_end());
    let or_null = |json: Option<String>| json.unwrap_or_else(|| "null".into());
    let registry = or_null(est.merged_registry().map(|r| r.to_json()));
    let telemetry = or_null(est.merged_telemetry().map(|t| t.to_json()));
    let _ = write!(
        s,
        ",\n\"merged_registry\": {registry},\n\"telemetry\": {telemetry},\n\"replications\": ["
    );
    for (rep, rec) in est.recordings().iter().enumerate() {
        let reconcile = match est.replicates().get(rep) {
            Some(m) => match rec.registry().reconcile(&m.phase_times, 1e-6) {
                Ok(()) => "\"ok\"".to_string(),
                Err(e) => format!("\"{}\"", ckpt_obs::json_escape(&e.to_string())),
            },
            None => "\"no metrics\"".to_string(),
        };
        let _ = write!(
            s,
            "{}\n{{\"rep\":{rep},\"reconcile\":{reconcile},\"registry\":{},\"telemetry\":{}}}",
            if rep == 0 { "" } else { "," },
            rec.registry().to_json(),
            rec.telemetry().to_json()
        );
    }
    s.push_str("\n]\n}\n");
    s
}

/// `ckptsim run`: simulate one configuration and print its metrics.
///
/// Crash safety: with `--snapshot` every completed replication is
/// journaled (keyed by replication index under cell 0), SIGINT/SIGTERM
/// persist the journal before exiting `128 + signal`, and `--resume`
/// re-runs only the missing replications — bit-identical to an
/// uninterrupted run at any `--jobs`.
pub fn run_single(args: Vec<String>) -> Result<(), CkptError> {
    let (cfg, rest) = parse_config(args)?;
    let opts = RunOptions::parse(rest)?.refuse_unhonoured("run", &OPTIONAL_FLAGS)?;
    let observing = opts.trace.is_some() || opts.metrics.is_some();
    if observing && opts.exec.journaling() {
        return Err(CkptError::Usage(
            "--snapshot/--resume cannot be combined with --trace/--metrics: \
             observation re-executes every replication, so cached results \
             would be ignored"
                .into(),
        ));
    }
    let spec = experiment_spec(cfg.clone(), opts.engine, &opts)?;
    signal::install();
    let journal = opts.exec.open_journal(spec.fingerprint())?;
    let store = journal.as_ref().map(|j| j.cell_store(0));
    let sink = opts.progress_sink()?;
    let observe = observing.then(|| ObserveSpec {
        trace_capacity: opts.trace.as_ref().map(|_| TRACE_CAPACITY),
    });
    // `run` is a thin wrapper over the service execution core: the same
    // entry point the `ckptsim serve` workers use, so a local run and a
    // served one are the same code path (and bit-identical).
    let est = run_local(
        &spec,
        LocalRun {
            observe,
            control: RunControl {
                store: store.as_ref().map(|s| s as &dyn ReplicationStore),
                interrupt: Some(signal::interrupt_flag()),
                progress: (!sink.is_empty()).then_some(&sink as &dyn ProgressSink),
            },
        },
    )
    .map_err(|e| runner::seal_interrupted(journal.as_ref(), CkptError::from(e)))?;
    if let Some(j) = &journal {
        j.persist()?;
    }

    if let Some(path) = &opts.trace {
        write_file(path, &trace_jsonl(est.recordings()))?;
    }
    if let Some(path) = &opts.metrics {
        write_file(path, &metrics_json(&est))?;
    }
    if let Some(path) = &opts.manifest {
        write_file(path, &est.manifest().to_json())?;
    }

    print!("{}", render_report(&cfg, &est, &opts));
    Ok(())
}

/// The entire stdout report of `ckptsim run`, as one string. Keeping it
/// in a pure function makes the `--quiet` contract testable: every
/// wall-clock figure of the CSV and every per-replication line comes
/// from [`timing_section`], which is appended in exactly one place,
/// behind exactly one `quiet` guard — regardless of which output sinks
/// (`--csv`, `--trace`, `--metrics`) are active. So `--csv --quiet`
/// prints the same bytes for the same spec.
fn render_report(cfg: &SystemConfig, est: &Estimate, opts: &RunOptions) -> String {
    let frac = est.useful_work_fraction();
    let tuw = est.total_useful_work();
    let mut s = String::new();
    if opts.csv {
        let _ = writeln!(s, "metric,mean,ci_half_width");
        let _ = writeln!(
            s,
            "useful_work_fraction,{:.6},{:.6}",
            frac.mean, frac.half_width
        );
        let _ = writeln!(s, "total_useful_work,{:.2},{:.2}", tuw.mean, tuw.half_width);
        for (name, kind) in phase_rows() {
            let _ = writeln!(
                s,
                "time_{name},{:.6},",
                est.mean_of(|m| m.phase_fraction(kind))
            );
        }
    } else {
        let _ = writeln!(
            s,
            "{} processors ({} nodes, {} I/O nodes), MTTF {:.2} y/node, interval {} min",
            cfg.processors(),
            cfg.node_count(),
            cfg.io_node_count(),
            cfg.mttf_per_node().as_years(),
            cfg.checkpoint_interval().as_mins()
        );
        let _ = writeln!(s, "useful work fraction : {frac}");
        let _ = writeln!(
            s,
            "total useful work    : {:.0} ±{:.0} job units",
            tuw.mean, tuw.half_width
        );
        let _ = writeln!(s, "time breakdown       :");
        for (name, kind) in phase_rows() {
            let _ = writeln!(
                s,
                "  {name:<12} {:>7.2} %",
                100.0 * est.mean_of(|m| m.phase_fraction(kind))
            );
        }
        let _ = writeln!(
            s,
            "per 1000 h           : {:.1} failures, {:.1} checkpoints, {:.2} reboots",
            est.mean_of(|m| {
                (m.counters.compute_failures + m.counters.generic_failures) as f64
                    / (m.window_secs / 3.6e6)
            }),
            est.mean_of(|m| m.counters.checkpoints_completed as f64 / (m.window_secs / 3.6e6)),
            est.mean_of(|m| m.counters.reboots as f64 / (m.window_secs / 3.6e6)),
        );
        let _ = writeln!(
            s,
            "performance          : {} replications on {} worker(s), {:.2} s compute, {:.0} events/s",
            est.replicates().len(),
            opts.jobs,
            est.total_wall_secs(),
            est.events_per_sec()
        );
    }
    if !opts.exec.quiet {
        s.push_str(&timing_section(est, opts.csv));
    }
    s
}

/// Everything `--quiet` suppresses: the CSV's run-level timing rows,
/// then the per-replication [`profile_section`].
fn timing_section(est: &Estimate, csv: bool) -> String {
    let mut s = String::new();
    if csv {
        let _ = writeln!(s, "perf_wall_secs,{:.3},", est.total_wall_secs());
        let _ = writeln!(s, "perf_events_per_sec,{:.0},", est.events_per_sec());
    }
    s + &profile_section(est, csv)
}

/// The per-replication profile block (CSV header documented in
/// EXPERIMENTS.md). Suppressed as a whole by `--quiet`.
fn profile_section(est: &Estimate, csv: bool) -> String {
    let mut s = String::new();
    if csv {
        let _ = writeln!(s, "rep,wall_secs,events,events_per_sec");
        for (k, p) in est.profiles().iter().enumerate() {
            let _ = writeln!(
                s,
                "{k},{:.6},{},{:.0}",
                p.wall_secs,
                p.events,
                p.events_per_sec()
            );
        }
    } else {
        let _ = writeln!(
            s,
            "  {:<4} {:>10} {:>14} {:>14}",
            "rep", "wall_secs", "events", "events_per_sec"
        );
        for (k, p) in est.profiles().iter().enumerate() {
            let _ = writeln!(
                s,
                "  {k:<4} {:>10.2} {:>14} {:>14.0}",
                p.wall_secs,
                p.events,
                p.events_per_sec()
            );
        }
    }
    s
}

fn phase_rows() -> [(&'static str, PhaseKind); 5] {
    [
        ("executing", PhaseKind::Executing),
        ("coordinating", PhaseKind::Coordinating),
        ("dumping", PhaseKind::Dumping),
        ("recovering", PhaseKind::Recovering),
        ("rebooting", PhaseKind::Rebooting),
    ]
}

/// `ckptsim figure <id>`: regenerate one of the paper's figures via the
/// crash-safe runner ([`runner::run_figure`]), which handles signals,
/// `--snapshot`/`--resume` journaling, the sweep manifest, and output.
/// `ckptsim figure all` regenerates every figure into `results/`
/// ([`runner::run_all`]); one journal cannot span figures and each
/// figure writes its own manifest, so it refuses those flags.
pub fn run_figure(mut args: Vec<String>) -> Result<(), CkptError> {
    if args.is_empty() {
        return Err(CkptError::Usage(
            "figure expects an id (see 'ckptsim list')".into(),
        ));
    }
    let id = args.remove(0);
    if id == "all" {
        let honoured = ["--engine san"];
        let opts = RunOptions::parse(args)?.refuse_unhonoured("figure all", &honoured)?;
        return runner::run_all(std::path::Path::new("results"), &opts);
    }
    let spec = figures::find(&id)
        .ok_or_else(|| CkptError::Usage(format!("unknown figure '{id}' (see 'ckptsim list')")))?;
    let honoured = [
        "--manifest",
        "--snapshot",
        "--resume",
        "--progress",
        "--engine san",
    ];
    let opts = RunOptions::parse(args)?.refuse_unhonoured("figure", &honoured)?;
    runner::run_figure(&id, spec, &opts).map(|_| ())
}

/// The output of `ckptsim list`: one line per id `ckptsim figure`
/// accepts, the id first.
#[must_use]
pub fn figure_list() -> String {
    let mut s = String::new();
    for (id, spec) in figures::catalog() {
        let title = spec.title.split(':').nth(1).unwrap_or(&spec.title);
        let _ = writeln!(s, "{id:<14} {}", title.trim());
    }
    s.push_str("all            every figure above except ext_spatial, into results/\n");
    s
}

/// `ckptsim <study>`: run one of the table studies of
/// [`ckpt_bench::studies`] and print its report. No study writes a
/// journal or an output file, and each picks its own engines, so every
/// optional flag is refused.
pub fn run_study(name: &str, study: Study, args: Vec<String>) -> Result<(), CkptError> {
    let opts = RunOptions::parse(args)?.refuse_unhonoured(name, &[])?;
    print!("{}", study(&opts)?);
    Ok(())
}

/// `ckptsim dot`: the checkpoint model's SAN structure as Graphviz DOT
/// (pipe through `dot -Tsvg`).
pub fn dot(args: Vec<String>) -> Result<(), CkptError> {
    let (cfg, rest) = parse_config(args)?;
    if !rest.is_empty() {
        return Err(CkptError::Usage(format!("unknown flags: {rest:?}")));
    }
    if let Some(switch) = san_model::unsupported_ablation(&cfg) {
        return Err(CkptError::Spec(SpecError::UnsupportedAblation { switch }));
    }
    let model =
        san_model::CheckpointSan::build(&cfg).map_err(|e| CkptError::Experiment(e.into()))?;
    print!("{}", ckpt_san::dot::to_dot(model.san()));
    Ok(())
}

/// `ckptsim analytic`: closed-form baselines for a configuration.
pub fn analytic(args: Vec<String>) -> Result<(), CkptError> {
    let (cfg, rest) = parse_config(args)?;
    if !rest.is_empty() {
        return Err(CkptError::Usage(format!("unknown flags: {rest:?}")));
    }
    let mtbf = 1.0 / cfg.compute_failure_rate();
    let overhead = cfg.quiesce_broadcast_latency().as_secs()
        + cfg.mttq().as_secs()
        + cfg.checkpoint_dump_time().as_secs();
    let latency = overhead + cfg.checkpoint_fs_write_time().as_secs();
    let tau = cfg.checkpoint_interval().as_secs();
    let restart = cfg.mttr_system().as_secs();
    let nodes = cfg.node_count();
    let mttq = cfg.mttq().as_secs();

    println!(
        "System MTBF: {:.3} h ({} nodes at {:.2} y/node)",
        mtbf / 3600.0,
        nodes,
        cfg.mttf_per_node().as_years()
    );
    println!("Optimal checkpoint intervals:");
    println!(
        "  Young  : {:>8.1} min",
        young::optimal_interval(overhead, mtbf) / 60.0
    );
    println!(
        "  Daly   : {:>8.1} min",
        daly::optimal_interval(overhead, mtbf) / 60.0
    );
    println!(
        "  Vaidya : {:>8.1} min",
        vaidya::optimal_interval(overhead, mtbf) / 60.0
    );
    println!(
        "Useful-work fraction at the configured {} min interval:",
        tau / 60.0
    );
    println!(
        "  Young  : {:>8.4}",
        young::useful_work_fraction(tau, overhead, mtbf)
    );
    println!(
        "  Daly   : {:>8.4}",
        daly::useful_work_fraction(tau, overhead, restart, mtbf)
    );
    println!(
        "  Vaidya : {:>8.4}",
        vaidya::useful_work_fraction(tau, overhead, latency, mtbf)
    );
    println!(
        "  Daly total useful work: {:.0} job units",
        availability::predicted_total_useful_work(
            cfg.processors(),
            tau,
            overhead,
            restart,
            cfg.compute_failure_rate()
        )
    );
    println!("Coordination (max over {nodes} nodes, MTTQ {mttq} s):");
    println!(
        "  E[Y]    : {:>7.1} s",
        coordination::expected_time(nodes, mttq)
    );
    println!(
        "  p99.9   : {:>7.1} s",
        coordination::quantile(nodes, mttq, 0.999)
    );
    for t in [60.0, 100.0, 120.0] {
        println!(
            "  P(Y>{t:>3}s): {:>7.4}",
            coordination::timeout_probability(nodes, mttq, t)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_core::Experiment;

    fn small_estimate() -> (SystemConfig, Estimate) {
        let cfg = SystemConfig::builder().processors(8_192).build().unwrap();
        let est = Experiment::new(cfg.clone())
            .transient(ckpt_des::SimTime::from_hours(20.0))
            .horizon(ckpt_des::SimTime::from_hours(200.0))
            .replications(2)
            .jobs(1)
            .run()
            .unwrap();
        (cfg, est)
    }

    #[test]
    fn quiet_suppresses_every_per_rep_line_in_both_formats() {
        let (cfg, est) = small_estimate();
        for csv in [false, true] {
            let loud = render_report(
                &cfg,
                &est,
                &RunOptions {
                    csv,
                    ..RunOptions::default()
                },
            );
            let quiet = render_report(
                &cfg,
                &est,
                &RunOptions {
                    csv,
                    exec: ckpt_harness::ExecFlags {
                        quiet: true,
                        ..ckpt_harness::ExecFlags::default()
                    },
                    ..RunOptions::default()
                },
            );
            // Loud output carries the per-rep section; quiet output has
            // no trace of it — not the header, not a row per rep.
            let header = if csv {
                "rep,wall_secs,events,events_per_sec"
            } else {
                "  rep "
            };
            assert!(loud.contains(header), "csv={csv}");
            assert!(!quiet.contains(header), "csv={csv}:\n{quiet}");
            // And quiet still reports the run-level results.
            assert!(quiet.contains(if csv {
                "useful_work_fraction"
            } else {
                "useful work fraction"
            }));
            // The quiet report is exactly the loud one minus the
            // timing section — nothing else may leak timing data.
            assert_eq!(format!("{quiet}{}", timing_section(&est, csv)), loud);
            assert!(!quiet.contains("perf_"), "csv={csv}:\n{quiet}");
        }
    }

    #[test]
    fn profile_section_lists_each_replication_once() {
        let (_, est) = small_estimate();
        let csv = profile_section(&est, true);
        assert!(csv.starts_with("rep,wall_secs,events,events_per_sec\n"));
        assert_eq!(csv.lines().count(), 1 + est.profiles().len());
        let table = profile_section(&est, false);
        assert_eq!(table.lines().count(), 1 + est.profiles().len());
    }

    #[test]
    fn dot_refuses_san_ablations_like_run() {
        for flags in [["--policy", "adaptive"], ["--spatial", "0.2"]] {
            let args = |cmd: &[&str]| -> Vec<String> {
                cmd.iter().chain(&flags).map(|s| (*s).to_string()).collect()
            };
            let dot_err = dot(args(&[])).unwrap_err();
            let run_err = run_single(args(&["--engine", "san", "--quick"])).unwrap_err();
            assert_eq!(dot_err.exit_code(), 2, "{flags:?}: {dot_err}");
            assert_eq!(dot_err.to_string(), run_err.to_string(), "{flags:?}");
        }
    }
}
