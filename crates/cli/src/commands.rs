//! Subcommand implementations.

use crate::config_flags::parse_config;
use ckpt_analytic::{availability, coordination, daly, vaidya, young};
use ckpt_bench::{experiment_spec, figures, runner, RunOptions};
use ckpt_core::{Estimate, ObserveSpec, PhaseKind, ReplicationStore, RunControl, SystemConfig};
use ckpt_harness::{signal, CkptError};
use ckpt_obs::{spans_json, telemetry_json, ProgressSink, Recorder};
use ckpt_svc::{LocalRun, Scheduler};
use std::fmt::Write as _;

/// Ring-buffer capacity behind `--trace`: large enough to keep every
/// model event of a default-length replication; if a longer run
/// overflows it, the JSONL notes the dropped count per replication.
const TRACE_CAPACITY: usize = 1 << 20;

fn run_options(rest: Vec<String>) -> Result<RunOptions, CkptError> {
    RunOptions::parse(rest).map_err(|e| CkptError::Usage(e.to_string()))
}

fn write_file(path: &str, contents: &str) -> Result<(), CkptError> {
    std::fs::write(path, contents).map_err(|e| CkptError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })
}

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

/// Renders the full metrics report: manifest, merged registry,
/// per-replication registries, and the registry-vs-engine phase-time
/// reconciliation verdicts.
fn metrics_json(est: &Estimate) -> String {
    let mut s = String::from("{\n\"schema_version\": 1,\n\"manifest\": ");
    s.push_str(est.manifest().to_json().trim_end());
    s.push_str(",\n\"merged_registry\": ");
    match est.merged_registry() {
        Some(reg) => s.push_str(&reg.to_json()),
        None => s.push_str("null"),
    }
    s.push_str(",\n\"replications\": [");
    let mut first = true;
    for (rep, rec) in est.recordings().iter().enumerate() {
        let Some(reg) = rec.registry() else { continue };
        if !first {
            s.push(',');
        }
        first = false;
        let reconcile = match est.replicates().get(rep) {
            Some(m) => match reg.reconcile(&m.phase_times, 1e-6) {
                Ok(()) => "\"ok\"".to_string(),
                Err(e) => format!("\"{}\"", ckpt_obs::json_escape(&e.to_string())),
            },
            None => "\"no metrics\"".to_string(),
        };
        s.push_str(&format!(
            "\n{{\"rep\":{rep},\"reconcile\":{reconcile},\"registry\":{}}}",
            reg.to_json()
        ));
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
    let opts = run_options(rest)?;
    let telemetry = opts.histograms.is_some() || opts.prom.is_some();
    let observing = opts.trace.is_some() || opts.metrics.is_some() || telemetry;
    if observing && opts.exec.journaling() {
        return Err(CkptError::Usage(
            "--snapshot/--resume cannot be combined with \
             --trace/--metrics/--histograms/--prom: observation re-executes \
             every replication, so cached results would be ignored"
                .into(),
        ));
    }
    let spec = experiment_spec(cfg.clone(), opts.engine, &opts)?;
    signal::install();
    let journal = runner::open_journal(spec.fingerprint(), &opts)?;
    let store = journal.as_ref().map(|j| j.cell_store(0));
    let sink = opts.progress_sink()?;
    let observe = observing.then(|| {
        let mut observe = ObserveSpec {
            trace_capacity: opts.trace.as_ref().map(|_| TRACE_CAPACITY),
            registry: true,
            histograms: false,
        };
        if telemetry {
            observe = observe.with_histograms();
        }
        observe
    });
    // `run` is a thin wrapper over the service execution core: the same
    // entry point the `ckptsim serve` workers use, so a local run and a
    // served one are the same code path (and bit-identical).
    let est = Scheduler::run_local(
        &spec,
        LocalRun {
            warmup: opts.warmup,
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
    if telemetry {
        let label = format!("{}proc-{}", cfg.processors(), opts.engine.name());
        let merged = est.merged_telemetry().unwrap_or_default();
        if let Some(path) = &opts.histograms {
            let tree = est.span_tree(&label);
            let doc = telemetry_json(&label, &merged, &spans_json(std::slice::from_ref(&tree)));
            write_file(path, &doc)?;
        }
        if let Some(path) = &opts.prom {
            let text = ckpt_obs::export::exposition(est.merged_registry().as_ref(), Some(&merged));
            write_file(path, &text)?;
        }
    }

    print!("{}", render_report(&cfg, &est, &opts));
    Ok(())
}

/// The entire stdout report of `ckptsim run`, as one string. Keeping it
/// in a pure function makes the `--quiet` contract testable: every
/// per-replication line comes from [`profile_section`], which is
/// appended in exactly one place, behind exactly one `quiet` guard —
/// regardless of which output sinks (`--csv`, `--trace`, `--metrics`)
/// are active.
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
        let _ = writeln!(s, "perf_wall_secs,{:.3},", est.total_wall_secs());
        let _ = writeln!(s, "perf_events_per_sec,{:.0},", est.events_per_sec());
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
        s.push_str(&profile_section(est, opts.csv));
    }
    s
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
pub fn run_figure(mut args: Vec<String>) -> Result<(), CkptError> {
    if args.is_empty() {
        return Err(CkptError::Usage(
            "figure expects an id (see 'ckptsim list')".into(),
        ));
    }
    let id = args.remove(0);
    let spec = figures::all_figures()
        .into_iter()
        .find(|(fid, _)| *fid == id)
        .map(|(_, spec)| spec)
        .ok_or_else(|| CkptError::Usage(format!("unknown figure '{id}' (see 'ckptsim list')")))?;
    let opts = run_options(args)?;
    runner::run_figure(&id, spec, &opts).map(|_| ())
}

/// `ckptsim list`: list the available figure ids.
pub fn list_figures() -> Result<(), CkptError> {
    for (id, spec) in figures::all_figures() {
        let title = spec.title.split(':').nth(1).unwrap_or(&spec.title);
        println!("{id:<14} {}", title.trim());
    }
    Ok(())
}

/// `ckptsim table3`: print the model parameters.
pub fn table3() -> Result<(), CkptError> {
    let c = SystemConfig::builder().build().map_err(CkptError::from)?;
    println!("Model parameters (paper's Table 3 defaults)");
    println!(
        "  checkpoint interval     {} min",
        c.checkpoint_interval().as_mins()
    );
    println!(
        "  MTTF per node           {:.2} yr",
        c.mttf_per_node().as_years()
    );
    println!(
        "  MTTR (compute)          {} min",
        c.mttr_system().as_mins()
    );
    println!("  MTTR (I/O nodes)        {} min", c.mttr_io().as_mins());
    println!("  processors              {}", c.processors());
    println!("  processors per node     {}", c.procs_per_node());
    println!("  MTTQ                    {} s", c.mttq().as_secs());
    println!(
        "  app cycle / compute     {} min / {}",
        c.app_cycle_period().as_mins(),
        c.compute_fraction()
    );
    println!("  reboot time             {} h", c.reboot_time().as_hours());
    println!(
        "  dump / FS write         {:.1} s / {:.1} s",
        c.checkpoint_dump_time().as_secs(),
        c.checkpoint_fs_write_time().as_secs()
    );
    println!("(run 'cargo run -p ckpt-bench --bin table3' for the full table)");
    Ok(())
}

/// `ckptsim dot`: the checkpoint model's SAN structure as Graphviz DOT
/// (pipe through `dot -Tsvg`).
pub fn dot(args: Vec<String>) -> Result<(), CkptError> {
    let (cfg, rest) = parse_config(args)?;
    if !rest.is_empty() {
        return Err(CkptError::Usage(format!("unknown flags: {rest:?}")));
    }
    let model = ckpt_core::san_model::CheckpointSan::build(&cfg)
        .map_err(|e| CkptError::Experiment(e.into()))?;
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
            // profile section — nothing else may leak per-rep data.
            assert_eq!(format!("{quiet}{}", profile_section(&est, csv)), loud);
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
}
