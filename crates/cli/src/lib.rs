//! Implementation of the `ckptsim` command-line interface.
//!
//! Subcommands:
//!
//! * `run` — simulate one configuration and print its metrics,
//! * `figure <id>` — regenerate one of the paper's figures
//!   (`figure all` writes every figure's CSV and SVG into `results/`),
//! * `list` — list the ids `figure` accepts,
//! * `table3` — print the model parameters (paper's Table 3) and the
//!   derived quantities,
//! * `ablate` / `baselines` / `sensitivity` / `compare-engines` — the
//!   table studies of [`ckpt_bench::studies`],
//! * `analytic` — print the closed-form baselines for a configuration,
//! * `optimize` — search the checkpoint-policy space for the best
//!   useful-work fraction and emit a versioned JSON report,
//! * `report` — summarize run artifacts (manifests, metrics reports,
//!   snapshots, telemetry documents) as tables or versioned JSON,
//! * `serve` — run the simulation service: an HTTP listener over a
//!   content-addressed result cache (see [`ckpt_svc`]),
//! * `submit` / `status` / `result` — the client side of `serve`.
//!
//! Configuration flags are shared between `run`, `analytic`, and
//! `submit`; see [`config_flags::parse_config`]. Each command refuses
//! the run flags it cannot honour through
//! [`ckpt_bench::RunOptions::refuse_unhonoured`]. `run` itself is a thin
//! wrapper over the service execution core ([`ckpt_svc::run_local`]),
//! so a locally-run spec and a served one go through the same code
//! path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commands;
pub mod config_flags;
pub mod optimize;
pub mod report;
pub mod service;

pub use ckpt_harness::CkptError;

/// Usage text printed by `--help` and on argument errors.
pub const USAGE: &str = "\
ckptsim — coordinated-checkpointing model of Wang et al., DSN 2005

USAGE:
    ckptsim run      [CONFIG FLAGS] [RUN FLAGS]   simulate one configuration
    ckptsim figure   <id> [RUN FLAGS]             regenerate a paper figure
    ckptsim figure   all [RUN FLAGS]              every figure → results/*.{csv,svg}
    ckptsim list                                  list figure ids
    ckptsim table3                                print model parameters (Table 3)
    ckptsim ablate   [RUN FLAGS]                  design-choice ablations
    ckptsim baselines [RUN FLAGS]                 simulation vs Young/Daly/Vaidya
    ckptsim sensitivity [RUN FLAGS]               parameter elasticities
    ckptsim compare-engines [RUN FLAGS]           direct vs SAN engine, side by side
    ckptsim analytic [CONFIG FLAGS]               closed-form baselines
    ckptsim dot      [CONFIG FLAGS]               SAN structure as Graphviz DOT
    ckptsim optimize [CONFIG FLAGS] [RUN FLAGS] [--out FILE]
                                                  search checkpoint policies for
                                                  the best useful-work fraction
    ckptsim report   FILE... [--json]             summarize run artifacts
                                                  (manifests, metrics, snapshots,
                                                  telemetry) with cross-run deltas
    ckptsim serve    [SERVE FLAGS]                serve simulations over HTTP with
                                                  a content-addressed result cache
    ckptsim submit   [CONFIG FLAGS] [RUN FLAGS] [CLIENT FLAGS]
                                                  submit a spec to a server; with
                                                  --wait, print the result bytes
    ckptsim status   <id> [CLIENT FLAGS]          poll a submitted job
    ckptsim result   <id> [CLIENT FLAGS]          fetch a job's result bytes
                                                  verbatim (cmp-stable)

CONFIG FLAGS:
    --processors N           total compute processors       [65536]
    --procs-per-node N       processors per node            [8]
    --interval-mins X        checkpoint interval            [30]
    --mttf-years X           per-node MTTF                  [1]
    --mttr-mins X            system MTTR                    [10]
    --mttq-secs X            per-node mean time to quiesce  [10]
    --compute-fraction X     compute share of the app cycle [0.95]
    --coordination MODE      fixed | exp | maxofn           [fixed]
    --timeout-secs X         master 'ready' timeout         [none]
    --error-propagation P,R  correlated windows (prob, factor)
    --generic-correlated A,R generic correlation (alpha, factor)
    --spatial P              compute/I-O co-failure probability (extension)
    --jitter LO,HI           per-cycle compute-fraction jitter (extension)
    --policy P               checkpoint-interval policy             [fixed]
                             fixed | daly | adaptive[:WINDOW,FLOOR_S,CEIL_S]
                             (adaptive needs --engine direct)

RUN FLAGS:
    --engine direct|san      simulation engine              [direct]
    --reps N                 replications                   [3]
    --hours H                measurement horizon            [20000]
    --transient H            warm-up discard                [1000]
    --seed S                 base RNG seed                  [0x5eed]
    --jobs N                 worker threads (1 = sequential) [all cores]
    --warmup N               warm-up replications, run and discarded   [0]
    --csv                    machine-readable output
    --quick                  fast smoke parameters
    --trace FILE             write the model-event trace as JSON Lines
    --metrics FILE           write metrics report (manifest + registries) as JSON
    --manifest FILE          write just the run manifest as JSON
    --snapshot FILE          journal completed replications to FILE (crash safety)
    --snapshot-every N       append and sync the journal every N reps   [1]
    --resume FILE            resume from a snapshot; re-runs only missing work
    --quiet                  suppress per-rep profiles and progress heartbeats
                             (an explicit --progress FILE stream stays active)
    --progress FILE          stream deterministic progress records as JSON Lines
    --histograms FILE        write merged telemetry as JSON: failure-gap,
                             queue-depth and dirty-set histograms, RNG draws,
                             elided redraws and per-replication spans
    --prom FILE              write Prometheus text exposition at exit
    --reactivation MODE      resample | lazy                [resample]
                             lazy skips redraws of memoryless exponential
                             timers (--engine san only; new RNG stream)
    --queue KIND             heap | calendar                [heap]
                             accepted for spec compatibility; every
                             engine runs its single future-event list

SERVE FLAGS:
    --addr A                 listen address                 [127.0.0.1:7070]
                             (use port 0 for an ephemeral port; the resolved
                             address is printed as 'listening on ADDR')
    --store DIR              job-store directory            [.ckptsim-store]
    --workers N              scheduler worker threads       [all cores]
    --snapshot-every N       journal persist cadence per job, in reps   [1]

CLIENT FLAGS:
    --server A               server address                 [127.0.0.1:7070]
    --tenant T               fair-share queue to submit into    [default]
    --wait                   poll until done, then print the result bytes
    --wait-secs S            like --wait with an explicit timeout     [600]

A command refuses (exit 2) any run flag it cannot honour, such as
'figure all --manifest' or 'ablate --engine san'.

Results are independent of --jobs: replication k always draws from
seed S + k, so parallelism changes scheduling, never sampling —
observers included (traces and registries merge in replication order).
A resumed run is bit-identical to an uninterrupted one at any --jobs.

EXIT CODES:
    0  success          1  simulation failure      2  bad flags/config
    3  snapshot or file I/O failure               130/143  interrupted
       (SIGINT/SIGTERM; progress saved when --snapshot is active)
";

/// Entry point used by `main`; returns the process exit code.
#[must_use]
pub fn run(args: Vec<String>) -> i32 {
    match dispatch(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            if e.is_usage() {
                eprintln!("\n{USAGE}");
            }
            e.exit_code()
        }
    }
}

fn dispatch(mut args: Vec<String>) -> Result<(), CkptError> {
    if args.is_empty() {
        return Err(CkptError::Usage("missing subcommand".into()));
    }
    let sub = args.remove(0);
    match sub.as_str() {
        "run" => commands::run_single(args),
        "figure" => commands::run_figure(args),
        "list" => {
            print!("{}", commands::figure_list());
            Ok(())
        }
        "analytic" => commands::analytic(args),
        "dot" => commands::dot(args),
        "optimize" => optimize::optimize(args),
        "report" => report::report(args),
        "serve" => service::serve(args),
        "submit" => service::submit(args),
        "status" => service::job_status(args),
        "result" => service::job_result(args),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => match ckpt_bench::studies::STUDIES
            .iter()
            .find(|(n, _)| *n == other)
        {
            Some(&(name, study)) => commands::run_study(name, study, args),
            None => Err(CkptError::Usage(format!("unknown subcommand '{other}'"))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_succeeds() {
        assert_eq!(run(argv(&["--help"])), 0);
        assert_eq!(run(argv(&["help"])), 0);
    }

    #[test]
    fn missing_and_unknown_subcommands_fail() {
        assert_eq!(run(vec![]), 2);
        assert_eq!(run(argv(&["frobnicate"])), 2);
    }

    #[test]
    fn list_and_table3_succeed() {
        assert_eq!(run(argv(&["list"])), 0);
        assert_eq!(run(argv(&["table3"])), 0);
    }

    #[test]
    fn analytic_succeeds_with_flags() {
        assert_eq!(
            run(argv(&[
                "analytic",
                "--processors",
                "8192",
                "--mttf-years",
                "3"
            ])),
            0
        );
    }

    #[test]
    fn optimize_rejects_bad_flags() {
        assert_eq!(run(argv(&["optimize", "--out"])), 2);
        assert_eq!(run(argv(&["optimize", "--bogus"])), 2);
    }

    #[test]
    fn optimize_smoke_writes_report() {
        let path = std::env::temp_dir().join(format!("ckptsim-opt-{}.json", std::process::id()));
        let path_s = path.to_str().unwrap().to_string();
        assert_eq!(
            run(argv(&[
                "optimize",
                "--processors",
                "1024",
                "--mttf-years",
                "0.25",
                "--reps",
                "1",
                "--hours",
                "50",
                "--transient",
                "5",
                "--jobs",
                "2",
                "--quiet",
                "--out",
                &path_s,
            ])),
            0
        );
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let doc = ckpt_harness::json::parse(&text).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("optimize_report"));
        assert!(doc.get("winner").unwrap().get("label").is_some());
    }

    #[test]
    fn analytic_rejects_bad_flags() {
        assert_eq!(run(argv(&["analytic", "--processors", "chair"])), 2);
        assert_eq!(run(argv(&["analytic", "--bogus"])), 2);
    }

    #[test]
    fn run_quick_succeeds() {
        assert_eq!(
            run(argv(&[
                "run",
                "--processors",
                "8192",
                "--quick",
                "--hours",
                "200",
                "--transient",
                "20",
                "--reps",
                "1"
            ])),
            0
        );
    }

    #[test]
    fn run_writes_trace_metrics_and_manifest() {
        let dir = std::env::temp_dir();
        let trace = dir.join("ckptsim_cli_test_trace.jsonl");
        let metrics = dir.join("ckptsim_cli_test_metrics.json");
        let manifest = dir.join("ckptsim_cli_test_manifest.json");
        assert_eq!(
            run(argv(&[
                "run",
                "--processors",
                "8192",
                "--reps",
                "2",
                "--hours",
                "200",
                "--transient",
                "20",
                "--quiet",
                "--trace",
                trace.to_str().unwrap(),
                "--metrics",
                metrics.to_str().unwrap(),
                "--manifest",
                manifest.to_str().unwrap(),
            ])),
            0
        );
        let t = std::fs::read_to_string(&trace).unwrap();
        assert!(t.lines().next().unwrap().starts_with("{\"rep\":0,"));
        assert!(t.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        let m = std::fs::read_to_string(&metrics).unwrap();
        assert!(m.contains("\"merged_registry\""));
        assert!(m.contains("\"reconcile\":\"ok\""));
        let man = std::fs::read_to_string(&manifest).unwrap();
        assert!(man.contains("\"schema_version\": 2"));
        assert!(man.contains("\"policy\": \"fixed\""));
        assert!(man.contains("\"engine\": \"direct\""));
        for p in [&trace, &metrics, &manifest] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn figure_quick_writes_sweep_manifest() {
        let manifest = std::env::temp_dir().join("ckptsim_cli_test_fig_manifest.json");
        assert_eq!(
            run(argv(&[
                "figure",
                "fig5",
                "--quick",
                "--quiet",
                "--csv",
                "--manifest",
                manifest.to_str().unwrap(),
            ])),
            0
        );
        let man = std::fs::read_to_string(&manifest).unwrap();
        assert!(man.contains("\"figure\": \"fig5\""));
        assert!(man.contains("\"cells\":"));
        let _ = std::fs::remove_file(&manifest);
    }

    #[test]
    fn dot_emits_graphviz() {
        assert_eq!(run(argv(&["dot", "--processors", "8192"])), 0);
        assert_eq!(run(argv(&["dot", "--bogus"])), 2);
    }

    #[test]
    fn figure_requires_known_id() {
        assert_eq!(run(argv(&["figure", "fig99"])), 2);
        assert_eq!(run(argv(&["figure"])), 2);
    }

    #[test]
    fn run_snapshot_then_resume_succeeds() {
        let snap = std::env::temp_dir().join("ckptsim_cli_test_snapshot.json");
        let _ = std::fs::remove_file(&snap);
        let base = [
            "run",
            "--processors",
            "8192",
            "--reps",
            "2",
            "--hours",
            "200",
            "--transient",
            "20",
            "--quiet",
            "--csv",
        ];
        let mut first = argv(&base);
        first.extend(argv(&["--snapshot", snap.to_str().unwrap()]));
        assert_eq!(run(first), 0);
        let saved = std::fs::read_to_string(&snap).unwrap();
        assert!(saved.contains("\"kind\":\"run_snapshot\""));

        let mut second = argv(&base);
        second.extend(argv(&["--resume", snap.to_str().unwrap()]));
        assert_eq!(run(second), 0);
        let _ = std::fs::remove_file(&snap);
    }

    #[test]
    fn run_rejects_snapshot_with_observers() {
        assert_eq!(
            run(argv(&[
                "run",
                "--quick",
                "--trace",
                "t.jsonl",
                "--snapshot",
                "s.json"
            ])),
            2
        );
    }

    #[test]
    fn run_refuses_the_retired_profile_phases_flag() {
        assert_eq!(
            run(argv(&["run", "--processors", "8192", "--profile-phases"])),
            2
        );
    }

    #[test]
    fn report_summarizes_artifacts_and_enforces_exit_codes() {
        let dir = std::env::temp_dir();
        let manifest = dir.join("ckptsim_cli_test_report_manifest.json");
        assert_eq!(
            run(argv(&[
                "run",
                "--processors",
                "8192",
                "--reps",
                "2",
                "--hours",
                "200",
                "--transient",
                "20",
                "--quiet",
                "--csv",
                "--manifest",
                manifest.to_str().unwrap(),
            ])),
            0
        );
        // Both renderings succeed on a fresh artifact.
        assert_eq!(run(argv(&["report", manifest.to_str().unwrap()])), 0);
        assert_eq!(
            run(argv(&["report", manifest.to_str().unwrap(), "--json"])),
            0
        );
        // Bad flag → usage (2); missing file → I/O (3); no files → 2.
        assert_eq!(
            run(argv(&["report", manifest.to_str().unwrap(), "--bogus"])),
            2
        );
        assert_eq!(run(argv(&["report", "/nonexistent/ckptsim.json"])), 3);
        assert_eq!(run(argv(&["report"])), 2);
        let _ = std::fs::remove_file(&manifest);
    }

    #[test]
    fn quiet_keeps_an_explicit_progress_stream_and_jobs_do_not_change_it() {
        // --quiet silences the human heartbeat but an explicit
        // --progress FILE is a requested artifact and stays active; its
        // records are deterministic, so serial and parallel runs write
        // byte-identical streams.
        let dir = std::env::temp_dir();
        let run_with = |jobs: &str, path: &std::path::Path| {
            assert_eq!(
                run(argv(&[
                    "run",
                    "--processors",
                    "8192",
                    "--reps",
                    "4",
                    "--hours",
                    "200",
                    "--transient",
                    "20",
                    "--jobs",
                    jobs,
                    "--quiet",
                    "--csv",
                    "--progress",
                    path.to_str().unwrap(),
                ])),
                0
            );
            std::fs::read_to_string(path).unwrap()
        };
        let p1 = dir.join("ckptsim_cli_test_progress_j1.jsonl");
        let p8 = dir.join("ckptsim_cli_test_progress_j8.jsonl");
        let serial = run_with("1", &p1);
        let parallel = run_with("8", &p8);
        assert_eq!(serial, parallel, "progress stream depends on --jobs");
        assert_eq!(serial.lines().count(), 4, "one record per replication");
        for (k, line) in serial.lines().enumerate() {
            assert!(
                line.contains("\"kind\":\"progress\"")
                    && line.contains(&format!("\"completed\":{}", k + 1))
                    && line.contains("\"total\":4"),
                "bad progress record: {line}"
            );
        }
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p8);
    }

    #[test]
    fn run_writes_histograms_and_prometheus_exports() {
        let dir = std::env::temp_dir();
        let hist = dir.join("ckptsim_cli_test_telemetry.json");
        let prom = dir.join("ckptsim_cli_test_metrics.prom");
        assert_eq!(
            run(argv(&[
                "run",
                "--processors",
                "8192",
                "--reps",
                "2",
                "--hours",
                "200",
                "--transient",
                "20",
                "--quiet",
                "--csv",
                "--histograms",
                hist.to_str().unwrap(),
                "--prom",
                prom.to_str().unwrap(),
            ])),
            0
        );
        let h = std::fs::read_to_string(&hist).unwrap();
        assert!(h.contains("\"kind\": \"telemetry\""), "telemetry doc: {h}");
        assert!(h.contains("\"failure_gap_secs\""));
        assert!(h.contains("\"spans\""));
        let doc = ckpt_harness::json::parse(&h).unwrap();
        assert_eq!(doc.get("probes_enabled").unwrap().as_bool(), Some(true));
        let p = std::fs::read_to_string(&prom).unwrap();
        assert!(p.contains("# TYPE ckptsim_"), "exposition: {p}");
        // The telemetry document is itself reportable.
        assert_eq!(run(argv(&["report", hist.to_str().unwrap(), "--json"])), 0);
        let _ = std::fs::remove_file(&hist);
        let _ = std::fs::remove_file(&prom);
    }

    #[test]
    fn run_refuses_resume_under_different_parameters() {
        let snap = std::env::temp_dir().join("ckptsim_cli_test_fp_mismatch.json");
        let _ = std::fs::remove_file(&snap);
        assert_eq!(
            run(argv(&[
                "run",
                "--processors",
                "8192",
                "--reps",
                "1",
                "--hours",
                "200",
                "--transient",
                "20",
                "--quiet",
                "--csv",
                "--snapshot",
                snap.to_str().unwrap(),
            ])),
            0
        );
        // A different seed changes the sampling, so the fingerprint no
        // longer matches and the resume must be refused (exit 3).
        assert_eq!(
            run(argv(&[
                "run",
                "--processors",
                "8192",
                "--reps",
                "1",
                "--hours",
                "200",
                "--transient",
                "20",
                "--seed",
                "99",
                "--quiet",
                "--csv",
                "--resume",
                snap.to_str().unwrap(),
            ])),
            3
        );
        let _ = std::fs::remove_file(&snap);
    }
}
