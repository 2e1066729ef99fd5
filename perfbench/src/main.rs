//! ckptsim's benchmark: one workload per run, timed from outside the
//! crates through their public functions.
//!
//! ```text
//! perfbench --workload heap|calendar --seed N --seconds S --trace 0|1
//!           [--work-dir DIR]
//! ```
//!
//! Every workload runs three parts — `fig4_point`, `sweeps` and
//! `service` — so every run reports every metric; the workload names the
//! event-queue backend all their simulations use. With `--trace 0` the
//! run reports the end-to-end metrics; with `--trace 1` it reports the
//! per-layer metrics from spans around each public call. Human-readable lines (provenance, digest, check
//! verdicts, metrics) come first; the last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! See README.md in this directory.

mod common;
mod fig4;
mod hostspeed;
mod provenance;
mod report;
mod service;
mod sweeps;
mod trace;

use ckpt_core::QueueKind;
use common::Ctx;
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// The workloads, named after the event-queue backend (`--queue`) of
/// every simulation they run.
const WORKLOADS: [&str; 2] = ["heap", "calendar"];

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".bench_work");
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                });
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {WORKLOADS:?})"
        ));
    }
    let queue = QueueKind::parse(&workload)?;
    Ok(Args {
        workload,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            queue,
            trace: trace.ok_or("--trace is required")?,
            tiny: false,
            work_dir,
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        },
    })
}

/// Runs the three parts of a workload on the event queue `ctx` names and
/// returns their report. The tracer records spans in traced runs only.
///
/// The untraced pass interleaves the parts' rounds — fig4_point, sweeps,
/// service, again — so each part's median samples the whole run: the
/// host's speed drifts within a run, and parts run one after the other
/// would each see only a stretch of it. The traced pass runs the parts
/// one after the other, each on a third of the budget.
pub fn run_workload(ctx: &Ctx, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let (fig4_size, sweeps_size, service_size) = if ctx.tiny {
        (fig4::Size::TINY, sweeps::Size::TINY, service::Size::TINY)
    } else {
        (fig4::Size::FULL, sweeps::Size::FULL, service::Size::FULL)
    };
    let mut fig4 = fig4::setup(ctx, &fig4_size)?;
    let mut sweeps = sweeps::setup(ctx, &sweeps_size)?;
    let mut service = service::setup(ctx, &service_size, &mut report)?;
    if ctx.trace {
        let third = ctx.part(1.0 / 3.0);
        fig4.traced(&third, &mut report, tracer)?;
        sweeps.traced(&third, &mut report, tracer)?;
        service.traced(&third, &mut report, tracer)?;
        let (off, on) = report.traced_walls;
        report.metric("tracing_overhead_share", on / off - 1.0, "share");
    } else {
        common::repeat(ctx.seconds, ctx.min_rounds(), |_| {
            fig4.round(&mut report);
            sweeps.round(&mut report);
            service.round(&mut report);
        });
        fig4.finish(&mut report);
        sweeps.finish(&mut report);
        service.finish(&mut report);
        report.metric("setup_s", report.setup_s, "s");
        report.metric("peak_rss_mb", provenance::peak_rss_mb()?, "MiB");
    }
    Ok(report)
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(report: &Report) -> String {
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct() && finite,
        report.attempted,
        report.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let prov = provenance::Provenance::detect();
    if prov.prof {
        eprintln!(
            "perfbench: refusing to report timings from a build with the `prof` feature \
             (its per-phase clock reads inflate them about 3x)"
        );
        return ExitCode::from(3);
    }
    let ctx = &args.ctx;
    if let Err(e) = std::fs::create_dir_all(&ctx.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work_dir.display());
        return ExitCode::from(1);
    }
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    println!("provenance: {}", prov.line());
    let speeds = || {
        format!(
            "event loop {:.3}, allocation churn {:.3}",
            hostspeed::speed(hostspeed::Probe::EventLoop),
            hostspeed::speed(hostspeed::Probe::AllocChurn)
        )
    };
    let speed_before = speeds();
    let tracer = Tracer::new(ctx.trace);
    let report = match run_workload(ctx, &tracer) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    println!(
        "host speed (diagnostic, 1 = reference host when quiet): {speed_before} before; {} after",
        speeds()
    );
    if ctx.trace {
        let path = ctx
            .work_dir
            .join(format!("spans-{}-{}.json", args.workload, ctx.seed));
        if let Err(e) = std::fs::write(&path, tracer.to_json()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("spans: {}", path.display());
    }
    for note in &report.notes {
        println!("{note}");
    }
    println!("digest: {:016x}", report.digest.0);
    for line in report.check_lines() {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "operations: attempted {} failed {}",
        report.attempted, report.failed
    );
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload calendar --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "calendar");
        assert_eq!((a.ctx.seed, a.ctx.seconds, a.ctx.trace), (7, 10.0, true));
        assert_eq!(a.ctx.queue, QueueKind::Calendar);
        let h = args("--workload heap --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(h.ctx.queue, QueueKind::IndexedHeap);
        assert!(args("--workload heap --seed 7 --seconds 10").is_err());
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 0").is_err());
        assert!(args("--workload heap --seed x --seconds 10 --trace 0").is_err());
        assert!(args("--workload heap --seed 1 --seconds 10 --trace 2").is_err());
        assert!(args("--workload heap --seed 1 --seconds 0 --trace 0").is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let mut r = Report::default();
        r.op(true);
        r.metric("setup_s", 0.25, "s");
        assert_eq!(
            result_json(&r),
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
        r.metric("x", f64::NAN, "s");
        assert!(result_json(&r).starts_with("{\"correct\":false"));
    }

    use ckpt_harness::json::{parse, JsonValue};

    fn manifest() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/"))
            .expect("BENCHMARK.json parses")
    }

    /// The `fields` of every entry `BENCHMARK.json` lists under `key`.
    fn manifest_list(key: &str, fields: &[&str]) -> Vec<Vec<String>> {
        let doc = manifest();
        let list = doc.get(key).and_then(JsonValue::as_array).expect("a list");
        list.iter()
            .map(|m| {
                fields
                    .iter()
                    .map(|f| {
                        m.get(f)
                            .and_then(JsonValue::as_str)
                            .expect("a string")
                            .into()
                    })
                    .collect()
            })
            .collect()
    }

    /// A tiny run of every workload, untraced and traced: every output
    /// check passes, and the result line carries exactly the metrics
    /// `BENCHMARK.json` lists for the pass, in their units.
    #[test]
    fn tiny_smoke_run_of_every_workload() {
        let dir = std::env::temp_dir().join(format!("perfbench-smoke-{}", std::process::id()));
        assert_eq!(
            manifest_list("workloads", &["name"]),
            WORKLOADS.map(|w| vec![w.to_string()])
        );
        for workload in WORKLOADS {
            for trace in [false, true] {
                let ctx = Ctx {
                    seed: 11,
                    seconds: 0.01,
                    queue: QueueKind::parse(workload).unwrap(),
                    trace,
                    tiny: true,
                    work_dir: dir.clone(),
                    nproc: 2,
                };
                let report = run_workload(&ctx, &Tracer::new(trace)).unwrap();
                // The probe-alone check needs a process with one thread,
                // and the test harness runs more.
                let failed: Vec<String> = report
                    .check_lines()
                    .into_iter()
                    .filter(|l| {
                        !l.ends_with(" ok") && !l.starts_with("check hostspeed.probe_alone")
                    })
                    .collect();
                assert!(failed.is_empty(), "{workload} trace={trace}: {failed:?}");
                assert!(report.attempted > 0);
                assert!(report.metrics.iter().all(|m| m.value.is_finite()));
                let mut got: Vec<Vec<String>> = report
                    .metrics
                    .iter()
                    .map(|m| vec![m.name.to_string(), m.unit.to_string()])
                    .collect();
                let pass = if trace { "per_layer" } else { "end_to_end" };
                let mut want = manifest_list(pass, &["name", "unit"]);
                got.sort();
                want.sort();
                assert_eq!(got, want, "{workload} trace={trace}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
