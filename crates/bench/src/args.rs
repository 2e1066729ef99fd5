//! The run options every `ckptsim` simulation command parses, and the
//! one rule for the flags a command cannot honour
//! ([`RunOptions::refuse_unhonoured`]).

use ckpt_core::{default_jobs, EngineKind};
use ckpt_des::{SimTime, TimeError};
use ckpt_harness::{CkptError, ExecFlags};

/// Options accepted by every simulation command.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Simulation engine.
    pub engine: EngineKind,
    /// Replications per point.
    pub reps: u32,
    /// Measurement horizon per replication.
    pub horizon: SimTime,
    /// Transient discard before measuring.
    pub transient: SimTime,
    /// Base RNG seed.
    pub seed: u64,
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
    /// Worker threads for sweep cells and replications (default: all
    /// available cores; 1 forces the sequential path).
    pub jobs: usize,
    /// Warm-up replications run and discarded before the measured ones
    /// (recorded in manifests; never changes sampling).
    pub warmup: u32,
    /// Write the merged model-event trace as JSON Lines to this path.
    pub trace: Option<String>,
    /// Write the metrics report (manifest + merged registry +
    /// per-replication registries) as JSON to this path.
    pub metrics: Option<String>,
    /// Write just the run manifest as JSON to this path.
    pub manifest: Option<String>,
    /// The shared execution-control switches
    /// (`--snapshot/--snapshot-every/--resume/--progress/--quiet/`
    /// `--reactivation/--queue`), parsed and validated by [`ExecFlags`]
    /// — one implementation for every command.
    pub exec: ExecFlags,
    /// Write the merged telemetry document (histograms + spans) as
    /// JSON to this path.
    pub histograms: Option<String>,
    /// Write the Prometheus text exposition to this path at exit.
    pub prom: Option<String>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            engine: EngineKind::Direct,
            reps: 3,
            horizon: SimTime::from_hours(20_000.0),
            transient: SimTime::from_hours(1_000.0),
            seed: 0x5eed,
            csv: false,
            jobs: default_jobs(),
            warmup: 0,
            trace: None,
            metrics: None,
            manifest: None,
            exec: ExecFlags::default(),
            histograms: None,
            prom: None,
        }
    }
}

/// Parses the numeric value of `flag`.
fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, CkptError>
where
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| CkptError::Usage(format!("{flag}: {e}")))
}

/// The longest duration a flag accepts: 2⁵³ s, about 285 million years.
/// Past it the `f64` simulation clock no longer resolves one second, so
/// the model's shorter delays would leave the clock where it was.
const MAX_FLAG_SECS: f64 = 9_007_199_254_740_992.0;

/// Parses a duration flag's `value` in the unit `convert` takes (one of
/// the `SimTime::try_from_*` constructors).
///
/// # Errors
///
/// [`CkptError::Usage`], naming `flag`, when `value` is not a number or
/// is negative, NaN, infinite, overflows in conversion or exceeds 2⁵³
/// seconds.
pub fn duration(
    flag: &str,
    value: String,
    convert: fn(f64) -> Result<SimTime, TimeError>,
) -> Result<SimTime, CkptError> {
    match convert(number(flag, value.clone())?) {
        Ok(t) if t.as_secs() <= MAX_FLAG_SECS => Ok(t),
        Ok(_) => Err(CkptError::Usage(format!(
            "{flag}: {value} is longer than 2^53 s"
        ))),
        Err(e) => Err(CkptError::Usage(format!("{flag}: {value}: {e}"))),
    }
}

impl RunOptions {
    /// Parses options from an argument iterator (without the program
    /// name). Unknown flags are rejected.
    ///
    /// # Errors
    ///
    /// [`CkptError::Usage`] on unknown flags or malformed values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<RunOptions, CkptError> {
        let mut opts = RunOptions::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| CkptError::Usage(format!("{arg} expects a value")))
            };
            match arg.as_str() {
                "--engine" => {
                    opts.engine = match value()?.as_str() {
                        "direct" => EngineKind::Direct,
                        "san" => EngineKind::San,
                        other => {
                            return Err(CkptError::Usage(format!(
                                "unknown engine '{other}' (expected direct|san)"
                            )))
                        }
                    };
                }
                "--reps" => opts.reps = number(&arg, value()?)?,
                "--hours" => opts.horizon = duration(&arg, value()?, SimTime::try_from_hours)?,
                "--transient" => {
                    opts.transient = duration(&arg, value()?, SimTime::try_from_hours)?;
                }
                "--seed" => opts.seed = number(&arg, value()?)?,
                "--jobs" => opts.jobs = number::<usize>(&arg, value()?)?.max(1),
                "--warmup" => opts.warmup = number(&arg, value()?)?,
                "--trace" => opts.trace = Some(value()?),
                "--metrics" => opts.metrics = Some(value()?),
                "--manifest" => opts.manifest = Some(value()?),
                "--histograms" => opts.histograms = Some(value()?),
                "--prom" => opts.prom = Some(value()?),
                "--csv" => opts.csv = true,
                "--quick" => {
                    opts.reps = 2;
                    opts.horizon = SimTime::from_hours(2_000.0);
                    opts.transient = SimTime::from_hours(200.0);
                }
                other => {
                    let consumed = opts
                        .exec
                        .accept(other, |_| value().map_err(|e| e.to_string()))
                        .map_err(CkptError::Usage)?;
                    if !consumed {
                        return Err(CkptError::Usage(format!("unknown flag '{other}'")));
                    }
                }
            }
        }
        Ok(opts)
    }

    /// Builds the progress-sink stack these options imply: a human
    /// heartbeat on stderr unless `--csv` or `--quiet` suppressed it,
    /// plus a deterministic JSONL stream when `--progress FILE` was
    /// given. The `--quiet` contract itself lives in
    /// [`ExecFlags::progress_sink`]; `--csv` is this crate's only
    /// addition (machine output implies no human heartbeat).
    ///
    /// # Errors
    ///
    /// Propagates the `--progress` file-creation error as
    /// [`CkptError::Io`].
    pub fn progress_sink(&self) -> Result<ckpt_obs::MultiSink, CkptError> {
        self.exec.progress_sink(!self.csv)
    }

    /// The one rule for flags a command cannot honour: every command
    /// parses the full flag set, then names the flags it honours out of
    /// [`OPTIONAL_FLAGS`], and the first other one that was set is
    /// refused. Returns the options unchanged otherwise.
    ///
    /// # Errors
    ///
    /// [`CkptError::Usage`] (exit 2) naming `command` and the flag.
    pub fn refuse_unhonoured(self, command: &str, honoured: &[&str]) -> Result<Self, CkptError> {
        let given = [
            self.trace.is_some(),
            self.metrics.is_some(),
            self.manifest.is_some(),
            self.histograms.is_some(),
            self.prom.is_some(),
            self.exec.snapshot.is_some(),
            self.exec.resume.is_some(),
            self.exec.progress.is_some(),
            self.warmup > 0,
            self.engine == EngineKind::San,
        ];
        let unhonoured = |(flag, given): &(&str, bool)| *given && !honoured.contains(flag);
        match OPTIONAL_FLAGS.into_iter().zip(given).find(unhonoured) {
            Some((flag, _)) => Err(CkptError::Usage(format!(
                "'{command}' does not support {flag}"
            ))),
            None => Ok(self),
        }
    }
}

/// The flags only some commands honour, as typed on the command line:
/// the output files, the journal, the progress stream, warm-up
/// replications and the SAN engine.
pub const OPTIONAL_FLAGS: [&str; 10] = [
    "--trace",
    "--metrics",
    "--manifest",
    "--histograms",
    "--prom",
    "--snapshot",
    "--resume",
    "--progress",
    "--warmup",
    "--engine san",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<RunOptions, CkptError> {
        RunOptions::parse(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.engine, EngineKind::Direct);
        assert_eq!(o.reps, 3);
        assert!(!o.csv);
    }

    #[test]
    fn full_flag_set() {
        let o = parse(&[
            "--engine",
            "san",
            "--reps",
            "7",
            "--hours",
            "500",
            "--transient",
            "50",
            "--seed",
            "99",
            "--csv",
        ])
        .unwrap();
        assert_eq!(o.engine, EngineKind::San);
        assert_eq!(o.reps, 7);
        assert_eq!(o.horizon, SimTime::from_hours(500.0));
        assert_eq!(o.transient, SimTime::from_hours(50.0));
        assert_eq!(o.seed, 99);
        assert!(o.csv);
    }

    #[test]
    fn durations_stop_at_two_to_the_53_seconds() {
        let secs = |v: &str| duration("--x", v.into(), SimTime::try_from_secs);
        assert_eq!(secs("9007199254740992").unwrap().as_secs(), MAX_FLAG_SECS);
        let err = secs("9007199254740994").unwrap_err().to_string();
        assert_eq!(err, "--x: 9007199254740994 is longer than 2^53 s");
        assert!(secs("ten").is_err());
    }

    #[test]
    fn quick_shrinks_run() {
        let o = parse(&["--quick"]).unwrap();
        assert_eq!(o.reps, 2);
        assert!(o.horizon < RunOptions::default().horizon);
    }

    #[test]
    fn refuse_unhonoured_names_the_first_flag_not_honoured() {
        let o = parse(&["--engine", "san", "--prom", "p", "--resume", "r"]).unwrap();
        assert!(o.clone().refuse_unhonoured("run", &OPTIONAL_FLAGS).is_ok());
        let err = o.refuse_unhonoured("figure", &["--resume", "--engine san"]);
        let msg = err.unwrap_err().to_string();
        assert_eq!(msg, "'figure' does not support --prom");
        assert!(parse(&[]).unwrap().refuse_unhonoured("ablate", &[]).is_ok());
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--engine", "magic"]).is_err());
        assert!(parse(&["--reps", "many"]).is_err());
        assert!(parse(&["--reps"]).is_err());
        assert!(parse(&["--help"]).is_err());
        assert!(parse(&["--jobs", "zero"]).is_err());
    }

    #[test]
    fn observability_flags_parse() {
        let o = parse(&[
            "--trace",
            "t.jsonl",
            "--metrics",
            "m.json",
            "--manifest",
            "r.json",
            "--quiet",
        ])
        .unwrap();
        assert_eq!(o.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(o.metrics.as_deref(), Some("m.json"));
        assert_eq!(o.manifest.as_deref(), Some("r.json"));
        assert!(o.exec.quiet);
        assert!(parse(&["--trace"]).is_err());
        assert!(parse(&["--metrics"]).is_err());
        let d = parse(&[]).unwrap();
        assert!(d.trace.is_none() && d.metrics.is_none() && d.manifest.is_none() && !d.exec.quiet);
    }

    #[test]
    fn snapshot_flags_parse() {
        let o = parse(&[
            "--snapshot",
            "s.json",
            "--snapshot-every",
            "4",
            "--resume",
            "r.json",
        ])
        .unwrap();
        assert_eq!(o.exec.snapshot.as_deref(), Some("s.json"));
        assert_eq!(o.exec.snapshot_every, 4);
        assert_eq!(o.exec.resume.as_deref(), Some("r.json"));
        assert!(parse(&["--snapshot"]).is_err());
        assert!(parse(&["--snapshot-every", "often"]).is_err());
        assert!(parse(&["--resume"]).is_err());
        let d = parse(&[]).unwrap();
        assert!(d.exec.snapshot.is_none() && d.exec.resume.is_none());
        assert_eq!(d.exec.snapshot_every, 1);
    }

    #[test]
    fn telemetry_flags_parse() {
        let o = parse(&[
            "--progress",
            "p.jsonl",
            "--histograms",
            "h.json",
            "--prom",
            "m.prom",
        ])
        .unwrap();
        assert_eq!(o.exec.progress.as_deref(), Some("p.jsonl"));
        assert_eq!(o.histograms.as_deref(), Some("h.json"));
        assert_eq!(o.prom.as_deref(), Some("m.prom"));
        assert!(parse(&["--progress"]).is_err());
        assert!(parse(&["--histograms"]).is_err());
        assert!(parse(&["--prom"]).is_err());
        let d = parse(&[]).unwrap();
        assert!(d.exec.progress.is_none() && d.histograms.is_none() && d.prom.is_none());
    }

    #[test]
    fn quiet_and_csv_suppress_the_human_sink_but_not_progress_files() {
        // No flags: one HumanSink. Quiet or csv: none.
        assert_eq!(parse(&[]).unwrap().progress_sink().unwrap().len(), 1);
        assert!(parse(&["--quiet"])
            .unwrap()
            .progress_sink()
            .unwrap()
            .is_empty());
        assert!(parse(&["--csv"])
            .unwrap()
            .progress_sink()
            .unwrap()
            .is_empty());
        // An explicit --progress file survives --quiet.
        let path =
            std::env::temp_dir().join(format!("ckpt_args_sink_{}.jsonl", std::process::id()));
        let o = parse(&["--quiet", "--progress", path.to_str().unwrap()]).unwrap();
        assert_eq!(o.progress_sink().unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn execution_mode_flags_parse() {
        use ckpt_core::{QueueKind, ReactivationMode};
        let o = parse(&["--reactivation", "lazy", "--queue", "calendar"]).unwrap();
        assert_eq!(o.exec.reactivation, ReactivationMode::Lazy);
        assert_eq!(o.exec.queue, QueueKind::Calendar);
        let d = parse(&[]).unwrap();
        assert_eq!(d.exec.reactivation, ReactivationMode::Resample);
        assert_eq!(d.exec.queue, QueueKind::IndexedHeap);
        assert!(parse(&["--reactivation", "eager"]).is_err());
        assert!(parse(&["--queue", "wheel"]).is_err());
        assert!(parse(&["--reactivation"]).is_err());
        assert!(parse(&["--queue"]).is_err());
    }

    #[test]
    fn warmup_parses_and_defaults_to_zero() {
        assert_eq!(parse(&[]).unwrap().warmup, 0);
        assert_eq!(parse(&["--warmup", "3"]).unwrap().warmup, 3);
        assert!(parse(&["--warmup", "some"]).is_err());
        assert!(parse(&["--warmup"]).is_err());
    }

    #[test]
    fn jobs_parses_and_clamps() {
        assert_eq!(parse(&["--jobs", "6"]).unwrap().jobs, 6);
        // 0 would deadlock a worker pool; clamp to the sequential path.
        assert_eq!(parse(&["--jobs", "0"]).unwrap().jobs, 1);
        assert!(parse(&[]).unwrap().jobs >= 1);
    }
}
