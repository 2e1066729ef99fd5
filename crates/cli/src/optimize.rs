//! `ckptsim optimize`: search the checkpoint-policy space for the
//! configuration that maximizes the useful-work fraction.
//!
//! The search enumerates a deterministic candidate list — a grid of
//! fixed intervals (always including the configured one), the
//! Daly-optimal interval, and (on the direct engine) the load-adaptive
//! policy — evaluates every candidate through the same crash-safe
//! parallel sweep machinery `ckptsim figure` uses, and emits a
//! versioned JSON report of the whole frontier plus the winner.
//!
//! Determinism: candidates are derived only from the base
//! configuration and the engine, cells are evaluated with the usual
//! seed-per-replication contract, and the report carries no wall-clock
//! data — the same flags always produce the byte-identical report, at
//! any `--jobs`, interrupted and resumed or not.

use crate::config_flags::parse_config;
use ckpt_bench::sweep::{Cell, Metric};
use ckpt_bench::{
    run_sweep_controlled, runner, sweep_fingerprint, RunOptions, Series, SweepControl,
};
use ckpt_core::{PolicySpec, SystemConfig};
use ckpt_des::SimTime;
use ckpt_harness::json::JsonValue;
use ckpt_harness::spec::{config_to_json, policy_to_json};
use ckpt_harness::{signal, CkptError};

/// Report format version; bump when the JSON layout changes.
pub const OPTIMIZE_SCHEMA_VERSION: u64 = 1;

/// Fixed-interval grid searched by `ckptsim optimize`, in seconds
/// (5 min – 4 h, the paper's Figure-5 sensitivity range).
pub const INTERVAL_GRID_SECS: [f64; 7] = [300.0, 600.0, 900.0, 1800.0, 3600.0, 7200.0, 14400.0];

/// One policy candidate in the search space.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Stable human-readable label (also the sweep series label).
    pub label: String,
    /// The policy under evaluation.
    pub policy: PolicySpec,
    /// Static checkpoint interval in seconds, when the policy has one
    /// (`None` for the load-adaptive policy).
    pub interval_secs: Option<f64>,
    /// The derived configuration this candidate simulates.
    pub config: SystemConfig,
}

/// Enumerates the candidate list for `base` on `engine`: the fixed
/// grid ([`INTERVAL_GRID_SECS`], with the configured interval folded
/// in, deduplicated, ascending), the Daly-optimal policy, and — on the
/// direct engine only, the SAN composition needs a static rate — the
/// load-adaptive policy.
///
/// # Errors
///
/// [`CkptError::Config`] if a derived variant fails validation (cannot
/// happen for a valid `base`: only interval and policy change).
pub fn candidates(
    base: &SystemConfig,
    engine: ckpt_core::EngineKind,
) -> Result<Vec<Candidate>, CkptError> {
    let mut intervals: Vec<f64> = INTERVAL_GRID_SECS.to_vec();
    let configured = base.checkpoint_interval().as_secs();
    if !intervals.contains(&configured) {
        intervals.push(configured);
    }
    intervals.sort_by(|a, b| a.partial_cmp(b).expect("finite intervals"));

    let mut out = Vec::new();
    for secs in intervals {
        let config = base
            .to_builder()
            .checkpoint_interval(SimTime::from_secs(secs))
            .policy(PolicySpec::Fixed)
            .build()
            .map_err(CkptError::from)?;
        out.push(Candidate {
            label: format!("fixed@{secs}s"),
            policy: PolicySpec::Fixed,
            interval_secs: Some(secs),
            config,
        });
    }

    let daly = base
        .to_builder()
        .policy(PolicySpec::DalyOptimal)
        .build()
        .map_err(CkptError::from)?;
    let daly_interval = daly
        .policy()
        .static_interval(&daly)
        .map(|t| t.as_secs())
        .unwrap_or(configured);
    out.push(Candidate {
        label: "daly_optimal".into(),
        policy: PolicySpec::DalyOptimal,
        interval_secs: Some(daly_interval),
        config: daly,
    });

    if engine == ckpt_core::EngineKind::Direct {
        let policy = PolicySpec::load_adaptive_default();
        let config = base
            .to_builder()
            .policy(policy)
            .build()
            .map_err(CkptError::from)?;
        out.push(Candidate {
            label: policy.to_string(),
            policy,
            interval_secs: None,
            config,
        });
    }
    Ok(out)
}

/// The sweep cells for a candidate list: one cell per candidate, in
/// order, `series == x == index` so the fingerprint and the journal
/// key both follow the candidate order.
#[must_use]
pub fn cells(cands: &[Candidate]) -> Vec<Cell> {
    cands
        .iter()
        .enumerate()
        .map(|(i, c)| Cell {
            series: i,
            x: i as f64,
            config: c.config.clone(),
        })
        .collect()
}

/// Index of the winning candidate: highest useful-work fraction,
/// first index on ties (so the result is deterministic).
#[must_use]
pub fn winner_index(series: &[Series]) -> usize {
    let mut best = 0usize;
    let mut best_y = f64::NEG_INFINITY;
    for (i, s) in series.iter().enumerate() {
        let y = s.points.first().map_or(f64::NEG_INFINITY, |p| p.y);
        if y > best_y {
            best = i;
            best_y = y;
        }
    }
    best
}

fn candidate_json(c: &Candidate, s: &Series) -> JsonValue {
    let point = s.points.first();
    JsonValue::Object(vec![
        ("label".into(), JsonValue::from_text(&c.label)),
        ("policy".into(), policy_to_json(c.policy)),
        (
            "interval_secs".into(),
            c.interval_secs.map_or(JsonValue::Null, JsonValue::from_f64),
        ),
        (
            "useful_work_fraction".into(),
            point.map_or(JsonValue::Null, |p| JsonValue::from_f64(p.y)),
        ),
        (
            "half_width".into(),
            point.map_or(JsonValue::Null, |p| JsonValue::from_f64(p.half_width)),
        ),
    ])
}

/// Renders the versioned optimize report. Pure and deterministic: no
/// timestamps, no wall-clock data, fields in a fixed order.
#[must_use]
pub fn report_json(
    base: &SystemConfig,
    cands: &[Candidate],
    series: &[Series],
    opts: &RunOptions,
    fingerprint: u64,
) -> String {
    let rows: Vec<JsonValue> = cands
        .iter()
        .zip(series)
        .map(|(c, s)| candidate_json(c, s))
        .collect();
    let win = winner_index(series);
    let winner = cands
        .get(win)
        .zip(series.get(win))
        .map_or(JsonValue::Null, |(c, s)| {
            let mut fields = match candidate_json(c, s) {
                JsonValue::Object(fields) => fields,
                _ => unreachable!("candidate_json returns an object"),
            };
            fields.insert(0, ("index".into(), JsonValue::from_u64(win as u64)));
            JsonValue::Object(fields)
        });
    let doc = JsonValue::Object(vec![
        (
            "schema_version".into(),
            JsonValue::from_u64(OPTIMIZE_SCHEMA_VERSION),
        ),
        ("kind".into(), JsonValue::from_text("optimize_report")),
        (
            "objective".into(),
            JsonValue::from_text("useful_work_fraction"),
        ),
        ("engine".into(), JsonValue::from_text(opts.engine.name())),
        ("seed".into(), JsonValue::from_u64(opts.seed)),
        ("replications".into(), JsonValue::from_u64(opts.reps.into())),
        (
            "transient_secs".into(),
            JsonValue::from_f64(opts.transient.as_secs()),
        ),
        (
            "horizon_secs".into(),
            JsonValue::from_f64(opts.horizon.as_secs()),
        ),
        (
            "fingerprint".into(),
            JsonValue::from_text(&format!("{fingerprint:#018x}")),
        ),
        ("config".into(), config_to_json(base)),
        ("candidates".into(), JsonValue::Array(rows)),
        ("winner".into(), winner),
    ]);
    let mut s = doc.to_json();
    s.push('\n');
    s
}

/// Runs the policy search for already-parsed inputs and returns the
/// report. Shared by [`optimize`] and the integration tests (which
/// drive interrupted/resumed searches through it).
///
/// # Errors
///
/// Everything [`run_sweep_controlled`] can return, plus journal I/O;
/// an interrupt surfaces as [`CkptError::Interrupted`] *after* the
/// snapshot is persisted.
pub fn run_search(base: &SystemConfig, opts: &RunOptions) -> Result<String, CkptError> {
    let sink = opts.progress_sink()?;
    run_search_with_sink(base, opts, &sink)
}

/// [`run_search`] reporting through an already-built sink stack (so
/// the `--progress` file is created exactly once per process).
fn run_search_with_sink(
    base: &SystemConfig,
    opts: &RunOptions,
    sink: &ckpt_obs::MultiSink,
) -> Result<String, CkptError> {
    let cands = candidates(base, opts.engine)?;
    let labels: Vec<String> = cands.iter().map(|c| c.label.clone()).collect();
    let cells = cells(&cands);
    let fingerprint = sweep_fingerprint("optimize", &cells, opts)?;
    let journal = opts.exec.open_journal(fingerprint)?;
    let control = SweepControl {
        journal: journal.as_ref(),
        interrupt: Some(signal::interrupt_flag()),
        progress: (!sink.is_empty()).then_some(sink as &dyn ckpt_obs::ProgressSink),
    };
    let series = run_sweep_controlled(&labels, cells, Metric::UsefulWorkFraction, opts, control)
        .map_err(|e| runner::seal_interrupted(journal.as_ref(), e))?;
    if let Some(j) = &journal {
        j.persist()?;
    }
    Ok(report_json(base, &cands, &series, opts, fingerprint))
}

/// `ckptsim optimize`: evaluate every candidate and print (or write,
/// with `--out FILE`) the JSON report.
///
/// Crash safety matches `ckptsim figure`: with `--snapshot` every
/// completed replication is journaled per cell, SIGINT/SIGTERM persist
/// the journal before exiting `128 + signal`, and `--resume` re-runs
/// only the missing work — the final report is byte-identical to an
/// uninterrupted search.
///
/// # Errors
///
/// [`CkptError::Usage`] on bad flags, plus everything the sweep can
/// return.
pub fn optimize(args: Vec<String>) -> Result<(), CkptError> {
    let (cfg, mut rest) = parse_config(args)?;
    let out = take_out_flag(&mut rest)?;
    let honoured = [
        "--snapshot",
        "--resume",
        "--progress",
        "--warmup",
        "--engine san",
    ];
    let opts = RunOptions::parse(rest)?.refuse_unhonoured("optimize", &honoured)?;
    signal::install();
    let sink = opts.progress_sink()?;
    let report = run_search_with_sink(&cfg, &opts, &sink)?;
    match &out {
        Some(path) => {
            runner::write_file(path, &report)?;
            // Same --quiet gating as the heartbeats: the sink stack is
            // empty under --quiet/--csv, so this line vanishes with it.
            ckpt_obs::ProgressSink::message(&sink, &format!("optimize report written to {path}"));
        }
        None => print!("{report}"),
    }
    Ok(())
}

/// Extracts `--out FILE` from `rest` before the run-option parser
/// (which rejects unknown flags) sees it.
fn take_out_flag(rest: &mut Vec<String>) -> Result<Option<String>, CkptError> {
    let Some(i) = rest.iter().position(|a| a == "--out") else {
        return Ok(None);
    };
    if i + 1 >= rest.len() {
        return Err(CkptError::Usage("--out expects a value".into()));
    }
    let value = rest.remove(i + 1);
    rest.remove(i);
    Ok(Some(value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_bench::sweep::Point;
    use ckpt_core::EngineKind;

    fn base() -> SystemConfig {
        SystemConfig::builder().processors(8_192).build().unwrap()
    }

    #[test]
    fn grid_folds_in_configured_interval_and_dedups() {
        // Default interval (1800 s) is already on the grid: no extra cell.
        let c = candidates(&base(), EngineKind::Direct).unwrap();
        let fixed: Vec<f64> = c
            .iter()
            .filter(|c| c.policy == PolicySpec::Fixed)
            .filter_map(|c| c.interval_secs)
            .collect();
        assert_eq!(fixed.len(), INTERVAL_GRID_SECS.len());
        assert!(fixed.windows(2).all(|w| w[0] <= w[1]), "sorted: {fixed:?}");

        // An off-grid configured interval appears exactly once, in order.
        let odd = base()
            .to_builder()
            .checkpoint_interval(SimTime::from_secs(1234.0))
            .build()
            .unwrap();
        let c = candidates(&odd, EngineKind::Direct).unwrap();
        let fixed: Vec<f64> = c
            .iter()
            .filter(|c| c.policy == PolicySpec::Fixed)
            .filter_map(|c| c.interval_secs)
            .collect();
        assert_eq!(fixed.iter().filter(|&&s| s == 1234.0).count(), 1);
        assert!(fixed.windows(2).all(|w| w[0] < w[1]), "sorted: {fixed:?}");
    }

    #[test]
    fn adaptive_candidate_only_on_direct_engine() {
        let direct = candidates(&base(), EngineKind::Direct).unwrap();
        let san = candidates(&base(), EngineKind::San).unwrap();
        let adaptive = |cs: &[Candidate]| cs.iter().any(|c| c.interval_secs.is_none());
        assert!(adaptive(&direct));
        assert!(!adaptive(&san));
        assert_eq!(direct.len(), san.len() + 1);
        // Both engines still search Daly.
        assert!(san.iter().any(|c| c.policy == PolicySpec::DalyOptimal));
    }

    #[test]
    fn daly_candidate_reports_its_derived_interval() {
        let c = candidates(&base(), EngineKind::San).unwrap();
        let daly = c
            .iter()
            .find(|c| c.policy == PolicySpec::DalyOptimal)
            .unwrap();
        let expected = daly
            .config
            .policy()
            .static_interval(&daly.config)
            .unwrap()
            .as_secs();
        assert_eq!(daly.interval_secs, Some(expected));
        assert!(expected > 0.0);
    }

    fn fake_series(ys: &[f64]) -> Vec<Series> {
        ys.iter()
            .enumerate()
            .map(|(i, &y)| Series {
                label: format!("cand{i}"),
                points: vec![Point {
                    x: i as f64,
                    y,
                    half_width: 0.001,
                }],
            })
            .collect()
    }

    #[test]
    fn winner_is_max_with_first_index_tiebreak() {
        assert_eq!(winner_index(&fake_series(&[0.1, 0.9, 0.5])), 1);
        assert_eq!(winner_index(&fake_series(&[0.7, 0.7, 0.7])), 0);
        assert_eq!(winner_index(&fake_series(&[])), 0);
    }

    #[test]
    fn report_is_valid_versioned_json() {
        let cfg = base();
        let opts = RunOptions::default();
        let cands = candidates(&cfg, opts.engine).unwrap();
        let series = fake_series(&vec![0.9; cands.len()]);
        let report = report_json(&cfg, &cands, &series, &opts, 0xdead_beef);
        let doc = ckpt_harness::json::parse(&report).unwrap();
        assert_eq!(doc.get("schema_version").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("optimize_report"));
        assert_eq!(
            doc.get("candidates").unwrap().as_array().unwrap().len(),
            cands.len()
        );
        let winner = doc.get("winner").unwrap();
        assert_eq!(winner.get("index").unwrap().as_u64(), Some(0));
        assert!(winner.get("useful_work_fraction").is_some());
        // Round-trips through the spec parser: the embedded config is
        // the real canonical rendering, not a lookalike.
        let embedded = doc.get("config").unwrap();
        let parsed = ckpt_harness::spec::config_from_json(embedded).unwrap();
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn out_flag_is_stripped_before_run_options() {
        let mut rest = vec!["--reps".into(), "2".into(), "--out".into(), "r.json".into()];
        assert_eq!(take_out_flag(&mut rest).unwrap().as_deref(), Some("r.json"));
        assert_eq!(rest, vec!["--reps".to_string(), "2".to_string()]);
        let mut dangling = vec!["--out".to_string()];
        assert!(take_out_flag(&mut dangling).is_err());
        let mut none = vec!["--reps".to_string(), "2".to_string()];
        assert_eq!(take_out_flag(&mut none).unwrap(), None);
    }
}
