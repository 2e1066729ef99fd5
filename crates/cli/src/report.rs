//! `ckptsim report`: post-hoc summaries of run artifacts.
//!
//! Loads any mix of the JSON documents the toolchain writes — run
//! manifests (`--manifest`, schema v1 or v2), metrics reports
//! (`--metrics`), figure sweep manifests, `SweepJournal` snapshots
//! (`--snapshot`: the append-only journal, or a schema 1 whole-document
//! snapshot), optimize reports, and telemetry documents
//! (`--histograms`) — sniffs each document's kind, and renders either
//! aligned human tables or, with `--json`, one versioned machine
//! document. Multiple run manifests (or telemetry documents) get a
//! cross-run delta section against the first file given.
//!
//! The command is pure post-processing: it never simulates, and its
//! `--json` output is a deterministic function of the input files
//! (fixed key order, canonical number tokens), so reports over
//! committed fixtures can be pinned byte-for-byte in tests.

use ckpt_harness::journal::{is_journal, read_log};
use ckpt_harness::json::{parse, JsonValue};
use ckpt_harness::CkptError;
use std::fmt::Write as _;
use std::path::Path;

/// Report format version; bump when the `--json` layout changes.
pub const REPORT_SCHEMA_VERSION: u64 = 1;

/// Nearest-rank percentile of an ascending-sorted sample (the same
/// convention as `LogHistogram::value_at_quantile`); 0 on empty input.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn get_u64(doc: &JsonValue, key: &str) -> Option<u64> {
    doc.get(key).and_then(JsonValue::as_u64)
}

fn get_f64(doc: &JsonValue, key: &str) -> Option<f64> {
    doc.get(key).and_then(JsonValue::as_f64)
}

fn get_str<'a>(doc: &'a JsonValue, key: &str) -> Option<&'a str> {
    doc.get(key).and_then(JsonValue::as_str)
}

/// Summarizes a run manifest (schema v1 manifests — PR 2 era, no
/// `policy` and possibly no `jobs`/`host_parallelism`/`warmup` — parse
/// with defaults; v2 adds `policy`).
fn summarize_run_manifest(doc: &JsonValue) -> Vec<(String, JsonValue)> {
    let profiles = doc
        .get("profiles")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    let mut walls: Vec<f64> = profiles
        .iter()
        .filter_map(|p| get_f64(p, "wall_secs"))
        .collect();
    walls.sort_by(|a, b| a.partial_cmp(b).expect("finite wall times"));
    let wall_total: f64 = walls.iter().sum();
    let events_total: u64 = profiles.iter().filter_map(|p| get_u64(p, "events")).sum();
    let events_per_sec = if wall_total > 0.0 {
        events_total as f64 / wall_total
    } else {
        0.0
    };
    vec![
        (
            "schema_version".into(),
            JsonValue::from_u64(get_u64(doc, "schema_version").unwrap_or(1)),
        ),
        (
            "engine".into(),
            JsonValue::from_text(get_str(doc, "engine").unwrap_or("?")),
        ),
        (
            "estimation".into(),
            JsonValue::from_text(get_str(doc, "estimation").unwrap_or("?")),
        ),
        (
            "policy".into(),
            JsonValue::from_text(get_str(doc, "policy").unwrap_or("")),
        ),
        (
            "base_seed".into(),
            JsonValue::from_u64(get_u64(doc, "base_seed").unwrap_or(0)),
        ),
        (
            "replications".into(),
            JsonValue::from_u64(get_u64(doc, "replications").unwrap_or(0)),
        ),
        (
            "jobs".into(),
            JsonValue::from_u64(get_u64(doc, "jobs").unwrap_or(1)),
        ),
        (
            "host_parallelism".into(),
            JsonValue::from_u64(get_u64(doc, "host_parallelism").unwrap_or(1)),
        ),
        (
            "warmup".into(),
            JsonValue::from_u64(get_u64(doc, "warmup").unwrap_or(0)),
        ),
        (
            "faults".into(),
            JsonValue::from_u64(get_u64(doc, "faults").unwrap_or(0)),
        ),
        (
            "transient_hours".into(),
            JsonValue::from_f64(get_f64(doc, "transient_hours").unwrap_or(0.0)),
        ),
        (
            "horizon_hours".into(),
            JsonValue::from_f64(get_f64(doc, "horizon_hours").unwrap_or(0.0)),
        ),
        ("events_total".into(), JsonValue::from_u64(events_total)),
        ("wall_secs_total".into(), JsonValue::from_f64(wall_total)),
        ("events_per_sec".into(), JsonValue::from_f64(events_per_sec)),
        (
            "wall_secs_p50".into(),
            JsonValue::from_f64(percentile(&walls, 0.50)),
        ),
        (
            "wall_secs_p90".into(),
            JsonValue::from_f64(percentile(&walls, 0.90)),
        ),
        (
            "wall_secs_p99".into(),
            JsonValue::from_f64(percentile(&walls, 0.99)),
        ),
    ]
}

/// Summarizes one named histogram object (`LogHistogram::to_json`
/// layout: count/sum/min/max/p50/p90/p99).
fn histogram_fields(name: &str, hist: &JsonValue) -> Vec<(String, JsonValue)> {
    ["count", "min", "max", "p50", "p90", "p99"]
        .iter()
        .map(|k| {
            (
                format!("{name}_{k}"),
                JsonValue::from_u64(get_u64(hist, k).unwrap_or(0)),
            )
        })
        .collect()
}

fn summarize_telemetry(doc: &JsonValue) -> Vec<(String, JsonValue)> {
    let det = doc.get("deterministic");
    let hists = det.and_then(|d| d.get("histograms"));
    let mut fields = vec![
        (
            "label".into(),
            JsonValue::from_text(get_str(doc, "label").unwrap_or("?")),
        ),
        (
            "probes_enabled".into(),
            JsonValue::Bool(
                doc.get("probes_enabled")
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false),
            ),
        ),
        (
            "events".into(),
            JsonValue::from_u64(det.and_then(|d| get_u64(d, "events")).unwrap_or(0)),
        ),
        (
            "rng_draws".into(),
            JsonValue::from_u64(det.and_then(|d| get_u64(d, "rng_draws")).unwrap_or(0)),
        ),
        (
            "redraws_elided".into(),
            JsonValue::from_u64(det.and_then(|d| get_u64(d, "redraws_elided")).unwrap_or(0)),
        ),
    ];
    for name in ["failure_gap_secs", "queue_depth", "dirty_set"] {
        if let Some(h) = hists.and_then(|hs| hs.get(name)) {
            fields.extend(histogram_fields(name, h));
        }
    }
    fields
}

fn summarize_snapshot(doc: &JsonValue) -> Vec<(String, JsonValue)> {
    let completed = doc
        .get("completed")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    let mut cells: Vec<u64> = completed
        .iter()
        .filter_map(|c| get_u64(c, "cell"))
        .collect();
    cells.sort_unstable();
    cells.dedup();
    vec![
        (
            "fingerprint".into(),
            JsonValue::from_u64(get_u64(doc, "fingerprint").unwrap_or(0)),
        ),
        (
            "completed_replications".into(),
            JsonValue::from_u64(completed.len() as u64),
        ),
        ("cells".into(), JsonValue::from_u64(cells.len() as u64)),
    ]
}

fn summarize_optimize(doc: &JsonValue) -> Vec<(String, JsonValue)> {
    let winner = doc.get("winner");
    vec![
        (
            "engine".into(),
            JsonValue::from_text(get_str(doc, "engine").unwrap_or("?")),
        ),
        (
            "candidates".into(),
            JsonValue::from_u64(
                doc.get("candidates")
                    .and_then(JsonValue::as_array)
                    .map_or(0, |a| a.len() as u64),
            ),
        ),
        (
            "winner".into(),
            JsonValue::from_text(winner.and_then(|w| get_str(w, "label")).unwrap_or("?")),
        ),
        (
            "winner_useful_work_fraction".into(),
            winner
                .and_then(|w| get_f64(w, "useful_work_fraction"))
                .map_or(JsonValue::Null, JsonValue::from_f64),
        ),
    ]
}

fn summarize_sweep_manifest(doc: &JsonValue) -> Vec<(String, JsonValue)> {
    vec![
        (
            "figure".into(),
            JsonValue::from_text(get_str(doc, "figure").unwrap_or("?")),
        ),
        (
            "engine".into(),
            JsonValue::from_text(get_str(doc, "engine").unwrap_or("?")),
        ),
        (
            "cells".into(),
            JsonValue::from_u64(get_u64(doc, "cells").unwrap_or(0)),
        ),
        (
            "replications".into(),
            JsonValue::from_u64(get_u64(doc, "replications").unwrap_or(0)),
        ),
        (
            "jobs".into(),
            JsonValue::from_u64(get_u64(doc, "jobs").unwrap_or(1)),
        ),
        (
            "wall_secs".into(),
            JsonValue::from_f64(get_f64(doc, "wall_secs").unwrap_or(0.0)),
        ),
    ]
}

/// Reads one file's text as a document. A file whose first line is a
/// journal header becomes a `run_snapshot` document listing its
/// complete records (a torn final line is dropped, as resume drops it);
/// anything else must be one JSON document.
///
/// # Errors
///
/// [`CkptError::Snapshot`] for a damaged journal, [`CkptError::Io`]
/// when the text is not JSON.
fn document(path: &str, text: &str) -> Result<JsonValue, CkptError> {
    if !is_journal(text.as_bytes()) {
        return parse(text).map_err(|e| CkptError::Io {
            path: path.to_string(),
            message: e.to_string(),
        });
    }
    let log = read_log(Path::new(path), text.as_bytes(), None)?;
    let completed = log
        .records
        .keys()
        .map(|&(cell, rep)| {
            JsonValue::Object(vec![
                ("cell".into(), JsonValue::from_u64(u64::from(cell))),
                ("rep".into(), JsonValue::from_u64(u64::from(rep))),
            ])
        })
        .collect();
    Ok(JsonValue::Object(vec![
        ("kind".into(), JsonValue::from_text("run_snapshot")),
        (
            "fingerprint".into(),
            JsonValue::from_u64(log.fingerprint.unwrap_or(0)),
        ),
        ("completed".into(), JsonValue::Array(completed)),
    ]))
}

/// Sniffs a document's kind and produces its summary object
/// (`path` + `kind` + kind-specific fields, fixed order).
///
/// # Errors
///
/// [`CkptError::Usage`] when the document matches no known layout.
pub fn summarize(label: &str, doc: &JsonValue) -> Result<JsonValue, CkptError> {
    let (kind, fields) = match get_str(doc, "kind") {
        Some("run_snapshot") => ("run_snapshot", summarize_snapshot(doc)),
        Some("optimize_report") => ("optimize_report", summarize_optimize(doc)),
        Some("telemetry") => ("telemetry", summarize_telemetry(doc)),
        _ if doc.get("figure").is_some() => ("sweep_manifest", summarize_sweep_manifest(doc)),
        // A --metrics report embeds the run manifest; summarize that.
        _ if doc.get("merged_registry").is_some() => (
            "metrics_report",
            doc.get("manifest")
                .map(summarize_run_manifest)
                .unwrap_or_default(),
        ),
        _ if doc.get("profiles").is_some() && doc.get("engine").is_some() => {
            ("run_manifest", summarize_run_manifest(doc))
        }
        _ => {
            return Err(CkptError::Usage(format!(
                "{label}: unrecognized document (expected a run/sweep manifest, metrics \
                 report, snapshot, optimize report, or telemetry file)"
            )))
        }
    };
    let mut all = vec![
        ("path".to_string(), JsonValue::from_text(label)),
        ("kind".to_string(), JsonValue::from_text(kind)),
    ];
    all.extend(fields);
    Ok(JsonValue::Object(all))
}

/// Cross-run deltas: every run manifest (or embedded one) after the
/// first is compared against the first, and likewise for telemetry
/// documents. Percentages are relative to the baseline.
fn deltas(summaries: &[JsonValue]) -> Vec<JsonValue> {
    let of_kind = |kinds: &[&str]| -> Vec<&JsonValue> {
        summaries
            .iter()
            .filter(|s| get_str(s, "kind").is_some_and(|k| kinds.contains(&k)))
            .collect()
    };
    let mut out = Vec::new();
    let runs = of_kind(&["run_manifest", "metrics_report"]);
    if let Some((base, rest)) = runs.split_first() {
        for s in rest {
            let mut fields = vec![
                (
                    "path".to_string(),
                    JsonValue::from_text(get_str(s, "path").unwrap_or("?")),
                ),
                (
                    "baseline".to_string(),
                    JsonValue::from_text(get_str(base, "path").unwrap_or("?")),
                ),
            ];
            for key in ["events_per_sec", "wall_secs_total"] {
                let b = get_f64(base, key).unwrap_or(0.0);
                let v = get_f64(s, key).unwrap_or(0.0);
                let pct = if b != 0.0 { (v - b) / b * 100.0 } else { 0.0 };
                fields.push((format!("{key}_delta_pct"), JsonValue::from_f64(pct)));
            }
            out.push(JsonValue::Object(fields));
        }
    }
    let telem = of_kind(&["telemetry"]);
    if let Some((base, rest)) = telem.split_first() {
        for s in rest {
            let delta = |key: &str| {
                let b = get_u64(base, key).unwrap_or(0) as i128;
                let v = get_u64(s, key).unwrap_or(0) as i128;
                JsonValue::Number((v - b).to_string())
            };
            out.push(JsonValue::Object(vec![
                (
                    "path".to_string(),
                    JsonValue::from_text(get_str(s, "path").unwrap_or("?")),
                ),
                (
                    "baseline".to_string(),
                    JsonValue::from_text(get_str(base, "path").unwrap_or("?")),
                ),
                ("events_delta".to_string(), delta("events")),
                ("rng_draws_delta".to_string(), delta("rng_draws")),
            ]));
        }
    }
    out
}

/// The full `--json` report for already-parsed documents, in input
/// order. Deterministic: a pure function of the inputs.
///
/// # Errors
///
/// [`CkptError::Usage`] when any document is unrecognized.
pub fn report_json(entries: &[(String, JsonValue)]) -> Result<String, CkptError> {
    let summaries = entries
        .iter()
        .map(|(label, doc)| summarize(label, doc))
        .collect::<Result<Vec<_>, _>>()?;
    let delta_rows = deltas(&summaries);
    let doc = JsonValue::Object(vec![
        (
            "report_schema_version".into(),
            JsonValue::from_u64(REPORT_SCHEMA_VERSION),
        ),
        ("kind".into(), JsonValue::from_text("report")),
        ("files".into(), JsonValue::Array(summaries)),
        ("deltas".into(), JsonValue::Array(delta_rows)),
    ]);
    let mut s = doc.to_json();
    s.push('\n');
    Ok(s)
}

/// The human rendering: one aligned key/value table per file, plus a
/// delta section when several comparable runs were given.
///
/// # Errors
///
/// [`CkptError::Usage`] when any document is unrecognized.
pub fn report_human(entries: &[(String, JsonValue)]) -> Result<String, CkptError> {
    let summaries = entries
        .iter()
        .map(|(label, doc)| summarize(label, doc))
        .collect::<Result<Vec<_>, _>>()?;
    let mut s = String::new();
    let render_value = |v: &JsonValue| match v {
        JsonValue::String(text) => text.clone(),
        other => other.to_json(),
    };
    for summary in &summaries {
        let _ = writeln!(
            s,
            "{} ({})",
            get_str(summary, "path").unwrap_or("?"),
            get_str(summary, "kind").unwrap_or("?"),
        );
        for (key, value) in summary.as_object().into_iter().flatten() {
            if key == "path" || key == "kind" {
                continue;
            }
            let _ = writeln!(s, "  {key:<28} {}", render_value(value));
        }
    }
    let delta_rows = deltas(&summaries);
    if !delta_rows.is_empty() {
        let _ = writeln!(s, "deltas (vs first comparable file)");
        for row in &delta_rows {
            let _ = writeln!(s, "  {}", get_str(row, "path").unwrap_or("?"));
            for (key, value) in row.as_object().into_iter().flatten() {
                if key == "path" || key == "baseline" {
                    continue;
                }
                let _ = writeln!(s, "    {key:<26} {}", render_value(value));
            }
        }
    }
    Ok(s)
}

/// `ckptsim report FILE... [--json] [--quiet]`: summarize run
/// artifacts. `--quiet` is accepted for symmetry with every other
/// subcommand; the report itself is the requested output, and the
/// command emits no progress heartbeats to suppress.
///
/// # Errors
///
/// [`CkptError::Usage`] on bad flags, missing files, or unrecognized
/// documents; [`CkptError::Io`] when a file cannot be read or parsed.
pub fn report(args: Vec<String>) -> Result<(), CkptError> {
    let mut json_out = false;
    let mut files = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" => json_out = true,
            "--quiet" => {}
            other if other.starts_with("--") => {
                return Err(CkptError::Usage(format!(
                    "report: unknown flag '{other}' (expected FILE... [--json] [--quiet])"
                )))
            }
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        return Err(CkptError::Usage(
            "report expects at least one FILE (a manifest, metrics report, snapshot, \
             optimize report, or telemetry document)"
                .into(),
        ));
    }
    let mut entries = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path).map_err(|e| CkptError::Io {
            path: path.clone(),
            message: e.to_string(),
        })?;
        let doc = document(&path, &text)?;
        entries.push((path, doc));
    }
    let rendered = if json_out {
        report_json(&entries)?
    } else {
        report_human(&entries)?
    };
    print!("{rendered}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest_doc(seed: u64, wall: f64) -> JsonValue {
        parse(&format!(
            r#"{{"schema_version": 2, "tool": "ckptsim", "version": "0.1.0",
                "engine": "direct", "estimation": "replications",
                "base_seed": {seed}, "transient_hours": 1000.0,
                "horizon_hours": 20000.0, "replications": 2, "faults": 0,
                "jobs": 4, "host_parallelism": 8, "warmup": 0,
                "policy": "fixed",
                "config": {{"processors": "65536"}},
                "profiles": [
                  {{"rep": 0, "wall_secs": {wall}, "events": 1000, "events_per_sec": 2000.0}},
                  {{"rep": 1, "wall_secs": 0.25, "events": 1000, "events_per_sec": 4000.0}}
                ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.50), 2.0);
        assert_eq!(percentile(&xs, 0.99), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn run_manifest_summary_aggregates_profiles() {
        let s = summarize("m.json", &manifest_doc(1, 0.75)).unwrap();
        assert_eq!(get_str(&s, "kind"), Some("run_manifest"));
        assert_eq!(get_u64(&s, "events_total"), Some(2000));
        assert_eq!(get_f64(&s, "wall_secs_total"), Some(1.0));
        assert_eq!(get_f64(&s, "events_per_sec"), Some(2000.0));
        assert_eq!(get_f64(&s, "wall_secs_p50"), Some(0.25));
        assert_eq!(get_f64(&s, "wall_secs_p99"), Some(0.75));
        assert_eq!(get_str(&s, "policy"), Some("fixed"));
    }

    #[test]
    fn v1_manifests_without_policy_still_summarize() {
        let v1 = parse(
            r#"{"schema_version": 1, "tool": "ckptsim", "version": "0.1.0",
                "engine": "san", "estimation": "replications",
                "base_seed": 7, "transient_hours": 100.0,
                "horizon_hours": 2000.0, "replications": 1,
                "config": {},
                "profiles": [{"rep": 0, "wall_secs": 0.5, "events": 10, "events_per_sec": 20.0}]}"#,
        )
        .unwrap();
        let s = summarize("old.json", &v1).unwrap();
        assert_eq!(get_u64(&s, "schema_version"), Some(1));
        assert_eq!(get_str(&s, "policy"), Some(""));
        assert_eq!(get_u64(&s, "jobs"), Some(1));
        assert_eq!(get_u64(&s, "events_total"), Some(10));
    }

    #[test]
    fn unknown_documents_are_a_usage_error() {
        let doc = parse(r#"{"hello": "world"}"#).unwrap();
        assert!(matches!(
            summarize("x.json", &doc),
            Err(CkptError::Usage(_))
        ));
    }

    #[test]
    fn two_runs_get_a_delta_section() {
        let entries = vec![
            ("a.json".to_string(), manifest_doc(1, 0.75)),
            ("b.json".to_string(), manifest_doc(2, 0.25)),
        ];
        let j = report_json(&entries).unwrap();
        let doc = parse(&j).unwrap();
        assert_eq!(doc.get("report_schema_version").unwrap().as_u64(), Some(1));
        let deltas = doc.get("deltas").unwrap().as_array().unwrap();
        assert_eq!(deltas.len(), 1);
        let d = &deltas[0];
        assert_eq!(get_str(d, "baseline"), Some("a.json"));
        // b is faster: 2000 events over 0.5 s vs 1.0 s → +100 %.
        assert_eq!(get_f64(d, "events_per_sec_delta_pct"), Some(100.0));
        assert_eq!(get_f64(d, "wall_secs_total_delta_pct"), Some(-50.0));
        // Human rendering carries the same information.
        let human = report_human(&entries).unwrap();
        assert!(human.contains("a.json (run_manifest)"));
        assert!(human.contains("deltas (vs first comparable file)"));
    }

    #[test]
    fn telemetry_and_snapshot_documents_summarize() {
        let telem = parse(
            r#"{"telemetry_schema_version": 1, "kind": "telemetry", "label": "run",
                "probes_enabled": false,
                "deterministic": {"events": 5, "rng_draws": 0, "histograms":
                  {"failure_gap_secs": {"count":2,"sum":10,"min":3,"max":7,"p50":3,"p90":7,"p99":7,"buckets":[[3,1],[7,1]]},
                   "queue_depth": {"count":0,"sum":0,"min":0,"max":0,"p50":0,"p90":0,"p99":0,"buckets":[]},
                   "dirty_set": {"count":0,"sum":0,"min":0,"max":0,"p50":0,"p90":0,"p99":0,"buckets":[]}}},
                "provenance": {"spans": []}}"#,
        )
        .unwrap();
        let s = summarize("t.json", &telem).unwrap();
        assert_eq!(get_str(&s, "kind"), Some("telemetry"));
        assert_eq!(get_u64(&s, "events"), Some(5));
        assert_eq!(get_u64(&s, "failure_gap_secs_p90"), Some(7));

        let snap = parse(
            r#"{"schema_version": 1, "tool": "ckptsim", "kind": "run_snapshot",
                "fingerprint": 99, "stats": [],
                "completed": [{"cell": 0, "rep": 0, "events": 1, "metrics": {}},
                               {"cell": 1, "rep": 0, "events": 1, "metrics": {}}]}"#,
        )
        .unwrap();
        let s = summarize("s.json", &snap).unwrap();
        assert_eq!(get_str(&s, "kind"), Some("run_snapshot"));
        assert_eq!(get_u64(&s, "completed_replications"), Some(2));
        assert_eq!(get_u64(&s, "cells"), Some(2));
    }

    #[test]
    fn journal_files_summarize_like_snapshots() {
        let path = std::env::temp_dir().join(format!(
            "ckptsim_report_journal_{}.json",
            std::process::id()
        ));
        let journal = ckpt_harness::SweepJournal::create(&path, 99, 0);
        let m = ckpt_core::Metrics::default();
        journal.record(0, 0, &m, 1);
        journal.record(1, 0, &m, 1);
        journal.record(1, 1, &m, 1);
        journal.persist().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        let s = summarize("j.json", &document("j.json", &text).unwrap()).unwrap();
        assert_eq!(get_str(&s, "kind"), Some("run_snapshot"));
        assert_eq!(get_u64(&s, "fingerprint"), Some(99));
        assert_eq!(get_u64(&s, "completed_replications"), Some(3));
        assert_eq!(get_u64(&s, "cells"), Some(2));

        // A crash mid-append tears the last line; the summary counts
        // the complete records only.
        let torn = &text[..text.len() - 20];
        let s = summarize("t.json", &document("t.json", torn).unwrap()).unwrap();
        assert_eq!(get_u64(&s, "completed_replications"), Some(2));
        assert_eq!(get_u64(&s, "cells"), Some(2));

        // A damaged complete line is an error, not a smaller count.
        let damaged = text.replacen("\"rep\":0", "\"rep\":7", 1);
        assert!(matches!(
            document("d.json", &damaged),
            Err(CkptError::Snapshot(_))
        ));
    }

    #[test]
    fn older_telemetry_with_band_occupancy_still_summarizes() {
        // Documents written while the calendar queue existed carry a
        // fourth histogram; it is read past, not rejected.
        let telem = parse(
            r#"{"telemetry_schema_version": 1, "kind": "telemetry", "label": "run",
                "probes_enabled": true,
                "deterministic": {"events": 3, "rng_draws": 0, "histograms":
                  {"failure_gap_secs": {"count":1,"sum":4,"min":4,"max":4,"p50":4,"p90":4,"p99":4,"buckets":[[4,1]]},
                   "queue_depth": {"count":0,"sum":0,"min":0,"max":0,"p50":0,"p90":0,"p99":0,"buckets":[]},
                   "dirty_set": {"count":0,"sum":0,"min":0,"max":0,"p50":0,"p90":0,"p99":0,"buckets":[]},
                   "band_occupancy": {"count":2,"sum":5,"min":2,"max":3,"p50":2,"p90":3,"p99":3,"buckets":[[2,1],[3,1]]}}},
                "provenance": {"spans": []}}"#,
        )
        .unwrap();
        let s = summarize("old.json", &telem).unwrap();
        assert_eq!(get_u64(&s, "events"), Some(3));
        assert_eq!(get_u64(&s, "failure_gap_secs_p90"), Some(4));
        let fields = s.as_object().unwrap();
        assert!(fields.iter().all(|(k, _)| !k.starts_with("band_occupancy")));
    }
}
