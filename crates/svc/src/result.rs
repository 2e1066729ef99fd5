//! The versioned job-result document.
//!
//! [`render`] turns a finished [`Estimate`] into one deterministic JSON
//! document: every field is a pure function of the spec and the
//! replication outcomes — no wall-clock times, no host parallelism —
//! so the same spec produces the same bytes at any `--jobs` value, on
//! a resumed run, or through the service. That determinism
//! is what lets the [`crate::store::JobStore`] serve cached bytes
//! verbatim and still claim byte-identity with a fresh run.

use ckpt_core::Estimate;
use ckpt_harness::json::{parse, JsonValue};
use ckpt_harness::snapshot::metrics_to_json;
use ckpt_harness::ExperimentSpec;
use ckpt_stats::ConfidenceInterval;

/// Schema version of the result document.
pub const RESULT_SCHEMA_VERSION: u64 = 1;

fn interval_json(ci: &ConfidenceInterval) -> JsonValue {
    JsonValue::Object(vec![
        ("mean".to_string(), JsonValue::from_f64(ci.mean)),
        ("half_width".to_string(), JsonValue::from_f64(ci.half_width)),
        ("level".to_string(), JsonValue::from_f64(ci.level)),
        ("count".to_string(), JsonValue::from_u64(ci.count)),
    ])
}

/// Renders the result document for `est`, produced under `spec`.
///
/// The embedded spec is the canonical spec JSON with the `jobs` key
/// removed — two specs with equal fingerprints embed equal bytes, so
/// fingerprint-equality implies result byte-equality.
#[must_use]
pub fn render(spec: &ExperimentSpec, est: &Estimate) -> String {
    let spec_doc = match parse(&spec.to_json()) {
        Ok(JsonValue::Object(fields)) => {
            JsonValue::Object(fields.into_iter().filter(|(k, _)| k != "jobs").collect())
        }
        _ => JsonValue::Null,
    };
    let replicates: Vec<JsonValue> = est.replicates().iter().map(metrics_to_json).collect();
    let events: Vec<JsonValue> = est
        .profiles()
        .iter()
        .map(|p| JsonValue::from_u64(p.events))
        .collect();
    let doc = JsonValue::Object(vec![
        (
            "schema_version".to_string(),
            JsonValue::from_u64(RESULT_SCHEMA_VERSION),
        ),
        ("kind".to_string(), JsonValue::from_text("job_result")),
        (
            "fingerprint".to_string(),
            JsonValue::from_text(&format!("{:016x}", spec.fingerprint())),
        ),
        ("spec".to_string(), spec_doc),
        (
            "useful_work_fraction".to_string(),
            interval_json(&est.useful_work_fraction()),
        ),
        (
            "total_useful_work".to_string(),
            interval_json(&est.total_useful_work()),
        ),
        ("replicates".to_string(), JsonValue::Array(replicates)),
        ("events".to_string(), JsonValue::Array(events)),
    ]);
    let mut out = doc.to_json();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_core::SystemConfig;
    use ckpt_des::SimTime;

    fn spec(jobs: usize) -> ExperimentSpec {
        let cfg = SystemConfig::builder().processors(1024).build().unwrap();
        ExperimentSpec::builder(cfg)
            .transient(SimTime::from_hours(10.0))
            .horizon(SimTime::from_hours(120.0))
            .replications(3)
            .jobs(jobs)
            .build()
            .unwrap()
    }

    #[test]
    fn result_bytes_are_worker_count_invariant() {
        let (a, b) = (spec(1), spec(4));
        assert_eq!(a.fingerprint(), b.fingerprint());
        let est_a = a.to_experiment().run().unwrap();
        let est_b = b.to_experiment().run().unwrap();
        let (body_a, body_b) = (render(&a, &est_a), render(&b, &est_b));
        assert_eq!(body_a, body_b);
        assert!(!body_a.contains("\"jobs\""));
        assert!(body_a.contains("\"kind\":\"job_result\""));
    }

    #[test]
    fn result_document_parses_and_carries_the_fingerprint() {
        let s = spec(1);
        let est = s.to_experiment().run().unwrap();
        let doc = parse(&render(&s, &est)).unwrap();
        assert_eq!(
            doc.get("fingerprint").and_then(JsonValue::as_str),
            Some(format!("{:016x}", s.fingerprint()).as_str())
        );
        assert_eq!(
            doc.get("replicates")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(3)
        );
        assert_eq!(
            doc.get("schema_version").and_then(JsonValue::as_u64),
            Some(RESULT_SCHEMA_VERSION)
        );
    }
}
