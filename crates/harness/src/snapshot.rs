//! Atomic whole-file writes, the snapshot error type and the metrics ⇄
//! JSON mapping.
//!
//! [`atomic_write`] replaces a whole document with the classic
//! crash-safe sequence: write it to a sibling `*.tmp` file, `fsync` it,
//! then `rename` over the destination (atomic on POSIX filesystems) and
//! `fsync` the directory. A reader therefore always sees either the
//! previous complete document or the new one — never a torn write. The
//! service publishes its results this way. The replication journal
//! does not: it appends one line per replication and guards each line
//! with a checksum instead (see [`crate::journal`]).
//!
//! All floating-point fields round-trip **bit-identically** through
//! JSON (see [`crate::json`]); this is what lets a resumed run reproduce
//! the exact bytes of an uninterrupted run.

use crate::json::JsonValue;
use ckpt_core::{Counters, Metrics, PhaseKind};
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::Path;

/// Why a snapshot could not be written, read, or trusted.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// A filesystem operation failed.
    Io {
        /// Path involved.
        path: String,
        /// OS error text.
        message: String,
    },
    /// The snapshot file is not valid snapshot JSON.
    Parse {
        /// Path involved.
        path: String,
        /// What was wrong.
        message: String,
    },
    /// The file is JSON but not a snapshot this version understands.
    SchemaMismatch {
        /// Path involved.
        path: String,
        /// The `kind`/`schema_version` actually found.
        found: String,
    },
    /// The snapshot belongs to a different experiment specification.
    FingerprintMismatch {
        /// Path involved.
        path: String,
        /// Fingerprint of the spec being resumed.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// A journal record line does not match its own checksum
    /// (corruption or a hand-edited file).
    ChecksumMismatch {
        /// Path involved.
        path: String,
        /// 1-based line number of the damaged record.
        line: usize,
    },
    /// A journal holds two records for one replication.
    DuplicateRecord {
        /// Path involved.
        path: String,
        /// 1-based line number of the repeat.
        line: usize,
        /// Sweep cell of the repeated record.
        cell: u32,
        /// Replication of the repeated record.
        rep: u32,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, message } => write!(f, "snapshot {path}: {message}"),
            SnapshotError::Parse { path, message } => {
                write!(f, "snapshot {path} is malformed: {message}")
            }
            SnapshotError::SchemaMismatch { path, found } => {
                write!(f, "snapshot {path} has unsupported schema ({found})")
            }
            SnapshotError::FingerprintMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "snapshot {path} was taken for a different experiment (fingerprint {found:#018x}, this spec is {expected:#018x}); refusing to resume"
            ),
            SnapshotError::ChecksumMismatch { path, line } => write!(
                f,
                "snapshot {path} line {line} does not match its checksum; the file is corrupt"
            ),
            SnapshotError::DuplicateRecord {
                path,
                line,
                cell,
                rep,
            } => write!(
                f,
                "snapshot {path} line {line} records cell {cell} replication {rep} a second time; the file is corrupt"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn io_err(path: &Path, e: &std::io::Error) -> SnapshotError {
    SnapshotError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// Atomically replaces `path` with `contents`: sibling temp file +
/// fsync + rename + directory fsync. After a crash at any point, `path`
/// holds either its previous contents or `contents`, never a mix.
///
/// # Errors
///
/// [`SnapshotError::Io`] if any step fails (the temp file is cleaned up
/// on a best-effort basis).
pub fn atomic_write(path: &Path, contents: &str) -> Result<(), SnapshotError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, &e))?;
        f.write_all(contents.as_bytes())
            .map_err(|e| io_err(&tmp, &e))?;
        f.sync_all().map_err(|e| io_err(&tmp, &e))?;
        drop(f);
        fs::rename(&tmp, path).map_err(|e| io_err(path, &e))?;
        // Persist the rename itself. Directory fsync is not supported
        // everywhere; failure here does not undo a completed rename.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

const COUNTER_FIELDS: [&str; 13] = [
    "compute_failures",
    "io_failures",
    "master_failures",
    "generic_failures",
    "checkpoints_completed",
    "checkpoints_aborted_timeout",
    "checkpoints_aborted_io",
    "checkpoints_aborted_master",
    "recoveries",
    "failed_recoveries",
    "reboots",
    "correlated_windows",
    "spatial_co_failures",
];

fn counter_get(c: &Counters, field: &str) -> u64 {
    match field {
        "compute_failures" => c.compute_failures,
        "io_failures" => c.io_failures,
        "master_failures" => c.master_failures,
        "generic_failures" => c.generic_failures,
        "checkpoints_completed" => c.checkpoints_completed,
        "checkpoints_aborted_timeout" => c.checkpoints_aborted_timeout,
        "checkpoints_aborted_io" => c.checkpoints_aborted_io,
        "checkpoints_aborted_master" => c.checkpoints_aborted_master,
        "recoveries" => c.recoveries,
        "failed_recoveries" => c.failed_recoveries,
        "reboots" => c.reboots,
        "correlated_windows" => c.correlated_windows,
        "spatial_co_failures" => c.spatial_co_failures,
        _ => unreachable!("unknown counter field"),
    }
}

fn counter_set(c: &mut Counters, field: &str, value: u64) {
    match field {
        "compute_failures" => c.compute_failures = value,
        "io_failures" => c.io_failures = value,
        "master_failures" => c.master_failures = value,
        "generic_failures" => c.generic_failures = value,
        "checkpoints_completed" => c.checkpoints_completed = value,
        "checkpoints_aborted_timeout" => c.checkpoints_aborted_timeout = value,
        "checkpoints_aborted_io" => c.checkpoints_aborted_io = value,
        "checkpoints_aborted_master" => c.checkpoints_aborted_master = value,
        "recoveries" => c.recoveries = value,
        "failed_recoveries" => c.failed_recoveries = value,
        "reboots" => c.reboots = value,
        "correlated_windows" => c.correlated_windows = value,
        "spatial_co_failures" => c.spatial_co_failures = value,
        _ => unreachable!("unknown counter field"),
    }
}

/// Serializes one [`Metrics`] value (f64 fields as shortest round-trip
/// decimals, counters as exact integers).
#[must_use]
pub fn metrics_to_json(m: &Metrics) -> JsonValue {
    let counters = JsonValue::Object(
        COUNTER_FIELDS
            .iter()
            .map(|&f| {
                (
                    f.to_string(),
                    JsonValue::from_u64(counter_get(&m.counters, f)),
                )
            })
            .collect(),
    );
    let phases = JsonValue::Object(
        PhaseKind::ALL
            .iter()
            .map(|&p| {
                (
                    p.key().to_string(),
                    JsonValue::from_f64(m.phase_times.get(p)),
                )
            })
            .collect(),
    );
    JsonValue::Object(vec![
        (
            "window_secs".to_string(),
            JsonValue::from_f64(m.window_secs),
        ),
        (
            "useful_work_secs".to_string(),
            JsonValue::from_f64(m.useful_work_secs),
        ),
        (
            "work_lost_secs".to_string(),
            JsonValue::from_f64(m.work_lost_secs),
        ),
        ("counters".to_string(), counters),
        ("phase_times".to_string(), phases),
    ])
}

/// Reconstructs a [`Metrics`] from [`metrics_to_json`] output.
///
/// # Errors
///
/// A description of the missing or malformed field.
pub fn metrics_from_json(doc: &JsonValue) -> Result<Metrics, String> {
    let f = |key: &str| -> Result<f64, String> {
        doc.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("missing number '{key}'"))
    };
    let mut m = Metrics {
        window_secs: f("window_secs")?,
        useful_work_secs: f("useful_work_secs")?,
        work_lost_secs: f("work_lost_secs")?,
        ..Metrics::default()
    };
    let counters = doc
        .get("counters")
        .ok_or_else(|| "missing 'counters'".to_string())?;
    for field in COUNTER_FIELDS {
        let v = counters
            .get(field)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("missing counter '{field}'"))?;
        counter_set(&mut m.counters, field, v);
    }
    let phases = doc
        .get("phase_times")
        .ok_or_else(|| "missing 'phase_times'".to_string())?;
    for p in PhaseKind::ALL {
        let v = phases
            .get(p.key())
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("missing phase '{}'", p.key()))?;
        m.phase_times.add(p, v);
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample_metrics() -> Metrics {
        let mut m = Metrics {
            window_secs: 68_400_000.123_456_7,
            useful_work_secs: 61_234_567.000_000_1,
            work_lost_secs: 1.0 / 3.0,
            ..Metrics::default()
        };
        m.counters.compute_failures = u64::MAX - 7;
        m.counters.checkpoints_completed = 1_234;
        m.counters.spatial_co_failures = 9;
        m.phase_times.add(PhaseKind::Executing, 0.1 + 0.2); // 0.30000000000000004
        m.phase_times.add(PhaseKind::Rebooting, 42.0);
        m
    }

    #[test]
    fn metrics_round_trip_is_bit_identical() {
        let m = sample_metrics();
        let j = metrics_to_json(&m).to_json();
        let back = metrics_from_json(&parse(&j).unwrap()).unwrap();
        assert_eq!(m, back);
        assert_eq!(j, metrics_to_json(&back).to_json());
    }

    #[test]
    fn metrics_from_json_reports_missing_fields() {
        let j = metrics_to_json(&sample_metrics()).to_json();
        let broken = j.replace("work_lost_secs", "work_mislaid_secs");
        let err = metrics_from_json(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("work_lost_secs"));
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join("ckpt_harness_atomic_write_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        atomic_write(&path, "first").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "first");
        atomic_write(&path, "second").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
        // No temp file left behind.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_into_missing_directory_is_an_io_error() {
        let path = Path::new("/nonexistent-ckpt-dir/snap.json");
        let err = atomic_write(path, "x").unwrap_err();
        assert!(matches!(err, SnapshotError::Io { .. }));
    }
}
