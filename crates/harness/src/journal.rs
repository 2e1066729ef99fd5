//! The resumable replication journal: an append-only log of completed
//! replications.
//!
//! A [`SweepJournal`] records every completed replication — keyed by
//! `(cell, replication)` where a *cell* is one point of a sweep (a
//! single run is cell 0) — together with the experiment fingerprint it
//! belongs to.
//!
//! # Format (`schema_version` 2)
//!
//! One JSON object per line. The first line is the header,
//! `{"kind":"run_snapshot","schema_version":2,"fingerprint":F}`. Every
//! further line is one completed replication,
//! `{"cell":C,"rep":R,"events":E,"metrics":{…},"checksum":"H"}`, where
//! `H` is the FNV-1a 64 hash, as 16 hex digits, of the line's bytes
//! before `,"checksum"`. The checksum covers every field, so one flipped
//! byte anywhere in a record line is caught.
//!
//! # Durability
//!
//! Recording renders the replication's line and queues it. A flush
//! appends every queued line with one `write` and one `fdatasync`; a
//! record is durable once the flush that wrote its line returns. The
//! journal flushes every `snapshot_every` records, before the record
//! that reached the count returns, and on [`SweepJournal::persist`]. A
//! flush with nothing queued does no I/O. Appending costs what changed,
//! one line per replication, where rewriting a whole snapshot cost
//! everything kept so far.
//!
//! # Resume
//!
//! A crash can tear only the append in flight, so a final segment
//! without a newline is dropped, and the next flush cuts it off the
//! file before appending. Every newline-terminated line must be intact:
//! one that fails to parse, fails its checksum or repeats a
//! `(cell, rep)` key is a typed [`SnapshotError`]. A header torn before
//! its newline holds no records, so such a file resumes empty.
//!
//! Resume is **provably deterministic**: replication `k` of a cell is
//! always driven by seed `base_seed + k` regardless of worker count, so
//! replaying the journal through the experiment layer's
//! [`ReplicationStore`] cache short-circuits exactly the replications
//! that already ran and re-executes the rest — the final estimate is
//! bit-identical to an uninterrupted run at any `--jobs`.

use crate::json::JsonValue;
use crate::snapshot::{metrics_from_json, metrics_to_json, SnapshotError};
use crate::spec::fnv1a;
use ckpt_core::{CachedReplication, Metrics, ReplicationStore};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The journal `schema_version` this build writes and reads.
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 2;

/// What precedes a record line's checksum digits.
const CHECKSUM_KEY: &[u8] = b",\"checksum\":\"";

/// Length of a record line's checksum tail: the key, 16 hex digits and
/// the closing `"}`.
const CHECKSUM_TAIL: usize = CHECKSUM_KEY.len() + 16 + 2;

/// The header line up to the fingerprint's digits.
fn header_prefix() -> String {
    format!(
        "{{\"kind\":\"run_snapshot\",\"schema_version\":{SNAPSHOT_SCHEMA_VERSION},\"fingerprint\":"
    )
}

/// The journal's first line for `fingerprint`, newline included.
fn header_line(fingerprint: u64) -> String {
    format!("{}{fingerprint}}}\n", header_prefix())
}

/// Whether `bytes` start like a journal of this schema: the test
/// `ckptsim report` uses to tell a journal from a JSON document.
#[must_use]
pub fn is_journal(bytes: &[u8]) -> bool {
    bytes.starts_with(header_prefix().as_bytes())
}

/// Whether `segment`, which holds no newline, is a header line cut
/// short: a prefix of [`header_line`] for some fingerprint.
fn is_torn_header(segment: &[u8]) -> bool {
    let prefix = header_prefix();
    if prefix.as_bytes().starts_with(segment) {
        return true;
    }
    segment.strip_prefix(prefix.as_bytes()).is_some_and(|rest| {
        let digits = rest.strip_suffix(b"}").unwrap_or(rest);
        digits.iter().all(u8::is_ascii_digit)
    })
}

/// One record line, checksum and newline included.
fn record_line(cell: u32, rep: u32, cached: &CachedReplication) -> String {
    let mut line = JsonValue::Object(vec![
        ("cell".to_string(), JsonValue::from_u64(u64::from(cell))),
        ("rep".to_string(), JsonValue::from_u64(u64::from(rep))),
        ("events".to_string(), JsonValue::from_u64(cached.events)),
        ("metrics".to_string(), metrics_to_json(&cached.metrics)),
    ])
    .to_json();
    // Reopen the object to append the checksum of everything before it.
    line.pop();
    let checksum = fnv1a(line.as_bytes());
    let _ = writeln!(line, ",\"checksum\":\"{checksum:016x}\"}}");
    line
}

/// A journal file read back by [`read_log`].
#[derive(Debug, Clone, PartialEq)]
pub struct JournalLog {
    /// The header's fingerprint; `None` when the header itself was torn
    /// (the file holds no complete line).
    pub fingerprint: Option<u64>,
    /// Every complete record, by `(cell, rep)`.
    pub records: BTreeMap<(u32, u32), CachedReplication>,
    /// Bytes of complete lines; anything after is a torn append.
    pub complete_len: usize,
}

/// Reads the bytes of a journal file, dropping a torn final segment.
/// With `expected` set, the header must carry that fingerprint.
///
/// # Errors
///
/// [`SnapshotError::Parse`] for a malformed header or record line,
/// [`SnapshotError::SchemaMismatch`] for another kind or schema (a v1
/// snapshot included), [`SnapshotError::FingerprintMismatch`] for a
/// journal of another spec, [`SnapshotError::ChecksumMismatch`] and
/// [`SnapshotError::DuplicateRecord`] for damaged record lines.
pub fn read_log(
    path: &Path,
    bytes: &[u8],
    expected: Option<u64>,
) -> Result<JournalLog, SnapshotError> {
    let complete_len = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let (complete, torn) = bytes.split_at(complete_len);
    let mut lines = complete
        .split_inclusive(|&b| b == b'\n')
        .map(|line| &line[..line.len() - 1]);
    let mut log = JournalLog {
        fingerprint: None,
        records: BTreeMap::new(),
        complete_len,
    };
    let Some(header) = lines.next() else {
        if !is_torn_header(torn) {
            // Not a journal cut short: report what the segment is.
            read_header(path, torn)?;
        }
        return Ok(log);
    };
    let found = read_header(path, header)?;
    if let Some(expected) = expected.filter(|&e| e != found) {
        return Err(SnapshotError::FingerprintMismatch {
            path: path.display().to_string(),
            expected,
            found,
        });
    }
    log.fingerprint = Some(found);
    for (i, line) in lines.enumerate() {
        let number = i + 2;
        let (key, cached) = read_record(path, number, line)?;
        if log.records.insert(key, cached).is_some() {
            return Err(SnapshotError::DuplicateRecord {
                path: path.display().to_string(),
                line: number,
                cell: key.0,
                rep: key.1,
            });
        }
    }
    Ok(log)
}

/// Validates a header line (newline excluded) and returns its
/// fingerprint.
fn read_header(path: &Path, line: &[u8]) -> Result<u64, SnapshotError> {
    let parse_err = |message: String| SnapshotError::Parse {
        path: path.display().to_string(),
        message: format!("line 1: {message}"),
    };
    let text = std::str::from_utf8(line).map_err(|e| parse_err(e.to_string()))?;
    let doc = crate::json::parse(text).map_err(|e| parse_err(e.to_string()))?;
    let kind = doc.get("kind").and_then(JsonValue::as_str);
    let version = doc.get("schema_version").and_then(JsonValue::as_u64);
    if kind != Some("run_snapshot") || version != Some(SNAPSHOT_SCHEMA_VERSION) {
        return Err(SnapshotError::SchemaMismatch {
            path: path.display().to_string(),
            found: format!("kind {kind:?}, schema_version {version:?}"),
        });
    }
    let fingerprint = doc
        .get("fingerprint")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| parse_err("missing fingerprint".into()))?;
    // The header carries no checksum; byte equality with the canonical
    // rendering guards it instead.
    if header_line(fingerprint).trim_end().as_bytes() != line {
        return Err(parse_err("header is not in canonical form".into()));
    }
    Ok(fingerprint)
}

/// Verifies one record line's checksum (newline excluded), then parses
/// it.
fn read_record(
    path: &Path,
    number: usize,
    line: &[u8],
) -> Result<((u32, u32), CachedReplication), SnapshotError> {
    let parse_err = |message: &str| SnapshotError::Parse {
        path: path.display().to_string(),
        message: format!("line {number}: {message}"),
    };
    let split = line
        .len()
        .checked_sub(CHECKSUM_TAIL)
        .ok_or_else(|| parse_err("too short for a record"))?;
    let (body, tail) = line.split_at(split);
    let digits = tail
        .strip_prefix(CHECKSUM_KEY)
        .and_then(|t| t.strip_suffix(b"\"}"))
        .and_then(|d| std::str::from_utf8(d).ok())
        .and_then(|d| u64::from_str_radix(d, 16).ok())
        .ok_or_else(|| parse_err("missing checksum"))?;
    if fnv1a(body) != digits {
        return Err(SnapshotError::ChecksumMismatch {
            path: path.display().to_string(),
            line: number,
        });
    }
    let mut text = std::str::from_utf8(body)
        .map_err(|e| parse_err(&e.to_string()))?
        .to_string();
    text.push('}');
    let doc = crate::json::parse(&text).map_err(|e| parse_err(&e.to_string()))?;
    let field = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| parse_err(&format!("missing '{key}'")))
    };
    let cell = u32::try_from(field("cell")?).map_err(|_| parse_err("cell out of range"))?;
    let rep = u32::try_from(field("rep")?).map_err(|_| parse_err("rep out of range"))?;
    let events = field("events")?;
    let metrics = metrics_from_json(
        doc.get("metrics")
            .ok_or_else(|| parse_err("missing 'metrics'"))?,
    )
    .map_err(|e| parse_err(&e))?;
    Ok(((cell, rep), CachedReplication { metrics, events }))
}

#[derive(Debug)]
struct JournalState {
    completed: BTreeMap<(u32, u32), CachedReplication>,
    /// Lines recorded but not yet appended, oldest first.
    pending: String,
    since_persist: u32,
}

/// The append end of the journal file.
#[derive(Debug)]
struct Appender {
    /// Bytes of the file known to be durable. Opening cuts the file
    /// here, which drops a torn tail or a failed append's partial bytes.
    durable: u64,
    /// The file, positioned at `durable`; `None` until the first append
    /// and after a failed one.
    file: Option<File>,
}

impl Appender {
    /// Appends `bytes` and `fdatasync`s them.
    fn append(&mut self, path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
        let io_err = |e: std::io::Error| SnapshotError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        };
        let result = (|| {
            let new_file = self.durable == 0;
            let file = match &mut self.file {
                Some(file) => file,
                None => {
                    let mut file = OpenOptions::new()
                        .write(true)
                        .create(true)
                        .truncate(false)
                        .open(path)
                        .map_err(io_err)?;
                    file.set_len(self.durable).map_err(io_err)?;
                    file.seek(SeekFrom::Start(self.durable)).map_err(io_err)?;
                    self.file.insert(file)
                }
            };
            file.write_all(bytes).map_err(io_err)?;
            file.sync_data().map_err(io_err)?;
            if new_file {
                // Make the new file's directory entry durable too.
                // Directory fsync is not supported everywhere; the data
                // itself is already synced.
                if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                    if let Ok(d) = File::open(dir) {
                        let _ = d.sync_all();
                    }
                }
            }
            Ok(())
        })();
        match result {
            Ok(()) => self.durable += bytes.len() as u64,
            Err(_) => self.file = None,
        }
        result
    }
}

/// A crash-safe journal of completed replications for one experiment
/// (identified by its spec fingerprint). Shared across worker threads:
/// all methods take `&self`.
#[derive(Debug)]
pub struct SweepJournal {
    path: PathBuf,
    fingerprint: u64,
    every: u32,
    state: Mutex<JournalState>,
    write_error: Mutex<Option<SnapshotError>>,
    /// Serializes flushes. A flush takes the queued lines while holding
    /// this lock and releases it only after `fdatasync`, so a record
    /// whose line another thread's flush took is durable once its own
    /// flush acquires the lock.
    appender: Mutex<Appender>,
}

impl SweepJournal {
    fn with_state(
        path: &Path,
        fingerprint: u64,
        every: u32,
        completed: BTreeMap<(u32, u32), CachedReplication>,
        pending: String,
        durable: u64,
    ) -> SweepJournal {
        SweepJournal {
            path: path.to_path_buf(),
            fingerprint,
            every,
            state: Mutex::new(JournalState {
                completed,
                pending,
                since_persist: 0,
            }),
            write_error: Mutex::new(None),
            appender: Mutex::new(Appender {
                durable,
                file: None,
            }),
        }
    }

    /// Starts an empty journal that will append to `path` after every
    /// `every` recorded completions (`0` disables automatic persistence;
    /// [`SweepJournal::persist`] still works). Nothing is written until
    /// the first persist, which replaces any file already at `path`.
    #[must_use]
    pub fn create(path: &Path, fingerprint: u64, every: u32) -> SweepJournal {
        SweepJournal::with_state(
            path,
            fingerprint,
            every,
            BTreeMap::new(),
            header_line(fingerprint),
            0,
        )
    }

    /// Loads a journal written by a previous (interrupted) run and
    /// validates it (see the module docs for the rules). Later records
    /// append to the same file.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] for an unreadable file, and everything
    /// [`read_log`] returns.
    pub fn resume(
        path: &Path,
        fingerprint: u64,
        every: u32,
    ) -> Result<SweepJournal, SnapshotError> {
        SweepJournal::resume_into(path, path, fingerprint, every)
    }

    /// Like [`SweepJournal::resume`], but persists go to `target`
    /// instead of the loaded file (`--resume old --snapshot new`): the
    /// first flush writes the header and every loaded record there, and
    /// later ones append.
    ///
    /// # Errors
    ///
    /// Same as [`SweepJournal::resume`].
    pub fn resume_into(
        path: &Path,
        target: &Path,
        fingerprint: u64,
        every: u32,
    ) -> Result<SweepJournal, SnapshotError> {
        let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        let log = read_log(path, &bytes, Some(fingerprint))?;
        // Appending to the loaded file keeps its complete lines; any other
        // target, or a file whose header was torn, starts from nothing.
        let (pending, durable) = if target == path && log.fingerprint.is_some() {
            (String::new(), log.complete_len as u64)
        } else {
            (render(fingerprint, &log.records), 0)
        };
        Ok(SweepJournal::with_state(
            target,
            fingerprint,
            every,
            log.records,
            pending,
            durable,
        ))
    }

    /// The file name a journal for `fingerprint` uses inside a shared
    /// store directory. The fingerprint is part of the name, so two
    /// different specs snapshotting into the same directory can never
    /// clobber each other's progress.
    #[must_use]
    pub fn store_file_name(fingerprint: u64) -> String {
        format!("job-{fingerprint:016x}.journal.json")
    }

    /// The journal path for `fingerprint` inside the shared store
    /// directory `dir` (see [`SweepJournal::store_file_name`]).
    #[must_use]
    pub fn store_path(dir: &Path, fingerprint: u64) -> PathBuf {
        dir.join(SweepJournal::store_file_name(fingerprint))
    }

    /// Opens the journal for `fingerprint` in the shared store
    /// directory `dir`: resumes the fingerprint-namespaced file if a
    /// previous (interrupted) run left one behind, otherwise starts a
    /// fresh journal at that path. Because the path embeds the
    /// fingerprint, concurrent jobs with different specs get disjoint
    /// files — and a hash-colliding stale file is still caught by the
    /// fingerprint check inside [`SweepJournal::resume`].
    ///
    /// # Errors
    ///
    /// Same as [`SweepJournal::resume`] when an existing file fails
    /// validation.
    pub fn open_in_dir(
        dir: &Path,
        fingerprint: u64,
        every: u32,
    ) -> Result<SweepJournal, SnapshotError> {
        let path = SweepJournal::store_path(dir, fingerprint);
        if path.exists() {
            SweepJournal::resume(&path, fingerprint, every)
        } else {
            Ok(SweepJournal::create(&path, fingerprint, every))
        }
    }

    /// The file this journal persists to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of completed replications currently recorded (all cells).
    #[must_use]
    pub fn completed(&self) -> usize {
        self.lock_state().completed.len()
    }

    /// Records one completed replication. Flushes automatically when
    /// `every` completions have accumulated since the last flush, so at
    /// `every == 1` the replication is durable when this returns. An
    /// I/O failure during that flush is stashed and returned by the
    /// next [`SweepJournal::persist`] call (recording itself never
    /// fails — the in-memory journal stays authoritative, and the lines
    /// stay queued for the next flush). A key already recorded keeps
    /// its first result and adds no line: a replication is
    /// deterministic, and the file must never hold a key twice.
    pub fn record(&self, cell: u32, rep: u32, metrics: &Metrics, events: u64) {
        let cached = CachedReplication {
            metrics: *metrics,
            events,
        };
        let line = record_line(cell, rep, &cached);
        let flush = {
            let mut state = self.lock_state();
            let Entry::Vacant(slot) = state.completed.entry((cell, rep)) else {
                return;
            };
            slot.insert(cached);
            state.pending.push_str(&line);
            state.since_persist += 1;
            self.every > 0 && state.since_persist >= self.every
        };
        if flush {
            if let Err(e) = self.flush() {
                *self
                    .write_error
                    .lock()
                    .expect("journal error slot poisoned") = Some(e);
            }
        }
    }

    /// Appends and syncs every queued line now (also surfacing any
    /// error stashed by an automatic flush). With nothing queued this
    /// does no I/O.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if the lines cannot be written.
    pub fn persist(&self) -> Result<(), SnapshotError> {
        if let Some(e) = self
            .write_error
            .lock()
            .expect("journal error slot poisoned")
            .take()
        {
            return Err(e);
        }
        self.flush()
    }

    /// A [`ReplicationStore`] view of one cell, to plug into
    /// [`ckpt_core::RunControl`]. Lookups come from the journal;
    /// records flow back into it (and trigger automatic persistence).
    #[must_use]
    pub fn cell_store(&self, cell: u32) -> CellStore<'_> {
        CellStore {
            journal: self,
            cell,
        }
    }

    /// The journal as a file holding exactly its records: the header,
    /// then one line per record in `(cell, rep)` order.
    #[must_use]
    pub fn render(&self) -> String {
        render(self.fingerprint, &self.lock_state().completed)
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, JournalState> {
        self.state.lock().expect("journal state poisoned")
    }

    fn flush(&self) -> Result<(), SnapshotError> {
        let mut appender = self.appender.lock().expect("journal appender poisoned");
        let pending = {
            let mut state = self.lock_state();
            state.since_persist = 0;
            std::mem::take(&mut state.pending)
        };
        if pending.is_empty() {
            return Ok(());
        }
        appender
            .append(&self.path, pending.as_bytes())
            .inspect_err(|_| {
                // Queue the lines again, ahead of any recorded meanwhile.
                self.lock_state().pending.insert_str(0, &pending);
            })
    }
}

fn render(fingerprint: u64, completed: &BTreeMap<(u32, u32), CachedReplication>) -> String {
    let mut out = header_line(fingerprint);
    for (&(cell, rep), cached) in completed {
        out.push_str(&record_line(cell, rep, cached));
    }
    out
}

/// One cell's [`ReplicationStore`] view of a [`SweepJournal`].
#[derive(Debug, Clone, Copy)]
pub struct CellStore<'a> {
    journal: &'a SweepJournal,
    cell: u32,
}

impl ReplicationStore for CellStore<'_> {
    fn lookup(&self, rep: u32) -> Option<CachedReplication> {
        self.journal
            .lock_state()
            .completed
            .get(&(self.cell, rep))
            .copied()
    }

    fn record(&self, rep: u32, metrics: &Metrics, events: u64) {
        self.journal.record(self.cell, rep, metrics, events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_core::PhaseKind;

    fn metrics(seed: u64) -> Metrics {
        let x = (seed as f64) * 0.1 + 1.0 / 3.0;
        let mut m = Metrics {
            window_secs: 1_000.0 + x,
            useful_work_secs: 900.0 - x,
            work_lost_secs: x,
            ..Metrics::default()
        };
        m.counters.recoveries = seed;
        m.phase_times.add(PhaseKind::Executing, x * 7.0);
        m
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ckpt_harness_journal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn persist_and_resume_round_trip_bitwise() {
        let path = temp_path("round_trip.json");
        let journal = SweepJournal::create(&path, 0xfeed, 0);
        for rep in 0..3 {
            journal.record(0, rep, &metrics(u64::from(rep)), 100 + u64::from(rep));
        }
        journal.record(2, 0, &metrics(17), 555);
        journal.persist().unwrap();

        let resumed = SweepJournal::resume(&path, 0xfeed, 0).unwrap();
        assert_eq!(resumed.completed(), 4);
        assert_eq!(journal.render(), resumed.render());
        let store = resumed.cell_store(0);
        assert_eq!(
            store.lookup(1),
            Some(CachedReplication {
                metrics: metrics(1),
                events: 101
            })
        );
        assert_eq!(store.lookup(3), None);
        assert_eq!(resumed.cell_store(1).lookup(0), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_a_foreign_fingerprint() {
        let path = temp_path("fingerprint.json");
        let journal = SweepJournal::create(&path, 1, 0);
        journal.record(0, 0, &metrics(0), 1);
        journal.persist().unwrap();
        let err = SweepJournal::resume(&path, 2, 0).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::FingerprintMismatch {
                path: path.display().to_string(),
                expected: 2,
                found: 1
            }
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_tampered_statistics() {
        let path = temp_path("tampered.json");
        let journal = SweepJournal::create(&path, 3, 0);
        journal.record(0, 0, &metrics(0), 1);
        journal.persist().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Corrupt the recorded metrics without touching the checksum
        // (useful_work_secs for seed 0 is 900 − 1/3 = 899.666…).
        let tampered = text.replace("899.6", "899.7");
        assert_ne!(text, tampered);
        std::fs::write(&path, tampered).unwrap();
        let err = SweepJournal::resume(&path, 3, 0).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::ChecksumMismatch {
                path: path.display().to_string(),
                line: 2
            }
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_non_snapshot_documents() {
        let path = temp_path("foreign.json");
        std::fs::write(&path, "{\"kind\":\"something_else\",\"schema_version\":1}").unwrap();
        assert!(matches!(
            SweepJournal::resume(&path, 0, 0),
            Err(SnapshotError::SchemaMismatch { .. })
        ));
        std::fs::write(&path, "not json at all").unwrap();
        assert!(matches!(
            SweepJournal::resume(&path, 0, 0),
            Err(SnapshotError::Parse { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    /// A snapshot written by the whole-document (schema 1) format is
    /// refused, so a run interrupted under that format restarts.
    #[test]
    fn resume_refuses_a_schema_1_snapshot() {
        let path = temp_path("schema1.json");
        std::fs::write(
            &path,
            "{\"schema_version\":1,\"tool\":\"ckptsim\",\"kind\":\"run_snapshot\",\
             \"fingerprint\":5,\"stats\":[],\"completed\":[]}\n",
        )
        .unwrap();
        assert!(matches!(
            SweepJournal::resume(&path, 5, 0),
            Err(SnapshotError::SchemaMismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_a_repeated_key() {
        let path = temp_path("repeated.json");
        let journal = SweepJournal::create(&path, 4, 0);
        journal.record(0, 0, &metrics(0), 1);
        journal.persist().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let record = text.lines().nth(1).unwrap();
        std::fs::write(&path, format!("{text}{record}\n")).unwrap();
        assert_eq!(
            SweepJournal::resume(&path, 4, 0).unwrap_err(),
            SnapshotError::DuplicateRecord {
                path: path.display().to_string(),
                line: 3,
                cell: 0,
                rep: 0
            }
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// Recording a key twice keeps one line, so the file still resumes.
    #[test]
    fn a_repeated_record_adds_no_line() {
        let path = temp_path("repeat_record.json");
        let journal = SweepJournal::create(&path, 6, 1);
        journal.record(0, 0, &metrics(0), 1);
        journal.record(0, 0, &metrics(0), 1);
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 2);
        assert_eq!(SweepJournal::resume(&path, 6, 1).unwrap().completed(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    /// Each flush appends only what was recorded since the last one;
    /// with nothing queued, persisting touches no file.
    #[test]
    fn persist_appends_only_new_lines_and_idles_without_them() {
        let path = temp_path("append_only.json");
        let _ = std::fs::remove_file(&path);
        let journal = SweepJournal::create(&path, 7, 1);
        journal.record(0, 0, &metrics(0), 1);
        let first = std::fs::read_to_string(&path).unwrap();
        assert_eq!(first.lines().count(), 2, "header and one record");
        journal.record(0, 1, &metrics(1), 2);
        let second = std::fs::read_to_string(&path).unwrap();
        assert!(
            second.starts_with(&first),
            "earlier lines are never rewritten"
        );
        assert_eq!(second.lines().count(), 3);
        std::fs::remove_file(&path).unwrap();
        journal.persist().unwrap();
        assert!(!path.exists(), "a persist with nothing queued wrote a file");
    }

    /// `--resume old --snapshot new`: the new file gets the loaded
    /// records once, then appends; the old file is left as it was.
    #[test]
    fn resume_into_another_target_copies_then_appends() {
        let old = temp_path("resume_into_old.json");
        let new = temp_path("resume_into_new.json");
        let _ = std::fs::remove_file(&new);
        let journal = SweepJournal::create(&old, 8, 1);
        journal.record(0, 0, &metrics(0), 1);
        journal.record(1, 0, &metrics(1), 2);
        let old_bytes = std::fs::read(&old).unwrap();
        let resumed = SweepJournal::resume_into(&old, &new, 8, 1).unwrap();
        resumed.record(0, 1, &metrics(2), 3);
        assert_eq!(std::fs::read(&old).unwrap(), old_bytes);
        let again = SweepJournal::resume(&new, 8, 1).unwrap();
        assert_eq!(again.completed(), 3);
        assert_eq!(again.render(), resumed.render());
        std::fs::remove_file(&old).unwrap();
        std::fs::remove_file(&new).unwrap();
    }

    /// Regression: automatic persists from concurrent worker threads
    /// used to race on the shared `<path>.tmp` staging file — the
    /// losing thread's rename failed with ENOENT, which was stashed
    /// and surfaced as a spurious error from the final `persist()`.
    #[test]
    fn concurrent_records_with_eager_persistence_never_error() {
        let path = temp_path("concurrent.json");
        let _ = std::fs::remove_file(&path);
        let journal = SweepJournal::create(&path, 0xbeef, 1);
        std::thread::scope(|scope| {
            for cell in 0u32..8 {
                let journal = &journal;
                scope.spawn(move || {
                    for rep in 0u32..8 {
                        journal.record(cell, rep, &metrics(u64::from(cell * 8 + rep)), 1);
                    }
                });
            }
        });
        journal.persist().expect("no stashed write error");
        let resumed = SweepJournal::resume(&path, 0xbeef, 1).unwrap();
        assert_eq!(resumed.completed(), 64);
        std::fs::remove_file(&path).unwrap();
    }

    /// Two different specs sharing one store directory must never
    /// clobber each other: the journal file name embeds the spec
    /// fingerprint, so each job persists and resumes its own file.
    #[test]
    fn shared_store_dir_namespaces_journals_by_fingerprint() {
        let dir = std::env::temp_dir().join("ckpt_harness_journal_store_dir");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let (fp_a, fp_b) = (0x1111_2222_3333_4444, 0x5555_6666_7777_8888);
        let a = SweepJournal::open_in_dir(&dir, fp_a, 0).unwrap();
        let b = SweepJournal::open_in_dir(&dir, fp_b, 0).unwrap();
        assert_ne!(a.path(), b.path(), "distinct specs share a file");
        a.record(0, 0, &metrics(1), 10);
        b.record(0, 0, &metrics(2), 20);
        b.record(0, 1, &metrics(3), 30);
        a.persist().unwrap();
        b.persist().unwrap();

        // Reopening resumes each spec's own progress, untouched by the
        // other job that wrote into the same directory.
        let a2 = SweepJournal::open_in_dir(&dir, fp_a, 0).unwrap();
        let b2 = SweepJournal::open_in_dir(&dir, fp_b, 0).unwrap();
        assert_eq!(a2.completed(), 1);
        assert_eq!(b2.completed(), 2);
        assert_eq!(
            a2.cell_store(0).lookup(0),
            Some(CachedReplication {
                metrics: metrics(1),
                events: 10
            })
        );

        // Loading one spec's file under the other's fingerprint is
        // still refused — the path convention is a layout guarantee,
        // not the integrity check.
        let err = SweepJournal::resume(&SweepJournal::store_path(&dir, fp_a), fp_b, 0).unwrap_err();
        assert!(matches!(err, SnapshotError::FingerprintMismatch { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_in_dir_starts_fresh_without_a_prior_file() {
        let dir = std::env::temp_dir().join("ckpt_harness_journal_fresh_dir");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let j = SweepJournal::open_in_dir(&dir, 42, 0).unwrap();
        assert_eq!(j.completed(), 0);
        assert_eq!(j.path(), SweepJournal::store_path(&dir, 42));
        assert!(!j.path().exists(), "nothing persisted until requested");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn automatic_persistence_honors_every() {
        let path = temp_path("every.json");
        let _ = std::fs::remove_file(&path);
        let journal = SweepJournal::create(&path, 9, 2);
        journal.record(0, 0, &metrics(0), 1);
        assert!(!path.exists(), "first record must not persist yet");
        journal.record(0, 1, &metrics(1), 2);
        assert!(path.exists(), "second record hits the persist threshold");
        let resumed = SweepJournal::resume(&path, 9, 2).unwrap();
        assert_eq!(resumed.completed(), 2);
        std::fs::remove_file(&path).unwrap();
    }
}
