//! The content-addressed job store: one directory, at most one file per
//! job at rest.
//!
//! A job is identified by its spec's resume fingerprint
//! ([`ckpt_harness::ExperimentSpec::fingerprint`]); everything the
//! store holds for fingerprint `fp` lives under the store root as
//!
//! * `job-<fp>.result.json` — the finished result document, written
//!   atomically ([`ckpt_harness::atomic_write`]). Its *presence* is the
//!   completeness marker: [`JobStore::contains`] probes it without
//!   reading, and [`JobStore::lookup`] serves its bytes verbatim, so a
//!   cache hit is byte-identical to the run that produced it.
//! * `job-<fp>.journal.json` — the append-only replication journal
//!   ([`ckpt_harness::SweepJournal`], fingerprint-namespaced via
//!   [`SweepJournal::store_path`]), present only while the job is
//!   unfinished. A journal without a result file is an *incomplete*
//!   job: it is resumed (cached replications replayed, missing ones
//!   re-run), never trusted as a finished result. [`JobStore::store`]
//!   deletes the journal once the result is published, since every
//!   later request is answered from the result. A crash between the
//!   publish and the delete leaves a journal nothing reads.

use ckpt_harness::snapshot::SnapshotError;
use ckpt_harness::{atomic_write, CkptError, SweepJournal};
use std::path::{Path, PathBuf};

/// Handle to a store directory. Cheap to clone; all state is on disk.
#[derive(Debug, Clone)]
pub struct JobStore {
    root: PathBuf,
}

impl JobStore {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] when the directory cannot be created.
    pub fn open(root: &Path) -> Result<JobStore, CkptError> {
        std::fs::create_dir_all(root).map_err(|e| CkptError::Io {
            path: root.display().to_string(),
            message: e.to_string(),
        })?;
        Ok(JobStore {
            root: root.to_path_buf(),
        })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// File name of the result document for `fingerprint`.
    #[must_use]
    pub fn result_file_name(fingerprint: u64) -> String {
        format!("job-{fingerprint:016x}.result.json")
    }

    /// Path of the result document for `fingerprint`.
    #[must_use]
    pub fn result_path(&self, fingerprint: u64) -> PathBuf {
        self.root.join(JobStore::result_file_name(fingerprint))
    }

    /// Path of the replication journal for `fingerprint`.
    #[must_use]
    pub fn journal_path(&self, fingerprint: u64) -> PathBuf {
        SweepJournal::store_path(&self.root, fingerprint)
    }

    /// Whether a result for `fingerprint` is published here: one
    /// metadata probe, no read. A journal left by an interrupted run
    /// does **not** count as a result.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] for any error other than the file not
    /// existing.
    pub fn contains(&self, fingerprint: u64) -> Result<bool, CkptError> {
        let path = self.result_path(fingerprint);
        path.try_exists().map_err(|e| CkptError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }

    /// Returns the cached result bytes for `fingerprint`, verbatim, or
    /// `None` when the job has never finished here. A journal left by
    /// an interrupted run does **not** count as a result.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] for any error other than the file not
    /// existing.
    pub fn lookup(&self, fingerprint: u64) -> Result<Option<String>, CkptError> {
        let path = self.result_path(fingerprint);
        match std::fs::read_to_string(&path) {
            Ok(body) => Ok(Some(body)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(CkptError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            }),
        }
    }

    /// Atomically persists `body` as the result for `fingerprint`
    /// (write-temp + fsync + rename, so a crash never leaves a torn
    /// result that a later [`JobStore::lookup`] could trust), then
    /// deletes the job's journal, which nothing reads once the result
    /// exists.
    ///
    /// # Errors
    ///
    /// [`CkptError::Snapshot`] wrapping the underlying write failure.
    pub fn store(&self, fingerprint: u64, body: &str) -> Result<(), CkptError> {
        atomic_write(&self.result_path(fingerprint), body)?;
        // Best effort: the result is published either way, and a
        // journal left behind is never consulted again.
        let _ = std::fs::remove_file(self.journal_path(fingerprint));
        Ok(())
    }

    /// Opens the journal for `fingerprint` — resuming the existing
    /// fingerprint-checked file when one is present, creating a fresh
    /// one otherwise.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from loading or validating an existing
    /// journal.
    pub fn open_journal(
        &self,
        fingerprint: u64,
        every: u32,
    ) -> Result<SweepJournal, SnapshotError> {
        SweepJournal::open_in_dir(&self.root, fingerprint, every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_in(tag: &str) -> JobStore {
        let dir = std::env::temp_dir().join(format!("ckpt_svc_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        JobStore::open(&dir).unwrap()
    }

    #[test]
    fn lookup_misses_then_serves_stored_bytes_verbatim() {
        let store = store_in("roundtrip");
        assert_eq!(store.lookup(0xabcd).unwrap(), None);
        assert!(!store.contains(0xabcd).unwrap());
        let body = "{\"kind\":\"job_result\",\"x\":1.5}\n";
        store.store(0xabcd, body).unwrap();
        assert_eq!(store.lookup(0xabcd).unwrap().as_deref(), Some(body));
        assert!(store.contains(0xabcd).unwrap());
        // A different fingerprint stays a miss.
        assert_eq!(store.lookup(0xabce).unwrap(), None);
        assert!(!store.contains(0xabce).unwrap());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn a_journal_without_a_result_is_not_a_hit() {
        let store = store_in("incomplete");
        let journal = store.open_journal(0x77, 1).unwrap();
        journal.persist().unwrap();
        assert!(store.journal_path(0x77).exists());
        assert_eq!(store.lookup(0x77).unwrap(), None);
        assert!(!store.contains(0x77).unwrap());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn publishing_a_result_deletes_the_journal() {
        let store = store_in("publish_drops_journal");
        let journal = store.open_journal(0x78, 1).unwrap();
        journal.persist().unwrap();
        assert!(store.journal_path(0x78).exists());
        store.store(0x78, "{}\n").unwrap();
        assert!(!store.journal_path(0x78).exists());
        assert_eq!(store.lookup(0x78).unwrap().as_deref(), Some("{}\n"));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn result_and_journal_paths_are_fingerprint_namespaced() {
        let store = store_in("paths");
        assert_ne!(store.result_path(1), store.result_path(2));
        assert_ne!(store.journal_path(1), store.journal_path(2));
        assert_ne!(store.result_path(1), store.journal_path(1));
        assert!(store
            .result_path(0xdead_beef)
            .to_string_lossy()
            .contains("job-00000000deadbeef.result.json"));
        let _ = std::fs::remove_dir_all(store.root());
    }
}
