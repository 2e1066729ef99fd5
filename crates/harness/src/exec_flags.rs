//! The shared execution-control flags: crash-safety journaling and
//! progress/quiet plumbing, parsed and validated in exactly one place.
//!
//! Every `ckptsim` command that runs experiments — `run`, `figure`,
//! `optimize`, `submit` and the table studies — accepts the same
//! switches (and refuses the journal ones where it cannot honour them):
//!
//! * `--snapshot FILE` / `--snapshot-every N` / `--resume FILE` —
//!   crash-safe journaling through [`crate::SweepJournal`];
//! * `--progress FILE` — a deterministic JSONL progress stream;
//! * `--quiet` — suppress human heartbeats (an explicit `--progress`
//!   file stays active: requested machine output is output, not
//!   chatter);
//! * `--reactivation MODE` — lazy timer reactivation, an engine
//!   execution mode that travels with the experiment spec and perturbs
//!   its fingerprint when non-default;
//! * `--queue KIND` — accepted for spec compatibility; every engine
//!   runs its single future-event list. A non-default kind still
//!   travels with the spec and its fingerprint.
//!
//! [`ExecFlags`] owns the parsing ([`ExecFlags::accept`]), the journal
//! open/resume policy ([`ExecFlags::open_journal`]), and the sink
//! construction with its `--quiet` contract
//! ([`ExecFlags::progress_sink`]). Commands embed it instead of
//! re-plumbing the five flags independently.

use crate::error::CkptError;
use crate::journal::SweepJournal;
use crate::snapshot::SnapshotError;
use ckpt_core::{QueueKind, ReactivationMode};
use ckpt_obs::MultiSink;
use std::path::Path;

/// Execution-control flags shared by every experiment-running command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecFlags {
    /// Persist a resumable progress journal to this path.
    pub snapshot: Option<String>,
    /// Persist the journal after every N completed replications
    /// (0 = only on interrupt/completion).
    pub snapshot_every: u32,
    /// Resume from a journal written by an interrupted run.
    pub resume: Option<String>,
    /// Stream deterministic progress records as JSON Lines to this
    /// path (stays active under `--quiet`).
    pub progress: Option<String>,
    /// Suppress human progress heartbeats and per-replication chatter.
    pub quiet: bool,
    /// Timer-reactivation execution mode (SAN engine only).
    pub reactivation: ReactivationMode,
    /// The `--queue` selector: accepted for spec compatibility and
    /// recorded in the spec, but no engine reads it.
    pub queue: QueueKind,
}

impl Default for ExecFlags {
    fn default() -> ExecFlags {
        ExecFlags {
            snapshot: None,
            snapshot_every: 1,
            resume: None,
            progress: None,
            quiet: false,
            reactivation: ReactivationMode::default(),
            queue: QueueKind::default(),
        }
    }
}

impl ExecFlags {
    /// Tries to consume `arg` as one of the shared execution flags,
    /// pulling values through `value_for` (which yields the next
    /// argument or an "expects a value" error). Returns `Ok(true)` if
    /// the flag was recognized and consumed, `Ok(false)` if it belongs
    /// to the caller.
    ///
    /// # Errors
    ///
    /// A human-readable message for a missing or malformed value.
    pub fn accept<F>(&mut self, arg: &str, mut value_for: F) -> Result<bool, String>
    where
        F: FnMut(&str) -> Result<String, String>,
    {
        match arg {
            "--quiet" => self.quiet = true,
            "--snapshot" => self.snapshot = Some(value_for("--snapshot")?),
            "--snapshot-every" => {
                self.snapshot_every = value_for("--snapshot-every")?
                    .parse()
                    .map_err(|e| format!("--snapshot-every: {e}"))?;
            }
            "--resume" => self.resume = Some(value_for("--resume")?),
            "--progress" => self.progress = Some(value_for("--progress")?),
            "--reactivation" => {
                self.reactivation = ReactivationMode::parse(&value_for("--reactivation")?)
                    .map_err(|e| format!("--reactivation: {e}"))?;
            }
            "--queue" => {
                self.queue = QueueKind::parse(&value_for("--queue")?)
                    .map_err(|e| format!("--queue: {e}"))?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Whether a journal is active (`--snapshot` or `--resume`).
    #[must_use]
    pub fn journaling(&self) -> bool {
        self.snapshot.is_some() || self.resume.is_some()
    }

    /// Opens the journal these flags request, validating a resumed
    /// snapshot against `fingerprint`. `--resume FILE` keeps persisting
    /// to `FILE` unless `--snapshot` redirects it; neither flag means
    /// no journal.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from loading or validating the resumed
    /// snapshot.
    pub fn open_journal(&self, fingerprint: u64) -> Result<Option<SweepJournal>, SnapshotError> {
        match (&self.resume, &self.snapshot) {
            (Some(resume), snapshot) => {
                let target = snapshot.as_deref().unwrap_or(resume.as_str());
                SweepJournal::resume_into(
                    Path::new(resume),
                    Path::new(target),
                    fingerprint,
                    self.snapshot_every,
                )
                .map(Some)
            }
            (None, Some(snapshot)) => Ok(Some(SweepJournal::create(
                Path::new(snapshot),
                fingerprint,
                self.snapshot_every,
            ))),
            (None, None) => Ok(None),
        }
    }

    /// Builds the progress-sink stack these flags imply: a human
    /// heartbeat on stderr when `human` holds and `--quiet` did not
    /// suppress it, plus a deterministic JSONL stream when
    /// `--progress FILE` was given. This is the single place the
    /// `--quiet` contract for progress lives — every command gates its
    /// heartbeats through here.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] when the `--progress` file cannot be created.
    pub fn progress_sink(&self, human: bool) -> Result<MultiSink, CkptError> {
        let mut sinks = MultiSink::new();
        if human && !self.quiet {
            sinks.push(Box::new(ckpt_obs::HumanSink));
        }
        if let Some(path) = &self.progress {
            sinks.push(Box::new(ckpt_obs::JsonlSink::create(path).map_err(
                |e| CkptError::Io {
                    path: path.clone(),
                    message: e.to_string(),
                },
            )?));
        }
        Ok(sinks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExecFlags, String> {
        let mut flags = ExecFlags::default();
        let mut it = args.iter().map(|s| (*s).to_string());
        while let Some(arg) = it.next() {
            let consumed = flags.accept(&arg, |name| {
                it.next().ok_or_else(|| format!("{name} expects a value"))
            })?;
            if !consumed {
                return Err(format!("unknown flag '{arg}'"));
            }
        }
        Ok(flags)
    }

    #[test]
    fn accepts_the_shared_flags() {
        let f = parse(&[
            "--quiet",
            "--snapshot",
            "s.json",
            "--snapshot-every",
            "4",
            "--resume",
            "r.json",
            "--progress",
            "p.jsonl",
            "--reactivation",
            "lazy",
            "--queue",
            "calendar",
        ])
        .unwrap();
        assert!(f.quiet);
        assert_eq!(f.snapshot.as_deref(), Some("s.json"));
        assert_eq!(f.snapshot_every, 4);
        assert_eq!(f.resume.as_deref(), Some("r.json"));
        assert_eq!(f.progress.as_deref(), Some("p.jsonl"));
        assert_eq!(f.reactivation, ReactivationMode::Lazy);
        assert_eq!(f.queue, QueueKind::Calendar);
        assert!(f.journaling());
    }

    #[test]
    fn rejects_missing_and_malformed_values() {
        assert!(parse(&["--snapshot"]).is_err());
        assert!(parse(&["--snapshot-every", "often"]).is_err());
        assert!(parse(&["--resume"]).is_err());
        assert!(parse(&["--progress"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        let err = parse(&["--reactivation", "eager"]).unwrap_err();
        assert!(err.contains("unknown reactivation mode"), "{err}");
        let err = parse(&["--queue", "wheel"]).unwrap_err();
        assert!(err.contains("unknown queue kind"), "{err}");
    }

    #[test]
    fn defaults_are_inert() {
        let f = ExecFlags::default();
        assert!(!f.journaling());
        assert_eq!(f.snapshot_every, 1);
        assert!(f.open_journal(7).unwrap().is_none());
    }

    #[test]
    fn quiet_drops_the_human_sink_but_keeps_the_progress_file() {
        assert_eq!(parse(&[]).unwrap().progress_sink(true).unwrap().len(), 1);
        assert!(parse(&["--quiet"])
            .unwrap()
            .progress_sink(true)
            .unwrap()
            .is_empty());
        // `human == false` models --csv-style machine output.
        assert!(parse(&[]).unwrap().progress_sink(false).unwrap().is_empty());
        let path =
            std::env::temp_dir().join(format!("ckpt_exec_flags_sink_{}.jsonl", std::process::id()));
        let f = parse(&["--quiet", "--progress", path.to_str().unwrap()]).unwrap();
        assert_eq!(f.progress_sink(true).unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_journal_routes_resume_into_snapshot_target() {
        let dir = std::env::temp_dir().join("ckpt_exec_flags_journal");
        std::fs::create_dir_all(&dir).unwrap();
        let old = dir.join("old.json");
        let new = dir.join("new.json");
        let _ = std::fs::remove_file(&new);

        let seed = ExecFlags {
            snapshot: Some(old.display().to_string()),
            ..ExecFlags::default()
        };
        let journal = seed.open_journal(5).unwrap().unwrap();
        journal.persist().unwrap();

        let moved = ExecFlags {
            resume: Some(old.display().to_string()),
            snapshot: Some(new.display().to_string()),
            ..ExecFlags::default()
        };
        let journal = moved.open_journal(5).unwrap().unwrap();
        assert_eq!(journal.path(), new.as_path());
        // Wrong fingerprint is refused on resume.
        assert!(seed.open_journal(5).is_ok());
        let wrong = ExecFlags {
            resume: Some(old.display().to_string()),
            ..ExecFlags::default()
        };
        assert!(matches!(
            wrong.open_journal(6),
            Err(SnapshotError::FingerprintMismatch { .. })
        ));
        let _ = std::fs::remove_file(&old);
        let _ = std::fs::remove_file(&new);
    }
}
