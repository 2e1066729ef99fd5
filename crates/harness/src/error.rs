//! The typed front-end error: every failure a `ckptsim` command can
//! hit, with a stable exit code per class.

use crate::snapshot::SnapshotError;
use crate::spec::SpecError;
use ckpt_core::{ConfigError, ExperimentError};
use std::fmt;

/// A front-end failure. Replaces the `panic!`/`expect` paths the CLI and
/// sweep engine used to take; [`CkptError::exit_code`] maps each class
/// to a process exit code.
#[derive(Debug)]
pub enum CkptError {
    /// Bad command line (unknown flag, malformed value). Exit 2.
    Usage(String),
    /// Invalid system configuration. Exit 2.
    Config(ConfigError),
    /// Invalid experiment specification. Exit 2.
    Spec(SpecError),
    /// A simulation failed (including a replication that panicked twice).
    /// Exit 1.
    Experiment(ExperimentError),
    /// A filesystem operation failed. Exit 3.
    Io {
        /// Path of the file involved.
        path: String,
        /// The underlying OS error.
        message: String,
    },
    /// A snapshot could not be written, read, or validated. Exit 3.
    Snapshot(SnapshotError),
    /// The run was interrupted by a signal after persisting its
    /// snapshot. Exit `128 + signal` (130 for SIGINT, 143 for SIGTERM),
    /// matching shell convention.
    Interrupted {
        /// The delivered signal number.
        signal: i32,
    },
}

impl CkptError {
    /// The process exit code for this error class.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            CkptError::Usage(_) | CkptError::Config(_) | CkptError::Spec(_) => 2,
            CkptError::Experiment(_) => 1,
            CkptError::Io { .. } | CkptError::Snapshot(_) => 3,
            CkptError::Interrupted { signal } => 128 + signal,
        }
    }

    /// Whether this error is the usage class (callers print the usage
    /// text alongside it).
    #[must_use]
    pub fn is_usage(&self) -> bool {
        matches!(self, CkptError::Usage(_))
    }
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Usage(msg) => write!(f, "{msg}"),
            CkptError::Config(e) => write!(f, "invalid configuration: {e}"),
            CkptError::Spec(e) => write!(f, "{e}"),
            CkptError::Experiment(e) => write!(f, "experiment failed: {e}"),
            CkptError::Io { path, message } => write!(f, "{path}: {message}"),
            CkptError::Snapshot(e) => write!(f, "{e}"),
            CkptError::Interrupted { signal } => {
                let name = match signal {
                    2 => " (SIGINT)",
                    15 => " (SIGTERM)",
                    _ => "",
                };
                write!(
                    f,
                    "interrupted by signal {signal}{name}; progress snapshot saved"
                )
            }
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Config(e) => Some(e),
            CkptError::Spec(e) => Some(e),
            CkptError::Experiment(e) => Some(e),
            CkptError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for CkptError {
    fn from(e: ConfigError) -> CkptError {
        CkptError::Config(e)
    }
}

impl From<SpecError> for CkptError {
    fn from(e: SpecError) -> CkptError {
        CkptError::Spec(e)
    }
}

impl From<ExperimentError> for CkptError {
    fn from(e: ExperimentError) -> CkptError {
        CkptError::Experiment(e)
    }
}

impl From<SnapshotError> for CkptError {
    fn from(e: SnapshotError) -> CkptError {
        CkptError::Snapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_follow_the_documented_classes() {
        assert_eq!(CkptError::Usage("x".into()).exit_code(), 2);
        assert_eq!(CkptError::Spec(SpecError::NoReplications).exit_code(), 2);
        assert_eq!(
            CkptError::Experiment(ExperimentError::ReplicationPanicked {
                rep: 0,
                message: "x".into()
            })
            .exit_code(),
            1
        );
        assert_eq!(
            CkptError::Io {
                path: "p".into(),
                message: "m".into()
            }
            .exit_code(),
            3
        );
        assert_eq!(CkptError::Interrupted { signal: 2 }.exit_code(), 130);
        assert_eq!(CkptError::Interrupted { signal: 15 }.exit_code(), 143);
    }

    #[test]
    fn display_names_the_signal() {
        let msg = CkptError::Interrupted { signal: 15 }.to_string();
        assert!(msg.contains("SIGTERM"));
        assert!(msg.contains("snapshot saved"));
    }
}
