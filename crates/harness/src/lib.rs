//! Crash-safe experiment harness for the DSN'05 checkpointing
//! reproduction.
//!
//! This crate is the robustness layer between the simulation engines
//! (`ckpt-core`) and the front ends (CLI, sweep engine, bench
//! binaries). It provides:
//!
//! * [`spec::ExperimentSpec`] — a validating, serializable experiment
//!   definition: the *one* way front ends configure a run. Nonsensical
//!   combinations (transient ≥ horizon, SAN + unsupported ablations,
//!   degenerate confidence levels) are rejected at build time, and the
//!   spec's canonical JSON yields the **fingerprint** that guards
//!   resume.
//! * [`journal::SweepJournal`] — an append-only, versioned journal of
//!   completed replications, one checksummed line each. Plugged into
//!   the experiment layer as a [`ckpt_core::ReplicationStore`], it
//!   makes an interrupted-then-resumed run bit-identical to an
//!   uninterrupted one at any worker count.
//! * [`snapshot`] — the write-temp + fsync + rename discipline for
//!   whole documents, and the bit-exact metrics ⇄ JSON mapping the
//!   journal relies on.
//! * [`signal`] — cooperative SIGINT/SIGTERM handling: first signal
//!   requests a graceful stop (persist, then exit `128 + signal`),
//!   second signal kills.
//! * [`exec_flags::ExecFlags`] — the shared
//!   `--snapshot/--snapshot-every/--resume/--progress/--quiet`
//!   execution switches: one parser, one journal-open policy, one
//!   `--quiet` progress contract for every front end.
//! * [`error::CkptError`] — the typed front-end error with stable exit
//!   codes, replacing `panic!`/`expect` in CLI and sweep paths.
//! * [`json`] — the dependency-free JSON value/parser/writer used by
//!   all of the above (f64 and u64 fields round-trip bit-identically).
//!
//! # Example
//!
//! ```
//! use ckpt_core::config::SystemConfig;
//! use ckpt_harness::spec::ExperimentSpec;
//! use ckpt_des::SimTime;
//!
//! let cfg = SystemConfig::builder().processors(65_536).build()?;
//! let spec = ExperimentSpec::builder(cfg)
//!     .transient(SimTime::from_hours(100.0))
//!     .horizon(SimTime::from_hours(1_000.0))
//!     .replications(3)
//!     .build()?;
//! // The spec round-trips through JSON and identifies itself for resume.
//! let restored = ExperimentSpec::from_json(&spec.to_json())?;
//! assert_eq!(spec.fingerprint(), restored.fingerprint());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Unlike the simulation crates this one cannot `forbid(unsafe_code)`:
// the signal module carries the two libc FFI calls (`signal`, test-only
// `raise`) that graceful shutdown needs. All unsafety is confined there.
#![warn(missing_docs)]

pub mod error;
pub mod exec_flags;
pub mod journal;
pub mod json;
pub mod signal;
pub mod snapshot;
pub mod spec;

pub use error::CkptError;
pub use exec_flags::ExecFlags;
pub use journal::{CellStore, SweepJournal, SNAPSHOT_SCHEMA_VERSION};
pub use snapshot::{atomic_write, SnapshotError};
pub use spec::{ExperimentSpec, ExperimentSpecBuilder, SpecError};
