//! Simulation-as-a-service core for the DSN'05 checkpointing
//! reproduction.
//!
//! Three layers turn the experiment harness into a long-lived service
//! without adding a single external dependency:
//!
//! * [`store::JobStore`] — a content-addressed result cache on disk.
//!   Jobs are keyed by the canonical [`ckpt_harness::ExperimentSpec`]
//!   fingerprint (FNV-1a 64 over the spec's canonical JSON, `jobs`
//!   excluded — worker count never changes sampling). Resubmitting an
//!   identical spec returns the cached result **byte-identically**; a
//!   partially-run spec leaves a fingerprint-namespaced
//!   [`ckpt_harness::SweepJournal`] behind and is *resumed*, never
//!   trusted as complete (the result file is the completeness marker).
//! * [`sched::Scheduler`] — a std-thread worker pool draining a
//!   FIFO-per-tenant queue with round-robin fairness across tenants.
//!   A job is one unit of work: a worker runs the whole spec through
//!   the same execution core as `ckptsim run`, against the job's
//!   [`ckpt_harness::SweepJournal`], so a failed job resubmitted later
//!   resumes from what completed. Worker count and journal cadence are
//!   the two tuning switches ([`sched::Tuning`]).
//! * [`http`] / [`client`] — a minimal HTTP/1.1 + JSON transport over
//!   [`std::net::TcpListener`]: submit a spec for a job id, poll
//!   status, fetch the stored result bytes verbatim, or stream the
//!   job's progress as chunked JSONL (the
//!   [`ckpt_obs::JsonlSink`] wire format).
//!
//! The CLI's local `run` path is a thin wrapper over [`run_local`] —
//! the same execution core the service workers use — so a run routed
//! through the service is bit-identical to a direct one at any worker
//! count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod exec;
pub mod http;
pub mod result;
pub mod sched;
pub mod store;

pub use client::Client;
pub use exec::{run_job, run_local, LocalRun};
pub use http::Server;
pub use sched::{JobStatus, Scheduler, SubmitOutcome, Tuning};
pub use store::JobStore;
