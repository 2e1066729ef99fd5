//! The DSN'05 coordinated-checkpointing model.
//!
//! This crate is the primary contribution of the reproduction: the full
//! model of a large-scale supercomputer running system-initiated
//! coordinated checkpointing, with failures during checkpointing and
//! recovery, protocol coordination overhead, and correlated failures —
//! exactly the system of *"Modeling Coordinated Checkpointing for
//! Large-Scale Supercomputers"* (Wang et al., DSN 2005).
//!
//! Two interchangeable simulators implement the same semantics:
//!
//! * [`san_model`] — the paper-faithful **Stochastic Activity Network**
//!   composition of the twelve submodels of the paper's Table 1, executed
//!   by `ckpt-san`;
//! * [`direct`] — a hand-written **direct event-driven simulator**, used
//!   as a correctness oracle for the SAN model and as the fast path for
//!   the large parameter sweeps.
//!
//! [`config::SystemConfig`] carries the paper's Table-3 parameters;
//! [`metrics::Metrics`] reports useful work (fraction and total) plus
//! event counters; [`experiment`] wraps either simulator in the paper's
//! steady-state estimation procedure (transient discard + replications
//! with confidence intervals).
//!
//! # Example
//!
//! ```
//! use ckpt_core::config::SystemConfig;
//! use ckpt_core::experiment::{Experiment, EngineKind};
//! use ckpt_des::SimTime;
//!
//! let cfg = SystemConfig::builder().processors(65_536).build()?;
//! let est = Experiment::new(cfg)
//!     .engine(EngineKind::Direct)
//!     .transient(SimTime::from_hours(200.0))
//!     .horizon(SimTime::from_hours(2_000.0))
//!     .replications(3)
//!     .run()?;
//! let ci = est.useful_work_fraction();
//! assert!(ci.mean > 0.0 && ci.mean < 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod direct;
pub mod experiment;
pub mod metrics;
pub mod policy;
pub mod san_model;
pub mod trace;

pub use config::{ConfigError, CoordinationMode, SystemConfig};
pub use experiment::{
    default_jobs, run_indexed, CachedReplication, EngineKind, Estimate, Experiment,
    ExperimentError, ObserveSpec, ReplicationProfile, ReplicationStore, RunControl, WorkerFault,
};
pub use metrics::{Counters, Metrics, PhaseKind};
pub use policy::{CheckpointPolicy, PolicySpec};

// Execution-mode switches travel with the experiment API so callers
// need no direct `ckpt-des` / `ckpt-san` dependency. `QueueKind` is
// inert, kept so `--queue` and stored specs still parse.
pub use ckpt_des::QueueKind;
pub use ckpt_san::ReactivationMode;
