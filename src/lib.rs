//! # ckptsim
//!
//! A full reproduction of *"Modeling Coordinated Checkpointing for
//! Large-Scale Supercomputers"* (Wang et al., DSN 2005) as a Rust
//! workspace, re-exported here as a single facade crate.
//!
//! The paper models a supercomputer with up to hundreds of thousands of
//! processors running system-initiated **coordinated checkpointing** and
//! studies how *useful work* scales under failures during
//! checkpointing/recovery, protocol coordination overhead, and correlated
//! failures. This workspace rebuilds every layer of that study:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`des`] | `ckpt-des` | discrete-event kernel: clock, timer table, cancellable event queue, RNG streams |
//! | [`stats`] | `ckpt-stats` | distributions (incl. the max-of-n-exponentials coordination time), estimators, CTMC utilities |
//! | [`san`] | `ckpt-san` | Stochastic Activity Networks: places, activities, gates, rewards, simulator |
//! | [`model`] | `ckpt-core` | the paper's 12-submodel checkpoint system, a direct event simulator, configuration and metrics |
//! | [`analytic`] | `ckpt-analytic` | Young / Daly / Vaidya baselines and coordination expectations |
//! | [`obs`] | `ckpt-obs` | engine-agnostic observability: tracing, phase-time metrics, run manifests |
//! | [`harness`] | `ckpt-harness` | crash-safe execution: experiment specs, snapshot journals, typed errors, signal handling |
//! | [`svc`] | `ckpt-svc` | simulation-as-a-service: content-addressed job store, fair-share scheduler over journal-backed work units, HTTP transport |
//!
//! # Quickstart
//!
//! ```
//! use ckptsim::model::{SystemConfig, direct::DirectSimulator};
//! use ckptsim::des::SimTime;
//!
//! // The paper's Table-3 defaults: 64K processors, 8 per node,
//! // 30-minute checkpoint interval, 1-year per-node MTTF.
//! let config = SystemConfig::builder().build()?;
//! let mut sim = DirectSimulator::new(&config, 42);
//! sim.run(SimTime::from_hours(2_000.0));
//! let m = sim.metrics();
//! assert!(m.useful_work_fraction() > 0.0 && m.useful_work_fraction() < 1.0);
//! # Ok::<(), ckptsim::model::ConfigError>(())
//! ```
//!
//! See `examples/` for capacity planning, protocol tuning, and
//! correlated-failure studies, and `crates/bench` for the binaries that
//! regenerate every figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ckpt_analytic as analytic;
pub use ckpt_core as model;
pub use ckpt_des as des;
pub use ckpt_harness as harness;
pub use ckpt_obs as obs;
pub use ckpt_san as san;
pub use ckpt_stats as stats;
pub use ckpt_svc as svc;
