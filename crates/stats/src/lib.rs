//! Statistical substrate for the `ckptsim` simulators.
//!
//! Three areas:
//!
//! * [`dist`] — the sampling distributions the DSN'05 model needs
//!   (deterministic, exponential, uniform, hyper-exponential, Erlang,
//!   Weibull) plus the paper's closed-form **coordination distribution**:
//!   the maximum of `n` i.i.d. exponential quiesce times, sampled as
//!   `Y = -1/λ · ln(1 − U^{1/n})` (Section 5 of the paper).
//! * [`estimate`] — Welford online moments, Student-t confidence
//!   intervals and replication aggregation, mirroring the
//!   steady-state estimation procedure the paper ran in Möbius (95 %
//!   confidence, transient discard).
//! * [`markov`] — a small continuous-time Markov chain toolkit: a dense
//!   steady-state solver and the paper's Figure-3 birth–death process of
//!   correlated failures, from which the
//!   `frate_correlated_factor` `r = pµ/((1−p)·n·λ) − 1` is derived.
//!
//! # Example
//!
//! ```
//! use ckpt_des::SimRng;
//! use ckpt_stats::dist::{Dist, Sample};
//!
//! let mut rng = SimRng::seed_from_u64(1);
//! // Coordination time of 65536 nodes with a 10 s mean quiesce time:
//! let coord = Dist::max_exponential(65536, 1.0 / 10.0);
//! let y = coord.sample(&mut rng);
//! assert!(y > 0.0);
//! // E[Y] = H_n / λ grows only logarithmically in n:
//! assert!(coord.mean() < 130.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod estimate;
pub mod gof;
pub mod markov;
pub mod special;

pub use dist::{Dist, Sample};
pub use estimate::{ConfidenceInterval, OnlineStats, Replications};
pub use gof::{ks_test, Ecdf, KsResult};
pub use markov::{BirthDeathCorrelation, CtmcError};
