//! Stochastic Activity Networks (SANs).
//!
//! This crate reimplements, from scratch, the subset of the SAN formalism
//! that the DSN'05 paper's Möbius models rely on:
//!
//! * **places** holding discrete tokens ([`Marking`]), plus *fluid
//!   places* — continuous accumulators integrated between events, used
//!   for useful-work accounting;
//! * **activities** — timed (any [`Delay`]: a distribution from
//!   `ckpt-stats` or a marking-dependent sampler) or instantaneous with a
//!   priority, with probabilistic **cases** choosing among output
//!   effects;
//! * **input gates** (a declarative [`Pred`] enabling predicate +
//!   marking transformation) and **output gates** (marking
//!   transformation);
//! * **composition by state sharing**: submodels built against the same
//!   [`SanBuilder`] share places by name, exactly how the paper's
//!   submodels are "integrated into an overall model";
//! * **reward variables** — rate rewards integrated over time and
//!   impulse rewards collected on activity firings — evaluated by the
//!   discrete-event [`Simulator`] with transient discard, matching the
//!   paper's steady-state simulation setup.
//!
//! # Example: a tiny repair model
//!
//! ```
//! use ckpt_san::{Delay, SanBuilder, RewardSpec, Simulator};
//! use ckpt_stats::Dist;
//!
//! let mut b = SanBuilder::new("machine");
//! let up = b.place("up", 1);
//! let down = b.place("down", 0);
//!
//! b.timed_activity("fail", Delay::from(Dist::exponential(0.1)))
//!     .input_arc(up, 1)
//!     .output_arc(down, 1)
//!     .build();
//! b.timed_activity("repair", Delay::from(Dist::exponential(0.9)))
//!     .input_arc(down, 1)
//!     .output_arc(up, 1)
//!     .build();
//!
//! let san = b.build()?;
//! let mut sim = Simulator::new(&san, 42)?;
//! sim.add_reward(RewardSpec::rate("availability", move |m| {
//!     if m.tokens(up) > 0 { 1.0 } else { 0.0 }
//! }))?;
//! sim.run_for(ckpt_des::SimTime::from_secs(10_000.0))?;
//! let report = sim.reward_report();
//! let a = report.value("availability")?.time_average();
//! assert!((a - 0.9).abs() < 0.02, "availability {a}");
//! # Ok::<(), ckpt_san::SanError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
mod compiled;
pub mod compose;
pub mod dot;
mod error;
mod gate;
mod marking;
mod model;
mod pred;
mod reward;
mod simulator;

pub use activity::{ActivityId, Delay, DelayFn, Reactivation, Timing};
pub use error::SanError;
pub use gate::{InputGate, OutputGate};
pub use marking::{FluidId, Marking, PlaceId};
pub use model::{ActivityBuilder, CaseBuilder, San, SanBuilder};
pub use pred::Pred;
pub use reward::{RewardReport, RewardSpec, RewardValue};
pub use simulator::{ReactivationMode, SanObserver, Simulator};
