//! Engine-agnostic observability for the checkpointing simulators.
//!
//! Both engines — the SAN executor (`ckpt-san`) and the direct
//! event-driven simulator (`ckpt-core::direct`) — can stream structured,
//! sim-timestamped notifications to an [`Observer`] while they run. The
//! building blocks layered on top:
//!
//! * [`ModelEvent`] / [`TraceEntry`] / [`TraceBuffer`] — the
//!   checkpoint-protocol event vocabulary and a bounded ring buffer for
//!   recording it (formerly `ckpt_core::trace`, now shared by both
//!   engines);
//! * [`PhaseKind`] / [`PhaseTimes`] — the coarse phase taxonomy used to
//!   break down where simulated time went;
//! * [`Observer`] / [`ObsEvent`] — the streaming interface, with
//!   [`NoopObserver`] as the zero-cost default so an unobserved run pays
//!   nothing but one well-predicted branch per event;
//! * [`MetricsRegistry`] — counters plus sim-time-weighted phase
//!   accumulators, reconcilable against an engine's own reward-variable
//!   estimates as a built-in cross-check;
//! * [`ReplicationTelemetry`] — mergeable histograms plus event and
//!   RNG-draw counts, partly fed by the engines' hot-loop probes;
//! * [`Recorder`] — the composite (optional trace, registry and
//!   telemetry) attached to every observed replication;
//! * [`RunManifest`] — run provenance (config, seeds, engine, host
//!   parallelism, per-replication profiles) serialized as JSON next to
//!   results.
//!
//! Observation never participates in simulation semantics: observers
//! receive copies of state the engines already computed, never mutate
//! engine state, and are attached per replication so parallel runs stay
//! bit-identical and merge in replication-index order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod manifest;
mod observer;
pub mod progress;
mod recorder;
mod registry;
mod telemetry;
mod trace;

pub use event::{AbortReason, ModelEvent, PhaseKind, PhaseTimes};
pub use manifest::{json_escape, ReplicationProfile, RunManifest, MANIFEST_SCHEMA_VERSION};
pub use observer::{NoopObserver, ObsEvent, Observer};
pub use progress::{HumanSink, JsonlSink, MultiSink, NullSink, ProgressSink, ProgressSnapshot};
pub use recorder::Recorder;
pub use registry::{MetricsRegistry, ReconcileError};
pub use telemetry::ReplicationTelemetry;
pub use trace::{TraceBuffer, TraceEntry};
