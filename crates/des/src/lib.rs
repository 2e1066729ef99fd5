//! Discrete-event simulation kernel for the `ckptsim` project.
//!
//! This crate provides the minimal substrate every simulator in the
//! workspace is built on:
//!
//! * [`SimTime`] — a strongly typed simulation clock value (seconds,
//!   `f64`), with total ordering that rejects NaN at construction.
//! * [`TimerTable`] — the future-event list of both simulation engines:
//!   one timer slot per event source (at most one pending completion
//!   each), popped in `(due, seq)` order.
//! * [`EventQueue`] — a general cancellable indexed binary heap with the
//!   same `(time, FIFO)` pop order. No engine runs on it: it is the test
//!   oracle of [`TimerTable`] and the benchmark's queue micro-benchmark
//!   subject. [`QueueKind`] is the inert `--queue` selector, kept so
//!   stored specs still parse; every kind runs on the same code.
//! * [`RngFactory`] / [`SimRng`] — deterministic, splittable random-number
//!   streams so that every stochastic component of a model draws from its
//!   own substream and simulations are exactly reproducible from a single
//!   master seed.
//!
//! The kernel is deliberately policy-free: it knows nothing about Petri
//! nets, SANs, or checkpointing. Higher layers (`ckpt-san`,
//! `ckpt-core::direct`) define what an event *means*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod hist;
pub mod prof;
mod queue;
mod rng;
pub mod telem;
mod time;
mod timers;

pub use event::{EventId, ScheduledEvent};
pub use hist::LogHistogram;
pub use queue::{EventQueue, QueueKind};
pub use rng::{exponential_from_unit, RngFactory, SimRng, StreamId};
pub use time::{SimTime, TimeError};
pub use timers::{Ticket, TimerKey, TimerTable};
