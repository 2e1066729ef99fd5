//! Discrete-event simulation kernel for the `ckptsim` project.
//!
//! This crate provides the minimal substrate every simulator in the
//! workspace is built on:
//!
//! * [`SimTime`] — a strongly typed simulation clock value (seconds,
//!   `f64`), with total ordering that rejects NaN at construction.
//! * [`EventQueue`] — the future-event list: a cancellable indexed
//!   binary heap of scheduled events, popped in `(time, FIFO)` order.
//!   [`QueueKind`] is the inert `--queue` selector, kept so stored
//!   specs still parse; every kind runs on the same heap.
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

pub use event::{EventId, ScheduledEvent};
pub use hist::LogHistogram;
pub use queue::{EventQueue, QueueKind};
pub use rng::{RngFactory, SimRng, StreamId};
pub use time::{SimTime, TimeError};
