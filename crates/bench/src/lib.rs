//! Figure-regeneration library for the DSN'05 reproduction: the code
//! behind `ckptsim figure <id>`, `ckptsim figure all`, `ckptsim table3`
//! and the table studies (`ckptsim --help` lists them).
//!
//! It hosts the sweep driver ([`sweep`]), the crash-safe figure runner
//! ([`runner`]), the output formatting ([`table`], [`svg`]), the
//! per-figure sweep definitions ([`figures`]), the table studies
//! ([`studies`]), the paper's published curves ([`paper`]) used by the
//! integration tests for shape checks, and the run-option parser
//! ([`args`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod figures;
pub mod paper;
pub mod runner;
pub mod studies;
pub mod svg;
pub mod sweep;
pub mod table;

pub use args::RunOptions;
pub use sweep::{
    experiment_spec, run_sweep, run_sweep_controlled, sweep_fingerprint, sweep_manifest_json,
    Point, Series, SweepControl,
};
