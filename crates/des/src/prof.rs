//! The build flag of the removed phase profiler.
//!
//! Only this constant remains, because the benchmark's provenance line
//! still records it; it goes with the next change to the benchmark.

/// Always `false`: no build carries the phase profiler.
pub const ENABLED: bool = false;
