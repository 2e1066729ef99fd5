//! The incremental scheduler against the full-scan oracle on the real
//! checkpoint model: metrics must be **bitwise identical**, not merely
//! statistically close — both schedulers consume the same RNG stream in
//! the same order by construction, and these tests enforce it on every
//! paper configuration class the SAN engine supports.
//!
//! Every check runs in all four execution modes (reactivation ×
//! event-queue backend), and within each reactivation mode the calendar
//! queue must reproduce the indexed heap bit for bit, since both pop
//! the same `(time, FIFO)` order.

use ckptsim::des::SimTime;
use ckptsim::model::config::{ErrorPropagation, GenericCorrelated};
use ckptsim::model::san_model::{CheckpointSan, RunOptions};
use ckptsim::model::{CoordinationMode, SystemConfig};
use ckptsim::san::{QueueKind, ReactivationMode, Scheduling};

fn assert_bit_identical(cfg: SystemConfig, what: &str) {
    let model = CheckpointSan::build(&cfg).expect("model builds");
    for seed in [1, 42] {
        let run = |scheduling, reactivation, queue| {
            let outcome = model
                .run(&RunOptions {
                    seed,
                    transient: SimTime::from_hours(50.0),
                    horizon: SimTime::from_hours(500.0),
                    scheduling,
                    reactivation,
                    queue,
                })
                .expect("replication runs");
            (outcome.metrics, outcome.events)
        };
        for reactivation in [ReactivationMode::Resample, ReactivationMode::Lazy] {
            let mut per_queue = Vec::new();
            for queue in [QueueKind::IndexedHeap, QueueKind::Calendar] {
                let mode = format!("{what} (seed {seed}, {reactivation}, {queue:?})");
                let (m_inc, ev_inc) = run(Scheduling::Incremental, reactivation, queue);
                let (m_full, ev_full) = run(Scheduling::FullScan, reactivation, queue);
                assert_eq!(ev_inc, ev_full, "{mode}: event counts diverged");
                // Metrics is PartialEq over raw f64 fields, so this is an
                // exact bit-level comparison (no tolerances).
                assert_eq!(m_inc, m_full, "{mode}: metrics diverged");
                assert!(m_inc.useful_work_fraction() > 0.0, "{mode}: degenerate run");
                per_queue.push((m_inc, ev_inc));
            }
            assert_eq!(
                per_queue[0], per_queue[1],
                "{what} (seed {seed}, {reactivation}): calendar queue diverged from the heap"
            );
        }
    }
}

#[test]
fn baseline_config_is_scheduler_invariant() {
    let cfg = SystemConfig::builder().build().unwrap();
    assert_bit_identical(cfg, "baseline");
}

#[test]
fn large_system_with_timeout_is_scheduler_invariant() {
    let cfg = SystemConfig::builder()
        .processors(65_536)
        .timeout(Some(SimTime::from_secs(600.0)))
        .build()
        .unwrap();
    assert_bit_identical(cfg, "large system with timeout");
}

#[test]
fn correlated_failures_are_scheduler_invariant() {
    let cfg = SystemConfig::builder()
        .error_propagation(Some(ErrorPropagation {
            probability: 0.1,
            factor: 10.0,
            window: 180.0,
        }))
        .generic_correlated(Some(GenericCorrelated {
            coefficient: 0.0025,
            factor: 400.0,
        }))
        .build()
        .unwrap();
    assert_bit_identical(cfg, "correlated failures");
}

#[test]
fn max_of_n_coordination_is_scheduler_invariant() {
    let cfg = SystemConfig::builder()
        .coordination(CoordinationMode::MaxOfN)
        .compute_fraction(0.88)
        .build()
        .unwrap();
    assert_bit_identical(cfg, "max-of-n coordination with app I/O");
}
