//! Unit tests for the direct simulator.

use super::*;
use crate::config::{ErrorPropagation, GenericCorrelated, SystemConfig};
use crate::trace::TraceBuffer;

fn base_config() -> SystemConfig {
    SystemConfig::builder().build().unwrap()
}

/// Runs with a transient discard and returns the measured metrics.
fn measure(cfg: &SystemConfig, seed: u64, hours: f64) -> Metrics {
    let mut sim = DirectSimulator::new(cfg, seed);
    sim.run(SimTime::from_hours(1_000.0));
    sim.reset_metrics();
    sim.run(SimTime::from_hours(hours));
    sim.metrics()
}

#[test]
fn failure_free_fraction_matches_protocol_overhead() {
    // No failures, fixed quiesce, compute fraction 1 (no app I/O):
    // each cycle = interval + broadcast + quiesce + dump; useful work
    // accrues only during the interval.
    let cfg = SystemConfig::builder()
        .failures_enabled(false)
        .compute_fraction(1.0)
        .build()
        .unwrap();
    let mut sim = DirectSimulator::new(&cfg, 1);
    sim.run(SimTime::from_hours(5_000.0));
    let m = sim.metrics();
    let interval = cfg.checkpoint_interval().as_secs();
    let cycle = interval
        + cfg.quiesce_broadcast_latency().as_secs()
        + cfg.mttq().as_secs()
        + cfg.checkpoint_dump_time().as_secs();
    let expect = interval / cycle;
    let got = m.useful_work_fraction();
    assert!(
        (got - expect).abs() < 1e-3,
        "useful work {got} vs analytic {expect}"
    );
    assert_eq!(m.counters.compute_failures, 0);
    assert!(m.counters.checkpoints_completed > 0);
}

#[test]
fn app_io_counts_as_useful_work() {
    // With app I/O (fraction < 1) and no failures the useful-work
    // fraction must not drop: the I/O phase is still useful work.
    let no_io = SystemConfig::builder()
        .failures_enabled(false)
        .compute_fraction(1.0)
        .build()
        .unwrap();
    let with_io = SystemConfig::builder()
        .failures_enabled(false)
        .compute_fraction(0.9)
        .build()
        .unwrap();
    let f1 = measure(&no_io, 2, 3_000.0).useful_work_fraction();
    let f2 = measure(&with_io, 2, 3_000.0).useful_work_fraction();
    assert!(
        (f1 - f2).abs() < 0.01,
        "app I/O should not change useful work materially: {f1} vs {f2}"
    );
}

#[test]
fn failures_reduce_useful_work() {
    let good = SystemConfig::builder()
        .mttf_per_node(SimTime::from_years(25.0))
        .build()
        .unwrap();
    let bad = SystemConfig::builder()
        .mttf_per_node(SimTime::from_years(0.25))
        .build()
        .unwrap();
    let fg = measure(&good, 3, 20_000.0).useful_work_fraction();
    let fb = measure(&bad, 3, 20_000.0).useful_work_fraction();
    assert!(fg > fb + 0.2, "MTTF 25y {fg} vs 0.25y {fb}");
}

#[test]
fn base_model_fraction_is_in_papers_ballpark() {
    // Paper §7.1: 64K processors, MTTF 1 y, MTTR 10 min, 30-minute
    // interval → useful work fraction in the high-40s percent (128K
    // procs gives ≈42.7%, and the fraction decreases with scale).
    let m = measure(&base_config(), 4, 30_000.0);
    let f = m.useful_work_fraction();
    assert!(
        (0.35..0.70).contains(&f),
        "base-model useful work fraction {f} outside plausible band"
    );
    assert!(m.counters.recoveries > 100);
}

#[test]
fn useful_work_fraction_decreases_with_processor_count() {
    let mut last = f64::INFINITY;
    for procs in [8_192u64, 65_536, 262_144] {
        let cfg = SystemConfig::builder().processors(procs).build().unwrap();
        let f = measure(&cfg, 5, 20_000.0).useful_work_fraction();
        assert!(
            f < last,
            "fraction must fall with scale: {f} at {procs} procs (prev {last})"
        );
        last = f;
    }
}

#[test]
fn phase_times_partition_the_window() {
    let m = measure(&base_config(), 6, 5_000.0);
    let total = m.phase_times.total();
    assert!(
        (total - m.window_secs).abs() < 1e-6 * m.window_secs,
        "phase times {total} must sum to the window {}",
        m.window_secs
    );
    assert!(m.phase_fraction(PhaseKind::Executing) > 0.3);
    assert!(m.phase_fraction(PhaseKind::Recovering) > 0.0);
}

#[test]
fn useful_work_never_exceeds_accruable_time() {
    // Accrual happens while executing and while finishing non-preemptive
    // application I/O under a pending quiesce (counted as coordinating).
    let m = measure(&base_config(), 7, 10_000.0);
    let accruable =
        m.phase_times.get(PhaseKind::Executing) + m.phase_times.get(PhaseKind::Coordinating);
    assert!(
        m.useful_work_secs <= accruable + 1e-6,
        "useful work cannot exceed accruable time"
    );
}

#[test]
fn no_failures_means_no_recoveries() {
    let cfg = SystemConfig::builder()
        .failures_enabled(false)
        .build()
        .unwrap();
    let m = measure(&cfg, 8, 2_000.0);
    assert_eq!(m.counters.compute_failures, 0);
    assert_eq!(m.counters.io_failures, 0);
    assert_eq!(m.counters.recoveries, 0);
    assert_eq!(m.counters.reboots, 0);
    assert_eq!(m.work_lost_secs, 0.0);
    assert_eq!(m.phase_fraction(PhaseKind::Recovering), 0.0);
}

#[test]
fn checkpoint_rate_matches_interval() {
    let cfg = SystemConfig::builder()
        .failures_enabled(false)
        .compute_fraction(1.0)
        .build()
        .unwrap();
    let m = measure(&cfg, 9, 2_000.0);
    let cycle_hours = (cfg.checkpoint_interval().as_secs()
        + cfg.quiesce_broadcast_latency().as_secs()
        + cfg.mttq().as_secs()
        + cfg.checkpoint_dump_time().as_secs())
        / 3600.0;
    let expect = (2_000.0 / cycle_hours).round();
    let got = m.counters.checkpoints_completed as f64;
    assert!(
        (got - expect).abs() <= 1.0,
        "checkpoints {got} expected ≈{expect}"
    );
}

#[test]
fn timeout_shorter_than_quiesce_aborts_every_checkpoint() {
    // Fixed quiesce of 10 s with a timeout of 5 s: coordination never
    // completes in time, so every attempt aborts.
    let cfg = SystemConfig::builder()
        .failures_enabled(false)
        .compute_fraction(1.0)
        .timeout(Some(SimTime::from_secs(5.0)))
        .build()
        .unwrap();
    let m = measure(&cfg, 10, 500.0);
    assert_eq!(m.counters.checkpoints_completed, 0);
    assert!(m.counters.checkpoints_aborted_timeout > 0);
}

#[test]
fn generous_timeout_never_fires_with_fixed_quiesce() {
    let cfg = SystemConfig::builder()
        .failures_enabled(false)
        .compute_fraction(1.0)
        .timeout(Some(SimTime::from_secs(120.0)))
        .build()
        .unwrap();
    let m = measure(&cfg, 11, 500.0);
    assert_eq!(m.counters.checkpoints_aborted_timeout, 0);
    assert!(m.counters.checkpoints_completed > 0);
}

#[test]
fn max_of_n_coordination_costs_more_than_fixed() {
    let fixed = SystemConfig::builder()
        .failures_enabled(false)
        .coordination(CoordinationMode::FixedQuiesce)
        .build()
        .unwrap();
    let coord = SystemConfig::builder()
        .failures_enabled(false)
        .coordination(CoordinationMode::MaxOfN)
        .build()
        .unwrap();
    let ff = measure(&fixed, 12, 3_000.0).useful_work_fraction();
    let fc = measure(&coord, 12, 3_000.0).useful_work_fraction();
    // Max of 65536 exponentials ≈ H_65536 ≈ 11.7 × MTTQ, versus 1 × MTTQ.
    assert!(fc < ff, "coordination {fc} must cost more than fixed {ff}");
    assert!(ff - fc < 0.1, "but the coordination effect is small");
}

#[test]
fn generic_correlated_failures_degrade_performance() {
    let without = SystemConfig::builder()
        .mttf_per_node(SimTime::from_years(3.0))
        .processors(262_144)
        .build()
        .unwrap();
    let with = SystemConfig::builder()
        .mttf_per_node(SimTime::from_years(3.0))
        .processors(262_144)
        .generic_correlated(Some(GenericCorrelated {
            coefficient: 0.0025,
            factor: 400.0,
        }))
        .build()
        .unwrap();
    let f0 = measure(&without, 13, 20_000.0).useful_work_fraction();
    let m1 = measure(&with, 13, 20_000.0);
    let f1 = m1.useful_work_fraction();
    assert!(m1.counters.generic_failures > 0);
    assert!(
        f0 - f1 > 0.05,
        "doubling the failure rate must hurt: {f0} vs {f1}"
    );
}

#[test]
fn error_propagation_opens_windows_and_repeats_recoveries() {
    let cfg = SystemConfig::builder()
        .mttf_per_node(SimTime::from_years(3.0))
        .processors(262_144)
        .error_propagation(Some(ErrorPropagation {
            probability: 0.2,
            factor: 1_600.0,
            window: 180.0,
        }))
        .build()
        .unwrap();
    let m = measure(&cfg, 14, 20_000.0);
    assert!(m.counters.correlated_windows > 0, "windows must open");
    assert!(
        m.counters.failed_recoveries > 0,
        "elevated in-window rates must hit some recoveries"
    );
}

#[test]
fn severe_failures_cause_reboots() {
    // Brutal MTTF and a threshold of 1 failed recovery: reboots must
    // happen.
    let cfg = SystemConfig::builder()
        .processors(262_144)
        .mttf_per_node(SimTime::from_hours(200.0))
        .severe_failure_threshold(1)
        .build()
        .unwrap();
    let m = measure(&cfg, 15, 5_000.0);
    assert!(m.counters.reboots > 0, "expected reboots: {:?}", m.counters);
    assert!(m.phase_fraction(PhaseKind::Rebooting) > 0.0);
}

#[test]
fn reproducible_across_identical_seeds() {
    let cfg = base_config();
    let a = measure(&cfg, 42, 5_000.0);
    let b = measure(&cfg, 42, 5_000.0);
    assert_eq!(a.useful_work_secs, b.useful_work_secs);
    assert_eq!(a.counters, b.counters);
    let c = measure(&cfg, 43, 5_000.0);
    assert_ne!(a.counters, c.counters);
}

#[test]
fn blocking_checkpoint_write_is_slower() {
    let bg = SystemConfig::builder()
        .failures_enabled(false)
        .compute_fraction(1.0)
        .background_checkpoint_write(true)
        .build()
        .unwrap();
    let blocking = SystemConfig::builder()
        .failures_enabled(false)
        .compute_fraction(1.0)
        .background_checkpoint_write(false)
        .build()
        .unwrap();
    let f_bg = measure(&bg, 16, 2_000.0).useful_work_fraction();
    let f_bl = measure(&blocking, 16, 2_000.0).useful_work_fraction();
    // Blocking adds the 131-second FS write to every cycle.
    assert!(
        f_bg - f_bl > 0.04,
        "background {f_bg} vs blocking {f_bl} should differ by the FS write share"
    );
}

#[test]
fn disabling_buffered_recovery_adds_stage1_cost() {
    let cfg_buf = SystemConfig::builder()
        .mttf_per_node(SimTime::from_years(0.5))
        .buffered_recovery(true)
        .build()
        .unwrap();
    let cfg_nobuf = SystemConfig::builder()
        .mttf_per_node(SimTime::from_years(0.5))
        .buffered_recovery(false)
        .build()
        .unwrap();
    let f_buf = measure(&cfg_buf, 17, 20_000.0).useful_work_fraction();
    let f_nobuf = measure(&cfg_nobuf, 17, 20_000.0).useful_work_fraction();
    assert!(
        f_buf >= f_nobuf - 1e-3,
        "buffered recovery cannot be slower: {f_buf} vs {f_nobuf}"
    );
}

#[test]
fn work_lost_scales_with_checkpoint_interval() {
    let short = SystemConfig::builder()
        .checkpoint_interval(SimTime::from_mins(15.0))
        .build()
        .unwrap();
    let long = SystemConfig::builder()
        .checkpoint_interval(SimTime::from_mins(240.0))
        .build()
        .unwrap();
    let m_short = measure(&short, 18, 20_000.0);
    let m_long = measure(&long, 18, 20_000.0);
    let per_failure_short =
        m_short.work_lost_secs / m_short.counters.compute_failures.max(1) as f64;
    let per_failure_long = m_long.work_lost_secs / m_long.counters.compute_failures.max(1) as f64;
    assert!(
        per_failure_long > per_failure_short * 3.0,
        "lost work per failure: short {per_failure_short}, long {per_failure_long}"
    );
}

#[test]
fn clock_and_events_advance() {
    let cfg = base_config();
    let mut sim = DirectSimulator::new(&cfg, 0);
    assert_eq!(sim.now(), SimTime::ZERO);
    sim.run(SimTime::from_hours(10.0));
    assert_eq!(sim.now(), SimTime::from_hours(10.0));
    assert!(sim.events_processed() > 0);
    assert!(format!("{sim:?}").contains("DirectSimulator"));
}

#[test]
fn metrics_window_tracks_reset() {
    let cfg = base_config();
    let mut sim = DirectSimulator::new(&cfg, 1);
    sim.run(SimTime::from_hours(5.0));
    sim.reset_metrics();
    assert_eq!(sim.metrics().window_secs, 0.0);
    sim.run(SimTime::from_hours(1.0));
    assert!((sim.metrics().window_secs - 3600.0).abs() < 1e-9);
}

#[test]
fn master_failures_abort_checkpoints_only_during_protocol() {
    // A wide quiesce window (MTTQ 300 s) and a low per-node MTTF make
    // master failures land inside the protocol; the system must still be
    // healthy enough to reach the protocol at all, so keep it small.
    let cfg = SystemConfig::builder()
        .processors(8_192)
        .mttq(SimTime::from_secs(300.0))
        .mttf_per_node(SimTime::from_years(0.25))
        .build()
        .unwrap();
    let m = measure(&cfg, 19, 200_000.0);
    assert!(
        m.counters.checkpoints_aborted_master > 0,
        "expected master-failure aborts: {:?}",
        m.counters
    );
}

#[test]
fn io_failures_abort_checkpoint_writes() {
    let cfg = SystemConfig::builder()
        .processors(8_192)
        .mttf_per_node(SimTime::from_years(0.125))
        .build()
        .unwrap();
    let m = measure(&cfg, 20, 100_000.0);
    assert!(m.counters.io_failures > 0);
    assert!(
        m.counters.checkpoints_aborted_io > 0,
        "with 128 I/O nodes at MTTF 0.125y some write-phase failures must occur: {:?}",
        m.counters
    );
}

#[test]
fn trace_records_checkpoint_lifecycle_in_order() {
    let cfg = SystemConfig::builder()
        .failures_enabled(false)
        .compute_fraction(1.0)
        .build()
        .unwrap();
    let mut trace = TraceBuffer::new(64);
    let mut sim = DirectSimulator::new(&cfg, 0);
    sim.set_observer(&mut trace);
    sim.run(SimTime::from_hours(1.0));
    use crate::trace::TraceEvent;
    let kinds: Vec<&TraceEvent> = trace.iter().map(|e| &e.event).collect();
    // One full cycle: initiate → coordinate → complete → on FS.
    assert_eq!(
        kinds[..4],
        [
            &TraceEvent::CheckpointInitiated,
            &TraceEvent::CoordinationComplete,
            &TraceEvent::CheckpointCompleted,
            &TraceEvent::CheckpointOnFs
        ]
    );
    // Timestamps are monotone.
    let times: Vec<f64> = trace.iter().map(|e| e.at.as_secs()).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn trace_records_rollback_and_recovery() {
    let cfg = SystemConfig::builder()
        .processors(262_144)
        .mttf_per_node(SimTime::from_years(0.125))
        .build()
        .unwrap();
    let mut trace = TraceBuffer::new(4096);
    let mut sim = DirectSimulator::new(&cfg, 1);
    sim.set_observer(&mut trace);
    sim.run(SimTime::from_hours(100.0));
    use crate::trace::TraceEvent;
    let rollbacks = trace
        .filter(|e| matches!(e, TraceEvent::Rollback { .. }))
        .count();
    let recoveries = trace
        .filter(|e| matches!(e, TraceEvent::RecoveryComplete))
        .count();
    assert!(rollbacks > 0, "expected rollbacks in the trace");
    assert!(recoveries > 0, "expected recoveries in the trace");
    // Every recovery completion follows some rollback.
    let first_rollback = trace
        .iter()
        .position(|e| matches!(e.event, TraceEvent::Rollback { .. }))
        .unwrap();
    let first_recovery = trace
        .iter()
        .position(|e| matches!(e.event, TraceEvent::RecoveryComplete))
        .unwrap();
    assert!(first_rollback < first_recovery);
}

#[test]
fn trace_is_bounded() {
    let cfg = base_config();
    let mut t = TraceBuffer::new(4);
    let mut sim = DirectSimulator::new(&cfg, 2);
    sim.set_observer(&mut t);
    sim.run(SimTime::from_hours(50.0));
    assert!(t.len() <= 4);
    assert!(t.dropped() > 0, "long run must overflow a 4-entry buffer");
}

#[test]
fn spatial_correlation_defeats_buffered_recovery() {
    let without = SystemConfig::builder()
        .mttf_per_node(SimTime::from_years(0.5))
        .build()
        .unwrap();
    let with = SystemConfig::builder()
        .mttf_per_node(SimTime::from_years(0.5))
        .spatial_correlation(Some(1.0))
        .build()
        .unwrap();
    let m0 = measure(&without, 21, 20_000.0);
    let m1 = measure(&with, 21, 20_000.0);
    assert!(m1.counters.spatial_co_failures > 0);
    assert_eq!(m0.counters.spatial_co_failures, 0);
    // Losing the buffer forces stage-1 reads and invalidates the newest
    // checkpoint: strictly worse.
    let f0 = m0.useful_work_fraction();
    let f1 = m1.useful_work_fraction();
    assert!(
        f0 > f1 + 0.01,
        "spatial co-failures must hurt: {f0} vs {f1}"
    );
    // At p = 1 every eligible compute failure co-fails the I/O group
    // (failures while the I/O nodes are already down are excluded).
    assert!(m1.counters.spatial_co_failures <= m1.counters.compute_failures);
    assert!(
        m1.counters.spatial_co_failures as f64 > 0.8 * m1.counters.compute_failures as f64,
        "most failures must co-fail: {:?}",
        m1.counters
    );
}

#[test]
fn spatial_correlation_probability_scales_impact() {
    let frac = |p: Option<f64>| {
        let cfg = SystemConfig::builder()
            .mttf_per_node(SimTime::from_years(0.5))
            .spatial_correlation(p)
            .build()
            .unwrap();
        measure(&cfg, 22, 20_000.0).useful_work_fraction()
    };
    let f0 = frac(None);
    let fh = frac(Some(0.5));
    let f1 = frac(Some(1.0));
    assert!(f0 >= fh - 5e-3, "p=0.5 must not beat p=0: {f0} vs {fh}");
    assert!(fh >= f1 - 5e-3, "p=1 must not beat p=0.5: {fh} vs {f1}");
}

#[test]
fn workload_jitter_keeps_useful_work_near_fixed_fraction() {
    // Per-cycle jitter over [0.88, 1.0] has mean 0.94 — close to the
    // fixed default 0.95; the useful-work fraction should barely move
    // (app I/O counts as useful work either way).
    let fixed = SystemConfig::builder()
        .failures_enabled(false)
        .compute_fraction(0.94)
        .build()
        .unwrap();
    let jittered = SystemConfig::builder()
        .failures_enabled(false)
        .compute_fraction_jitter(Some((0.88, 1.0)))
        .build()
        .unwrap();
    let f0 = measure(&fixed, 23, 3_000.0).useful_work_fraction();
    let f1 = measure(&jittered, 23, 3_000.0).useful_work_fraction();
    assert!(
        (f0 - f1).abs() < 0.01,
        "jitter must not change useful work materially: {f0} vs {f1}"
    );
}

#[test]
fn workload_jitter_varies_cycle_lengths() {
    let cfg = SystemConfig::builder()
        .failures_enabled(false)
        .compute_fraction_jitter(Some((0.88, 0.96)))
        .build()
        .unwrap();
    let mut sim = DirectSimulator::new(&cfg, 24);
    sim.run(SimTime::from_hours(10.0));
    // With jitter and 3-minute cycles there are ~200 cycles in 10 h; the
    // run must process app-phase events (jitter path executes).
    assert!(sim.events_processed() > 300);
}

#[test]
fn recovery_time_distribution_families_behave_sanely() {
    use crate::config::RecoveryTimeModel;
    // Same mean recovery; at a moderate failure rate the deterministic
    // restart penalty makes Deterministic the costliest, memoryless
    // Exponential the cheapest, and a heavy-tailed LogNormal close to
    // Exponential (restarts truncate its tail).
    let frac = |m: RecoveryTimeModel| {
        let cfg = SystemConfig::builder()
            .processors(262_144)
            .recovery_time_model(m)
            .build()
            .unwrap();
        measure(&cfg, 25, 20_000.0).useful_work_fraction()
    };
    let det = frac(RecoveryTimeModel::Deterministic);
    let exp = frac(RecoveryTimeModel::Exponential);
    let ln2 = frac(RecoveryTimeModel::LogNormal { cv: 2.0 });
    assert!(
        exp > det,
        "memoryless recovery must beat deterministic under restarts: {exp} vs {det}"
    );
    assert!(
        ln2 > det - 0.02,
        "heavy tail with restarts stays above deterministic: {ln2} vs {det}"
    );
    for f in [det, exp, ln2] {
        assert!((0.0..1.0).contains(&f));
    }
}

/// Every float of `m` as IEEE-754 bits, then its counters.
fn metric_bits(m: &Metrics) -> (Vec<u64>, Counters) {
    let mut bits = vec![
        m.window_secs.to_bits(),
        m.useful_work_secs.to_bits(),
        m.work_lost_secs.to_bits(),
    ];
    bits.extend(PhaseKind::ALL.map(|k| m.phase_times.get(k).to_bits()));
    (bits, m.counters)
}

#[test]
fn telemetry_sees_every_event_and_changes_no_bit() {
    // Failures often enough that the application-cycle inner loop is
    // entered and left many times, on both entry points.
    let cfg = SystemConfig::builder()
        .mttf_per_node(SimTime::from_years(0.25))
        .build()
        .unwrap();
    let run = |probed: bool| {
        let mut sim = DirectSimulator::new(&cfg, 11);
        if probed {
            sim.enable_telemetry();
        }
        let done = sim.run_until_useful_work(50.0 * 3600.0, SimTime::from_hours(1_000.0));
        sim.reset_metrics();
        sim.run(SimTime::from_hours(200.0));
        let depths = sim.telemetry_snapshot().map(|t| t.queue_depth.count());
        (
            done.map(SimTime::as_secs).map(f64::to_bits),
            metric_bits(&sim.metrics()),
            sim.events_processed(),
            depths,
        )
    };
    let (plain_done, plain, plain_events, no_depths) = run(false);
    let (done, probed, events, depths) = run(true);
    assert!(plain_done.is_some(), "the work target is reached");
    assert_eq!(no_depths, None);
    assert_eq!(depths, Some(events), "one queue-depth sample per event");
    assert_eq!((done, probed, events), (plain_done, plain, plain_events));
}

/// The engine with no application-cycle kernel, as the oracle of
/// `run_app_cycle`: every event pops through `pop_before` and fires
/// through `fire`, except that an application event in the executing
/// phase runs the handlers the kernel inlines, written here as general
/// handlers (they were before the kernel took them over).
mod reference {
    use super::*;

    fn fire(sim: &mut DirectSimulator<'_>, t: SimTime, event: Event) {
        let app_event = matches!(event, Event::AppPhaseEnd | Event::AppDataWriteDone);
        if !app_event || sim.phase != SysPhase::Executing {
            sim.fire(t, event);
            return;
        }
        sim.advance_clock(t);
        sim.events_processed += 1;
        if let Some(telem) = &mut sim.telem {
            telem.record_queue_depth(sim.timers.len());
        }
        match (event, sim.app) {
            (Event::AppPhaseEnd, AppPhase::Compute) => {
                sim.app = AppPhase::Io;
                sim.schedule_app_phase_end();
            }
            (Event::AppPhaseEnd, AppPhase::Io) => {
                sim.app = AppPhase::Compute;
                sim.schedule_app_phase_end();
                sim.start_app_data_write();
            }
            _ => {
                assert_eq!(sim.io, IoState::WritingAppData);
                sim.io_became_idle();
            }
        }
        sim.notify_phase();
    }

    /// `DirectSimulator::run_until` without the kernel.
    pub(super) fn run_until(sim: &mut DirectSimulator<'_>, horizon: SimTime) {
        while let Some((t, event)) = sim.timers.pop_before(horizon) {
            fire(sim, t, event);
        }
        if horizon > sim.now {
            sim.advance_clock(horizon);
        }
    }

    /// `DirectSimulator::run_until_useful_work` without the kernel.
    pub(super) fn run_until_useful_work(
        sim: &mut DirectSimulator<'_>,
        target: f64,
        deadline: SimTime,
    ) -> Option<SimTime> {
        while sim.w < target {
            let (t, _) = sim.timers.next()?;
            if t > deadline {
                return None;
            }
            if sim.accruing() {
                let crossing = crossing(sim.now, sim.w, target);
                if crossing <= t {
                    sim.advance_clock(crossing);
                    return Some(sim.now);
                }
            }
            let (t, event) = sim.timers.pop_before(t).expect("the peeked event is due");
            fire(sim, t, event);
        }
        Some(sim.now)
    }
}

mod kernel_oracle {
    use super::*;
    use proptest::prelude::*;

    /// A random configuration: the application cycle (jitter, zero app
    /// data, compute fraction 1, data writes that outlast a cycle),
    /// I/O-node state at the cycle's end (slow file-system writes, I/O
    /// failures), and checkpoint intervals long enough that nothing but
    /// the cycle runs for hours.
    #[derive(Debug, Clone)]
    struct Case {
        procs: u64,
        mttf_years: Option<f64>,
        io_failures: bool,
        compute_fraction: f64,
        jitter: Option<(f64, f64)>,
        app_data_mb: f64,
        fs_bandwidth: f64,
        interval_mins: f64,
        coordination: CoordinationMode,
        spatial: Option<f64>,
        seed: u64,
        /// `(warm-up, work target, last leg)`, see [`Leg`].
        legs: (Leg, Leg, Leg),
    }

    /// A span of simulated time or of useful work: whole application
    /// cycles (so a horizon or target lands on a cycle boundary when
    /// nothing but the cycle ran), a compute phase past them, or any
    /// number of seconds.
    #[derive(Debug, Clone, Copy)]
    enum Leg {
        Cycles(u32),
        CyclesAndCompute(u32),
        Secs(f64),
    }

    impl Leg {
        fn secs(self, cfg: &SystemConfig) -> f64 {
            let period = cfg.app_cycle_period().as_secs();
            match self {
                Leg::Cycles(n) => f64::from(n) * period,
                Leg::CyclesAndCompute(n) => f64::from(n) * period + cfg.compute_phase().as_secs(),
                Leg::Secs(s) => s,
            }
        }
    }

    fn leg() -> impl Strategy<Value = Leg> {
        prop_oneof![
            2 => (0u32..400).prop_map(Leg::Cycles),
            2 => (0u32..400).prop_map(Leg::CyclesAndCompute),
            3 => (0.0f64..80_000.0).prop_map(Leg::Secs),
        ]
    }

    fn case() -> impl Strategy<Value = Case> {
        (
            prop_oneof![Just(8_192u64), Just(65_536), Just(262_144)],
            prop_oneof![
                1 => Just(None),
                3 => prop_oneof![Just(0.05), Just(0.25), Just(1.0)].prop_map(Some),
            ],
            prop_oneof![3 => Just(true), 1 => Just(false)],
            prop_oneof![3 => Just(0.95), 1 => Just(1.0), 1 => Just(0.5)],
            prop_oneof![
                2 => Just(None),
                1 => Just(Some((0.6, 0.95))),
                1 => Just(Some((0.88, 1.0))),
            ],
            prop_oneof![3 => Just(10.0), 1 => Just(0.0), 1 => Just(400.0)],
            prop_oneof![3 => Just(125.0), 1 => Just(25.0)],
            prop_oneof![3 => Just(30.0), 1 => Just(7.0), 1 => Just(60_000.0)],
            prop_oneof![
                Just(CoordinationMode::FixedQuiesce),
                Just(CoordinationMode::SystemExponential),
                Just(CoordinationMode::MaxOfN),
            ],
            prop_oneof![3 => Just(None), 1 => Just(Some(0.3))],
            0u64..1 << 40,
            (leg(), leg(), leg()),
        )
            .prop_map(|t| Case {
                procs: t.0,
                mttf_years: t.1,
                io_failures: t.2,
                compute_fraction: t.3,
                jitter: t.4,
                app_data_mb: t.5,
                fs_bandwidth: t.6,
                interval_mins: t.7,
                coordination: t.8,
                spatial: t.9,
                seed: t.10,
                legs: t.11,
            })
    }

    impl Case {
        fn config(&self) -> SystemConfig {
            let mut b = SystemConfig::builder()
                .processors(self.procs)
                .model_io_failures(self.io_failures)
                .compute_fraction(self.compute_fraction)
                .compute_fraction_jitter(self.jitter)
                .app_io_data_per_node_mb(self.app_data_mb)
                .fs_bandwidth_per_io_mbps(self.fs_bandwidth)
                .checkpoint_interval(SimTime::from_mins(self.interval_mins))
                .coordination(self.coordination)
                .spatial_correlation(self.spatial);
            b = match self.mttf_years {
                Some(years) => b.mttf_per_node(SimTime::from_years(years)),
                None => b.failures_enabled(false),
            };
            b.build().expect("valid oracle config")
        }
    }

    /// What a run leaves behind: the work-target completion, every
    /// `Metrics` bit, the clock, the event count, the RNG words drawn
    /// per stream and the queue-depth histogram.
    type Outcome = (
        Option<u64>,
        (Vec<u64>, Counters),
        u64,
        u64,
        Vec<u64>,
        Option<ckpt_des::LogHistogram>,
    );

    /// Warms up to a horizon, restarts the window, runs to a work target
    /// (before a deadline) and then on to a last horizon, on the engine
    /// or, with `reference`, on the oracle loop.
    fn run(case: &Case, cfg: &SystemConfig, reference: bool, probed: bool) -> Outcome {
        let mut sim = DirectSimulator::new(cfg, case.seed);
        if probed {
            sim.enable_telemetry();
        }
        let (warm, work, last) = case.legs;
        let until = |sim: &mut DirectSimulator<'_>, leg: Leg| {
            let horizon = sim.now() + SimTime::from_secs(leg.secs(cfg));
            if reference {
                reference::run_until(sim, horizon);
            } else {
                sim.run_until(horizon);
            }
        };
        until(&mut sim, warm);
        sim.reset_metrics();
        // A cycle-aligned target counts from construction, so it lands
        // on a cycle boundary when nothing but the cycle ran, and may be
        // reached already; any other counts from here.
        let target = match work {
            Leg::Secs(secs) => sim.w + secs,
            aligned => aligned.secs(cfg),
        };
        let deadline = sim.now() + SimTime::from_hours(30.0);
        let done = if reference {
            reference::run_until_useful_work(&mut sim, target, deadline)
        } else {
            sim.run_until_useful_work(target, deadline)
        };
        until(&mut sim, last);
        (
            done.map(|t| t.as_secs().to_bits()),
            metric_bits(&sim.metrics()),
            sim.now().as_secs().to_bits(),
            sim.events_processed(),
            sim.streams().iter().map(|r| r.words_drawn()).collect(),
            sim.telemetry_snapshot().map(|t| t.queue_depth),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The kernel changes no bit: probed and unprobed runs of the
        /// engine match the oracle loop in every output, the probe's
        /// queue-depth histogram included.
        #[test]
        fn the_kernel_runs_exactly_as_the_general_loop(case in case()) {
            let cfg = case.config();
            let oracle = run(&case, &cfg, true, true);
            let probed = run(&case, &cfg, false, true);
            prop_assert_eq!(&probed, &oracle);
            let plain = run(&case, &cfg, false, false);
            prop_assert_eq!(&plain.0, &oracle.0);
            prop_assert_eq!(&plain.1, &oracle.1);
            prop_assert_eq!((plain.2, plain.3), (oracle.2, oracle.3));
            prop_assert_eq!(&plain.4, &oracle.4);
            prop_assert_eq!(plain.5, None);
        }
    }
}
