//! The observability layer as seen from outside: protocol-order
//! invariants on both engines' traces, phase-time accounting that
//! telescopes to the window length, registry-vs-engine reconciliation,
//! and the guarantee that observers never perturb the simulation.

use ckptsim::des::SimTime;
use ckptsim::model::direct::DirectSimulator;
use ckptsim::model::san_model::CheckpointSan;
use ckptsim::model::{EngineKind, Experiment, ObserveSpec, SystemConfig};
use ckptsim::obs::TraceBuffer;

fn small_config(failures: bool) -> SystemConfig {
    SystemConfig::builder()
        .processors(8_192)
        .failures_enabled(failures)
        .build()
        .expect("valid config")
}

/// Collects a failure-free trace from either engine over `hours`.
fn traced(engine: EngineKind, hours: f64, seed: u64) -> TraceBuffer {
    let cfg = small_config(false);
    let horizon = SimTime::from_hours(hours);
    match engine {
        EngineKind::Direct => {
            let mut buf = TraceBuffer::new(1 << 14);
            let mut sim = DirectSimulator::new(&cfg, seed);
            sim.set_observer(&mut buf);
            sim.run(horizon);
            buf
        }
        EngineKind::San => {
            let (_, buf) = CheckpointSan::build(&cfg)
                .expect("SAN builds")
                .run_traced(seed, horizon, 1 << 14)
                .expect("SAN runs");
            buf
        }
    }
}

#[test]
fn checkpoint_lifecycle_order_holds_on_both_engines() {
    // Failure-free, the protocol must cycle strictly through
    // initiated → coordination complete → completed → on fs.
    const CYCLE: [&str; 4] = [
        "checkpoint_initiated",
        "coordination_complete",
        "checkpoint_completed",
        "checkpoint_on_fs",
    ];
    for engine in [EngineKind::Direct, EngineKind::San] {
        let trace = traced(engine, 50.0, 42);
        assert!(
            trace.len() >= 4 * 10,
            "{engine:?}: expected dozens of lifecycle events, got {}",
            trace.len()
        );
        for (i, entry) in trace.iter().enumerate() {
            assert_eq!(
                entry.event.key(),
                CYCLE[i % 4],
                "{engine:?}: lifecycle out of order at entry {i}"
            );
        }
        // Timestamps never go backwards.
        let times: Vec<f64> = trace.iter().map(|e| e.at.as_secs()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
}

#[test]
fn engines_produce_identical_failure_free_traces() {
    let direct = traced(EngineKind::Direct, 24.0, 7);
    let san = traced(EngineKind::San, 24.0, 7);
    assert_eq!(direct.len(), san.len(), "trace lengths differ");
    for (i, (d, s)) in direct.iter().zip(san.iter()).enumerate() {
        assert_eq!(d.event, s.event, "event mismatch at entry {i}");
        assert!(
            (d.at - s.at).as_secs().abs() < 1e-6,
            "time mismatch at entry {i}: direct {} vs san {}",
            d.at.as_secs(),
            s.at.as_secs()
        );
    }
}

fn observed_estimate(engine: EngineKind) -> ckptsim::model::Estimate {
    Experiment::new(small_config(true))
        .engine(engine)
        .transient(SimTime::from_hours(50.0))
        .horizon(SimTime::from_hours(500.0))
        .replications(2)
        .observe(ObserveSpec::full(1 << 14))
        .run()
        .expect("experiment runs")
}

#[test]
fn phase_times_telescope_to_window_length() {
    // The registry integrates phase transitions against sim time; the
    // increments telescope, so the per-phase sums must reproduce the
    // window length to floating-point accuracy on both engines.
    for engine in [EngineKind::Direct, EngineKind::San] {
        let est = observed_estimate(engine);
        assert_eq!(est.recordings().len(), 2);
        for (rep, rec) in est.recordings().iter().enumerate() {
            let reg = rec.registry();
            let window = reg.window_secs();
            assert!(window > 0.0);
            let total = reg.phase_times().total();
            assert!(
                (total - window).abs() <= 1e-9 * window,
                "{engine:?} rep {rep}: phases sum to {total}, window {window}"
            );
        }
    }
}

#[test]
fn registry_reconciles_with_engine_phase_estimates() {
    // The registry accumulates phase time from observed events only,
    // independently of the direct simulator's clock accounting and the
    // SAN engine's rate rewards — agreement is a real cross-check.
    for engine in [EngineKind::Direct, EngineKind::San] {
        let est = observed_estimate(engine);
        for (rep, rec) in est.recordings().iter().enumerate() {
            let reg = rec.registry();
            let metrics = &est.replicates()[rep];
            reg.reconcile(&metrics.phase_times, 1e-6)
                .unwrap_or_else(|e| panic!("{engine:?} rep {rep}: {e}"));
            // Counters line up with the engine's native ones too.
            assert_eq!(
                reg.count("checkpoint_completed"),
                metrics.counters.checkpoints_completed,
                "{engine:?} rep {rep}: checkpoint counter mismatch"
            );
            assert_eq!(
                reg.count("io_failure"),
                metrics.counters.io_failures,
                "{engine:?} rep {rep}: I/O failure counter mismatch"
            );
        }
    }
}

#[test]
fn observers_do_not_perturb_the_san_engine() {
    // (The direct engine's equivalent lives in ckpt-core's unit tests.)
    let run = |observe: bool| {
        let mut exp = Experiment::new(small_config(true))
            .engine(EngineKind::San)
            .transient(SimTime::from_hours(50.0))
            .horizon(SimTime::from_hours(500.0))
            .replications(2);
        if observe {
            exp = exp.observe(ObserveSpec::metrics());
        }
        exp.run().expect("experiment runs")
    };
    let plain = run(false);
    let observed = run(true);
    for (a, b) in plain.replicates().iter().zip(observed.replicates()) {
        assert_eq!(a.useful_work_secs, b.useful_work_secs);
        assert_eq!(a.window_secs, b.window_secs);
        assert_eq!(a.counters, b.counters);
    }
}

#[test]
fn recordings_are_identical_at_any_job_count() {
    let run = |jobs: usize| {
        Experiment::new(small_config(true))
            .transient(SimTime::from_hours(50.0))
            .horizon(SimTime::from_hours(500.0))
            .replications(4)
            .jobs(jobs)
            .observe(ObserveSpec::full(1 << 12))
            .run()
            .expect("experiment runs")
    };
    let seq = run(1);
    let par = run(4);
    assert_eq!(seq.recordings().len(), 4);
    assert_eq!(par.recordings().len(), 4);
    for (rep, (a, b)) in seq.recordings().iter().zip(par.recordings()).enumerate() {
        assert_eq!(a.registry(), b.registry(), "rep {rep}: registry differs");
        let (ta, tb) = (a.trace().unwrap(), b.trace().unwrap());
        assert_eq!(ta.len(), tb.len(), "rep {rep}: trace length differs");
        assert!(
            ta.iter().zip(tb.iter()).all(|(x, y)| x == y),
            "rep {rep}: trace entries differ"
        );
    }
}

#[test]
fn registry_reconciles_with_telemetry_enabled() {
    // The engine probes observation switches on must not disturb the
    // metrics pipeline: the registry still reconciles against the
    // engine's own phase accounting to 1e-6 relative tolerance.
    for engine in [EngineKind::Direct, EngineKind::San] {
        let est = Experiment::new(small_config(true))
            .engine(engine)
            .transient(SimTime::from_hours(50.0))
            .horizon(SimTime::from_hours(500.0))
            .replications(2)
            .observe(ObserveSpec::metrics())
            .run()
            .expect("experiment runs");
        for (rep, rec) in est.recordings().iter().enumerate() {
            let reg = rec.registry();
            let metrics = &est.replicates()[rep];
            reg.reconcile(&metrics.phase_times, 1e-6)
                .unwrap_or_else(|e| panic!("{engine:?} rep {rep}: {e}"));
        }
        let merged = est.merged_telemetry().expect("telemetry recorded");
        // Failure gaps come from the recorder; the rest from the
        // engine's own probes and counters.
        assert!(
            !merged.failure_gaps.is_empty(),
            "{engine:?}: no failure gaps"
        );
        assert!(merged.rng_draws > 0, "{engine:?}: no RNG draws counted");
        assert!(
            !merged.queue_depth.is_empty(),
            "{engine:?}: no queue depths"
        );
        if engine == EngineKind::San {
            assert!(!merged.dirty_set.is_empty(), "SAN: no dirty-set sizes");
        }
    }
}

#[test]
fn merged_telemetry_is_identical_at_any_job_count() {
    // Histograms merge in replication-index order regardless of which
    // worker finished first, so the merged JSON must be byte-identical
    // across serial and parallel runs.
    let run = |jobs: usize| {
        Experiment::new(small_config(true))
            .transient(SimTime::from_hours(50.0))
            .horizon(SimTime::from_hours(500.0))
            .replications(4)
            .jobs(jobs)
            .observe(ObserveSpec::metrics())
            .run()
            .expect("experiment runs")
            .merged_telemetry()
            .expect("telemetry recorded")
    };
    let seq = run(1);
    let par = run(8);
    assert_eq!(seq.to_json(), par.to_json());
}
