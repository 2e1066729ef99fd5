//! Parallelism must never change sampling: the same configuration and
//! seed produce byte-identical per-replication results no matter how
//! many worker threads run them. Replication `k` always draws from
//! seed `base_seed + k`, so a parallel run is a reordering of the same
//! sample paths — these tests pin that contract for both engines.

use ckptsim::des::SimTime;
use ckptsim::model::{EngineKind, Estimate, Experiment, SystemConfig};

const SEED: u64 = 0x0D15_EA5E;

fn experiment(cfg: &SystemConfig, engine: EngineKind, jobs: usize) -> Experiment {
    Experiment::new(cfg.clone())
        .engine(engine)
        .transient(SimTime::from_hours(100.0))
        .horizon(SimTime::from_hours(1_000.0))
        .replications(4)
        .seed(SEED)
        .jobs(jobs)
}

fn assert_bitwise_equal(a: &Estimate, b: &Estimate) {
    assert_eq!(a.replicates().len(), b.replicates().len());
    for (k, (x, y)) in a.replicates().iter().zip(b.replicates()).enumerate() {
        assert_eq!(
            x.useful_work_secs.to_bits(),
            y.useful_work_secs.to_bits(),
            "replication {k}: useful_work_secs diverged across worker counts"
        );
        assert_eq!(
            x.work_lost_secs.to_bits(),
            y.work_lost_secs.to_bits(),
            "replication {k}: work_lost_secs diverged across worker counts"
        );
        assert_eq!(x.counters, y.counters, "replication {k}: counters diverged");
    }
}

#[test]
fn direct_engine_is_identical_across_jobs() {
    let cfg = SystemConfig::builder().build().unwrap();
    let seq = experiment(&cfg, EngineKind::Direct, 1).run().unwrap();
    let par = experiment(&cfg, EngineKind::Direct, 8).run().unwrap();
    assert_bitwise_equal(&seq, &par);
}

#[test]
fn san_engine_is_identical_across_jobs() {
    let cfg = SystemConfig::builder().build().unwrap();
    let seq = experiment(&cfg, EngineKind::San, 1).run().unwrap();
    let par = experiment(&cfg, EngineKind::San, 8).run().unwrap();
    assert_bitwise_equal(&seq, &par);
}

/// Profiles ride along with every replication and carry real event
/// counts for both engines.
#[test]
fn profiles_report_events_for_both_engines() {
    let cfg = SystemConfig::builder().build().unwrap();
    for engine in [EngineKind::Direct, EngineKind::San] {
        let est = experiment(&cfg, engine, 2).run().unwrap();
        assert_eq!(est.profiles().len(), est.replicates().len());
        for p in est.profiles() {
            assert!(p.events > 0, "{engine:?}: replication processed no events");
            assert!(p.wall_secs >= 0.0);
        }
        assert!(est.total_wall_secs() > 0.0);
        assert!(est.events_per_sec() > 0.0, "{engine:?}: zero throughput");
    }
}
