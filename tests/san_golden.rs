//! The SAN engine, pinned bit for bit.
//!
//! Each paper configuration class the SAN engine supports runs a 50 h
//! transient and a 500 h window from a fixed seed under both
//! reactivation modes; each window's `Metrics` (every field, as
//! IEEE-754 bits) and the event count must equal the values below.
//! In a debug build every event of these runs also passes the
//! executor's full-scan checks (DESIGN §7d), so each row is the full
//! scan's row too.
//!
//! Those checks compare the executor with the full scan's semantics,
//! so they cannot see a change in draw or queue-operation order that
//! the full scan would make as well. This file can. The executor's
//! internals may be restructured freely, but a mismatch here is a
//! regression, not a value to update. Only a change to the SAN model's
//! semantics (ROADMAP item 1) may re-pin these rows, and it must list
//! every re-pinned value in CHANGES.md.

use ckptsim::des::SimTime;
use ckptsim::model::config::{ErrorPropagation, GenericCorrelated, RecoveryTimeModel};
use ckptsim::model::san_model::{CheckpointSan, RunOptions};
use ckptsim::model::{CoordinationMode, Metrics, PhaseKind, SystemConfig};
use ckptsim::obs::NoopObserver;
use ckptsim::san::ReactivationMode;

/// One window, flattened: `[events, window_secs, useful_work_secs,
/// work_lost_secs, <13 counters in declaration order>, <5 phase times
/// in PhaseKind::ALL order>]`, floats as bits.
type Row = [u64; 22];

fn row(m: &Metrics, events: u64) -> Row {
    let c = &m.counters;
    let p = |k| m.phase_times.get(k).to_bits();
    [
        events,
        m.window_secs.to_bits(),
        m.useful_work_secs.to_bits(),
        m.work_lost_secs.to_bits(),
        c.compute_failures,
        c.io_failures,
        c.master_failures,
        c.generic_failures,
        c.checkpoints_completed,
        c.checkpoints_aborted_timeout,
        c.checkpoints_aborted_io,
        c.checkpoints_aborted_master,
        c.recoveries,
        c.failed_recoveries,
        c.reboots,
        c.correlated_windows,
        c.spatial_co_failures,
        p(PhaseKind::Executing),
        p(PhaseKind::Coordinating),
        p(PhaseKind::Dumping),
        p(PhaseKind::Recovering),
        p(PhaseKind::Rebooting),
    ]
}

/// `(name, config, [resample row, lazy row])`.
fn classes() -> Vec<(&'static str, SystemConfig, [Row; 2])> {
    let b = SystemConfig::builder;
    let build = |builder: ckptsim::model::config::SystemConfigBuilder| {
        builder.build().expect("valid golden config")
    };
    vec![
        ("baseline", build(b()), [BASELINE_RESAMPLE, BASELINE_LAZY]),
        (
            "large_system_with_timeout",
            build(
                b().processors(65_536)
                    .timeout(Some(SimTime::from_secs(600.0))),
            ),
            [LARGE_TIMEOUT_RESAMPLE, LARGE_TIMEOUT_LAZY],
        ),
        (
            "correlated_failures",
            build(
                b().error_propagation(Some(ErrorPropagation {
                    probability: 0.1,
                    factor: 10.0,
                    window: 180.0,
                }))
                .generic_correlated(Some(GenericCorrelated {
                    coefficient: 0.0025,
                    factor: 400.0,
                })),
            ),
            [CORRELATED_RESAMPLE, CORRELATED_LAZY],
        ),
        (
            "max_of_n_with_app_io",
            build(
                b().coordination(CoordinationMode::MaxOfN)
                    .compute_fraction(0.88),
            ),
            [MAX_OF_N_APP_IO_RESAMPLE, MAX_OF_N_APP_IO_LAZY],
        ),
        // Every `Keep` timer that can be exponential is: the system
        // quiesce (`coord`), recovery stage 2 and the I/O restart.
        (
            "exponential_timers",
            build(exponential_timers()),
            [EXPONENTIAL_TIMERS_RESAMPLE, EXPONENTIAL_TIMERS_LAZY],
        ),
        // A system MTTF of about three minutes: failure completions often
        // fall before the next deterministic timer.
        (
            "harsh_failures",
            build(b().mttf_per_node(SimTime::from_years(0.05))),
            [HARSH_FAILURES_RESAMPLE, HARSH_FAILURES_LAZY],
        ),
    ]
}

fn exponential_timers() -> ckptsim::model::config::SystemConfigBuilder {
    SystemConfig::builder()
        .coordination(CoordinationMode::SystemExponential)
        .recovery_time_model(RecoveryTimeModel::Exponential)
}

#[test]
fn every_configuration_class_reproduces_its_pinned_window() {
    for (i, (what, cfg, golden)) in classes().into_iter().enumerate() {
        let model = CheckpointSan::build(&cfg).expect("model builds");
        let modes = [ReactivationMode::Resample, ReactivationMode::Lazy];
        for (reactivation, golden) in modes.into_iter().zip(golden) {
            let outcome = model
                .run(&RunOptions {
                    seed: 2_000 + i as u64,
                    transient: SimTime::from_hours(50.0),
                    horizon: SimTime::from_hours(500.0),
                    reactivation,
                    ..RunOptions::default()
                })
                .expect("replication runs");
            assert_eq!(
                row(&outcome.metrics, outcome.events),
                golden,
                "{what} ({reactivation}) diverged from its pinned window"
            );
        }
    }
}

/// The hot-loop probes of the `exponential_timers` class (seed 2004),
/// which count every pending timer and every settled event: per
/// reactivation mode, `[queue_depth count, queue_depth sum, dirty_set
/// count, dirty_set sum, rng_draws]` over the transient and the window.
/// Metrics alone cannot see a probe that miscounts pending timers.
#[test]
fn exponential_timers_probes_reproduce_their_pinned_counts() {
    let model = CheckpointSan::build(&exponential_timers().build().unwrap()).unwrap();
    let modes = [ReactivationMode::Resample, ReactivationMode::Lazy];
    for (reactivation, golden) in modes.into_iter().zip(EXPONENTIAL_TIMERS_PROBES) {
        let opts = RunOptions {
            seed: 2_004,
            transient: SimTime::from_hours(50.0),
            horizon: SimTime::from_hours(500.0),
            reactivation,
            ..RunOptions::default()
        };
        let (_, telem) = model
            .run_observed(&opts, &mut NoopObserver, true)
            .expect("replication runs");
        let t = telem.expect("probes were on");
        let probes = [
            t.queue_depth.count(),
            t.queue_depth.sum(),
            t.dirty_set.count(),
            t.dirty_set.sum(),
            t.rng_draws,
        ];
        assert_eq!(
            probes, golden,
            "exponential_timers ({reactivation}) probes diverged"
        );
    }
}

#[rustfmt::skip]
const BASELINE_RESAMPLE: Row = [
    44126, 0x413b_7740_0000_0000, 0x4132_6846_5fbf_f5eb, 0x4113_ae9e_c521_bc2b,
    449, 12, 0, 0, 670, 0, 0, 0, 388, 0, 0, 0, 0,
    0x4137_53ee_1108_64f6, 0x40ba_a400_0000_0000, 0x40de_dae3_db5b_e890, 0x410c_6a12_fc51_5b3d, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const BASELINE_LAZY: Row = [
    43758, 0x413b_7740_0000_0000, 0x4131_b31a_1de3_e00a, 0x4116_0f74_9d85_0faa,
    466, 7, 0, 0, 646, 0, 0, 0, 402, 0, 0, 0, 0,
    0x4137_36f7_4545_23f4, 0x40b9_6400_0000_0000, 0x40dd_a89a_2498_27f0, 0x410d_8212_9143_db60, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const LARGE_TIMEOUT_RESAMPLE: Row = [
    43724, 0x413b_7740_0000_0000, 0x4131_daa8_10a3_c28e, 0x4115_58f8_72c5_d8c9,
    458, 7, 0, 0, 650, 0, 0, 0, 404, 0, 0, 0, 0,
    0x4137_30e6_2d55_38c0, 0x40b9_dae3_fcce_6500, 0x40de_04ad_cb23_3360, 0x410d_a361_bc0b_606e, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const LARGE_TIMEOUT_LAZY: Row = [
    43473, 0x413b_7740_0000_0000, 0x4131_ae4b_bbe3_8ae1, 0x4115_7bb3_db67_e781,
    480, 11, 0, 0, 643, 0, 0, 0, 419, 0, 0, 0, 0,
    0x4137_0d38_b2bd_84c2, 0x40b9_a46c_8010_da40, 0x40dd_aeec_168d_9e40, 0x410e_cd39_8341_9f57, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const CORRELATED_RESAMPLE: Row = [
    37812, 0x413b_7740_0000_0000, 0x4127_fe77_7ec3_266c, 0x4121_2d11_3885_1ee9,
    455, 8, 0, 485, 437, 0, 0, 0, 710, 0, 0, 0, 0,
    0x4134_95c4_5ba4_22ab, 0x40b1_b511_0da8_4ac0, 0x40d4_38f4_bce2_faa0, 0x4119_fb8b_016a_a482, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const CORRELATED_LAZY: Row = [
    37391, 0x413b_7740_0000_0000, 0x4127_8f26_301d_9e77, 0x4121_19c6_977a_b913,
    507, 6, 0, 523, 429, 0, 0, 0, 737, 0, 0, 0, 0,
    0x4134_5476_63cc_2bc5, 0x40b1_1f73_f4b3_ad00, 0x40d3_dc4f_6d5f_c738, 0x411b_08e3_aa26_85c4, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const MAX_OF_N_APP_IO_RESAMPLE: Row = [
    42267, 0x413b_7740_0000_0000, 0x4130_fdbb_3bf4_bc1c, 0x4115_bf50_6c77_5900,
    451, 3, 0, 0, 618, 0, 0, 0, 400, 0, 0, 0, 0,
    0x4136_6d8f_5712_925c, 0x40ed_8f7e_8513_6364, 0x40dc_6b37_dcef_3458, 0x410d_5c3e_aa88_adb8, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const MAX_OF_N_APP_IO_LAZY: Row = [
    42225, 0x413b_7740_0000_0000, 0x4130_c4db_7bb0_24bd, 0x4116_509b_7615_397f,
    483, 6, 0, 0, 611, 0, 0, 0, 409, 0, 0, 0, 0,
    0x4136_5902_5935_731d, 0x40ed_8330_14aa_ecf4, 0x40dc_3c4b_6a1a_54e0, 0x410e_0997_c3e6_6142, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const EXPONENTIAL_TIMERS_RESAMPLE: Row = [
    43272, 0x413b_7740_0000_0000, 0x4131_8e8a_1cbb_554e, 0x4115_7fa8_c544_4702,
    482, 3, 0, 0, 639, 0, 0, 0, 423, 0, 0, 0, 0,
    0x4136_ee74_4e0c_670e, 0x40b8_a6fc_a4a0_23a0, 0x40de_350b_d3cf_6618, 0x410f_ba84_2ffd_d9af, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const EXPONENTIAL_TIMERS_LAZY: Row = [
    43799, 0x413b_7740_0000_0000, 0x4132_2cdc_267e_6417, 0x4114_15ae_9bd7_f3fe,
    453, 8, 0, 0, 661, 0, 0, 0, 389, 0, 0, 0, 0,
    0x4137_3247_cd74_6117, 0x40b9_fcbf_429d_07a0, 0x40df_1d9a_0686_e468, 0x410d_7428_5977_327b, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const HARSH_FAILURES_RESAMPLE: Row = [
    19658, 0x413b_7740_0000_0000, 0xc042_f70e_f596_4000, 0x4119_96af_d8f3_e6de,
    9431, 155, 0, 0, 0, 0, 0, 0, 2199, 0, 0, 0, 0,
    0x4119_9618_207c_3a2c, 0x0000_0000_0000_0000, 0x0000_0000_0000_0000, 0x4135_11b9_f7e0_f175, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const HARSH_FAILURES_LAZY: Row = [
    19532, 0x413b_7740_0000_0000, 0x0000_0000_0000_0000, 0x4119_9624_7ce4_1597,
    9387, 160, 0, 0, 0, 0, 0, 0, 2207, 0, 0, 0, 0,
    0x4119_9624_7ce4_1596, 0x0000_0000_0000_0000, 0x0000_0000_0000_0000, 0x4135_11b6_e0c6_fa9a, 0x0000_0000_0000_0000,
];
const EXPONENTIAL_TIMERS_PROBES: [[u64; 5]; 2] = [
    [31458, 104256, 31458, 97965, 66252],
    [31815, 105473, 31815, 99094, 2433],
];
