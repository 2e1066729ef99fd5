//! The direct engine, pinned bit for bit.
//!
//! Every configuration class the direct simulator distinguishes runs a
//! 50 h transient and a 500 h window from a fixed seed; each window's
//! `Metrics` (every field, as IEEE-754 bits) and the event count must
//! equal the values below, which were captured from the engine when it
//! still dispatched through the general `ckpt_des::EventQueue`. The
//! engine's own future-event list may be reimplemented freely, but it
//! must pop events in the same `(time, FIFO)` order, so these values
//! never change. A mismatch is a regression, not a test to update.
//! The classes `no_app_io` (no I/O phase, so the app-phase timer is
//! cancelled) and `no_app_data_write` (zero-length data write) were
//! captured later from the timer-table engine, before its
//! config-derived durations became constants computed once per
//! simulator; no other class reaches those two branches.
//!
//! The last two were captured before the engine ran the application
//! cycle in its own inner loop. `app_cycle_to_horizon` (no failures, no
//! checkpoint within the run) ends its 180 s cycle exactly on both the
//! 50 h and the 550 h horizon, so a timer due at the limit fires.
//! `load_adaptive_policy` feeds the policy every recorded model event.
//! An application timer tied with the checkpoint trigger needs no class
//! of its own: `failures_disabled` reaches that tie at every checkpoint
//! (970 times in its window) and `table3_defaults` 666 times, the
//! trigger popping first each time.
//!
//! The last two classes were captured before the application cycle ran
//! on two timers held outside the table, each for the one branch of
//! that cycle no earlier class reached (counted on an instrumented
//! copy): `ckpt_write_outlasts_cycle` (a 655 s file-system write, so the
//! I/O phase ends while a checkpoint write keeps the I/O nodes busy)
//! and `app_data_outlasts_cycle` (a 205 s app-data write, so it ends
//! while the previous cycle's data is still being written). The
//! `JOBS` pins of `run_until_useful_work` were captured then too: no
//! earlier pin stopped the cycle at the work-target crossing, and two
//! of them put the crossing exactly on an application timer's due time.
//!
//! Each class also runs with both `QueueKind`s passed to
//! `DirectSimulator::with_queue`: the choice must not change a bit.

use ckptsim::des::SimTime;
use ckptsim::model::config::{ErrorPropagation, GenericCorrelated, RecoveryTimeModel};
use ckptsim::model::direct::DirectSimulator;
use ckptsim::model::{CoordinationMode, Metrics, PhaseKind, PolicySpec, QueueKind, SystemConfig};

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

fn classes() -> Vec<(&'static str, SystemConfig, Row)> {
    let b = SystemConfig::builder;
    let harsh = || b().mttf_per_node(SimTime::from_years(0.25));
    let build = |builder: ckptsim::model::config::SystemConfigBuilder| {
        builder.build().expect("valid golden config")
    };
    vec![
        ("table3_defaults", build(b()), TABLE3_DEFAULTS),
        (
            "timeout_600s_max_of_n",
            build(
                b().processors(65_536)
                    .coordination(CoordinationMode::MaxOfN)
                    .timeout(Some(SimTime::from_secs(600.0))),
            ),
            TIMEOUT_600S_MAX_OF_N,
        ),
        (
            "timeout_60s_max_of_n",
            build(
                b().processors(65_536)
                    .coordination(CoordinationMode::MaxOfN)
                    .timeout(Some(SimTime::from_secs(60.0))),
            ),
            TIMEOUT_60S_MAX_OF_N,
        ),
        (
            "fixed_quiesce",
            build(harsh().coordination(CoordinationMode::FixedQuiesce)),
            FIXED_QUIESCE,
        ),
        (
            "system_exponential",
            build(harsh().coordination(CoordinationMode::SystemExponential)),
            SYSTEM_EXPONENTIAL,
        ),
        (
            "error_propagation",
            build(harsh().error_propagation(Some(ErrorPropagation {
                probability: 0.3,
                factor: 800.0,
                window: 180.0,
            }))),
            ERROR_PROPAGATION,
        ),
        (
            "generic_correlated",
            build(b().generic_correlated(Some(GenericCorrelated {
                coefficient: 0.0025,
                factor: 400.0,
            }))),
            GENERIC_CORRELATED,
        ),
        (
            "spatial_correlation",
            build(harsh().spatial_correlation(Some(0.3))),
            SPATIAL_CORRELATION,
        ),
        (
            "compute_fraction_jitter",
            build(harsh().compute_fraction_jitter(Some((0.6, 0.95)))),
            COMPUTE_FRACTION_JITTER,
        ),
        (
            "deterministic_recovery",
            build(harsh().recovery_time_model(RecoveryTimeModel::Deterministic)),
            DETERMINISTIC_RECOVERY,
        ),
        (
            "lognormal_recovery",
            build(harsh().recovery_time_model(RecoveryTimeModel::LogNormal { cv: 1.5 })),
            LOGNORMAL_RECOVERY,
        ),
        (
            "no_buffered_recovery",
            build(harsh().buffered_recovery(false)),
            NO_BUFFERED_RECOVERY,
        ),
        (
            "no_background_write",
            build(harsh().background_checkpoint_write(false)),
            NO_BACKGROUND_WRITE,
        ),
        (
            "severe_failures_reboot",
            build(
                b().processors(262_144)
                    .mttf_per_node(SimTime::from_years(0.25))
                    .severe_failure_threshold(1),
            ),
            SEVERE_FAILURES_REBOOT,
        ),
        (
            "failures_disabled",
            build(b().failures_enabled(false)),
            FAILURES_DISABLED,
        ),
        ("no_app_io", build(harsh().compute_fraction(1.0)), NO_APP_IO),
        (
            "no_app_data_write",
            build(harsh().app_io_data_per_node_mb(0.0)),
            NO_APP_DATA_WRITE,
        ),
        (
            "app_cycle_to_horizon",
            build(
                b().failures_enabled(false)
                    .checkpoint_interval(SimTime::from_hours(1_000.0)),
            ),
            APP_CYCLE_TO_HORIZON,
        ),
        (
            "load_adaptive_policy",
            build(harsh().policy(PolicySpec::load_adaptive_default())),
            LOAD_ADAPTIVE_POLICY,
        ),
        (
            "ckpt_write_outlasts_cycle",
            build(harsh().fs_bandwidth_per_io_mbps(25.0)),
            CKPT_WRITE_OUTLASTS_CYCLE,
        ),
        (
            "app_data_outlasts_cycle",
            build(harsh().app_io_data_per_node_mb(400.0)),
            APP_DATA_OUTLASTS_CYCLE,
        ),
    ]
}

#[test]
fn every_configuration_class_reproduces_its_pinned_window() {
    for (i, (what, cfg, golden)) in classes().into_iter().enumerate() {
        for queue in [QueueKind::IndexedHeap, QueueKind::Calendar] {
            let mut sim = DirectSimulator::with_queue(&cfg, 1_000 + i as u64, queue);
            sim.run(SimTime::from_hours(50.0));
            sim.reset_metrics();
            sim.run(SimTime::from_hours(500.0));
            let got = row(&sim.metrics(), sim.events_processed());
            assert_eq!(
                got, golden,
                "{what} ({queue:?}) diverged from its pinned window"
            );
        }
    }
}

#[test]
fn job_completion_time_is_pinned() {
    let cfg = SystemConfig::builder()
        .mttf_per_node(SimTime::from_years(0.25))
        .build()
        .expect("valid golden config");
    let mut sim = DirectSimulator::new(&cfg, 77);
    let done = sim
        .run_until_useful_work(
            SimTime::from_hours(200.0).as_secs(),
            SimTime::from_hours(10_000.0),
        )
        .expect("the job finishes before the deadline");
    assert_eq!(
        (done.as_secs().to_bits(), sim.events_processed()),
        JOB_COMPLETION
    );
}

/// `(completion time in seconds as bits, events processed)`.
const JOB_COMPLETION: (u64, u64) = (0x414f_d6ef_83ef_9491, 42698);

#[test]
fn job_completions_at_the_work_crossing_are_pinned() {
    let b = SystemConfig::builder;
    let harsh = || b().mttf_per_node(SimTime::from_years(0.25));
    let no_checkpoint = || {
        b().failures_enabled(false)
            .checkpoint_interval(SimTime::from_hours(1_000.0))
    };
    let cases = [
        (b().failures_enabled(false), 200.0 * 3600.0 + 1_000.0),
        // 20 whole cycles and then a compute phase: the crossing falls
        // exactly on the `AppPhaseEnd` due time.
        (no_checkpoint(), 171.0 + 20.0 * 180.0),
        // Exactly 20 cycles: the crossing is the 20th cycle's end.
        (no_checkpoint(), 20.0 * 180.0),
        (
            harsh().compute_fraction_jitter(Some((0.6, 0.95))),
            200.0 * 3600.0,
        ),
        (harsh().fs_bandwidth_per_io_mbps(25.0), 100.0 * 3600.0),
    ];
    for (i, ((builder, target), golden)) in cases.into_iter().zip(JOBS).enumerate() {
        let cfg = builder.build().expect("valid golden config");
        let mut sim = DirectSimulator::new(&cfg, 78 + i as u64);
        let done = sim
            .run_until_useful_work(target, SimTime::from_hours(10_000.0))
            .expect("the job finishes before the deadline");
        assert_eq!(
            (done.as_secs().to_bits(), sim.events_processed()),
            golden,
            "job {i}"
        );
    }
}

/// [`JOB_COMPLETION`]'s pair for each case of
/// `job_completions_at_the_work_crossing_are_pinned`.
const JOBS: [(u64, u64); 5] = [
    (0x4126_b259_2492_493e, 14015),
    (0x40ad_7600_0000_0000, 60),
    (0x40ac_2000_0000_0000, 58),
    (0x4150_1026_967f_3b05, 43224),
    (0x4142_1049_2952_2a02, 23206),
];

#[rustfmt::skip]
const TABLE3_DEFAULTS: Row = [
    31692, 0x413b_7740_0000_0000, 0x4131_fb59_14bf_e131, 0x4114_3349_a6a0_22e8,
    456, 8, 0, 0, 654, 0, 0, 0, 392, 65, 0, 0, 0,
    0x4137_082b_7e67_e9eb, 0x40b9_fb01_1095_7e80, 0x40de_1d7e_63fe_66c8, 0x410e_e51c_37bc_37db, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const TIMEOUT_600S_MAX_OF_N: Row = [
    30297, 0x413b_7740_0000_0000, 0x4130_7e44_759b_4651, 0x4116_3c3e_fa6f_94e2,
    481, 10, 0, 0, 601, 0, 0, 0, 411, 70, 0, 0, 0,
    0x4136_0d54_3437_2b89, 0x40ec_f171_489f_4bd4, 0x40db_aeec_c481_0f40, 0x4110_4e92_39c7_576c, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const TIMEOUT_60S_MAX_OF_N: Row = [
    29533, 0x413b_7740_0000_0000, 0x40a7_5359_5c77_8000, 0x4136_7937_b1d7_32ea,
    521, 14, 0, 0, 0, 612, 0, 0, 439, 85, 0, 0, 0,
    0x4136_84e1_5e85_6eaa, 0x40e2_04d0_eca1_da74, 0x0000_0000_0000_0000, 0x4111_88e0_6856_0a0a, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const FIXED_QUIESCE: Row = [
    19675, 0x413b_7740_0000_0000, 0x4110_96e1_353f_7d3d, 0x4124_7467_dcd2_8428,
    1879, 32, 0, 0, 151, 0, 1, 0, 1014, 880, 0, 0, 0,
    0x412c_bfd8_7772_42c7, 0x4098_c09f_53e5_8a00, 0x40bc_2388_cd99_67c0, 0x4129_ea00_2748_97a4, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const SYSTEM_EXPONENTIAL: Row = [
    19962, 0x413b_7740_0000_0000, 0x4111_e10a_5af6_0438, 0x4123_efe3_2616_8275,
    1896, 32, 0, 0, 163, 0, 0, 0, 970, 938, 0, 0, 0,
    0x412c_e068_5391_8491, 0x4097_a618_7a13_9c00, 0x40bf_9617_c387_0560, 0x4129_c318_70aa_6396, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const ERROR_PROPAGATION: Row = [
    112294, 0x413b_7740_0000_0000, 0x4110_5a32_4145_40ba, 0x4121_919c_25f3_0e10,
    83547, 1315, 0, 0, 151, 0, 2, 0, 919, 83488, 1, 546, 0,
    0x4129_beb5_4695_ae6d, 0x4099_23b9_b7f3_6800, 0x40bc_50e7_5126_f5c0, 0x412c_ce77_0dec_09f3, 0x40ac_2000_0000_0000,
];
#[rustfmt::skip]
const GENERIC_CORRELATED: Row = [
    26849, 0x413b_7740_0000_0000, 0x4126_9afa_6103_b245, 0x4120_e606_71f7_4f3a,
    470, 12, 0, 453, 413, 0, 1, 0, 691, 234, 0, 0, 0,
    0x4133_c080_697d_80bf, 0x40b0_7d30_6ee3_6080, 0x40d3_2903_c7d4_b4e8, 0x411d_6679_5bd1_2432, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const SPATIAL_CORRELATION: Row = [
    20491, 0x413b_7740_0000_0000, 0x4111_6680_2da9_a43f, 0x4123_20a1_c7d1_06f6,
    1822, 34, 0, 0, 164, 0, 0, 0, 927, 906, 0, 0, 531,
    0x412b_d3e1_dea5_d916, 0x409a_3391_3b9f_7a00, 0x40be_47d3_adb2_3ae0, 0x412a_d0f4_b160_f2b7, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const COMPUTE_FRACTION_JITTER: Row = [
    20407, 0x413b_7740_0000_0000, 0x4112_ad93_86a2_0c93, 0x4124_246d_e075_119e,
    1832, 23, 0, 0, 170, 0, 0, 0, 967, 874, 0, 0, 0,
    0x412d_7b37_a3c6_17e8, 0x409c_7cfc_6b18_fc00, 0x40c0_0e6e_aa3d_aaa0, 0x4129_24d0_235b_64f0, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const DETERMINISTIC_RECOVERY: Row = [
    19810, 0x413b_7740_0000_0000, 0x4112_3beb_f391_fd7e, 0x4123_d7cb_9ac9_963f,
    1860, 32, 0, 0, 167, 0, 1, 0, 985, 893, 0, 0, 0,
    0x412c_f5c1_9492_94fe, 0x409a_c01f_f145_dc00, 0x40be_f0c0_ca70_9420, 0x4129_ad7c_d9df_e6ec, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const LOGNORMAL_RECOVERY: Row = [
    23730, 0x413b_7740_0000_0000, 0x4116_b7a1_98b3_b81a, 0x4127_d536_796f_bc38,
    1853, 22, 0, 0, 206, 0, 1, 0, 1204, 658, 0, 0, 0,
    0x4131_9883_a2e4_cc22, 0x40a0_cb19_67d1_e000, 0x40c3_180c_c4dd_69c0, 0x4123_604d_6dbb_2035, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const NO_BUFFERED_RECOVERY: Row = [
    19667, 0x413b_7740_0000_0000, 0x410e_b0d7_8dd6_206c, 0x4122_0f4c_5cc8_00a0,
    1890, 29, 0, 0, 140, 0, 0, 0, 886, 1023, 0, 0, 0,
    0x4129_31c5_2bee_0e6a, 0x4096_e063_91c5_7000, 0x40ba_60d5_4527_a860, 0x412d_7c88_f7be_bf8e, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const NO_BACKGROUND_WRITE: Row = [
    19759, 0x413b_7740_0000_0000, 0x4111_e589_3833_0472, 0x4123_ad4a_9703_577d,
    1842, 30, 0, 0, 163, 0, 0, 0, 1009, 845, 0, 0, 0,
    0x412c_a00f_331c_d9b5, 0x409a_6c1a_e1b3_ea00, 0x40db_1dcc_7717_8f40, 0x4129_684c_5bb9_8fdc, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const SEVERE_FAILURES_REBOOT: Row = [
    2125, 0x413b_7740_0000_0000, 0x0000_0000_0000_0000, 0x40c7_e89b_a0c0_7a20,
    946, 12, 0, 0, 0, 0, 0, 0, 48, 908, 440, 0, 0,
    0x40c7_e89b_a0c0_7a20, 0x0000_0000_0000_0000, 0x0000_0000_0000_0000, 0x4108_e3bc_998e_e23b, 0x4138_2af7_358c_a2c5,
];
#[rustfmt::skip]
const FAILURES_DISABLED: Row = [
    37319, 0x413b_7740_0000_0000, 0x413a_9ffc_ea0e_a165, 0x0000_0000_0000_0000,
    0, 0, 0, 0, 970, 0, 0, 0, 0, 0, 0, 0, 0,
    0x413a_9ffc_ea0e_a165, 0x40c2_f200_0000_0000, 0x40e6_2be2_be2b_d364, 0x0000_0000_0000_0000, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const NO_APP_IO: Row = [
    4177, 0x413b_7740_0000_0000, 0x4110_edc7_5f81_f76f, 0x4124_2bc0_4a08_2d4b,
    1895, 26, 0, 0, 154, 0, 0, 0, 1017, 895, 0, 0, 0,
    0x412c_a2a3_f9c9_2903, 0x4099_7b40_b727_2f00, 0x40bd_3665_2cff_2660, 0x412a_04b1_9b81_4519, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const NO_APP_DATA_WRITE: Row = [
    14531, 0x413b_7740_0000_0000, 0x4110_2684_ade5_c079, 0x4123_fb2c_5838_4a9c,
    1984, 25, 0, 0, 148, 0, 0, 0, 1026, 968, 0, 0, 0,
    0x412c_0e6e_af2b_2ad9, 0x4098_db6c_160a_c700, 0x40bc_2cad_f62e_3fe0, 0x412a_9b4a_3edd_7344, 0x0000_0000_0000_0000,
];

#[rustfmt::skip]
const APP_CYCLE_TO_HORIZON: Row = [
    32999, 0x413b_7740_0000_0000, 0x413b_7740_0000_0000, 0x0000_0000_0000_0000,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0x413b_7740_0000_0000, 0x0000_0000_0000_0000, 0x0000_0000_0000_0000, 0x0000_0000_0000_0000, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const LOAD_ADAPTIVE_POLICY: Row = [
    27975, 0x413b_7740_0000_0000, 0x4124_0aa3_e63b_490d, 0x4101_a782_7bf3_481c,
    1902, 30, 0, 0, 2666, 0, 7, 0, 997, 918, 0, 0, 0,
    0x4128_7023_5c10_aef5, 0x40db_eb1b_362a_47c0, 0x40ff_3754_e868_f356, 0x4129_b819_2d30_e062, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const CKPT_WRITE_OUTLASTS_CYCLE: Row = [
    19275, 0x413b_7740_0000_0000, 0x4110_8cec_4bcf_4131, 0x4124_72a7_54fb_5c9d,
    1881, 23, 0, 0, 152, 0, 1, 0, 1008, 885, 0, 0, 0,
    0x412c_b91d_7ae2_fd36, 0x409a_3a77_6bb1_4900, 0x40c3_8cba_3551_9530, 0x4129_da12_6091_e3d1, 0x0000_0000_0000_0000,
];
#[rustfmt::skip]
const APP_DATA_OUTLASTS_CYCLE: Row = [
    16744, 0x413b_7740_0000_0000, 0x4111_5213_4cb5_c9a4, 0x4123_9e92_7146_7ab4,
    1917, 27, 0, 0, 158, 0, 0, 0, 1023, 911, 0, 0, 0,
    0x412c_479c_17a1_5f86, 0x409a_b800_0000_0000, 0x40c4_17fc_254a_a570, 0x412a_4927_f7c9_75e4, 0x0000_0000_0000_0000,
];
