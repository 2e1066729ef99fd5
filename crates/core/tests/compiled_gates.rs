//! Compiled-gate equivalence over the full checkpoint model.
//!
//! The DSN'05 composition declares fourteen input gates, all expressed
//! as [`ckpt_san::Pred`] trees so `San::build` compiles them into flat
//! gate programs. These tests instantiate a configuration that
//! materializes every one of them (timeout, application I/O cycle,
//! background data writes, master/IO/generic failure streams with error
//! propagation) and require the compiled enabling test to match the
//! trait-dispatch reference on randomized markings — reachable or not.

use ckpt_core::config::{ErrorPropagation, GenericCorrelated, SystemConfig};
use ckpt_core::san_model::CheckpointSan;
use ckpt_des::SimTime;
use proptest::prelude::*;

/// A configuration that instantiates all fourteen gated activities.
fn full_config() -> SystemConfig {
    SystemConfig::builder()
        .timeout(Some(SimTime::from_secs(60.0)))
        .error_propagation(Some(ErrorPropagation {
            probability: 0.1,
            factor: 400.0,
            window: 180.0,
        }))
        .generic_correlated(Some(GenericCorrelated {
            coefficient: 0.0025,
            factor: 400.0,
        }))
        .build()
        .expect("full config is valid")
}

/// The activities carrying the model's fourteen input gates.
const GATED_ACTIVITIES: [&str; 14] = [
    "checkpoint_trigger",        // system_executing
    "master_timeout",            // awaiting_ready
    "recv_quiesce_bcast",        // master_broadcasting
    "dump_chkpt",                // ionode_is_idle
    "start_coord",               // app_not_in_io
    "compute_phase",             // executing
    "io_phase",                  // executing_or_quiescing
    "drop_app_data",             // ionode_busy
    "write_app_data",            // (arc-only; pairs with drop_app_data)
    "comp_failure",              // not_rebooting
    "io_failure",                // not_rebooting
    "generic_failure",           // not_rebooting
    "master_failure",            // checkpoint_in_progress
    "recovery_from_wait_stage2", // buffered_and_io_up
];

#[test]
fn full_config_materializes_every_gated_activity() {
    let model = CheckpointSan::build(&full_config()).unwrap();
    let san = model.san();
    for name in GATED_ACTIVITIES {
        assert!(
            san.activity_by_name(name).is_some(),
            "activity '{name}' missing — the gate sweep would be incomplete"
        );
    }
    assert!(
        san.activity_by_name("recovery_from_wait_stage1").is_some(),
        "not_buffered gate's activity missing"
    );
}

#[test]
fn every_activity_lowers_to_place_masks() {
    // The benchmark's Table 3 point and the configuration with every
    // gate: no activity needs a token count or a gate program.
    for cfg in [SystemConfig::builder().build().unwrap(), full_config()] {
        let model = CheckpointSan::build(&cfg).unwrap();
        let san = model.san();
        for a in san.activity_ids() {
            assert!(
                san.enabled_by_masks_alone(a),
                "activity '{}' needs more than the place masks",
                san.activity_name(a)
            );
        }
    }
}

/// Pushes a deterministic pseudo-random token assignment into `m`.
fn randomize(m: &mut ckpt_san::Marking, san: &ckpt_san::San, mut state: u64) {
    for place in san.place_ids() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        m.set_tokens(place, (state >> 60) % 3);
    }
}

#[test]
fn compiled_enabling_matches_reference_on_random_markings() {
    let model = CheckpointSan::build(&full_config()).unwrap();
    let san = model.san();
    let mut m = san.initial_marking();
    for a in san.activity_ids() {
        assert_eq!(
            san.enabled_fast(a, &m),
            san.enabled_reference(a, &m),
            "diverged on the initial marking for {}",
            san.activity_name(a)
        );
    }
    for seed in 0..500u64 {
        randomize(&mut m, san, seed.wrapping_mul(0x9e3779b97f4a7c15));
        for a in san.activity_ids() {
            assert_eq!(
                san.enabled_fast(a, &m),
                san.enabled_reference(a, &m),
                "diverged under random marking (seed {seed}) for {}",
                san.activity_name(a)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Proptest leg: independent per-place token draws (including counts
    /// the model never reaches) across every gate in the composition.
    #[test]
    fn compiled_enabling_matches_reference_proptest(
        tokens in proptest::collection::vec(0u64..4, 1..64),
    ) {
        let model = CheckpointSan::build(&full_config()).unwrap();
        let san = model.san();
        let mut m = san.initial_marking();
        for (i, place) in san.place_ids().enumerate() {
            m.set_tokens(place, tokens[i % tokens.len()]);
        }
        for a in san.activity_ids() {
            prop_assert_eq!(
                san.enabled_fast(a, &m),
                san.enabled_reference(a, &m),
                "diverged for {}",
                san.activity_name(a)
            );
        }
    }
}
