//! Versioned JSON rendering of hot-phase profiles.
//!
//! [`ckpt_des::prof`] attributes per-event wall time to seven hot
//! phases; this module turns an accumulated
//! [`PhaseProfile`](ckpt_des::prof::PhaseProfile) into the stable JSON
//! breakdown printed by `ckptsim run --profile-phases`. The schema is
//! versioned (`phase_schema_version`) so downstream tooling can detect
//! format changes; version 2 added the `event_dispatch` container
//! phase, the `activity_firing` phase, and the top-level
//! `attributed_share` field.

use crate::manifest::json_escape;
use ckpt_des::prof::{HotPhase, PhaseProfile};

/// Renders `profile` as a versioned JSON object.
///
/// * `label` — what was profiled (e.g. `fig4-65536-incremental`).
/// * `wall_secs` / `events` — the run's total wall time and event
///   count, used to derive per-phase `ns_per_event` and `share` (the
///   fraction of *attributed* time, not of total wall time — profiled
///   builds inflate wall time with the instrumentation itself, so
///   shares are the meaningful quantity).
///
/// The `unattributed_nanos` field is the wall time not covered by any
/// instrumented region (event-loop dispatch outside `step_event`, and
/// the instrumentation overhead itself); it is derived as
/// `wall - attributed` and floored at zero. `attributed_share` is
/// `attributed / wall` capped at 1 — with the `event_dispatch`
/// container spanning each event, it should stay above 0.9 on any
/// real run.
#[must_use]
pub fn phases_json(label: &str, profile: &PhaseProfile, wall_secs: f64, events: u64) -> String {
    let attributed = profile.total_nanos();
    let wall_nanos = (wall_secs * 1e9) as u64;
    let attributed_share = if wall_nanos > 0 {
        (attributed as f64 / wall_nanos as f64).min(1.0)
    } else {
        0.0
    };
    let mut s = String::from("{\n  \"phase_schema_version\": 2,\n");
    s.push_str(&format!("  \"label\": \"{}\",\n", json_escape(label)));
    s.push_str(&format!("  \"wall_secs\": {wall_secs:.6},\n"));
    s.push_str(&format!("  \"events\": {events},\n"));
    s.push_str(&format!("  \"attributed_nanos\": {attributed},\n"));
    s.push_str(&format!(
        "  \"unattributed_nanos\": {},\n",
        wall_nanos.saturating_sub(attributed)
    ));
    s.push_str(&format!("  \"attributed_share\": {attributed_share:.4},\n"));
    s.push_str("  \"phases\": [");
    for (i, phase) in HotPhase::ALL.iter().enumerate() {
        let idx = *phase as usize;
        let nanos = profile.nanos[idx];
        let count = profile.counts[idx];
        let ns_per_event = if events > 0 {
            nanos as f64 / events as f64
        } else {
            0.0
        };
        let share = if attributed > 0 {
            nanos as f64 / attributed as f64
        } else {
            0.0
        };
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"phase\": \"{}\", \"nanos\": {nanos}, \"count\": {count}, \
             \"ns_per_event\": {ns_per_event:.2}, \"share\": {share:.4}}}",
            phase.name()
        ));
    }
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profile_renders_zero_shares() {
        let j = phases_json("empty", &PhaseProfile::default(), 0.0, 0);
        assert!(j.contains("\"phase_schema_version\": 2"));
        assert!(j.contains("\"label\": \"empty\""));
        assert!(j.contains("\"attributed_nanos\": 0"));
        assert!(j.contains("\"attributed_share\": 0.0000"));
        for phase in HotPhase::ALL {
            assert!(j.contains(&format!("\"phase\": \"{}\"", phase.name())));
        }
        assert!(j.contains("\"share\": 0.0000"));
        assert!(j.ends_with("]\n}\n"));
    }

    #[test]
    fn shares_sum_over_attributed_time() {
        let mut p = PhaseProfile::default();
        p.nanos[HotPhase::DelaySampling as usize] = 600;
        p.counts[HotPhase::DelaySampling as usize] = 3;
        p.nanos[HotPhase::QueueOps as usize] = 400;
        p.counts[HotPhase::QueueOps as usize] = 8;
        let j = phases_json("two-phase", &p, 1e-6, 100);
        assert!(j.contains("\"attributed_nanos\": 1000"));
        // 1 µs wall = 1000 ns, fully attributed.
        assert!(j.contains("\"unattributed_nanos\": 0"));
        assert!(j.contains("\"attributed_share\": 1.0000"));
        assert!(j.contains(
            "\"phase\": \"delay_sampling\", \"nanos\": 600, \"count\": 3, \
             \"ns_per_event\": 6.00, \"share\": 0.6000"
        ));
        assert!(j.contains(
            "\"phase\": \"queue_ops\", \"nanos\": 400, \"count\": 8, \
             \"ns_per_event\": 4.00, \"share\": 0.4000"
        ));
    }

    #[test]
    fn attributed_share_is_capped_at_one() {
        // Instrumented nanos can exceed the measured wall time by a
        // hair (clock granularity); the share must never read > 1.
        let mut p = PhaseProfile::default();
        p.nanos[HotPhase::EventDispatch as usize] = 2_000;
        p.counts[HotPhase::EventDispatch as usize] = 1;
        let j = phases_json("over", &p, 1e-6, 10);
        assert!(j.contains("\"attributed_share\": 1.0000"));
        assert!(j.contains("\"unattributed_nanos\": 0"));
    }
}
