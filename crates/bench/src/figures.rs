//! Sweep definitions for every figure of the paper's evaluation
//! (Section 7). Each function returns the complete job description that
//! [`crate::sweep::run_sweep`] evaluates; `ckptsim figure <id>` looks
//! them up through [`find`].

use crate::sweep::{Cell, Metric};
use ckpt_core::config::{CoordinationMode, ErrorPropagation, GenericCorrelated};
use ckpt_core::SystemConfig;
use ckpt_des::SimTime;

/// A fully described figure: title, axis name, metric, series labels and
/// the cells to evaluate.
#[derive(Debug, Clone)]
pub struct FigureSpec {
    /// Human-readable title (matches the paper's caption).
    pub title: String,
    /// Name of the x axis.
    pub x_name: String,
    /// Metric plotted on the y axis.
    pub metric: Metric,
    /// Series labels.
    pub labels: Vec<String>,
    /// Cells to evaluate.
    pub cells: Vec<Cell>,
}

/// The paper's processor axis: 8K to 256K in powers of two.
pub const PROC_AXIS: [u64; 6] = [8_192, 16_384, 32_768, 65_536, 131_072, 262_144];
/// The paper's checkpoint-interval axis, minutes.
pub const INTERVAL_AXIS_MIN: [f64; 5] = [15.0, 30.0, 60.0, 120.0, 240.0];

fn base(procs: u64) -> ckpt_core::config::SystemConfigBuilder {
    SystemConfig::builder().processors(procs)
}

/// Figure 4a: total useful work vs. processors for MTTF ∈
/// {0.125,…,2} years (MTTR 10 min, interval 30 min).
#[must_use]
pub fn fig4a() -> FigureSpec {
    let mttfs = [0.125, 0.25, 0.5, 1.0, 2.0];
    let mut cells = Vec::new();
    let mut labels = Vec::new();
    for (s, &mttf) in mttfs.iter().enumerate() {
        labels.push(format!("MTTF (yrs) = {mttf}"));
        for &p in &PROC_AXIS {
            cells.push(Cell {
                series: s,
                x: p as f64,
                config: base(p)
                    .mttf_per_node(SimTime::from_years(mttf))
                    .build()
                    .expect("valid fig4a config"),
            });
        }
    }
    FigureSpec {
        title: "Figure 4a: Useful Work vs Number of Processors for different MTTFs \
                (MTTR = 10 mins, checkpoint interval = 30 mins)"
            .into(),
        x_name: "processors".into(),
        metric: Metric::TotalUsefulWork,
        labels,
        cells,
    }
}

/// Figure 4b: total useful work vs. checkpoint interval for each
/// processor count (MTTF 1 y, MTTR 10 min).
#[must_use]
pub fn fig4b() -> FigureSpec {
    let mut cells = Vec::new();
    let mut labels = Vec::new();
    for (s, &p) in PROC_AXIS.iter().enumerate() {
        labels.push(format!("processors = {p}"));
        for &mins in &INTERVAL_AXIS_MIN {
            cells.push(Cell {
                series: s,
                x: mins,
                config: base(p)
                    .checkpoint_interval(SimTime::from_mins(mins))
                    .build()
                    .expect("valid fig4b config"),
            });
        }
    }
    FigureSpec {
        title: "Figure 4b: Useful Work vs Checkpoint Interval for different numbers \
                of processors (MTTF per node = 1 yr, MTTR = 10 mins)"
            .into(),
        x_name: "interval_mins".into(),
        metric: Metric::TotalUsefulWork,
        labels,
        cells,
    }
}

/// Figure 4c: total useful work vs. processors for MTTR ∈ {10,20,40,80}
/// minutes (MTTF 1 y, interval 30 min).
#[must_use]
pub fn fig4c() -> FigureSpec {
    let mttrs = [10.0, 20.0, 40.0, 80.0];
    let mut cells = Vec::new();
    let mut labels = Vec::new();
    for (s, &mttr) in mttrs.iter().enumerate() {
        labels.push(format!("MTTR (mins) = {mttr}"));
        for &p in &PROC_AXIS {
            cells.push(Cell {
                series: s,
                x: p as f64,
                config: base(p)
                    .mttr_system(SimTime::from_mins(mttr))
                    .build()
                    .expect("valid fig4c config"),
            });
        }
    }
    FigureSpec {
        title: "Figure 4c: Useful Work vs Number of Processors for different MTTRs \
                (MTTF per node = 1 yr, chkpt_interval = 30 mins)"
            .into(),
        x_name: "processors".into(),
        metric: Metric::TotalUsefulWork,
        labels,
        cells,
    }
}

/// Figure 4d: total useful work vs. interval for MTTR ∈ {10,20,40,80}
/// minutes (64K processors, MTTF 1 y).
#[must_use]
pub fn fig4d() -> FigureSpec {
    let mttrs = [10.0, 20.0, 40.0, 80.0];
    let mut cells = Vec::new();
    let mut labels = Vec::new();
    for (s, &mttr) in mttrs.iter().enumerate() {
        labels.push(format!("MTTR (mins) = {mttr}"));
        for &mins in &INTERVAL_AXIS_MIN {
            cells.push(Cell {
                series: s,
                x: mins,
                config: base(65_536)
                    .mttr_system(SimTime::from_mins(mttr))
                    .checkpoint_interval(SimTime::from_mins(mins))
                    .build()
                    .expect("valid fig4d config"),
            });
        }
    }
    FigureSpec {
        title: "Figure 4d: Useful Work vs Checkpoint Interval for different MTTRs \
                (MTTF per node = 1 yr, number of processors = 65536)"
            .into(),
        x_name: "interval_mins".into(),
        metric: Metric::TotalUsefulWork,
        labels,
        cells,
    }
}

/// Figure 4e: total useful work vs. processors for each checkpoint
/// interval (MTTF 1 y, MTTR 10 min).
#[must_use]
pub fn fig4e() -> FigureSpec {
    let mut cells = Vec::new();
    let mut labels = Vec::new();
    for (s, &mins) in INTERVAL_AXIS_MIN.iter().enumerate() {
        labels.push(format!("chkpt_interval (mins) = {mins}"));
        for &p in &PROC_AXIS {
            cells.push(Cell {
                series: s,
                x: p as f64,
                config: base(p)
                    .checkpoint_interval(SimTime::from_mins(mins))
                    .build()
                    .expect("valid fig4e config"),
            });
        }
    }
    FigureSpec {
        title: "Figure 4e: Useful Work vs Number of Processors for different \
                checkpoint intervals (MTTF per node = 1 yr, MTTR = 10 mins)"
            .into(),
        x_name: "processors".into(),
        metric: Metric::TotalUsefulWork,
        labels,
        cells,
    }
}

/// Figure 4f: total useful work vs. interval for MTTF ∈ {1,…,16} years
/// (64K processors, MTTR 10 min).
///
/// The legend values are interpreted as **per-processor** MTTFs
/// (per-node MTTF = value / 8): only that reading reproduces the job-unit
/// sequence the paper quotes for the MTTF-8 curve (43000 → 40000 → 30000
/// at 15/30/60 minutes), which corresponds to a 1-year per-node MTTF.
#[must_use]
pub fn fig4f() -> FigureSpec {
    let mttfs = [1.0, 2.0, 4.0, 8.0, 16.0];
    let mut cells = Vec::new();
    let mut labels = Vec::new();
    for (s, &mttf) in mttfs.iter().enumerate() {
        labels.push(format!("MTTF per node (yrs) = {mttf}"));
        for &mins in &INTERVAL_AXIS_MIN {
            cells.push(Cell {
                series: s,
                x: mins,
                config: base(65_536)
                    .mttf_per_node(SimTime::from_years(mttf / 8.0))
                    .checkpoint_interval(SimTime::from_mins(mins))
                    .build()
                    .expect("valid fig4f config"),
            });
        }
    }
    FigureSpec {
        title: "Figure 4f: Useful Work vs Checkpoint Interval for different MTTFs \
                (MTTR = 10 mins, number of processors = 65536)"
            .into(),
        x_name: "interval_mins".into(),
        metric: Metric::TotalUsefulWork,
        labels,
        cells,
    }
}

/// Figures 4g/4h: total useful work vs. node count with 32 (g) or 16 (h)
/// processors per node, MTTF ∈ {1,2} years.
#[must_use]
pub fn fig4gh(procs_per_node: u32) -> FigureSpec {
    let nodes_axis: &[u64] = if procs_per_node == 32 {
        &[8_192, 16_384, 32_768]
    } else {
        &[8_192, 16_384, 32_768, 65_536]
    };
    let mut cells = Vec::new();
    let mut labels = Vec::new();
    for (s, &mttf) in [1.0, 2.0].iter().enumerate() {
        labels.push(format!("MTTF per node (yrs) = {mttf}"));
        for &nodes in nodes_axis {
            cells.push(Cell {
                series: s,
                x: nodes as f64,
                config: base(nodes * u64::from(procs_per_node))
                    .procs_per_node(procs_per_node)
                    .mttf_per_node(SimTime::from_years(mttf))
                    .build()
                    .expect("valid fig4gh config"),
            });
        }
    }
    let letter = if procs_per_node == 32 { 'g' } else { 'h' };
    FigureSpec {
        title: format!(
            "Figure 4{letter}: Variation of Total Useful Work with Number of Nodes, \
             Number of Processors/Node = {procs_per_node}"
        ),
        x_name: "nodes".into(),
        metric: Metric::TotalUsefulWork,
        labels,
        cells,
    }
}

/// Figure 5: useful work fraction vs. processors (1 → 2³⁰) under
/// coordination only — no failures, no timeout — for MTTQ ∈
/// {10, 2, 0.5} s.
#[must_use]
pub fn fig5() -> FigureSpec {
    let mttqs = [10.0, 2.0, 0.5];
    // Powers of four from 1 to 2^30, the paper's x axis.
    let procs: Vec<u64> = (0..=15).map(|k| 1u64 << (2 * k)).collect();
    let mut cells = Vec::new();
    let mut labels = Vec::new();
    for (s, &mttq) in mttqs.iter().enumerate() {
        labels.push(format!("MTTQ={mttq}s"));
        for &p in &procs {
            cells.push(Cell {
                series: s,
                x: p as f64,
                config: SystemConfig::builder()
                    .processors(p)
                    .procs_per_node(1)
                    .failures_enabled(false)
                    .coordination(CoordinationMode::MaxOfN)
                    .mttq(SimTime::from_secs(mttq))
                    .build()
                    .expect("valid fig5 config"),
            });
        }
    }
    FigureSpec {
        title: "Figure 5: Useful work fraction with coordination \
                (checkpoint interval = 30 min; no timeouts or failures)"
            .into(),
        x_name: "processors".into(),
        metric: Metric::UsefulWorkFraction,
        labels,
        cells,
    }
}

/// Figure 6: useful work fraction vs. processors with coordination,
/// timeouts and failures (MTTF 3 y, MTTQ 10 s, interval 30 min).
#[must_use]
pub fn fig6() -> FigureSpec {
    let mut cells = Vec::new();
    let mut labels = Vec::new();
    let mut add_series = |label: &str, mode: CoordinationMode, timeout: Option<f64>| {
        let s = labels.len();
        labels.push(label.to_string());
        for &p in &PROC_AXIS {
            cells.push(Cell {
                series: s,
                x: p as f64,
                config: base(p)
                    .mttf_per_node(SimTime::from_years(3.0))
                    .coordination(mode)
                    .timeout(timeout.map(SimTime::from_secs))
                    .build()
                    .expect("valid fig6 config"),
            });
        }
    };
    add_series("no coordination", CoordinationMode::SystemExponential, None);
    add_series("no timeout", CoordinationMode::MaxOfN, None);
    for t in [120.0, 100.0, 80.0, 60.0, 40.0, 20.0] {
        add_series(&format!("timeout={t}s"), CoordinationMode::MaxOfN, Some(t));
    }
    FigureSpec {
        title: "Figure 6: Useful work fraction with coordination and timeout \
                (MTTF per node = 3 yrs, checkpoint interval = 30 min)"
            .into(),
        x_name: "processors".into(),
        metric: Metric::UsefulWorkFraction,
        labels,
        cells,
    }
}

/// Figure 7: useful work fraction vs. probability of correlated failure
/// for `frate_correlated_factor` ∈ {400, 800, 1600} (256K processors,
/// MTTF 3 y, window 3 min).
#[must_use]
pub fn fig7() -> FigureSpec {
    let factors = [400.0, 800.0, 1_600.0];
    let probs = [0.0, 0.05, 0.10, 0.15, 0.20];
    let mut cells = Vec::new();
    let mut labels = Vec::new();
    for (s, &r) in factors.iter().enumerate() {
        labels.push(format!("frate_correlated_times={r}"));
        for &pe in &probs {
            cells.push(Cell {
                series: s,
                x: pe,
                config: base(262_144)
                    .mttf_per_node(SimTime::from_years(3.0))
                    .error_propagation(Some(ErrorPropagation {
                        probability: pe,
                        factor: r,
                        window: 180.0,
                    }))
                    .build()
                    .expect("valid fig7 config"),
            });
        }
    }
    FigureSpec {
        title: "Figure 7: Useful work fraction under correlated failures due to \
                error propagation (MTTF per node = 3 yrs, 256K processors, \
                window = 3 min)"
            .into(),
        x_name: "prob_correlated".into(),
        metric: Metric::UsefulWorkFraction,
        labels,
        cells,
    }
}

/// Figure 8: useful work fraction vs. processors with and without
/// generic correlated failures (α = 0.0025, r = 400, MTTF 3 y).
#[must_use]
pub fn fig8() -> FigureSpec {
    let mut cells = Vec::new();
    let labels = vec![
        "without correlated failure".to_string(),
        "with correlated failure".to_string(),
    ];
    for &p in &PROC_AXIS {
        cells.push(Cell {
            series: 0,
            x: p as f64,
            config: base(p)
                .mttf_per_node(SimTime::from_years(3.0))
                .build()
                .expect("valid fig8 config"),
        });
        cells.push(Cell {
            series: 1,
            x: p as f64,
            config: base(p)
                .mttf_per_node(SimTime::from_years(3.0))
                .generic_correlated(Some(GenericCorrelated {
                    coefficient: 0.0025,
                    factor: 400.0,
                }))
                .build()
                .expect("valid fig8 config"),
        });
    }
    FigureSpec {
        title: "Figure 8: Impact of generic correlated failures \
                (MTTF per node = 3 yrs, coefficient = 0.0025, factor = 400, \
                checkpoint interval = 30 min)"
            .into(),
        x_name: "processors".into(),
        metric: Metric::UsefulWorkFraction,
        labels,
        cells,
    }
}

/// Extension experiment (the paper mentions this result with "figures
/// not shown here"): the coordination effect is proportional to the
/// checkpoint frequency. Coordination-only (no failures, MTTQ 10 s),
/// useful work fraction vs. processors for several intervals.
#[must_use]
pub fn ext_frequency() -> FigureSpec {
    let intervals = [15.0, 30.0, 60.0, 120.0];
    let procs: Vec<u64> = (3..=15).map(|k| 1u64 << (2 * k)).collect();
    let mut cells = Vec::new();
    let mut labels = Vec::new();
    for (s, &mins) in intervals.iter().enumerate() {
        labels.push(format!("interval={mins}min"));
        for &p in &procs {
            cells.push(Cell {
                series: s,
                x: p as f64,
                config: SystemConfig::builder()
                    .processors(p)
                    .procs_per_node(1)
                    .failures_enabled(false)
                    .coordination(CoordinationMode::MaxOfN)
                    .checkpoint_interval(SimTime::from_mins(mins))
                    .build()
                    .expect("valid ext_frequency config"),
            });
        }
    }
    FigureSpec {
        title: "Extension: coordination effect vs checkpoint frequency \
                (no failures, MTTQ = 10 s; the paper's 'figures not shown')"
            .into(),
        x_name: "processors".into(),
        metric: Metric::UsefulWorkFraction,
        labels,
        cells,
    }
}

/// Extension experiment: coordination time grows proportionally to MTTQ
/// (the second of the paper's "figures not shown"). Useful work fraction
/// vs. MTTQ at a fixed machine size, coordination only.
#[must_use]
pub fn ext_mttq() -> FigureSpec {
    let mttqs = [0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0];
    let sizes = [65_536u64, 1_048_576, 16_777_216];
    let mut cells = Vec::new();
    let mut labels = Vec::new();
    for (s, &n) in sizes.iter().enumerate() {
        labels.push(format!("processors={n}"));
        for &mttq in &mttqs {
            cells.push(Cell {
                series: s,
                x: mttq,
                config: SystemConfig::builder()
                    .processors(n)
                    .procs_per_node(1)
                    .failures_enabled(false)
                    .coordination(CoordinationMode::MaxOfN)
                    .mttq(SimTime::from_secs(mttq))
                    .build()
                    .expect("valid ext_mttq config"),
            });
        }
    }
    FigureSpec {
        title: "Extension: coordination effect vs MTTQ \
                (no failures, interval = 30 min)"
            .into(),
        x_name: "mttq_secs".into(),
        metric: Metric::UsefulWorkFraction,
        labels,
        cells,
    }
}

/// Extension experiment: spatially correlated compute/I-O co-failures.
///
/// The paper models temporal correlation only ("We consider temporal
/// correlations in our model, but not spatial correlations"). This
/// extension quantifies what spatial correlation would do: when a
/// compute-node failure also takes down its I/O node (shared rack/power
/// domain) with probability `p`, the buffered checkpoint dies exactly
/// when the rollback needs it, forcing a stage-1 read of the older
/// file-system copy.
#[must_use]
pub fn ext_spatial() -> FigureSpec {
    let probs = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0];
    let mut labels = Vec::new();
    let mut cells = Vec::new();
    for (s, (procs, mttf)) in [(65_536u64, 1.0), (262_144, 1.0), (262_144, 0.5)]
        .into_iter()
        .enumerate()
    {
        labels.push(format!("procs={procs}, MTTF={mttf}y"));
        for &p in &probs {
            cells.push(Cell {
                series: s,
                x: p,
                config: SystemConfig::builder()
                    .processors(procs)
                    .mttf_per_node(SimTime::from_years(mttf))
                    .spatial_correlation(if p > 0.0 { Some(p) } else { None })
                    .build()
                    .expect("valid ext_spatial config"),
            });
        }
    }
    FigureSpec {
        title: "Extension: spatially correlated compute/I-O co-failures \
                (interval 30 min, MTTR 10 min)"
            .into(),
        x_name: "p_spatial".into(),
        metric: Metric::UsefulWorkFraction,
        labels,
        cells,
    }
}

/// The figures `ckptsim figure all` regenerates, keyed by id.
///
/// `ext_spatial` is deliberately outside this list: the benchmark's
/// figure sweep runs exactly these 14, so adding a figure here changes
/// what that workload measures. [`catalog`] adds it back for lookup.
#[must_use]
pub fn all_figures() -> Vec<(&'static str, FigureSpec)> {
    vec![
        ("fig4a", fig4a()),
        ("fig4b", fig4b()),
        ("fig4c", fig4c()),
        ("fig4d", fig4d()),
        ("fig4e", fig4e()),
        ("fig4f", fig4f()),
        ("fig4g", fig4gh(32)),
        ("fig4h", fig4gh(16)),
        ("fig5", fig5()),
        ("fig6", fig6()),
        ("fig7", fig7()),
        ("fig8", fig8()),
        ("ext_frequency", ext_frequency()),
        ("ext_mttq", ext_mttq()),
    ]
}

/// Every figure `ckptsim figure <id>` accepts: [`all_figures`] plus
/// [`ext_spatial`], in listing order.
#[must_use]
pub fn catalog() -> Vec<(&'static str, FigureSpec)> {
    let mut figures = all_figures();
    figures.push(("ext_spatial", ext_spatial()));
    figures
}

/// Looks a figure up by id in the [`catalog`].
#[must_use]
pub fn find(id: &str) -> Option<FigureSpec> {
    catalog()
        .into_iter()
        .find(|(fid, _)| *fid == id)
        .map(|(_, spec)| spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_is_well_formed() {
        for (id, spec) in catalog() {
            assert!(!spec.labels.is_empty(), "{id} has no series");
            assert!(!spec.cells.is_empty(), "{id} has no cells");
            let per_series = spec.cells.len() / spec.labels.len();
            assert_eq!(
                spec.cells.len(),
                per_series * spec.labels.len(),
                "{id}: cells must tile the series"
            );
            for c in &spec.cells {
                assert!(c.series < spec.labels.len(), "{id}: series out of range");
            }
        }
    }

    #[test]
    fn fig4a_matches_paper_parameters() {
        let f = fig4a();
        assert_eq!(f.labels.len(), 5);
        assert_eq!(f.cells.len(), 30);
        let c = &f.cells[0].config;
        assert_eq!(c.mttr_system().as_mins(), 10.0);
        assert_eq!(c.checkpoint_interval().as_mins(), 30.0);
        assert!((c.mttf_per_node().as_years() - 0.125).abs() < 1e-9);
    }

    #[test]
    fn fig5_disables_failures_and_uses_max_of_n() {
        let f = fig5();
        for c in &f.cells {
            assert!(!c.config.failures_enabled());
            assert_eq!(c.config.coordination(), CoordinationMode::MaxOfN);
        }
        // x axis reaches the paper's 2^30.
        let max_x = f.cells.iter().map(|c| c.x).fold(0.0f64, f64::max);
        assert_eq!(max_x, (1u64 << 30) as f64);
    }

    #[test]
    fn fig6_has_eight_series() {
        let f = fig6();
        assert_eq!(f.labels.len(), 8);
        assert_eq!(f.labels[0], "no coordination");
        assert!(f.labels.iter().any(|l| l == "timeout=20s"));
    }

    #[test]
    fn fig7_prob_zero_has_propagation_disabled_effectively() {
        let f = fig7();
        let zero = f.cells.iter().find(|c| c.x == 0.0).unwrap();
        let ep = zero.config.error_propagation().unwrap();
        assert_eq!(ep.probability, 0.0);
    }

    #[test]
    fn fig8_doubles_failure_rate() {
        let f = fig8();
        let with = f.cells.iter().find(|c| c.series == 1).unwrap();
        assert!(
            (with.config.generic_correlated_rate() - with.config.compute_failure_rate()).abs()
                < 1e-15
        );
    }
}
