//! Online estimators and confidence intervals.
//!
//! The paper estimates steady-state measures by simulation "with an
//! initial transient period of 1000 hours" at "95 % confidence". This
//! module provides the matching machinery: Welford single-pass moments,
//! Student-t confidence intervals and a replication aggregator for
//! independent runs.

use std::fmt;

/// Single-pass (Welford) accumulator for mean and variance.
///
/// # Example
///
/// ```
/// use ckpt_stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> OnlineStats {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance.
    ///
    /// # Degenerate cases
    ///
    /// With fewer than two observations the sample variance is
    /// undefined (the `n − 1` denominator vanishes); this returns `0.0`
    /// rather than NaN so downstream interval arithmetic stays finite.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    ///
    /// # Degenerate cases
    ///
    /// Returns `0.0` for fewer than two observations (the guard on the
    /// empty set avoids `0/0 = NaN`; a single observation inherits the
    /// zero [`variance`](Self::variance)).
    #[must_use]
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation (`+inf` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−inf` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Two-sided confidence interval for the mean at the given level
    /// using the Student-t distribution (e.g. `0.95`).
    ///
    /// With fewer than two observations the interval is degenerate
    /// (half-width 0).
    #[must_use]
    pub fn confidence_interval(&self, level: f64) -> ConfidenceInterval {
        let half = if self.count < 2 {
            0.0
        } else {
            t_critical(level, self.count - 1) * self.std_error()
        };
        ConfidenceInterval {
            mean: self.mean(),
            half_width: half,
            level,
            count: self.count,
        }
    }

    /// Raw accumulator state `(count, mean, M2, min, max)` — the exact
    /// Welford internals, exposed so a checkpointing harness can
    /// persist an in-flight estimate and later restore it
    /// bit-identically with [`OnlineStats::from_state`].
    #[must_use]
    pub fn state(&self) -> (u64, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max)
    }

    /// Rebuilds an accumulator from state captured by
    /// [`OnlineStats::state`]. The restored accumulator continues the
    /// original Welford recurrence exactly: pushing the same subsequent
    /// observations yields bit-identical moments.
    #[must_use]
    pub fn from_state(count: u64, mean: f64, m2: f64, min: f64, max: f64) -> OnlineStats {
        OnlineStats {
            count,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A symmetric confidence interval `mean ± half_width`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate.
    pub mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
    /// Confidence level the interval was built for (e.g. 0.95).
    pub level: f64,
    /// Number of observations behind the estimate.
    pub count: u64,
}

impl ConfidenceInterval {
    /// Lower bound.
    #[must_use]
    pub fn low(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound.
    #[must_use]
    pub fn high(&self) -> f64 {
        self.mean + self.half_width
    }

    /// True if `value` lies inside the interval.
    #[must_use]
    pub fn contains(&self, value: f64) -> bool {
        value >= self.low() && value <= self.high()
    }
}

impl fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.6} ± {:.6} ({}% CI, n={})",
            self.mean,
            self.half_width,
            self.level * 100.0,
            self.count
        )
    }
}

/// Aggregates the per-replication means of independent simulation runs —
/// the estimation procedure used for every figure in the paper.
///
/// # Example
///
/// ```
/// use ckpt_stats::Replications;
///
/// let mut reps = Replications::new();
/// for m in [0.52, 0.55, 0.53, 0.54, 0.51] {
///     reps.push(m);
/// }
/// let ci = reps.confidence_interval(0.95);
/// assert!(ci.contains(0.53));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Replications {
    stats: OnlineStats,
    values: Vec<f64>,
}

impl Replications {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Replications {
        Replications::default()
    }

    /// Records the summary value of one replication.
    pub fn push(&mut self, replicate_mean: f64) {
        self.stats.push(replicate_mean);
        self.values.push(replicate_mean);
    }

    /// Number of replications recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Grand mean across replications.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// The recorded per-replication values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Confidence interval across replications.
    #[must_use]
    pub fn confidence_interval(&self, level: f64) -> ConfidenceInterval {
        self.stats.confidence_interval(level)
    }
}

impl FromIterator<f64> for Replications {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Replications {
        let mut r = Replications::new();
        for x in iter {
            r.push(x);
        }
        r
    }
}

/// Two-sided Student-t critical value `t_{(1+level)/2, df}`.
///
/// Exact tabulation for small degrees of freedom at the three standard
/// levels (0.90 / 0.95 / 0.99, interpolated otherwise), falling back to
/// the normal quantile plus the Cornish–Fisher `O(1/df)` correction for
/// larger `df` — accurate to ~1e-3, far below simulation noise.
#[must_use]
pub fn t_critical(level: f64, df: u64) -> f64 {
    assert!(
        (0.5..1.0).contains(&level),
        "confidence level must be in [0.5, 1), got {level}"
    );
    let z = normal_quantile(0.5 + level / 2.0);
    if df == 0 {
        return f64::INFINITY;
    }
    // Rows: df 1..=30; columns: level 0.90, 0.95, 0.99.
    const TABLE: [[f64; 3]; 30] = [
        [6.314, 12.706, 63.657],
        [2.920, 4.303, 9.925],
        [2.353, 3.182, 5.841],
        [2.132, 2.776, 4.604],
        [2.015, 2.571, 4.032],
        [1.943, 2.447, 3.707],
        [1.895, 2.365, 3.499],
        [1.860, 2.306, 3.355],
        [1.833, 2.262, 3.250],
        [1.812, 2.228, 3.169],
        [1.796, 2.201, 3.106],
        [1.782, 2.179, 3.055],
        [1.771, 2.160, 3.012],
        [1.761, 2.145, 2.977],
        [1.753, 2.131, 2.947],
        [1.746, 2.120, 2.921],
        [1.740, 2.110, 2.898],
        [1.734, 2.101, 2.878],
        [1.729, 2.093, 2.861],
        [1.725, 2.086, 2.845],
        [1.721, 2.080, 2.831],
        [1.717, 2.074, 2.819],
        [1.714, 2.069, 2.807],
        [1.711, 2.064, 2.797],
        [1.708, 2.060, 2.787],
        [1.706, 2.056, 2.779],
        [1.703, 2.052, 2.771],
        [1.701, 2.048, 2.763],
        [1.699, 2.045, 2.756],
        [1.697, 2.042, 2.750],
    ];
    if df <= 30 {
        let row = TABLE[(df - 1) as usize];
        // Piecewise-linear interpolation in the level dimension.
        let (levels, values) = ([0.90, 0.95, 0.99], row);
        if level <= levels[0] {
            return values[0] * z / normal_quantile(0.5 + levels[0] / 2.0);
        }
        if level >= levels[2] {
            return values[2] * z / normal_quantile(0.5 + levels[2] / 2.0);
        }
        let (i, j) = if level <= levels[1] { (0, 1) } else { (1, 2) };
        let w = (level - levels[i]) / (levels[j] - levels[i]);
        return values[i] + w * (values[j] - values[i]);
    }
    // Cornish–Fisher expansion of the t quantile around the normal one.
    let d = df as f64;
    z + (z * z * z + z) / (4.0 * d)
}

/// Standard normal quantile via the Acklam rational approximation
/// (|relative error| < 1.15e-9 over the open unit interval).
#[must_use]
pub fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal quantile needs p in (0,1), got {p}"
    );
    const A: [f64; 6] = [
        -39.696_830_286_653_76,
        220.946_098_424_520_8,
        -275.928_510_446_969_1,
        138.357_751_867_269,
        -30.664_798_066_147_16,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -54.476_098_798_224_06,
        161.585_836_858_040_9,
        -155.698_979_859_886_6,
        66.801_311_887_719_72,
        -13.280_681_552_885_72,
    ];
    const C: [f64; 6] = [
        -0.007_784_894_002_430_293,
        -0.322_396_458_041_136_4,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        0.007_784_695_709_041_462,
        0.322_467_129_070_039_8,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let data = [1.0, 2.5, 3.7, -4.0, 5.5, 0.0, 2.2];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), -4.0);
        assert_eq!(s.max(), 5.5);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
        let ci = s.confidence_interval(0.95);
        assert_eq!(ci.half_width, 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &data {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn state_round_trip_is_bit_identical() {
        let mut s = OnlineStats::new();
        for i in 0..17 {
            s.push((f64::from(i)).cos() * 3.5);
        }
        let (count, mean, m2, min, max) = s.state();
        let mut restored = OnlineStats::from_state(count, mean, m2, min, max);
        assert_eq!(restored, s);
        // The recurrence continues exactly from the restored state.
        s.push(0.25);
        restored.push(0.25);
        assert_eq!(restored.state(), s.state());
        assert_eq!(restored.mean().to_bits(), s.mean().to_bits());
    }

    #[test]
    fn normal_quantile_known_values() {
        assert!((normal_quantile(0.975) - 1.959_964).abs() < 1e-5);
        assert!((normal_quantile(0.95) - 1.644_854).abs() < 1e-5);
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.025) + 1.959_964).abs() < 1e-5);
    }

    #[test]
    fn t_critical_matches_tables() {
        assert!((t_critical(0.95, 1) - 12.706).abs() < 1e-3);
        assert!((t_critical(0.95, 9) - 2.262).abs() < 1e-3);
        assert!((t_critical(0.99, 9) - 3.250).abs() < 1e-3);
        assert!((t_critical(0.90, 29) - 1.699).abs() < 1e-3);
        // Large df approaches the normal quantile.
        assert!((t_critical(0.95, 1_000_000) - 1.959_964).abs() < 1e-3);
        // df in the Cornish–Fisher regime stays close to R's qt().
        assert!((t_critical(0.95, 40) - 2.021).abs() < 5e-3);
        assert!((t_critical(0.95, 100) - 1.984).abs() < 5e-3);
    }

    #[test]
    fn t_critical_is_decreasing_in_df() {
        let mut last = f64::INFINITY;
        for df in [1u64, 2, 5, 10, 30, 50, 100, 1000] {
            let t = t_critical(0.95, df);
            assert!(t < last, "t({df}) = {t} not below {last}");
            last = t;
        }
    }

    #[test]
    fn ci_contains_population_mean_usually() {
        // Deterministic data → degenerate check of the arithmetic.
        let mut s = OnlineStats::new();
        for x in [10.0, 12.0, 9.0, 11.0, 10.5, 9.5, 11.5, 10.0] {
            s.push(x);
        }
        let ci = s.confidence_interval(0.95);
        assert!(ci.contains(s.mean()));
        assert!(ci.low() < ci.mean && ci.mean < ci.high());
    }

    #[test]
    fn replications_aggregate() {
        let reps: Replications = [0.5, 0.52, 0.48, 0.51, 0.49].into_iter().collect();
        assert_eq!(reps.count(), 5);
        assert!((reps.mean() - 0.5).abs() < 1e-12);
        let ci = reps.confidence_interval(0.95);
        assert!(ci.contains(0.5));
        assert_eq!(reps.values().len(), 5);
    }

    #[test]
    fn degenerate_stats_stay_finite() {
        // count == 1: variance/std_error are defined as 0, not NaN.
        let mut s = OnlineStats::new();
        s.push(42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.std_error(), 0.0);
        let ci = s.confidence_interval(0.95);
        assert_eq!(ci.half_width, 0.0);
        assert_eq!(ci.mean, 42.0);
    }

    #[test]
    fn ci_display() {
        let ci = ConfidenceInterval {
            mean: 0.5,
            half_width: 0.01,
            level: 0.95,
            count: 10,
        };
        let s = ci.to_string();
        assert!(s.contains("95"));
        assert!(s.contains("n=10"));
    }
}
