//! Goodness-of-fit utilities: empirical CDFs and the one-sample
//! Kolmogorov–Smirnov test.
//!
//! Used throughout the test suites to validate the inverse-transform
//! samplers (most importantly the closed-form max-of-n-exponentials
//! coordination time) against their analytic CDFs, rather than just
//! matching a couple of moments.

use std::fmt;

/// An empirical cumulative distribution function over a sample.
///
/// # Example
///
/// ```
/// use ckpt_stats::gof::Ecdf;
///
/// let ecdf = Ecdf::new(vec![3.0, 1.0, 2.0, 2.0]);
/// assert_eq!(ecdf.eval(0.5), 0.0);
/// assert_eq!(ecdf.eval(2.0), 0.75);
/// assert_eq!(ecdf.eval(10.0), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample (NaNs are rejected).
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or contains NaN.
    #[must_use]
    pub fn new(mut sample: Vec<f64>) -> Ecdf {
        assert!(!sample.is_empty(), "ECDF needs a non-empty sample");
        assert!(
            sample.iter().all(|x| !x.is_nan()),
            "ECDF sample must not contain NaN"
        );
        sample.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
        Ecdf { sorted: sample }
    }

    /// `F̂(x)`: the fraction of the sample ≤ `x`.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point gives the count of elements <= x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Sample size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false ([`Ecdf::new`] rejects empty samples); provided for
    /// API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Empirical quantile (type-1 / inverse-CDF convention).
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1]`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
        let n = self.sorted.len();
        let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    /// The sorted sample.
    #[must_use]
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }
}

/// Result of a one-sample Kolmogorov–Smirnov test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// The KS statistic `D_n = sup |F̂(x) − F(x)|`.
    pub statistic: f64,
    /// Approximate p-value (Kolmogorov asymptotic distribution, accurate
    /// for n ≳ 35).
    pub p_value: f64,
    /// Sample size.
    pub n: usize,
}

impl KsResult {
    /// True if the null hypothesis (sample ~ F) survives at significance
    /// level `alpha`.
    #[must_use]
    pub fn accepts(&self, alpha: f64) -> bool {
        self.p_value > alpha
    }
}

impl fmt::Display for KsResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KS D={:.5}, p={:.4} (n={})",
            self.statistic, self.p_value, self.n
        )
    }
}

/// One-sample KS test of `sample` against the continuous CDF `cdf`.
///
/// # Panics
///
/// Panics if the sample is empty or contains NaN.
///
/// # Example
///
/// ```
/// use ckpt_des::SimRng;
/// use ckpt_stats::gof::ks_test;
///
/// let mut rng = SimRng::seed_from_u64(1);
/// let sample: Vec<f64> = (0..2000).map(|_| rng.exponential(2.0)).collect();
/// let result = ks_test(&sample, |x| 1.0 - (-2.0 * x).exp());
/// assert!(result.accepts(0.01), "{result}");
/// ```
pub fn ks_test<F: Fn(f64) -> f64>(sample: &[f64], cdf: F) -> KsResult {
    let ecdf = Ecdf::new(sample.to_vec());
    let n = ecdf.len();
    let nf = n as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in ecdf.sorted().iter().enumerate() {
        let f = cdf(x).clamp(0.0, 1.0);
        let upper = ((i + 1) as f64 / nf - f).abs();
        let lower = (f - i as f64 / nf).abs();
        d = d.max(upper).max(lower);
    }
    KsResult {
        statistic: d,
        p_value: kolmogorov_sf((nf.sqrt() + 0.12 + 0.11 / nf.sqrt()) * d),
        n,
    }
}

/// Survival function of the Kolmogorov distribution,
/// `Q(t) = 2 Σ_{k≥1} (−1)^{k−1} e^{−2k²t²}` (Stephens' approximation is
/// applied by the caller through the effective-n correction).
#[must_use]
pub fn kolmogorov_sf(t: f64) -> f64 {
    if t <= 0.0 {
        return 1.0;
    }
    if t > 5.0 {
        return 0.0;
    }
    let mut sum = 0.0;
    for k in 1..=100u32 {
        let term = (-2.0 * f64::from(k * k) * t * t).exp();
        sum += if k % 2 == 1 { term } else { -term };
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::sample_max_exponential;
    use ckpt_des::SimRng;

    #[test]
    fn ecdf_basics() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.len(), 4);
        assert!(!e.is_empty());
        assert_eq!(e.eval(0.0), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(0.5), 2.0);
        assert_eq!(e.quantile(1.0), 4.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn ecdf_rejects_empty() {
        let _ = Ecdf::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn ecdf_rejects_nan() {
        let _ = Ecdf::new(vec![1.0, f64::NAN]);
    }

    #[test]
    fn kolmogorov_sf_reference_values() {
        // Known: Q(0.8276) ≈ 0.5; Q(1.2238) ≈ 0.10; Q(1.3581) ≈ 0.05.
        assert!((kolmogorov_sf(0.8276) - 0.5).abs() < 0.01);
        assert!((kolmogorov_sf(1.2238) - 0.10).abs() < 0.005);
        assert!((kolmogorov_sf(1.3581) - 0.05).abs() < 0.005);
        assert_eq!(kolmogorov_sf(0.0), 1.0);
        assert_eq!(kolmogorov_sf(10.0), 0.0);
    }

    #[test]
    fn ks_accepts_correct_exponential() {
        let mut rng = SimRng::seed_from_u64(5);
        let sample: Vec<f64> = (0..5_000).map(|_| rng.exponential(0.5)).collect();
        let r = ks_test(&sample, |x| 1.0 - (-0.5 * x).exp());
        assert!(r.accepts(0.01), "{r}");
        assert!(r.statistic < 0.03);
    }

    #[test]
    fn ks_rejects_wrong_rate() {
        let mut rng = SimRng::seed_from_u64(6);
        let sample: Vec<f64> = (0..5_000).map(|_| rng.exponential(0.5)).collect();
        let r = ks_test(&sample, |x| 1.0 - (-x).exp());
        assert!(!r.accepts(0.01), "must reject a 2x-wrong rate: {r}");
    }

    #[test]
    fn max_exponential_sampler_matches_its_cdf() {
        // The core validation behind the Figure-5/6 machinery: the
        // closed-form sampler follows F(y) = (1 − e^{−λy})^n.
        for n in [16u64, 1_024, 65_536] {
            let mut rng = SimRng::seed_from_u64(7 + n);
            let sample: Vec<f64> = (0..4_000)
                .map(|_| sample_max_exponential(n, 0.1, &mut rng))
                .collect();
            let r = ks_test(&sample, |y| (1.0 - (-0.1 * y).exp()).powf(n as f64));
            assert!(r.accepts(0.01), "n={n}: {r}");
        }
    }

    #[test]
    fn ks_display() {
        let r = KsResult {
            statistic: 0.0123,
            p_value: 0.45,
            n: 100,
        };
        let s = r.to_string();
        assert!(s.contains("0.0123"));
        assert!(s.contains("n=100"));
    }
}
