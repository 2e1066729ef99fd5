//! Special functions used by the distributions and analytic models:
//! the harmonic numbers behind the max-of-`n` coordination moments.

/// Euler–Mascheroni constant.
pub const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

/// `n`-th harmonic number `H_n = Σ_{k=1..n} 1/k`.
///
/// Exact summation is used up to `n = 1_000_000`; beyond that the
/// asymptotic expansion `ln n + γ + 1/(2n) − 1/(12n²)` is used, whose
/// absolute error at the switch-over point is below 1e-25. This keeps the
/// function O(1) for the paper's Figure-5 sweep up to 10⁹ processors.
///
/// # Example
///
/// ```
/// let h4 = ckpt_stats::special::harmonic(4);
/// assert!((h4 - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
/// ```
#[must_use]
pub fn harmonic(n: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    if n <= 1_000_000 {
        // Sum smallest-first for floating-point accuracy.
        let mut acc = 0.0;
        for k in (1..=n).rev() {
            acc += 1.0 / k as f64;
        }
        acc
    } else {
        let x = n as f64;
        x.ln() + EULER_GAMMA + 1.0 / (2.0 * x) - 1.0 / (12.0 * x * x)
    }
}

/// Generalized harmonic number of order 2, `H_n^{(2)} = Σ 1/k²`,
/// used for the variance of the maximum of `n` exponentials:
/// `Var[Y] = H_n^{(2)} / λ²`.
#[must_use]
pub fn harmonic2(n: u64) -> f64 {
    const PI2_OVER_6: f64 = std::f64::consts::PI * std::f64::consts::PI / 6.0;
    if n == 0 {
        return 0.0;
    }
    if n <= 1_000_000 {
        let mut acc = 0.0;
        for k in (1..=n).rev() {
            let kf = k as f64;
            acc += 1.0 / (kf * kf);
        }
        acc
    } else {
        // ζ(2) − tail; tail ≈ 1/n − 1/(2n²) + 1/(6n³).
        let x = n as f64;
        PI2_OVER_6 - (1.0 / x - 1.0 / (2.0 * x * x) + 1.0 / (6.0 * x * x * x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_small_values() {
        assert_eq!(harmonic(0), 0.0);
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(2) - 1.5).abs() < 1e-15);
        assert!((harmonic(10) - 2.928_968_253_968_254).abs() < 1e-12);
    }

    #[test]
    fn harmonic_asymptotic_matches_exact_at_switchover() {
        let n = 1_000_000u64;
        let exact = harmonic(n);
        let x = n as f64;
        let asym = x.ln() + EULER_GAMMA + 1.0 / (2.0 * x) - 1.0 / (12.0 * x * x);
        assert!((exact - asym).abs() < 1e-10, "exact {exact} vs asym {asym}");
    }

    #[test]
    fn harmonic_is_monotone_across_switchover() {
        assert!(harmonic(1_000_001) > harmonic(1_000_000));
        assert!(harmonic(2_000_000) > harmonic(1_000_001));
    }

    #[test]
    fn harmonic2_converges_to_zeta2() {
        let h = harmonic2(100_000_000);
        let zeta2 = std::f64::consts::PI * std::f64::consts::PI / 6.0;
        assert!((h - zeta2).abs() < 1e-7);
    }

    #[test]
    fn harmonic2_small_values() {
        assert!((harmonic2(1) - 1.0).abs() < 1e-15);
        assert!((harmonic2(2) - 1.25).abs() < 1e-15);
        assert!((harmonic2(3) - (1.0 + 0.25 + 1.0 / 9.0)).abs() < 1e-14);
    }
}
