//! What one workload run reports: operations attempted and failed,
//! output-check verdicts, metrics with units, and a digest of the
//! simulated statistics — plus the small order statistics the metrics
//! are computed with.

use std::collections::BTreeMap;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
struct Verdict {
    passed: u64,
    total: u64,
    first_failure: Option<String>,
}

/// Accumulates a workload run's outcome. An operation fails when any of
/// the output checks made on it fails.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    checks: BTreeMap<&'static str, Verdict>,
    pub metrics: Vec<Metric>,
    pub digest: Digest,
    /// Free-form lines printed with the result (e.g. simulated values).
    pub notes: Vec<String>,
    /// Σ over the parts of each part's median set-up time, in seconds.
    pub setup_s: f64,
    /// Σ over the parts of the median wall time of each part's traced
    /// body with the tracer off, and with it on.
    pub traced_walls: (f64, f64),
}

impl Report {
    /// Records one verdict of the check `name`; `detail` describes a
    /// failure and is only rendered when `ok` is false. Returns `ok`.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) -> bool {
        let v = self.checks.entry(name).or_default();
        v.total += 1;
        if ok {
            v.passed += 1;
        } else if v.first_failure.is_none() {
            v.first_failure = Some(detail());
        }
        ok
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds the median of a part's set-up times `secs` to `setup_s`.
    pub fn add_setup(&mut self, part: &str, secs: &[f64]) {
        let m = median(secs);
        self.setup_s += m;
        self.notes.push(format!(
            "setup_s: {part} {m:.4} s, median of {} set-ups",
            secs.len()
        ));
    }

    /// Adds the medians of a part's traced-body wall times with the
    /// tracer off and on to `traced_walls`.
    pub fn add_traced_walls(&mut self, off: &[f64], on: &[f64]) {
        self.traced_walls.0 += median(off);
        self.traced_walls.1 += median(on);
    }

    /// True when no operation failed and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.values().all(|v| v.passed == v.total)
    }

    /// One line per check: `check <name>: <passed>/<total> ok` or the
    /// first failure.
    pub fn check_lines(&self) -> Vec<String> {
        self.checks
            .iter()
            .map(|(name, v)| match &v.first_failure {
                None => format!("check {name}: {}/{} ok", v.passed, v.total),
                Some(why) => format!("check {name}: {}/{} FAILED ({why})", v.passed, v.total),
            })
            .collect()
    }
}

/// FNV-1a 64 over everything fed to it: the bits of the simulated
/// statistics, so two builds can be compared for bit-identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0]);
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

/// Median; the mean of the two middle values for an even count.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`
/// percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice, a NaN, or `p` outside `(0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of nothing");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.5), 1.0);
        // Ten samples: p50 is the 5th smallest, p99 the largest.
        let ten = [10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(percentile(&ten, 50.0), 5.0);
        assert_eq!(percentile(&ten, 99.0), 10.0);
        assert_eq!(percentile(&[2.5], 99.0), 2.5);
    }

    #[test]
    fn a_failed_check_fails_the_report() {
        let mut r = Report::default();
        let ok = r.check("a", true, || unreachable!());
        r.op(ok);
        assert!(r.correct());
        let ok = r.check("a", false, || "boom".into());
        r.op(ok);
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert_eq!(
            r.check_lines(),
            vec!["check a: 1/2 FAILED (boom)".to_string()]
        );
    }

    #[test]
    fn digest_sees_every_bit() {
        let digest = |x: f64| {
            let mut d = Digest::default();
            d.f64(x);
            d
        };
        assert_eq!(digest(0.1), digest(0.1));
        assert_ne!(digest(0.1), digest(f64::from_bits(0.1f64.to_bits() + 1)));
        assert_ne!(digest(0.1), Digest::default());
    }
}
