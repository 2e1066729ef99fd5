//! Simulation time.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Error returned when constructing a [`SimTime`] from an invalid float.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeError {
    kind: TimeErrorKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimeErrorKind {
    NotFinite,
    Negative,
}

impl fmt::Display for TimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            TimeErrorKind::NotFinite => write!(f, "simulation time must be finite"),
            TimeErrorKind::Negative => write!(f, "simulation time must be non-negative"),
        }
    }
}

impl std::error::Error for TimeError {}

/// A point on (or duration along) the simulation clock, in seconds.
///
/// `SimTime` wraps an `f64` that is guaranteed finite and non-negative,
/// which makes it totally ordered (it implements [`Ord`]) and therefore
/// usable directly as a priority in the event queue.
///
/// Arithmetic saturates at zero on subtraction: the kernel never produces
/// negative times.
///
/// # Example
///
/// ```
/// use ckpt_des::SimTime;
///
/// let t = SimTime::from_secs(90.0);
/// assert_eq!(t.as_mins(), 1.5);
/// assert!(SimTime::from_hours(1.0) > t);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// The latest time at which the clock still resolves one second:
    /// 2⁵³ s, about 285 million years. Past it a one-second delay leaves
    /// the clock where it was, so the model's shorter delays would stall
    /// it; user-given durations and run lengths are bounded by it.
    pub const MAX_RESOLVED_SECS: f64 = 9_007_199_254_740_992.0;

    /// Constructs a time from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or infinite. Use
    /// [`SimTime::try_from_secs`] for a fallible version.
    #[must_use]
    pub fn from_secs(secs: f64) -> SimTime {
        match SimTime::try_from_secs(secs) {
            Ok(t) => t,
            Err(e) => panic!("invalid SimTime ({secs}): {e}"),
        }
    }

    /// Constructs a time from seconds, rejecting NaN, infinities and
    /// negative values.
    ///
    /// # Errors
    ///
    /// Returns [`TimeError`] when `secs` is not a finite non-negative
    /// number.
    pub fn try_from_secs(secs: f64) -> Result<SimTime, TimeError> {
        if !secs.is_finite() {
            Err(TimeError {
                kind: TimeErrorKind::NotFinite,
            })
        } else if secs < 0.0 {
            Err(TimeError {
                kind: TimeErrorKind::Negative,
            })
        } else {
            // `+ 0.0` canonicalizes -0.0 (which passes the sign check) to
            // +0.0, preserving the invariant that the wrapped bits of
            // equal times are equal — see `Ord`.
            Ok(SimTime(secs + 0.0))
        }
    }

    /// Constructs a time from minutes.
    #[must_use]
    pub fn from_mins(mins: f64) -> SimTime {
        SimTime::from_secs(mins * 60.0)
    }

    /// Constructs a time from hours.
    #[must_use]
    pub fn from_hours(hours: f64) -> SimTime {
        SimTime::from_secs(hours * 3600.0)
    }

    /// Constructs a time from years (Julian year = 8766 h, the convention
    /// used for MTTF figures in the DSN'05 paper's sources).
    #[must_use]
    pub fn from_years(years: f64) -> SimTime {
        SimTime::from_hours(years * 8766.0)
    }

    /// [`SimTime::from_mins`], rejecting what [`SimTime::try_from_secs`]
    /// rejects, a value whose conversion overflows included.
    ///
    /// # Errors
    ///
    /// As [`SimTime::try_from_secs`].
    pub fn try_from_mins(mins: f64) -> Result<SimTime, TimeError> {
        SimTime::try_from_secs(mins * 60.0)
    }

    /// [`SimTime::from_hours`], rejecting what [`SimTime::try_from_secs`]
    /// rejects, a value whose conversion overflows included.
    ///
    /// # Errors
    ///
    /// As [`SimTime::try_from_secs`].
    pub fn try_from_hours(hours: f64) -> Result<SimTime, TimeError> {
        SimTime::try_from_secs(hours * 3600.0)
    }

    /// [`SimTime::from_years`], rejecting what [`SimTime::try_from_secs`]
    /// rejects, a value whose conversion overflows included.
    ///
    /// # Errors
    ///
    /// As [`SimTime::try_from_secs`].
    pub fn try_from_years(years: f64) -> Result<SimTime, TimeError> {
        SimTime::try_from_hours(years * 8766.0)
    }

    /// The value in seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The value in minutes.
    #[must_use]
    pub fn as_mins(self) -> f64 {
        self.0 / 60.0
    }

    /// The value in hours.
    #[must_use]
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// The value in Julian years (8766 h).
    #[must_use]
    pub fn as_years(self) -> f64 {
        self.as_hours() / 8766.0
    }

    /// Returns the larger of two times.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Difference `self - other`, saturating at zero.
    #[must_use]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime((self.0 - other.0).max(0.0))
    }

    /// True if this is exactly the zero time.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// The IEEE-754 bits of the wrapped value. They order exactly like
    /// the times (see `Ord`), which lets the timer table pack a due time
    /// into an integer key.
    #[inline]
    pub(crate) fn to_bits(self) -> u64 {
        self.0.to_bits()
    }

    /// The time whose [`SimTime::to_bits`] is `bits`; only ever given
    /// bits taken from a valid time.
    #[inline]
    pub(crate) fn from_bits(bits: u64) -> SimTime {
        let t = SimTime(f64::from_bits(bits));
        debug_assert!(
            t.0.is_finite() && t.0.is_sign_positive(),
            "bits {bits:#x} are not a canonical SimTime"
        );
        t
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &SimTime) -> std::cmp::Ordering {
        // Invariant: the wrapped value is finite, non-negative, and never
        // -0.0 (canonicalized at construction), so the IEEE-754 bit
        // patterns order exactly like the values and one integer compare
        // decides. The engines' timer table relies on the same fact: it
        // packs these bits above a sequence number into one `u128` key
        // and never calls this method on its per-event path.
        self.0.to_bits().cmp(&other.0.to_bits())
    }
}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &SimTime) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    /// Saturating subtraction; the clock never goes negative.
    fn sub(self, rhs: SimTime) -> SimTime {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;

    fn mul(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;

    fn div(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 3600.0 {
            write!(f, "{:.3}h", self.as_hours())
        } else if self.0 >= 60.0 {
            write!(f, "{:.3}m", self.as_mins())
        } else {
            write!(f, "{:.3}s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_hours(2.0);
        assert_eq!(t.as_secs(), 7200.0);
        assert_eq!(t.as_mins(), 120.0);
        assert_eq!(t.as_hours(), 2.0);
    }

    #[test]
    fn years_use_julian_convention() {
        let t = SimTime::from_years(1.0);
        assert_eq!(t.as_hours(), 8766.0);
        assert!((t.as_years() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_nan_and_negative() {
        assert!(SimTime::try_from_secs(f64::NAN).is_err());
        assert!(SimTime::try_from_secs(f64::INFINITY).is_err());
        assert!(SimTime::try_from_secs(-1.0).is_err());
        assert!(SimTime::try_from_secs(0.0).is_ok());
    }

    #[test]
    fn fallible_unit_constructors_match_and_reject_overflow() {
        assert_eq!(SimTime::try_from_mins(1.5), Ok(SimTime::from_mins(1.5)));
        assert_eq!(SimTime::try_from_hours(2.0), Ok(SimTime::from_hours(2.0)));
        assert_eq!(SimTime::try_from_years(0.25), Ok(SimTime::from_years(0.25)));
        for convert in [
            SimTime::try_from_mins,
            SimTime::try_from_hours,
            SimTime::try_from_years,
        ] {
            assert!(convert(1e308).is_err(), "the conversion overflows");
            assert!(convert(-1.0).is_err());
            assert!(convert(f64::NAN).is_err());
        }
    }

    #[test]
    #[should_panic(expected = "invalid SimTime")]
    fn from_secs_panics_on_nan() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn negative_zero_is_canonicalized() {
        // -0.0 passes the sign check; it must collapse to +0.0 so the
        // bitwise Ord stays consistent with numeric equality.
        let t = SimTime::from_secs(-0.0);
        assert_eq!(t.as_secs().to_bits(), 0.0f64.to_bits());
        assert_eq!(t.cmp(&SimTime::ZERO), std::cmp::Ordering::Equal);
        assert!(t < SimTime::from_secs(1.0));
    }

    #[test]
    fn subtraction_saturates() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(5.0);
        assert_eq!(a - b, SimTime::ZERO);
        assert_eq!(b - a, SimTime::from_secs(4.0));
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            SimTime::from_secs(3.0),
            SimTime::ZERO,
            SimTime::from_secs(1.5),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::ZERO,
                SimTime::from_secs(1.5),
                SimTime::from_secs(3.0)
            ]
        );
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimTime::from_secs(1.0).to_string(), "1.000s");
        assert_eq!(SimTime::from_secs(90.0).to_string(), "1.500m");
        assert_eq!(SimTime::from_hours(3.0).to_string(), "3.000h");
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn scalar_mul_div() {
        let t = SimTime::from_secs(10.0);
        assert_eq!((t * 2.0).as_secs(), 20.0);
        assert_eq!((t / 4.0).as_secs(), 2.5);
    }
}
