//! Dimensionless rates: frame rates and utilization ratios.

use serde::{Deserialize, Serialize};

use crate::impl_f64_quantity;

/// A frame rate in frames per second.
///
/// The paper's headline metric (Tables I and II) is the median FPS achieved
/// by each application with and without thermal throttling.
///
/// # Examples
///
/// ```
/// use mpt_units::Fps;
///
/// let before = Fps::new(35.0);
/// let after = Fps::new(23.0);
/// assert!((before.reduction_percent(after) - 34.285).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Fps(f64);

impl_f64_quantity!(Fps, "FPS");

impl Fps {
    /// Percentage reduction from `self` to `after`, as reported in the
    /// paper's Table I ("Percentage Reduction" column).
    ///
    /// Returns 0.0 when `self` is zero.
    #[must_use]
    pub fn reduction_percent(self, after: Fps) -> f64 {
        if self.0 <= 0.0 {
            0.0
        } else {
            (self.0 - after.0) / self.0 * 100.0
        }
    }
}

/// A dimensionless ratio clamped to `[0, 1]`, used for utilizations, duty
/// cycles and residency fractions.
///
/// The constructor saturates rather than panicking: utilization estimates
/// from noisy sampled data may slightly overshoot 1.0 and should be treated
/// as "fully busy" rather than poisoning downstream math.
///
/// # Examples
///
/// ```
/// use mpt_units::Ratio;
///
/// assert_eq!(Ratio::new(1.7), Ratio::ONE);
/// assert_eq!(Ratio::new(-0.2), Ratio::ZERO);
/// assert_eq!(Ratio::new(0.32).as_percent(), 32.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Ratio(f64);

impl Ratio {
    /// The empty ratio.
    pub const ZERO: Self = Self(0.0);
    /// The full ratio.
    pub const ONE: Self = Self(1.0);

    /// Creates a ratio, saturating into `[0, 1]`. NaN becomes 0.
    #[must_use]
    pub fn new(value: f64) -> Self {
        if value.is_nan() {
            Self(0.0)
        } else {
            Self(value.clamp(0.0, 1.0))
        }
    }

    /// The raw fraction in `[0, 1]`.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The ratio expressed as a percentage in `[0, 100]`.
    #[must_use]
    pub fn as_percent(self) -> f64 {
        self.0 * 100.0
    }
}

impl core::fmt::Display for Ratio {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*}%", prec, self.as_percent())
        } else {
            write!(f, "{}%", self.as_percent())
        }
    }
}

impl From<f64> for Ratio {
    fn from(value: f64) -> Self {
        Self::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reduction_matches_paper_table1() {
        // Paper.io: 35 -> 23 FPS is reported as 34%.
        let r = Fps::new(35.0).reduction_percent(Fps::new(23.0));
        assert_eq!(r.round() as i64, 34);
        // Stickman Hook: 59 -> 40 FPS is reported as 32%.
        let r = Fps::new(59.0).reduction_percent(Fps::new(40.0));
        assert_eq!(r.round() as i64, 32);
        // Amazon: 35 -> 28 FPS is reported as 20%.
        let r = Fps::new(35.0).reduction_percent(Fps::new(28.0));
        assert_eq!(r.round() as i64, 20);
        // Hangouts: 42 -> 38 FPS is reported as 10%.
        let r = Fps::new(42.0).reduction_percent(Fps::new(38.0));
        assert_eq!(r.round() as i64, 10);
        // Facebook: 35 -> 24 FPS is reported as 31%.
        let r = Fps::new(35.0).reduction_percent(Fps::new(24.0));
        assert_eq!(r.round() as i64, 31);
    }

    #[test]
    fn reduction_of_zero_baseline_is_zero() {
        assert_eq!(Fps::ZERO.reduction_percent(Fps::new(10.0)), 0.0);
    }

    #[test]
    fn ratio_saturates() {
        assert_eq!(Ratio::new(2.0), Ratio::ONE);
        assert_eq!(Ratio::new(-1.0), Ratio::ZERO);
        assert_eq!(Ratio::new(f64::NAN), Ratio::ZERO);
    }

    #[test]
    fn ratio_display() {
        assert_eq!(format!("{:.0}", Ratio::new(0.67)), "67%");
    }

    proptest! {
        #[test]
        fn prop_ratio_always_in_unit_interval(v in -10.0_f64..10.0) {
            let r = Ratio::new(v);
            prop_assert!((0.0..=1.0).contains(&r.value()));
        }
    }
}
