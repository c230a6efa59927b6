//! Clock frequencies.
//!
//! Operating-point frequencies on mobile SoCs are discrete values published
//! by the vendor (e.g. the Adreno 430 steps 180/305/390/450/510/600 MHz), so
//! [`Hertz`] is backed by an integer: two operating points are either the
//! same frequency or they are not, and frequencies are usable as map keys.

use serde::{Deserialize, Serialize};

/// A clock frequency in hertz, backed by `u64`.
///
/// # Examples
///
/// ```
/// use mpt_units::Hertz;
///
/// let f = Hertz::from_mhz(600);
/// assert_eq!(f.as_mhz(), 600);
/// assert_eq!(format!("{f}"), "600 MHz");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Hertz(u64);

impl Hertz {
    /// The zero frequency (a powered-off component).
    pub const ZERO: Self = Self(0);

    /// Creates a frequency from a raw hertz count.
    #[must_use]
    pub const fn new(hz: u64) -> Self {
        Self(hz)
    }

    /// Creates a frequency from a megahertz count.
    #[must_use]
    pub const fn from_mhz(mhz: u64) -> Self {
        Self(mhz * 1_000_000)
    }

    /// Creates a frequency from a kilohertz count (the unit used by the
    /// Linux cpufreq sysfs interface).
    #[must_use]
    pub const fn from_khz(khz: u64) -> Self {
        Self(khz * 1_000)
    }

    /// Whole megahertz (truncating).
    #[must_use]
    pub const fn as_mhz(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Whole kilohertz (truncating), for sysfs-style interfaces.
    #[must_use]
    pub const fn as_khz(self) -> u64 {
        self.0 / 1_000
    }

    /// Frequency as a floating-point hertz value, for power/cycle math.
    #[must_use]
    pub const fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl core::fmt::Display for Hertz {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.0 >= 1_000_000 && self.0.is_multiple_of(1_000_000) {
            write!(f, "{} MHz", self.as_mhz())
        } else if self.0 >= 1_000 && self.0.is_multiple_of(1_000) {
            write!(f, "{} kHz", self.as_khz())
        } else {
            write!(f, "{} Hz", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mhz_khz_constructors_agree() {
        assert_eq!(Hertz::from_mhz(960), Hertz::from_khz(960_000));
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(Hertz::from_mhz(180).to_string(), "180 MHz");
        assert_eq!(Hertz::from_khz(32).to_string(), "32 kHz");
        assert_eq!(Hertz::new(7).to_string(), "7 Hz");
    }

    #[test]
    fn frequencies_order() {
        let mut opps = vec![
            Hertz::from_mhz(510),
            Hertz::from_mhz(180),
            Hertz::from_mhz(390),
        ];
        opps.sort();
        assert_eq!(
            opps,
            vec![
                Hertz::from_mhz(180),
                Hertz::from_mhz(390),
                Hertz::from_mhz(510)
            ]
        );
    }
}
