//! Simulation time quantities.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::impl_f64_quantity;

/// A time span in seconds.
///
/// Simulation timestamps and step sizes are `f64` seconds; conversions to
/// and from [`std::time::Duration`] are provided at the edges.
///
/// # Examples
///
/// ```
/// use mpt_units::Seconds;
/// use std::time::Duration;
///
/// let dt = Seconds::from_millis(100.0);
/// assert_eq!(dt, Seconds::new(0.1));
/// assert_eq!(Duration::from(dt), Duration::from_millis(100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Seconds(f64);

impl_f64_quantity!(Seconds, "s");

impl Seconds {
    /// Creates a span from milliseconds.
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Self(ms * 1e-3)
    }

    /// The span in milliseconds.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }
}

impl From<Duration> for Seconds {
    fn from(d: Duration) -> Self {
        Self(d.as_secs_f64())
    }
}

impl From<Seconds> for Duration {
    /// # Panics
    ///
    /// Panics if the span is negative or not finite (`Duration` cannot
    /// represent those).
    fn from(s: Seconds) -> Self {
        Duration::from_secs_f64(s.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn duration_round_trip() {
        let s = Seconds::new(2.5);
        assert_eq!(Seconds::from(Duration::from(s)), s);
    }

    #[test]
    fn millis_conversions() {
        assert_eq!(Seconds::from_millis(250.0).as_millis(), 250.0);
    }

    #[test]
    fn accumulating_steps() {
        let mut t = Seconds::ZERO;
        for _ in 0..10 {
            t += Seconds::from_millis(100.0);
        }
        assert!((t.value() - 1.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_millis_round_trip(ms in 0.0_f64..1e6) {
            let rt = Seconds::from_millis(ms).as_millis();
            prop_assert!((rt - ms).abs() < 1e-6);
        }
    }
}
