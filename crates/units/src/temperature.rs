//! Absolute temperatures in Kelvin and Celsius.

use serde::{Deserialize, Serialize};

use crate::impl_f64_quantity;

/// Conversion offset between the Kelvin and Celsius scales.
pub(crate) const KELVIN_OFFSET: f64 = 273.15;

/// An absolute temperature in Kelvin.
///
/// Kelvin is the base representation used by the thermal models (the
/// leakage law and the auxiliary-temperature transform are defined on an
/// absolute scale). Use [`Celsius`] at the user-facing edges.
///
/// # Examples
///
/// ```
/// use mpt_units::{Kelvin, Celsius};
///
/// let t = Kelvin::new(313.15);
/// assert_eq!(t.to_celsius(), Celsius::new(40.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Kelvin(f64);

impl_f64_quantity!(Kelvin, "K");

impl Kelvin {
    /// Converts to the Celsius scale.
    #[must_use]
    pub fn to_celsius(self) -> Celsius {
        Celsius::new(self.0 - KELVIN_OFFSET)
    }
}

impl From<Celsius> for Kelvin {
    fn from(c: Celsius) -> Self {
        c.to_kelvin()
    }
}

/// An absolute temperature in degrees Celsius.
///
/// # Examples
///
/// ```
/// use mpt_units::{Celsius, Kelvin};
///
/// let limit = Celsius::new(70.0);
/// assert_eq!(limit.to_kelvin(), Kelvin::new(343.15));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Celsius(f64);

impl_f64_quantity!(Celsius, "°C");

impl Celsius {
    /// Converts to the Kelvin scale.
    #[must_use]
    pub fn to_kelvin(self) -> Kelvin {
        Kelvin::new(self.0 + KELVIN_OFFSET)
    }
}

impl From<Kelvin> for Celsius {
    fn from(k: Kelvin) -> Self {
        k.to_celsius()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_conversion() {
        let c = Celsius::new(36.6);
        let back: Celsius = c.to_kelvin().to_celsius();
        assert!((back.value() - 36.6).abs() < 1e-12);
    }

    #[test]
    fn ordering_is_preserved_across_scales() {
        let hot = Celsius::new(80.0);
        let cold = Celsius::new(20.0);
        assert!(hot > cold);
        assert!(hot.to_kelvin() > cold.to_kelvin());
    }

    #[test]
    fn temperature_differences() {
        let delta = Celsius::new(55.0) - Celsius::new(40.0);
        assert!((delta.value() - 15.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_kelvin_celsius_round_trip(v in -100.0_f64..300.0) {
            let c = Celsius::new(v);
            let rt = c.to_kelvin().to_celsius();
            prop_assert!((rt.value() - v).abs() < 1e-9);
        }

        #[test]
        fn prop_conversion_is_monotone(a in 0.0_f64..400.0, b in 0.0_f64..400.0) {
            let (ka, kb) = (Celsius::new(a).to_kelvin(), Celsius::new(b).to_kelvin());
            prop_assert_eq!(a < b, ka < kb);
        }
    }
}
