//! Supply voltages.

use serde::{Deserialize, Serialize};

use crate::impl_f64_quantity;

/// A supply voltage in volts.
///
/// Operating points pair a frequency with the minimum stable supply
/// voltage; dynamic power scales with `V²·f` and leakage scales with `V`.
///
/// # Examples
///
/// ```
/// use mpt_units::Volts;
///
/// let v = Volts::new(1.1);
/// assert!((v.squared() - 1.21).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Volts(f64);

impl_f64_quantity!(Volts, "V");

impl Volts {
    /// `V²`, the factor entering the dynamic-power law.
    #[must_use]
    pub fn squared(self) -> f64 {
        self.0 * self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_is_nonnegative() {
        assert!(Volts::new(-0.5).squared() > 0.0);
    }
}
