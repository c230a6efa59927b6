//! Electrical power quantities.

use serde::{Deserialize, Serialize};

use crate::impl_f64_quantity;

/// Power in watts.
///
/// This is the base power unit used throughout the workspace: component
/// power models produce watts, the thermal network consumes watts, and the
/// DAQ substrate samples watts.
///
/// # Examples
///
/// ```
/// use mpt_units::Watts;
///
/// let total: Watts = [Watts::new(1.2), Watts::new(0.8)].into_iter().sum();
/// assert_eq!(total, Watts::new(2.0));
/// assert_eq!(total * 3.0, Watts::new(6.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Watts(f64);

impl_f64_quantity!(Watts, "W");

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn summing_rail_powers() {
        let rails = [
            Watts::new(0.9),
            Watts::new(1.4),
            Watts::new(1.1),
            Watts::new(0.25),
        ];
        let total: Watts = rails.iter().sum();
        assert!((total.value() - 3.65).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_scaling_distributes_over_sum(a in 0.0_f64..100.0, b in 0.0_f64..100.0, k in 0.0_f64..10.0) {
            let lhs = (Watts::new(a) + Watts::new(b)) * k;
            let rhs = Watts::new(a) * k + Watts::new(b) * k;
            prop_assert!((lhs.value() - rhs.value()).abs() < 1e-9);
        }
    }
}
