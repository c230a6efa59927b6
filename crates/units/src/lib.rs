#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Typed physical quantities for mobile power/thermal simulation.
//!
//! Every quantity that crosses a crate boundary in this workspace is a
//! newtype over `f64` (or `u64` for discrete frequencies) so that a power
//! value can never be confused with a temperature or a frequency
//! (C-NEWTYPE). The types implement the arithmetic that is physically
//! meaningful and nothing more: you can add two [`Watts`], scale them by a
//! dimensionless factor, divide two of them into a ratio — but you cannot
//! add [`Watts`] to [`Celsius`].
//!
//! # Examples
//!
//! ```
//! use mpt_units::{Celsius, Kelvin, Watts};
//!
//! let limit = Celsius::new(70.0);
//! let ambient: Kelvin = Celsius::new(25.0).into();
//! assert!(ambient < limit.to_kelvin());
//!
//! let total = Watts::new(1.5) + Watts::new(0.5);
//! assert_eq!(Watts::new(0.5) / total, 0.25);
//! ```

mod frequency;
mod power;
mod rate;
mod temperature;
mod time;
mod voltage;

pub use frequency::Hertz;
pub use power::Watts;
pub use rate::{Fps, Ratio};
pub use temperature::{Celsius, Kelvin};
pub use time::Seconds;
pub use voltage::Volts;

/// Implements the standard arithmetic surface shared by all `f64`-backed
/// quantity newtypes: same-type addition/subtraction, scalar
/// multiplication/division, `Sum` and `Display`.
macro_rules! impl_f64_quantity {
    ($ty:ident, $unit:literal) => {
        impl $ty {
            /// Creates a new quantity from a raw value in base units.
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in base units.
            #[must_use]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Returns `true` if the value is finite (not NaN or infinite).
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the larger of `self` and `other`.
            ///
            /// NaN values are treated as smaller than any number.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }
        }

        impl core::ops::Add for $ty {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl core::ops::AddAssign for $ty {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl core::ops::Sub for $ty {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl core::ops::SubAssign for $ty {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl core::ops::Mul<f64> for $ty {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl core::ops::Mul<$ty> for f64 {
            type Output = $ty;
            fn mul(self, rhs: $ty) -> $ty {
                $ty(self * rhs.0)
            }
        }

        impl core::ops::Div<f64> for $ty {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl core::ops::Div for $ty {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl core::iter::Sum for $ty {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl<'a> core::iter::Sum<&'a $ty> for $ty {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl core::fmt::Display for $ty {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }

        impl From<f64> for $ty {
            fn from(value: f64) -> Self {
                Self(value)
            }
        }
    };
}

pub(crate) use impl_f64_quantity;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantities_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Kelvin>();
        assert_send_sync::<Celsius>();
        assert_send_sync::<Watts>();
        assert_send_sync::<Hertz>();
        assert_send_sync::<Volts>();
        assert_send_sync::<Seconds>();
        assert_send_sync::<Fps>();
        assert_send_sync::<Ratio>();
    }

    #[test]
    fn display_includes_units() {
        assert_eq!(format!("{:.1}", Watts::new(2.25)), "2.2 W");
        assert_eq!(format!("{:.2}", Celsius::new(40.0)), "40.00 °C");
        assert_eq!(format!("{}", Hertz::new(600_000_000)), "600 MHz");
    }
}
