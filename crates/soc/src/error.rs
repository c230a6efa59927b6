//! Error type for SoC model construction and lookup.

use std::fmt;

use mpt_units::Hertz;

use crate::ComponentId;

/// Errors returned when building or querying platform models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SocError {
    /// An OPP table was empty.
    EmptyOppTable,
    /// OPP frequencies must be strictly increasing.
    UnorderedOpps {
        /// The frequency that broke the ordering.
        frequency: Hertz,
    },
    /// OPP voltages must be non-decreasing with frequency.
    NonMonotoneVoltage {
        /// The frequency whose voltage dipped below its predecessor's.
        frequency: Hertz,
    },
    /// The platform has no component with this id.
    UnknownComponent {
        /// The requested component.
        id: ComponentId,
    },
    /// A power-model parameter was invalid (negative or non-finite).
    InvalidPowerParameter {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A thermal-spec parameter was invalid.
    InvalidThermalSpec {
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for SocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyOppTable => write!(f, "opp table must contain at least one point"),
            Self::UnorderedOpps { frequency } => {
                write!(
                    f,
                    "opp frequencies must be strictly increasing at {frequency}"
                )
            }
            Self::NonMonotoneVoltage { frequency } => {
                write!(f, "opp voltage decreases with frequency at {frequency}")
            }
            Self::UnknownComponent { id } => write!(f, "platform has no component {id}"),
            Self::InvalidPowerParameter { name, value } => {
                write!(f, "power parameter {name} has invalid value {value}")
            }
            Self::InvalidThermalSpec { reason } => write!(f, "invalid thermal spec: {reason}"),
        }
    }
}

impl std::error::Error for SocError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SocError>();
    }

    #[test]
    fn display_is_concise() {
        let e = SocError::NonMonotoneVoltage {
            frequency: Hertz::from_mhz(700),
        };
        assert_eq!(
            e.to_string(),
            "opp voltage decreases with frequency at 700 MHz"
        );
    }
}
