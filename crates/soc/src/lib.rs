#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Mobile SoC platform models.
//!
//! This crate describes *what the hardware is*: operating-performance-point
//! (OPP) tables, processing components (CPU clusters, GPU, memory), their
//! power models (dynamic switching power plus temperature-dependent
//! leakage), the thermal-network parameters of the package, and the sensor
//! inventory. Two concrete platforms are provided, matching the paper's
//! experimental hardware:
//!
//! - [`platforms::snapdragon_810`] — the Qualcomm Snapdragon 810 in the
//!   Nexus 6P (4× Cortex-A53 + 4× Cortex-A57 + Adreno 430, GPU OPPs
//!   180/305/390/450/510/600 MHz);
//! - [`platforms::exynos_5422`] — the Samsung Exynos 5422 on the
//!   Odroid-XU3 (4× Cortex-A7 + 4× Cortex-A15 + Mali-T628, per-rail power
//!   sensors, fan disabled).
//!
//! The *dynamics* (thermal ODE, stability analysis) live in `mpt-thermal`;
//! the *policies* (governors) live in `mpt-kernel` and `mpt-core`.
//!
//! # Examples
//!
//! ```
//! use mpt_soc::platforms;
//! use mpt_soc::ComponentId;
//!
//! let soc = platforms::snapdragon_810();
//! let gpu = soc.component(ComponentId::Gpu)?;
//! assert_eq!(gpu.opps().highest().frequency().as_mhz(), 600);
//! # Ok::<(), mpt_soc::SocError>(())
//! ```

mod component;
mod error;
mod fleet;
mod opp;
mod platform;
pub mod platforms;
mod power;
mod sensors;
mod thermal_spec;

pub use component::{Component, ComponentId};
pub use error::SocError;
pub use fleet::{DeviceParams, FleetSpec, ParamJitter};
pub use opp::{OperatingPoint, OppTable};
pub use platform::{Platform, PlatformBuilder};
pub use power::{LeakageParams, PowerBreakdown, PowerParams};
pub use sensors::{PowerRail, TemperatureSensor};
pub use thermal_spec::{ThermalCoupling, ThermalLti, ThermalNodeSpec, ThermalSpec};

/// Result alias for SoC model operations.
pub(crate) type Result<T> = std::result::Result<T, SocError>;
