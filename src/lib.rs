#![warn(missing_docs)]

//! `mobile-thermal`: a full-system reproduction of *"Power and Thermal
//! Analysis of Commercial Mobile Platforms: Experiments and Case
//! Studies"* (Bhat, Gumussoy & Ogras, DATE 2019).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! - [`units`] — typed physical quantities;
//! - [`sysfs`] — the virtual sysfs control plane;
//! - [`soc`] — platform models (Snapdragon 810, Exynos 5422);
//! - [`thermal`] — RC thermal networks and the power–temperature
//!   fixed-point stability analysis;
//! - [`kernel`] — processes, scheduling, cpufreq and thermal governors;
//! - [`workloads`] — app and benchmark demand models (incl. a real
//!   MiBench `basicmath` port);
//! - [`daq`] — the measurement substrate over exact telemetry
//!   (residency, traces, stats, columnar frames and queries);
//! - [`sim`] — the discrete-time co-simulator;
//! - [`core`] — the paper's application-aware governor and the
//!   experiment drivers for every table and figure.
//!
//! # Examples
//!
//! ```
//! use mobile_thermal::thermal::{LumpedModel, Stability};
//! use mobile_thermal::units::Watts;
//!
//! let model = LumpedModel::odroid_xu3();
//! assert!(matches!(model.stability(Watts::new(2.0)), Stability::Stable(_)));
//! assert!((model.critical_power().value() - 5.5).abs() < 1e-6);
//! ```
//!
//! See the `examples/` directory for runnable scenarios:
//! `quickstart`, `nexus_throttling`, `odroid_appaware` and
//! `stability_explorer`.

pub use mpt_core as core;
pub use mpt_daq as daq;
pub use mpt_kernel as kernel;
pub use mpt_sim as sim;
pub use mpt_soc as soc;
pub use mpt_sysfs as sysfs;
pub use mpt_thermal as thermal;
pub use mpt_units as units;
pub use mpt_workloads as workloads;
