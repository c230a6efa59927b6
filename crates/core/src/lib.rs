#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! The paper's primary contribution: **application-aware thermal
//! management using power–temperature stability analysis** (Bhat,
//! Gumussoy & Ogras, DATE 2019, Section IV-B), plus the experiment
//! drivers that regenerate every table and figure of the paper.
//!
//! The algorithm, as the paper specifies it:
//!
//! 1. Use the thermal stability analysis to determine the **stable
//!    fixed-point temperature** for the current power consumption.
//! 2. If that temperature exceeds the thermal limit, there may be a
//!    violation in the future — estimate the **time to reach the fixed
//!    point** (here: to cross the limit).
//! 3. If that time is below a **user-defined horizon**, a violation is
//!    imminent: find the process with the highest power consumption by
//!    monitoring **average utilization over a one-second window**
//!    (filtering momentary peaks).
//! 4. **Migrate the most power-hungry process to the low-power cluster**,
//!    leaving every other process at full performance — in strong
//!    contrast to the stock governors, which throttle the whole system.
//! 5. Processes with real-time requirements may **register themselves**
//!    to be exempt. The step repeats every **100 ms**.
//!
//! [`AppAwareGovernor`] implements exactly this against the
//! [`SystemPolicy`](mpt_sim::SystemPolicy) surface; [`experiments`]
//! packages the paper's evaluation scenarios (Nexus 6P app study,
//! Figure 7 stability curves, Odroid-XU3 3DMark/Nenamark case study).
//!
//! # Examples
//!
//! ```
//! use mpt_core::{AppAwareConfig, AppAwareGovernor};
//! use mpt_sim::SimBuilder;
//! use mpt_soc::{platforms, ComponentId};
//! use mpt_units::Seconds;
//! use mpt_workloads::benchmarks::BasicMathLarge;
//!
//! let gov = AppAwareGovernor::new(AppAwareConfig::default());
//! let stats = gov.stats();
//! let mut sim = SimBuilder::new(platforms::exynos_5422())
//!     .attach(Box::new(BasicMathLarge::new()), ComponentId::BigCluster)
//!     .system_policy(Box::new(gov))
//!     .build()?;
//! sim.run_for(Seconds::new(2.0))?;
//! assert!(stats.evaluations() > 0);
//! # Ok::<(), mpt_sim::SimError>(())
//! ```

pub mod advisor;
pub mod campaign;
pub mod experiments;
pub mod fleet;
mod governor;
pub mod report;
pub mod scenario;

pub use governor::{AppAwareConfig, AppAwareGovernor, GovernorStats, ThrottleAction};
