#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Discrete-time co-simulation of a mobile platform.
//!
//! The [`Simulator`] closes the loop between every substrate in the
//! workspace, mirroring the paper's experimental stack. Each tick
//! (default 10 ms) runs a fixed sequence of stages over the shared
//! `SimCore`:
//!
//! 1. **Workloads** express demand (CPU cycles + parallelism, GPU cycles,
//!    touch interactions).
//! 2. The **scheduler** allocates each cluster's cycle capacity max–min
//!    fairly, respecting per-process parallelism and big.LITTLE
//!    performance ratios; the GPU is allocated the same way.
//! 3. The **power model** converts delivered utilization into per-
//!    component dynamic power, adds temperature-dependent leakage (from
//!    the previous tick's temperatures — the positive feedback loop) and
//!    static floors.
//! 4. The **thermal network** integrates the heat equation with the
//!    per-node injected power.
//! 5. **Telemetry** records temperatures, frequency residency, rail
//!    power and energy — the measurement products behind every figure
//!    and table in the paper.
//! 6. The **cpufreq governors** pick next frequencies from utilization
//!    and interactions; every 100 ms the **thermal governor** runs and
//!    writes frequency caps through the **sysfs** control plane, exactly
//!    like the Linux thermal core; an optional [`SystemPolicy`] (the
//!    paper's application-aware governor from `mpt-core`) runs at its own
//!    period with migration authority.
//!
//! A pass calls its nine stages ([`Simulator::stage_names`]) directly,
//! over one step context the simulator keeps for the whole run, so each
//! per-pass value is produced once and a steady-state pass allocates
//! nothing of its own.
//!
//! # Examples
//!
//! ```
//! use mpt_sim::SimBuilder;
//! use mpt_soc::{platforms, ComponentId};
//! use mpt_kernel::ProcessClass;
//! use mpt_units::Seconds;
//! use mpt_workloads::apps;
//!
//! let mut sim = SimBuilder::new(platforms::snapdragon_810())
//!     .attach(Box::new(apps::paper_io(42)), ProcessClass::Foreground, ComponentId::BigCluster)
//!     .build()?;
//! sim.run_for(Seconds::new(5.0))?;
//! assert!(sim.time() >= Seconds::new(5.0));
//! # Ok::<(), mpt_sim::SimError>(())
//! ```

pub mod analysis;
mod builder;
mod clock;
mod engine;
mod error;
pub mod events;
mod policy;
mod stages;
mod telemetry;

pub use analysis::RunAnalysis;
pub use builder::SimBuilder;
pub use clock::SimClock;
pub use engine::{MacroStats, Simulator, SteppingMode};
pub use error::SimError;
pub use events::{Event, EventKind, EventLog};
pub use policy::{SystemPolicy, SystemView};
pub use telemetry::Telemetry;

/// Result alias for simulator operations.
pub type Result<T> = std::result::Result<T, SimError>;
