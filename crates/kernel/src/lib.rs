#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Operating-system substrate: processes, CPU scheduling, and the stock
//! DVFS/thermal policies of a Linux-based mobile platform.
//!
//! The paper's baseline is "the default governors shipped with the phone"
//! (Android's `interactive` cpufreq governor plus the vendor thermal
//! engine on the Nexus 6P) and "the thermal management policy in the Linux
//! kernel (3.10.9) … thermal trip points and ARM intelligent power
//! allocation" on the Odroid-XU3. To make the comparison policy-vs-policy
//! rather than policy-vs-stub, this crate implements:
//!
//! - a process model with real-time registration, cluster affinity and
//!   rolling utilization windows ([`Process`], [`Scheduler`]);
//! - max–min fair CPU-cycle allocation within a cluster
//!   ([`allocate_max_min`]);
//! - the cpufreq governors the platforms run, `performance`, `ondemand`
//!   and Android's `interactive` ([`cpufreq`]);
//! - the kernel thermal governors: step-wise trip points
//!   ([`StepWiseGovernor`]) and ARM Intelligent Power Allocation
//!   ([`IpaGovernor`]);
//! - the sysfs path layout used to expose all of the above
//!   ([`paths`]).
//!
//! # Examples
//!
//! ```
//! use mpt_kernel::Scheduler;
//! use mpt_soc::ComponentId;
//!
//! let mut sched = Scheduler::new();
//! let game = sched.spawn("paper.io", ComponentId::BigCluster);
//! let sync = sched.spawn("sync-daemon", ComponentId::BigCluster);
//! sched.migrate(sync, ComponentId::LittleCluster)?;
//! assert_eq!(sched.process(game).unwrap().cluster(), ComponentId::BigCluster);
//! assert_eq!(sched.process(sync).unwrap().cluster(), ComponentId::LittleCluster);
//! # Ok::<(), mpt_kernel::KernelError>(())
//! ```

pub mod cpufreq;
mod error;
pub mod paths;
mod process;
mod sched;
pub mod thermal_gov;

pub use cpufreq::{CpuFreqPolicy, FrequencyGovernor, GovernorKind};
pub use error::KernelError;
pub use process::{Pid, Process, UtilWindow};
pub use sched::{allocate_max_min, Allocation, Scheduler};
pub use thermal_gov::{
    ActorState, DisabledGovernor, IpaConfig, IpaGovernor, StepWiseGovernor, ThermalAction,
    ThermalGovernor, TripPoint,
};

/// Result alias for kernel operations.
pub(crate) type Result<T> = std::result::Result<T, KernelError>;
