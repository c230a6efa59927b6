//! The system-policy extension point.
//!
//! The stock thermal governors ([`ThermalGovernor`](mpt_kernel::ThermalGovernor))
//! can only cap frequencies. The paper's proposed governor needs more
//! authority: it reads per-process utilization windows, runs the
//! stability analysis against the live thermal network, and *migrates*
//! the most power-hungry process to the little cluster. [`SystemPolicy`]
//! grants exactly that surface, and `mpt-core` implements the paper's
//! algorithm against it.

use std::collections::BTreeMap;
use std::fmt;

use mpt_kernel::{CpuFreqPolicy, Scheduler};
use mpt_soc::{ComponentId, Platform, PowerBreakdown};
use mpt_sysfs::SysFs;
use mpt_thermal::RcNetwork;
use mpt_units::{Seconds, Watts};

/// A mutable view of the whole system handed to a [`SystemPolicy`] each
/// period.
pub struct SystemView<'a> {
    /// Current simulation time.
    pub time: Seconds,
    /// The platform description.
    pub platform: &'a Platform,
    /// The live thermal network (current node temperatures).
    pub network: &'a RcNetwork,
    /// The process table, with migration authority.
    pub scheduler: &'a mut Scheduler,
    /// Per-component power breakdown from the last tick, indexed by
    /// `ComponentId as usize` (`None` for a component the platform
    /// lacks).
    pub powers: &'a [Option<PowerBreakdown>; 4],
    /// The same powers mapped onto the thermal network's nodes, indexed
    /// like [`network`](Self::network)'s nodes.
    pub node_powers: &'a [Watts],
    /// The cpufreq policies (read the current frequencies and caps
    /// here; *write* caps through [`sysfs`](Self::sysfs), the control
    /// plane of record — caps set directly on a policy are overwritten
    /// by the sysfs state on the next tick).
    pub policies: &'a mut BTreeMap<ComponentId, CpuFreqPolicy>,
    /// The sysfs control plane.
    pub sysfs: &'a SysFs,
}

impl fmt::Debug for SystemView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemView")
            .field("time", &self.time)
            .field("processes", &self.scheduler.len())
            .finish()
    }
}

/// A periodic, full-authority management policy (the paper's proposed
/// governor class).
pub trait SystemPolicy: fmt::Debug + Send {
    /// The policy's display name.
    fn name(&self) -> &'static str;

    /// How often [`update`](Self::update) runs (the paper uses 100 ms).
    fn period(&self) -> Seconds;

    /// One management decision over the live system view.
    fn update(&mut self, view: SystemView<'_>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_trait_is_object_safe() {
        #[derive(Debug)]
        struct Nop;
        impl SystemPolicy for Nop {
            fn name(&self) -> &'static str {
                "nop"
            }
            fn period(&self) -> Seconds {
                Seconds::from_millis(100.0)
            }
            fn update(&mut self, _: SystemView<'_>) {}
        }
        let b: Box<dyn SystemPolicy> = Box::new(Nop);
        assert_eq!(b.name(), "nop");
        assert_eq!(b.period(), Seconds::new(0.1));
    }
}
