//! Governance: sysfs control-plane application, cpufreq governors, the
//! thermal governor, and the optional system policy.

use mpt_kernel::cpufreq::ClusterLoad;
use mpt_kernel::thermal_gov::ActorState;
use mpt_kernel::ThermalGovernor;
use mpt_soc::ComponentId;
use mpt_units::{Ratio, Seconds, Watts};

use crate::engine::SimCore;
use crate::stages::{StepContext, Wake};
use crate::{Result, SystemPolicy, SystemView};

/// Applies external writes to the sysfs control plane — frequency caps
/// and queued cpuset migrations — at the start of the tick, so a daemon
/// (or test) writing between ticks sees its change take effect exactly
/// one tick later, as on real hardware. A pass after no control write
/// returns at once.
pub(crate) fn sysfs_control(core: &mut SimCore) -> Result<()> {
    if !core.live.take_written() {
        return Ok(());
    }
    core.apply_sysfs_caps();
    core.apply_pending_migrations()
}

/// A queued cpuset migration must take effect one tick later, exactly as
/// in fixed mode — don't jump across it.
pub(crate) fn sysfs_control_wake(core: &SimCore) -> Wake {
    let pending = !core
        .pending_migrations
        .lock()
        .expect("queue mutex is never poisoned")
        .is_empty();
    if pending {
        Wake::EveryTick
    } else {
        Wake::Never
    }
}

/// The govern stage's state: the thermal governor and the optional
/// full-authority [`SystemPolicy`], each with its poll phase.
#[derive(Debug)]
pub(crate) struct Governors {
    thermal_governor: Box<dyn ThermalGovernor>,
    thermal_period: Seconds,
    since_thermal: Seconds,
    system_policy: Option<Box<dyn SystemPolicy>>,
    since_policy: Seconds,
}

impl Governors {
    /// Governors polling `thermal_governor` every `thermal_period`.
    pub(crate) fn new(
        thermal_governor: Box<dyn ThermalGovernor>,
        thermal_period: Seconds,
        system_policy: Option<Box<dyn SystemPolicy>>,
    ) -> Self {
        Self {
            thermal_governor,
            thermal_period,
            since_thermal: Seconds::ZERO,
            system_policy,
            since_policy: Seconds::ZERO,
        }
    }

    /// Runs the cpufreq governors every tick, the thermal governor at its
    /// polling period, and the system policy at its own period.
    pub(crate) fn run(&mut self, core: &mut SimCore, ctx: &StepContext) -> Result<()> {
        let dt = ctx.dt;

        // cpufreq governors.
        for (&id, policy) in &mut core.policies {
            let utilization = match id {
                ComponentId::LittleCluster | ComponentId::BigCluster => {
                    ctx.cluster_util[id as usize]
                }
                ComponentId::Gpu => ctx.gpu_util,
                ComponentId::Memory => 1.0,
            };
            let before = policy.current();
            policy.update(
                ClusterLoad {
                    utilization: Ratio::new(utilization),
                    interaction: ctx.interaction,
                },
                dt,
            );
            if policy.current() != before {
                core.recorder.incr(mpt_obs::Counter::GovernorFreqChanges);
            }
        }

        // Thermal governor at its period, acting through sysfs.
        self.since_thermal += dt;
        if self.since_thermal >= self.thermal_period {
            self.since_thermal = Seconds::ZERO;
            // The present components' actors in `ComponentId` order, on
            // the stack so that a poll allocates nothing of its own.
            let mut actors = [ActorState {
                id: ComponentId::Memory,
                power: Watts::ZERO,
                utilization: 0.0,
            }; 4];
            let mut n = 0;
            for (id, power) in ComponentId::ALL.into_iter().zip(&core.last_powers) {
                let Some(power) = power else { continue };
                actors[n] = ActorState {
                    id,
                    power: power.total(),
                    utilization: match id {
                        ComponentId::LittleCluster | ComponentId::BigCluster => {
                            ctx.busy_cores[id as usize]
                        }
                        ComponentId::Gpu => ctx.gpu_util,
                        ComponentId::Memory => 1.0,
                    },
                };
                n += 1;
            }
            let actions = self.thermal_governor.update(
                core.control_temperature(),
                &actors[..n],
                self.thermal_period,
            );
            core.apply_thermal_actions(&actions)?;
        }

        // System policy (the paper's governor) at its period.
        if let Some(policy) = &mut self.system_policy {
            self.since_policy += dt;
            if self.since_policy >= policy.period() {
                self.since_policy = Seconds::ZERO;
                policy.update(SystemView {
                    time: ctx.now,
                    platform: &core.platform,
                    network: &core.network,
                    scheduler: &mut core.scheduler,
                    powers: &core.last_powers,
                    node_powers: &core.node_powers,
                    policies: &core.policies,
                    sysfs: &core.sysfs,
                });
            }
        }
        Ok(())
    }

    /// The earliest governor poll boundary, or a cpufreq governor's
    /// pending internal decision.
    pub(crate) fn next_wake(&self, core: &SimCore, now: Seconds) -> Wake {
        let mut wake = Wake::Never;
        // The thermal governor's next poll boundary — only a real wake
        // when the governor can act at all.
        if self.thermal_governor.is_active() {
            let remaining = (self.thermal_period - self.since_thermal).max(Seconds::ZERO);
            wake = wake.earliest(Wake::At(now + remaining));
        }
        // The system policy's next poll boundary.
        if let Some(policy) = &self.system_policy {
            let remaining = (policy.period() - self.since_policy).max(Seconds::ZERO);
            wake = wake.earliest(Wake::At(now + remaining));
        }
        // cpufreq governors with pending internal state (interactive's
        // ramp-down hold): their decision flips even under constant
        // load.
        for policy in core.policies.values() {
            if let Some(remaining) = policy.pending_wake() {
                wake = wake.earliest(Wake::At(now + remaining));
            }
        }
        wake
    }
}
