//! Governance: sysfs control-plane application, cpufreq governors, the
//! thermal governor, and the optional system policy.

use mpt_kernel::cpufreq::ClusterLoad;
use mpt_kernel::thermal_gov::ActorState;
use mpt_kernel::ThermalGovernor;
use mpt_soc::ComponentId;
use mpt_units::{Ratio, Seconds};

use crate::engine::SimCore;
use crate::queue::WakeKind;
use crate::stages::{SimStage, StepContext, Wake};
use crate::{Result, SystemPolicy, SystemView};

/// Applies external writes to the sysfs control plane — frequency caps
/// and queued cpuset migrations — at the start of the tick, so a daemon
/// (or test) writing between ticks sees its change take effect exactly
/// one tick later, as on real hardware.
#[derive(Debug, Default)]
pub struct SysfsControlStage;

impl SimStage for SysfsControlStage {
    fn name(&self) -> &'static str {
        "sysfs-control"
    }

    fn run(&mut self, core: &mut SimCore, _ctx: &mut StepContext) -> Result<()> {
        core.apply_sysfs_caps();
        core.apply_pending_migrations()
    }

    fn next_wake(&mut self, core: &mut SimCore, _now: Seconds) -> Wake {
        // A queued cpuset migration must take effect one tick later,
        // exactly as in fixed mode — don't jump across it.
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
}

/// Runs the cpufreq governors every tick, the thermal governor at its
/// polling period, and the optional full-authority
/// [`SystemPolicy`] at its own period.
///
/// Owns the governor state and the phase accumulators; they are
/// per-pipeline, not part of the shared core.
#[derive(Debug)]
pub struct GovernStage {
    thermal_governor: Box<dyn ThermalGovernor>,
    thermal_period: Seconds,
    since_thermal: Seconds,
    system_policy: Option<Box<dyn SystemPolicy>>,
    since_policy: Seconds,
}

impl GovernStage {
    /// A governance stage polling `thermal_governor` every
    /// `thermal_period`.
    #[must_use]
    pub fn new(
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
}

impl SimStage for GovernStage {
    fn name(&self) -> &'static str {
        "govern"
    }

    fn run(&mut self, core: &mut SimCore, ctx: &mut StepContext) -> Result<()> {
        let dt = ctx.dt;

        // cpufreq governors.
        for (&id, policy) in &mut core.policies {
            let utilization = match id {
                ComponentId::LittleCluster | ComponentId::BigCluster => {
                    ctx.cluster_util.get(&id).copied().unwrap_or(0.0)
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
            let little_busy = ctx
                .cluster_busy_cores
                .get(&ComponentId::LittleCluster)
                .copied()
                .unwrap_or(0.0);
            let big_busy = ctx
                .cluster_busy_cores
                .get(&ComponentId::BigCluster)
                .copied()
                .unwrap_or(0.0);
            let control = core.control_temperature();
            let actors: Vec<ActorState> = core
                .last_powers
                .iter()
                .map(|(&id, b)| ActorState {
                    id,
                    power: b.total(),
                    utilization: match id {
                        ComponentId::LittleCluster => little_busy,
                        ComponentId::BigCluster => big_busy,
                        ComponentId::Gpu => ctx.gpu_util,
                        ComponentId::Memory => 1.0,
                    },
                })
                .collect();
            let actions = self
                .thermal_governor
                .update(control, &actors, self.thermal_period);
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
                    policies: &mut core.policies,
                    sysfs: &core.sysfs,
                });
            }
        }
        Ok(())
    }

    fn next_wake(&mut self, core: &mut SimCore, now: Seconds) -> Wake {
        let mut wake = Wake::Never;
        // The thermal governor's next poll boundary — only a real wake
        // when the governor can act at all.
        if self.thermal_governor.is_active() {
            let remaining = (self.thermal_period - self.since_thermal).max(Seconds::ZERO);
            wake = wake.earliest(Wake::at(now + remaining, WakeKind::GovernorPoll));
        }
        // The system policy's next poll boundary.
        if let Some(policy) = &self.system_policy {
            let remaining = (policy.period() - self.since_policy).max(Seconds::ZERO);
            wake = wake.earliest(Wake::at(now + remaining, WakeKind::GovernorPoll));
        }
        // cpufreq governors with pending internal state (interactive's
        // ramp-down hold): their decision flips even under constant
        // load.
        for policy in core.policies.values() {
            if let Some(remaining) = policy.pending_wake() {
                wake = wake.earliest(Wake::at(now + remaining, WakeKind::GovernorPoll));
            }
        }
        wake
    }
}
