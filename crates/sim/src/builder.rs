//! The simulator builder.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mpt_kernel::{CpuFreqPolicy, DisabledGovernor, GovernorKind, Scheduler, ThermalGovernor};
use mpt_obs::{AlertRule, Recorder};
use mpt_soc::{ComponentId, Platform};
use mpt_sysfs::SysFs;
use mpt_thermal::{RcNetwork, TransitionCache};
use mpt_units::{Celsius, Seconds, Watts};
use mpt_workloads::Workload;

use crate::analysis::RunAnalysis;
use crate::clock::SimClock;
use crate::engine::{Attached, LiveSysfs, SimCore, SteppingMode};
use crate::stages::govern::Governors;
use crate::stages::observe::Seen;
use crate::stages::{StepContext, STAGES};
use crate::{EventLog, Result, SimError, Simulator, SystemPolicy, Telemetry};

/// Builder for [`Simulator`] (C-BUILDER).
///
/// Defaults mirror an Android system: `interactive` on both CPU clusters,
/// `ondemand` on the GPU, `performance` on the memory bus, a disabled
/// thermal governor (enable one explicitly for throttled runs), a 10 ms
/// tick and a 100 ms thermal poll.
pub struct SimBuilder {
    platform: Platform,
    dt: Seconds,
    governors: BTreeMap<ComponentId, GovernorKind>,
    thermal_governor: Box<dyn ThermalGovernor>,
    thermal_period: Seconds,
    system_policy: Option<Box<dyn SystemPolicy>>,
    control_sensor: Option<String>,
    initial_temperature: Option<Celsius>,
    telemetry_period: Seconds,
    accounting_window: Option<Seconds>,
    workloads: Vec<(Box<dyn Workload>, ComponentId, bool)>,
    recorder: Option<Arc<Recorder>>,
    trip_reference: Option<Celsius>,
    alert_rules: Vec<AlertRule>,
    solver_cache: Option<Arc<TransitionCache>>,
    stepping: SteppingMode,
}

impl std::fmt::Debug for SimBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimBuilder")
            .field("platform", &self.platform.name())
            .field("workloads", &self.workloads.len())
            .finish()
    }
}

impl SimBuilder {
    /// Starts building a simulation of `platform`.
    #[must_use]
    pub fn new(platform: Platform) -> Self {
        let mut governors = BTreeMap::new();
        governors.insert(ComponentId::LittleCluster, GovernorKind::Interactive);
        governors.insert(ComponentId::BigCluster, GovernorKind::Interactive);
        governors.insert(ComponentId::Gpu, GovernorKind::Ondemand);
        governors.insert(ComponentId::Memory, GovernorKind::Performance);
        Self {
            platform,
            dt: Seconds::from_millis(10.0),
            governors,
            thermal_governor: Box::new(DisabledGovernor),
            thermal_period: Seconds::from_millis(100.0),
            system_policy: None,
            control_sensor: None,
            initial_temperature: None,
            telemetry_period: Seconds::from_millis(100.0),
            accounting_window: None,
            workloads: Vec::new(),
            recorder: None,
            trip_reference: None,
            alert_rules: Vec::new(),
            solver_cache: None,
            stepping: SteppingMode::default(),
        }
    }

    /// Selects the stepping mode (default [`SteppingMode::FixedDt`]).
    /// [`SteppingMode::EventDriven`] runs each pass to the earliest wake
    /// the stages declare (or the run end), shortened to a predicted
    /// trip crossing, and is equivalent to fixed-dt within the
    /// documented tolerances.
    #[must_use]
    pub fn stepping(mut self, mode: SteppingMode) -> Self {
        self.stepping = mode;
        self
    }

    /// Shares a transition-matrix cache with other simulators, so a
    /// campaign sweeping many cells over the same platform factors each
    /// `(dynamics, dt)` discretization exactly once.
    #[must_use]
    pub fn solver_cache(mut self, cache: Arc<TransitionCache>) -> Self {
        self.solver_cache = Some(cache);
        self
    }

    /// Installs an observability recorder — typically a shared
    /// `Arc<Recorder>` so one trace/metrics set spans several simulators
    /// (as the campaign runner does), or `Recorder::null()` to strip
    /// observability from the hot loop. By default every simulator gets
    /// its own enabled recorder.
    #[must_use]
    pub fn recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Sets the simulation tick.
    #[must_use]
    pub fn tick(mut self, dt: Seconds) -> Self {
        self.dt = dt;
        self
    }

    /// Selects the cpufreq governor for one component.
    #[must_use]
    pub fn governor(mut self, id: ComponentId, kind: GovernorKind) -> Self {
        self.governors.insert(id, kind);
        self
    }

    /// Installs a thermal governor (the stock baseline being step-wise
    /// trips or IPA; the default is disabled, matching the paper's
    /// "without throttling" runs).
    #[must_use]
    pub fn thermal_governor(mut self, governor: Box<dyn ThermalGovernor>) -> Self {
        self.thermal_governor = governor;
        self
    }

    /// Sets the thermal governor polling period (default 100 ms).
    #[must_use]
    pub fn thermal_period(mut self, period: Seconds) -> Self {
        self.thermal_period = period;
        self
    }

    /// Uses a specific sensor as the thermal governor's control input
    /// (e.g. `"package"` on the Nexus 6P, as in the paper); by default the
    /// maximum over all sensors is used.
    #[must_use]
    pub fn control_sensor(mut self, sensor: impl Into<String>) -> Self {
        self.control_sensor = Some(sensor.into());
        self
    }

    /// Installs a full-authority system policy (the paper's proposed
    /// governor).
    #[must_use]
    pub fn system_policy(mut self, policy: Box<dyn SystemPolicy>) -> Self {
        self.system_policy = Some(policy);
        self
    }

    /// Starts all thermal nodes at the given temperature (pre-warmed
    /// device, as in the paper's figures that begin above ambient).
    #[must_use]
    pub fn initial_temperature(mut self, t: Celsius) -> Self {
        self.initial_temperature = Some(t);
        self
    }

    /// Sets the telemetry time-series sampling period (default 100 ms).
    #[must_use]
    pub fn telemetry_period(mut self, period: Seconds) -> Self {
        self.telemetry_period = period;
        self
    }

    /// Sets the per-process utilization/power accounting window (the
    /// paper uses 1 s, the default; the window-length ablation sweeps
    /// this).
    #[must_use]
    pub fn accounting_window(mut self, window: Seconds) -> Self {
        self.accounting_window = Some(window);
        self
    }

    /// Declares the thermal governor's reference temperature (lowest
    /// trip, or the IPA control temperature) for the derived
    /// observables: time-above-trip, thermal headroom and
    /// stability-margin drift are computed against it. Without one those
    /// metrics are reported as absent.
    #[must_use]
    pub fn trip_reference(mut self, t: Celsius) -> Self {
        self.trip_reference = Some(t);
        self
    }

    /// Installs declarative alert rules, evaluated every tick by the
    /// analyze stage; firings appear in the event log as `alert` events
    /// and in [`Simulator::analysis`](crate::Simulator::analysis).
    #[must_use]
    pub fn alert_rules(mut self, rules: Vec<AlertRule>) -> Self {
        self.alert_rules = rules;
        self
    }

    /// Attaches a workload as a process on a CPU cluster.
    #[must_use]
    pub fn attach(mut self, workload: Box<dyn Workload>, cluster: ComponentId) -> Self {
        self.workloads.push((workload, cluster, false));
        self
    }

    /// Attaches a workload registered as real-time (exempt from
    /// application-aware throttling, per the paper's registration
    /// mechanism).
    #[must_use]
    pub fn attach_realtime(mut self, workload: Box<dyn Workload>, cluster: ComponentId) -> Self {
        self.workloads.push((workload, cluster, true));
        self
    }

    /// Finalizes the simulator: builds the shared `SimCore` and the
    /// pipeline's governors, context and snapshot.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for bad parameters,
    /// [`SimError::Thermal`] if the platform thermal spec is invalid, or
    /// [`SimError::SysFs`] if the control plane cannot be populated.
    pub fn build(self) -> Result<Simulator> {
        if self.dt.value() <= 0.0 {
            return Err(SimError::InvalidConfig {
                reason: "tick must be positive".into(),
            });
        }
        if self.thermal_period < self.dt {
            return Err(SimError::InvalidConfig {
                reason: "thermal period must be at least one tick".into(),
            });
        }
        let sensors = self.platform.temperature_sensors();
        let control_zone = (self.control_sensor.as_ref())
            .map(|sensor| {
                sensors
                    .iter()
                    .position(|s| s.name() == sensor.as_str())
                    .ok_or_else(|| SimError::InvalidConfig {
                        reason: format!("control sensor {sensor:?} does not exist"),
                    })
            })
            .transpose()?;
        let mut network = RcNetwork::with_cache(self.platform.thermal_spec(), self.solver_cache)?;
        let sensor_nodes = sensors
            .iter()
            .map(|s| {
                network
                    .node_index(s.thermal_node())
                    .expect("the platform validates every sensor's node")
            })
            .collect();
        if let Some(t0) = self.initial_temperature {
            network.set_uniform_temperature(t0.to_kelvin());
        }
        let mut policies = BTreeMap::new();
        for component in self.platform.components() {
            let kind = self
                .governors
                .get(&component.id())
                .copied()
                .unwrap_or(GovernorKind::Performance);
            policies.insert(component.id(), CpuFreqPolicy::new(component, kind));
        }
        let mut scheduler = match self.accounting_window {
            Some(w) => {
                if w.value() <= 0.0 {
                    return Err(SimError::InvalidConfig {
                        reason: "accounting window must be positive".into(),
                    });
                }
                Scheduler::with_window(w)
            }
            None => Scheduler::new(),
        };
        let mut attached = Vec::new();
        for (workload, cluster, realtime) in self.workloads {
            if !cluster.is_cpu() {
                return Err(SimError::InvalidConfig {
                    reason: format!(
                        "workload {:?} attached to non-CPU {cluster}",
                        workload.name()
                    ),
                });
            }
            if self.platform.component(cluster).is_err() {
                return Err(SimError::InvalidConfig {
                    reason: format!("platform has no {cluster} cluster"),
                });
            }
            let pid = scheduler.spawn(workload.name().to_owned(), cluster);
            scheduler.set_realtime(pid, realtime)?;
            attached.push(Attached { pid, workload });
        }
        let recorder = self.recorder.unwrap_or_else(|| Arc::new(Recorder::new()));
        let analysis = RunAnalysis::new(self.trip_reference.map(Celsius::value), self.alert_rules);
        let live = Arc::new(LiveSysfs::new(&self.platform, attached.len()));
        let mut core = SimCore {
            platform: self.platform,
            node_powers: vec![Watts::ZERO; network.len()],
            network,
            scheduler,
            policies,
            sensor_nodes,
            control_zone,
            workloads: attached,
            clock: SimClock::new(self.dt),
            telemetry: Telemetry::new(self.telemetry_period),
            sysfs: SysFs::new(),
            last_powers: [None; 4],
            pending_migrations: Arc::new(Mutex::new(Vec::new())),
            live,
            events: EventLog::new(),
            recorder,
            analysis,
            macro_stats: crate::engine::MacroStats::default(),
            power_trace: None,
        };
        core.register_sysfs()?;
        core.publish_zones();
        core.publish_sysfs();
        // Pre-register the latency histograms so the per-tick hot path
        // records by id, never by name. Registration is idempotent on a
        // shared recorder, so every simulator in a campaign resolves the
        // same ids.
        let tick_hist = core.recorder.register_histogram("tick");
        let stage_hists =
            STAGES.map(|name| core.recorder.register_histogram(&format!("stage:{name}")));
        let processes = core.workloads.len();
        Ok(Simulator {
            core,
            ctx: StepContext::default(),
            governors: Governors::new(
                self.thermal_governor,
                self.thermal_period,
                self.system_policy,
            ),
            seen: Seen::new(processes),
            tick_hist,
            stage_hists,
            stepping: self.stepping,
            last_fingerprint: None,
            quiescent: false,
            counted_passes: 0,
        })
    }
}
