//! Declarative scenarios: define an experiment as data, run it with one
//! call.
//!
//! Everything the experiment drivers do programmatically can be expressed
//! as a [`ScenarioSpec`] — platform, workload placement, baseline thermal
//! policy, the proposed governor — and executed with [`run_scenario`].
//! Specs serialize with serde, so experiments can live in JSON files and
//! run through the `run_scenario` binary:
//!
//! ```sh
//! cargo run --release -p mpt-bench --bin run_scenario -- scenario.json
//! ```

use serde::{Deserialize, Serialize};

use mpt_kernel::{IpaConfig, IpaGovernor, StepWiseGovernor, TripPoint};
use mpt_sim::{Result, SimBuilder, SimError, Simulator, SteppingMode};
use mpt_soc::{platforms, splitmix64, ComponentId, Platform};
use mpt_thermal::TransitionCache;
use mpt_units::{Celsius, Seconds, Watts};
use mpt_workloads::benchmarks::{
    BasicMathLarge, BurstyCompute, Nenamark, PhasedCompute, SteadyCompute, ThreeDMark,
};
use mpt_workloads::Workload;

pub use mpt_workloads::benchmarks::ComputePhase;

use crate::experiments::NexusApp;
use crate::{AppAwareConfig, AppAwareGovernor, GovernorStats, ThrottleAction};

/// Which platform model to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum PlatformSpec {
    /// The Nexus 6P's Snapdragon 810.
    Snapdragon810,
    /// The Odroid-XU3's Exynos 5422.
    Exynos5422,
}

impl PlatformSpec {
    /// Constructs the builtin platform this spec names.
    #[must_use]
    pub fn build(self) -> Platform {
        match self {
            PlatformSpec::Snapdragon810 => platforms::snapdragon_810(),
            PlatformSpec::Exynos5422 => platforms::exynos_5422(),
        }
    }
}

/// Which stepping engine advances the simulation.
///
/// The scenario-level mirror of [`mpt_sim::SteppingMode`]: fixed-dt
/// ticking is the default; the event-driven macro-stepper jumps
/// analytically between scheduled wake points (governor polls, workload
/// phase changes, alert deadlines, sample points, predicted trip
/// crossings) when every stage is quiescent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "snake_case")]
pub enum EngineSpec {
    /// One pass per base tick (the historical loop, and the default).
    #[default]
    Fixed,
    /// Event-driven macro-stepping over the base-dt grid.
    Event,
}

impl EngineSpec {
    /// The equivalent simulator stepping mode.
    #[must_use]
    pub(crate) fn to_mode(self) -> SteppingMode {
        match self {
            EngineSpec::Fixed => SteppingMode::FixedDt,
            EngineSpec::Event => SteppingMode::EventDriven,
        }
    }
}

impl From<SteppingMode> for EngineSpec {
    fn from(mode: SteppingMode) -> Self {
        match mode {
            SteppingMode::FixedDt => EngineSpec::Fixed,
            SteppingMode::EventDriven => EngineSpec::Event,
        }
    }
}

/// Which CPU cluster a workload starts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "snake_case")]
pub enum ClusterSpec {
    /// The high-performance cluster.
    #[default]
    Big,
    /// The low-power cluster.
    Little,
}

impl From<ClusterSpec> for ComponentId {
    fn from(c: ClusterSpec) -> Self {
        match c {
            ClusterSpec::Big => ComponentId::BigCluster,
            ClusterSpec::Little => ComponentId::LittleCluster,
        }
    }
}

/// The workload zoo, by name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum WorkloadKind {
    /// One of the five Nexus study apps.
    App {
        /// `"paper_io"`, `"stickman_hook"`, `"amazon"`,
        /// `"google_hangouts"` or `"facebook"`.
        name: String,
    },
    /// The 3DMark-style benchmark.
    ThreeDMark {
        /// Seconds per graphics test.
        test_duration_s: f64,
    },
    /// The Nenamark-style benchmark.
    Nenamark,
    /// MiBench `basicmath_large`.
    BasicMath,
    /// A steady partial CPU load.
    Steady {
        /// Process name.
        name: String,
        /// Big-equivalent cycles per second.
        rate: f64,
        /// Parallelism.
        threads: f64,
    },
    /// A bursty CPU load.
    Bursty {
        /// Process name.
        name: String,
        /// Burst length in seconds.
        burst_s: f64,
        /// Idle gap in seconds.
        idle_s: f64,
    },
    /// A piecewise-constant CPU load with an explicit phase schedule —
    /// the canonical event-engine workload, since every rate change is a
    /// declared wake point.
    Phased {
        /// Process name.
        name: String,
        /// The schedule, in strictly increasing `until_s` order.
        phases: Vec<ComputePhase>,
    },
}

/// One workload attachment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// What to run.
    #[serde(flatten)]
    pub kind: WorkloadKind,
    /// Where it starts.
    #[serde(default)]
    pub cluster: ClusterSpec,
    /// Whether it is the user-facing app. Nothing reads this flag: it
    /// changes nothing a run produces, and the paper's governor exempts
    /// an app through `realtime`, not through a foreground class.
    #[serde(default)]
    pub foreground: bool,
    /// Whether it registers as real-time (exempt from the proposed
    /// governor).
    #[serde(default)]
    pub realtime: bool,
    /// RNG seed for app models.
    #[serde(default)]
    pub seed: u64,
}

impl WorkloadSpec {
    /// Instantiates the workload, or explains why the spec is invalid.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown app names or non-positive
    /// durations/rates (also surfaced by `mpt_lint` as MPT103).
    pub fn build(&self) -> std::result::Result<Box<dyn Workload>, String> {
        Ok(match &self.kind {
            WorkloadKind::App { name } => {
                let app =
                    NexusApp::from_key(name).ok_or_else(|| format!("unknown app {name:?}"))?;
                Box::new(app.make(self.seed))
            }
            WorkloadKind::ThreeDMark { test_duration_s } => {
                if *test_duration_s <= 0.0 {
                    return Err("3dmark test duration must be positive".to_owned());
                }
                Box::new(ThreeDMark::with_durations(
                    Seconds::new(*test_duration_s),
                    Seconds::new(*test_duration_s),
                ))
            }
            WorkloadKind::Nenamark => Box::new(Nenamark::new()),
            WorkloadKind::BasicMath => Box::new(BasicMathLarge::new()),
            WorkloadKind::Steady {
                name,
                rate,
                threads,
            } => {
                if *rate <= 0.0 || *threads <= 0.0 {
                    return Err("steady rate and threads must be positive".to_owned());
                }
                Box::new(SteadyCompute::new(name.clone(), *rate, *threads))
            }
            WorkloadKind::Bursty {
                name,
                burst_s,
                idle_s,
            } => {
                if *burst_s <= 0.0 || *idle_s <= 0.0 {
                    return Err("burst and idle durations must be positive".to_owned());
                }
                Box::new(BurstyCompute::new(
                    name.clone(),
                    Seconds::new(*burst_s),
                    Seconds::new(*idle_s),
                ))
            }
            WorkloadKind::Phased { name, phases } => {
                Box::new(PhasedCompute::new(name.clone(), phases.clone())?)
            }
        })
    }

    fn display_name(&self) -> String {
        match &self.kind {
            WorkloadKind::App { name } => {
                NexusApp::from_key(name).map_or_else(|| name.clone(), |app| app.name().to_owned())
            }
            WorkloadKind::ThreeDMark { .. } => "3DMark".to_owned(),
            WorkloadKind::Nenamark => "Nenamark".to_owned(),
            WorkloadKind::BasicMath => "basicmath_large".to_owned(),
            WorkloadKind::Steady { name, .. }
            | WorkloadKind::Bursty { name, .. }
            | WorkloadKind::Phased { name, .. } => name.clone(),
        }
    }
}

/// The baseline thermal policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
#[serde(tag = "policy", rename_all = "snake_case")]
pub enum ThermalPolicySpec {
    /// No thermal management (the paper's "without throttling").
    #[default]
    Disabled,
    /// Step-wise trip points over the GPU and big cluster.
    StepWise {
        /// Trip temperatures in Celsius, each released
        /// [`STEPWISE_HYSTERESIS_C`](Self::STEPWISE_HYSTERESIS_C) below.
        trips_c: Vec<f64>,
        /// Poll period in seconds.
        period_s: f64,
    },
    /// ARM Intelligent Power Allocation over the big cluster and GPU.
    Ipa {
        /// Control temperature in Celsius.
        control_c: f64,
        /// Sustainable power in watts.
        sustainable_w: f64,
        /// GPU weight relative to the big cluster's 1.0.
        gpu_weight: f64,
    },
}

impl ThermalPolicySpec {
    /// Release hysteresis of every step-wise trip point, Celsius.
    pub const STEPWISE_HYSTERESIS_C: f64 = 1.5;
    /// Deepest step-wise cooling state of the GPU.
    pub const STEPWISE_GPU_LIMIT: usize = 3;
    /// Deepest step-wise cooling state of the big cluster.
    pub const STEPWISE_BIG_LIMIT: usize = 5;

    /// The trip reference derived observables, fleet statistics and
    /// certificates measure against: the lowest step-wise trip, else the
    /// IPA control temperature. `None` without throttling (or with an
    /// empty step-wise ladder).
    #[must_use]
    pub fn trip_reference_c(&self) -> Option<f64> {
        match self {
            ThermalPolicySpec::Disabled => None,
            ThermalPolicySpec::StepWise { trips_c, .. } => trips_c.iter().copied().reduce(f64::min),
            ThermalPolicySpec::Ipa { control_c, .. } => Some(*control_c),
        }
    }
}

/// The proposed governor's configuration, if enabled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppAwareSpec {
    /// Thermal limit in Celsius.
    pub limit_c: f64,
    /// Violation horizon in seconds.
    #[serde(default = "default_horizon")]
    pub horizon_s: f64,
    /// Use cluster capping instead of migration (ablation).
    #[serde(default)]
    pub cap_instead_of_migrate: bool,
}

fn default_horizon() -> f64 {
    60.0
}

/// A complete, serializable experiment definition.
///
/// # Examples
///
/// ```
/// use mpt_core::scenario::{run_scenario, ScenarioSpec};
///
/// let json = r#"{
///     "platform": "exynos5422",
///     "duration_s": 5.0,
///     "workloads": [
///         { "kind": "basic_math", "cluster": "big" }
///     ]
/// }"#;
/// let spec: ScenarioSpec = serde_json::from_str(json)?;
/// assert_eq!(spec.duration_s, 5.0);
/// let outcome = run_scenario(&spec)?;
/// assert!(outcome.average_power_w > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// The platform to simulate.
    pub platform: PlatformSpec,
    /// Run length in simulated seconds.
    pub duration_s: f64,
    /// Starting temperature (defaults to ambient).
    #[serde(default)]
    pub initial_temperature_c: Option<f64>,
    /// Baseline thermal policy.
    #[serde(default)]
    pub thermal: ThermalPolicySpec,
    /// The proposed application-aware governor, if enabled.
    #[serde(default)]
    pub app_aware: Option<AppAwareSpec>,
    /// Alert rules evaluated online against the run.
    #[serde(default)]
    pub alerts: Vec<mpt_obs::AlertRule>,
    /// The stepping engine (defaults to fixed-dt ticking).
    #[serde(default)]
    pub engine: EngineSpec,
    /// The sensor governors and alerts read, by platform sensor name
    /// (defaults to the platform's hottest-reading control sensor).
    #[serde(default)]
    pub control_sensor: Option<String>,
    /// Canned query expressions (see [`mpt_daq::Query`]) run over
    /// the session's telemetry frame after the run; validated statically
    /// by the MPT401/402 lints.
    #[serde(default)]
    pub queries: Vec<String>,
    /// Workloads to attach.
    pub workloads: Vec<WorkloadSpec>,
}

/// The sweep axes of a [`CampaignSpec`].
///
/// Every non-empty axis multiplies the campaign: the expansion is the
/// cartesian product of all non-empty axes applied over the base
/// scenario. An empty axis inherits the base scenario's setting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SweepAxes {
    /// Platforms to sweep.
    #[serde(default)]
    pub platforms: Vec<PlatformSpec>,
    /// Baseline thermal policies (governors) to sweep.
    #[serde(default)]
    pub thermal: Vec<ThermalPolicySpec>,
    /// Workload sets to sweep; each entry replaces the base workloads.
    #[serde(default)]
    pub workloads: Vec<Vec<WorkloadSpec>>,
    /// Step-wise trip ladders to sweep; each entry replaces the trip
    /// temperatures of the cell's step-wise policy (an error if the
    /// cell's policy is not step-wise).
    #[serde(default)]
    pub trips_c: Vec<Vec<f64>>,
    /// Starting (ambient/pre-warm) temperatures to sweep, in Celsius.
    #[serde(default)]
    pub initial_temperatures_c: Vec<f64>,
    /// Fleet workload-mix levels to sweep; each entry pins the campaign
    /// fleet's `workload_mix` jitter to that fixed multiplier (an error
    /// when the campaign declares no fleet).
    #[serde(default)]
    pub fleet_mix: Vec<f64>,
}

/// Every key a cell label can carry, one per sweep axis, in the order
/// [`CampaignSpec::expand`] writes them.
const AXIS_KEYS: [&str; 6] = [
    "platform",
    "thermal",
    "workloads",
    "trips",
    "ambient",
    "mix",
];

impl SweepAxes {
    /// The axis keys cells of this sweep carry in their labels — the
    /// group-by/filter vocabulary of campaign queries, validated by the
    /// MPT402 lint.
    #[must_use]
    pub fn axis_keys(&self) -> Vec<&'static str> {
        let swept = [
            !self.platforms.is_empty(),
            !self.thermal.is_empty(),
            !self.workloads.is_empty(),
            !self.trips_c.is_empty(),
            !self.initial_temperatures_c.is_empty(),
            !self.fleet_mix.is_empty(),
        ];
        AXIS_KEYS
            .into_iter()
            .zip(swept)
            .filter_map(|(key, swept)| swept.then_some(key))
            .collect()
    }

    /// How many cells these axes expand to (product of non-empty axes).
    #[must_use]
    pub(crate) fn cell_count(&self) -> usize {
        fn len(n: usize) -> usize {
            n.max(1)
        }
        len(self.platforms.len())
            * len(self.thermal.len())
            * len(self.workloads.len())
            * len(self.trips_c.len())
            * len(self.initial_temperatures_c.len())
            * len(self.fleet_mix.len())
    }
}

/// A scenario *campaign*: one base scenario plus sweep axes, expanding
/// into a grid of scenarios (cells) run by
/// [`run_campaign`](crate::campaign::run_campaign).
///
/// Campaign files use the same JSON surface as scenarios:
///
/// ```sh
/// cargo run --release -p mpt-bench --bin run_scenario -- \
///     --campaign scenarios/odroid_policy_sweep.campaign.json --jobs 4
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// The scenario every cell starts from.
    pub base: ScenarioSpec,
    /// The axes swept over the base.
    #[serde(default)]
    pub sweep: SweepAxes,
    /// Campaign seed. `0` (the default) leaves every workload's own seed
    /// untouched, giving a controlled sweep; any other value derives a
    /// deterministic per-cell seed from `(seed, cell index)` and adds it
    /// to each workload's seed, decorrelating the cells. Seeds are
    /// assigned at expansion time, so results never depend on how many
    /// worker threads execute the campaign.
    #[serde(default)]
    pub seed: u64,
    /// Canned query expressions run over the campaign's frames after
    /// every cell completes (e.g. `"p99(max_temp_c) by platform"`);
    /// validated statically by the MPT401/402 lints.
    #[serde(default)]
    pub queries: Vec<String>,
    /// Simulated install base: when set, every cell additionally replays
    /// its canonical run across `devices` jittered devices through the
    /// batched thermal kernel and reports population outcomes
    /// (throttle-onset CDF, time-above-trip quantiles, peak-temperature
    /// histogram). Validated by the MPT501 lint.
    #[serde(default)]
    pub fleet: Option<mpt_soc::FleetSpec>,
}

/// One expanded cell of a campaign: a concrete scenario with its label
/// and seed fixed at expansion time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignCell {
    /// Position in the expansion order.
    pub index: usize,
    /// Human-readable summary of the swept axis values.
    pub label: String,
    /// The seed mixed into this cell's workloads (0 when the campaign
    /// seed is 0).
    pub seed: u64,
    /// The fully resolved scenario.
    pub scenario: ScenarioSpec,
    /// The cell's fleet population, with any `fleet_mix` axis value
    /// already applied (`None` for classic one-device cells).
    #[serde(default)]
    pub fleet: Option<mpt_soc::FleetSpec>,
}

impl CampaignCell {
    /// The cell's sweep-axis values, parsed back out of its label:
    /// `"platform=exynos5422 ambient=35C"` →
    /// `[("platform", "exynos5422"), ("ambient", "35C")]`. Unswept
    /// campaigns (`"cell 0"` labels) have no axes.
    #[must_use]
    pub(crate) fn axes(&self) -> Vec<(String, String)> {
        label_axes(&self.label)
    }
}

/// Parses a cell label's `key=value` parts into axis pairs — the inverse
/// of the label construction in [`CampaignSpec::expand`]. A pair starts
/// only at a space-separated `<key>=` whose key is one of the axis keys
/// `expand` writes, so values keep their spaces (`"workloads=Stickman Hook"` →
/// `[("workloads", "Stickman Hook")]`). Labels without such parts (e.g.
/// `"cell 0"`) yield no axes.
#[must_use]
pub(crate) fn label_axes(label: &str) -> Vec<(String, String)> {
    let mut axes: Vec<(String, String)> = Vec::new();
    for token in label.split(' ') {
        match token.split_once('=') {
            Some((key, value)) if AXIS_KEYS.contains(&key) => {
                axes.push((key.to_owned(), value.to_owned()));
            }
            _ => {
                if let Some((_, value)) = axes.last_mut() {
                    value.push(' ');
                    value.push_str(token);
                }
            }
        }
    }
    axes
}

fn thermal_label(t: &ThermalPolicySpec) -> String {
    match t {
        ThermalPolicySpec::Disabled => "disabled".to_owned(),
        ThermalPolicySpec::StepWise { trips_c, .. } => format!(
            "step_wise({})",
            trips_c
                .iter()
                .map(|c| format!("{c}"))
                .collect::<Vec<_>>()
                .join("/")
        ),
        ThermalPolicySpec::Ipa { sustainable_w, .. } => format!("ipa({sustainable_w}W)"),
    }
}

impl CampaignSpec {
    /// Expands the campaign into its cells, in deterministic order.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if a `trips_c` axis is combined with a
    /// non-step-wise thermal policy.
    pub fn expand(&self) -> Result<Vec<CampaignCell>> {
        fn axis<T: Clone>(values: &[T]) -> Vec<Option<T>> {
            if values.is_empty() {
                vec![None]
            } else {
                values.iter().cloned().map(Some).collect()
            }
        }
        let platforms = axis(&self.sweep.platforms);
        let thermals = axis(&self.sweep.thermal);
        let workload_sets = axis(&self.sweep.workloads);
        let trip_sets = axis(&self.sweep.trips_c);
        let ambients = axis(&self.sweep.initial_temperatures_c);
        let mixes = axis(&self.sweep.fleet_mix);
        if !self.sweep.fleet_mix.is_empty() && self.fleet.is_none() {
            return Err(invalid(
                "fleet_mix sweep needs a campaign-level fleet".into(),
            ));
        }
        let mut cells = Vec::with_capacity(self.sweep.cell_count());
        for platform in &platforms {
            for thermal in &thermals {
                for workloads in &workload_sets {
                    for trips in &trip_sets {
                        for ambient in &ambients {
                            for mix in &mixes {
                                let mut scenario = self.base.clone();
                                let mut label = Vec::new();
                                if let Some(p) = platform {
                                    scenario.platform = *p;
                                    label.push(format!(
                                        "platform={}",
                                        match p {
                                            PlatformSpec::Snapdragon810 => "snapdragon810",
                                            PlatformSpec::Exynos5422 => "exynos5422",
                                        }
                                    ));
                                }
                                if let Some(t) = thermal {
                                    scenario.thermal = t.clone();
                                    label.push(format!("thermal={}", thermal_label(t)));
                                }
                                if let Some(w) = workloads {
                                    scenario.workloads.clone_from(w);
                                    label.push(format!(
                                        "workloads={}",
                                        w.iter()
                                            .map(WorkloadSpec::display_name)
                                            .collect::<Vec<_>>()
                                            .join("+")
                                    ));
                                }
                                if let Some(t) = trips {
                                    match &mut scenario.thermal {
                                        ThermalPolicySpec::StepWise { trips_c, .. } => {
                                            trips_c.clone_from(t);
                                        }
                                        other => {
                                            return Err(invalid(format!(
                                                "trips_c sweep needs a step_wise policy, \
                                             cell has {}",
                                                thermal_label(other)
                                            )));
                                        }
                                    }
                                    label.push(format!(
                                        "trips={}",
                                        t.iter()
                                            .map(|c| format!("{c}"))
                                            .collect::<Vec<_>>()
                                            .join("/")
                                    ));
                                }
                                if let Some(a) = ambient {
                                    scenario.initial_temperature_c = Some(*a);
                                    label.push(format!("ambient={a}C"));
                                }
                                let mut fleet = self.fleet.clone();
                                if let Some(m) = mix {
                                    let spec = fleet
                                        .as_mut()
                                        .expect("fleet_mix sweep checked against a fleet above");
                                    spec.workload_mix = mpt_soc::ParamJitter::fixed(*m);
                                    label.push(format!("mix={m}"));
                                }
                                let index = cells.len();
                                let seed = if self.seed == 0 {
                                    0
                                } else {
                                    splitmix64(
                                        self.seed
                                            ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                                    )
                                };
                                for w in &mut scenario.workloads {
                                    w.seed = w.seed.wrapping_add(seed);
                                }
                                cells.push(CampaignCell {
                                    index,
                                    label: if label.is_empty() {
                                        format!("cell {index}")
                                    } else {
                                        label.join(" ")
                                    },
                                    seed,
                                    scenario,
                                    fleet,
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(cells)
    }
}

/// Per-workload results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadOutcome {
    /// The workload's display name.
    pub name: String,
    /// Median FPS, if it renders frames.
    pub median_fps: Option<f64>,
    /// The cluster it ended on.
    pub final_cluster: String,
}

/// The outcome of a scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Peak temperature over the run, Celsius.
    pub peak_temperature_c: f64,
    /// Average total power, watts.
    pub average_power_w: f64,
    /// Total energy, joules.
    pub energy_j: f64,
    /// Per-workload results.
    pub workloads: Vec<WorkloadOutcome>,
    /// Migrations performed by the proposed governor.
    pub migrations: u64,
    /// The rendered event log.
    pub events: String,
}

fn invalid(reason: String) -> SimError {
    SimError::InvalidConfig { reason }
}

/// Builds the simulator a spec describes.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] for malformed specs; other [`SimError`]s
/// from the builder.
pub fn build_scenario(
    spec: &ScenarioSpec,
) -> Result<(Simulator, Option<std::sync::Arc<GovernorStats>>)> {
    build_scenario_cached(spec, None, None)
}

/// [`build_scenario`] with an explicit observability recorder and a
/// shared transition-matrix cache — the campaign runner passes one
/// recorder so every cell's spans and counters land in a single
/// trace/metrics set, and one cache so cells sweeping the same platform
/// and tick factor each discretization exactly once.
///
/// # Errors
///
/// As [`build_scenario`].
pub fn build_scenario_cached(
    spec: &ScenarioSpec,
    recorder: Option<std::sync::Arc<mpt_obs::Recorder>>,
    solver_cache: Option<std::sync::Arc<TransitionCache>>,
) -> Result<(Simulator, Option<std::sync::Arc<GovernorStats>>)> {
    if spec.duration_s <= 0.0 {
        return Err(invalid("duration must be positive".into()));
    }
    if spec.workloads.is_empty() {
        return Err(invalid("a scenario needs at least one workload".into()));
    }
    let platform = spec.platform.build();
    let mut builder = SimBuilder::new(platform.clone()).stepping(spec.engine.to_mode());
    if let Some(cache) = solver_cache {
        builder = builder.solver_cache(cache);
    }
    if let Some(rec) = recorder {
        builder = builder.recorder(rec);
    }
    if let Some(t0) = spec.initial_temperature_c {
        builder = builder.initial_temperature(Celsius::new(t0));
    }
    if let Some(sensor) = &spec.control_sensor {
        builder = builder.control_sensor(sensor.clone());
    }
    match &spec.thermal {
        ThermalPolicySpec::Disabled => {}
        ThermalPolicySpec::StepWise { trips_c, period_s } => {
            if trips_c.is_empty() {
                return Err(invalid("step_wise needs at least one trip".into()));
            }
            let hysteresis = Celsius::new(ThermalPolicySpec::STEPWISE_HYSTERESIS_C);
            let trips = trips_c
                .iter()
                .map(|&c| TripPoint::new(Celsius::new(c), hysteresis))
                .collect();
            let governed = vec![
                (
                    platform
                        .component(ComponentId::Gpu)
                        .map_err(|e| invalid(e.to_string()))?
                        .clone(),
                    ThermalPolicySpec::STEPWISE_GPU_LIMIT,
                ),
                (
                    platform
                        .component(ComponentId::BigCluster)
                        .map_err(|e| invalid(e.to_string()))?
                        .clone(),
                    ThermalPolicySpec::STEPWISE_BIG_LIMIT,
                ),
            ];
            builder = builder
                .thermal_governor(Box::new(StepWiseGovernor::with_state_limits(
                    trips, governed,
                )))
                .thermal_period(Seconds::new(*period_s));
        }
        ThermalPolicySpec::Ipa {
            control_c,
            sustainable_w,
            gpu_weight,
        } => {
            if *gpu_weight <= 0.0 {
                return Err(invalid("ipa gpu weight must be positive".into()));
            }
            builder = builder.thermal_governor(Box::new(IpaGovernor::with_weights(
                IpaConfig {
                    control_temp: Celsius::new(*control_c),
                    sustainable_power: Watts::new(*sustainable_w),
                    ..IpaConfig::default()
                },
                vec![
                    (
                        platform
                            .component(ComponentId::BigCluster)
                            .map_err(|e| invalid(e.to_string()))?
                            .clone(),
                        1.0,
                    ),
                    (
                        platform
                            .component(ComponentId::Gpu)
                            .map_err(|e| invalid(e.to_string()))?
                            .clone(),
                        *gpu_weight,
                    ),
                ],
            )));
        }
    }
    if let Some(trip_c) = spec.thermal.trip_reference_c() {
        builder = builder.trip_reference(Celsius::new(trip_c));
    }
    builder = builder.alert_rules(spec.alerts.clone());
    let mut stats = None;
    if let Some(aa) = &spec.app_aware {
        let gov = AppAwareGovernor::new(AppAwareConfig {
            thermal_limit: Celsius::new(aa.limit_c),
            horizon: Seconds::new(aa.horizon_s),
            action: if aa.cap_instead_of_migrate {
                ThrottleAction::CapBigCluster
            } else {
                ThrottleAction::MigrateToLittle
            },
            ..AppAwareConfig::default()
        });
        stats = Some(gov.stats());
        builder = builder.system_policy(Box::new(gov));
    }
    for w in &spec.workloads {
        let workload = w.build().map_err(invalid)?;
        builder = if w.realtime {
            builder.attach_realtime(workload, w.cluster.into())
        } else {
            builder.attach(workload, w.cluster.into())
        };
    }
    Ok((builder.build()?, stats))
}

/// Runs a scenario to completion and summarizes it.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] for malformed specs; simulator errors
/// otherwise.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<ScenarioOutcome> {
    run_scenario_analyzed(spec, None).map(|(outcome, _)| outcome)
}

/// [`run_scenario`] recording into an explicit (usually shared)
/// observability recorder and returning the session analysis — derived
/// observables, fired alerts and frequency residency — alongside the
/// outcome. Both halves depend only on simulated time, so they are
/// bit-identical across repeats and worker counts.
///
/// # Errors
///
/// As [`run_scenario`].
pub fn run_scenario_analyzed(
    spec: &ScenarioSpec,
    recorder: Option<std::sync::Arc<mpt_obs::Recorder>>,
) -> Result<(ScenarioOutcome, crate::report::SessionAnalysis)> {
    run_scenario_framed_cached(spec, recorder, None)
        .map(|(outcome, analysis, _)| (outcome, analysis))
}

/// [`run_scenario_analyzed`] sharing a transition-matrix cache across
/// runs (see [`build_scenario_cached`]) and additionally returning the
/// session's columnar telemetry frame — the surface `--columnar-out`,
/// `--query` and campaign-level aggregation read. Frame contents are a
/// pure function of simulated time, so they share the
/// bit-identical-across-workers guarantee of the outcome and analysis.
///
/// # Errors
///
/// As [`run_scenario`].
pub fn run_scenario_framed_cached(
    spec: &ScenarioSpec,
    recorder: Option<std::sync::Arc<mpt_obs::Recorder>>,
    solver_cache: Option<std::sync::Arc<TransitionCache>>,
) -> Result<(
    ScenarioOutcome,
    crate::report::SessionAnalysis,
    mpt_daq::ColumnFrame,
)> {
    run_scenario_framed_traced(spec, recorder, solver_cache, false)
        .map(|(outcome, analysis, frame, _)| (outcome, analysis, frame))
}

/// [`run_scenario_framed_cached`] optionally capturing the per-tick
/// node-power plane the thermal stage injects — the canonical-run entry
/// point of the fleet replay (`capture_trace` implies nothing about the
/// stepping mode; fleet callers force fixed-dt so the trace sits on a
/// uniform grid).
pub(crate) fn run_scenario_framed_traced(
    spec: &ScenarioSpec,
    recorder: Option<std::sync::Arc<mpt_obs::Recorder>>,
    solver_cache: Option<std::sync::Arc<TransitionCache>>,
    capture_trace: bool,
) -> Result<(
    ScenarioOutcome,
    crate::report::SessionAnalysis,
    mpt_daq::ColumnFrame,
    Option<mpt_workloads::PowerTrace>,
)> {
    let (mut sim, stats) = build_scenario_cached(spec, recorder, solver_cache)?;
    if capture_trace {
        sim.enable_power_trace();
    }
    let wall_start = mpt_obs::clock::now();
    sim.run_for(Seconds::new(spec.duration_s))?;
    {
        // Per-run rollups for the live journal. Everything but `wall_us`
        // is a pure function of simulated state (and `wall_us` is zeroed
        // by the deterministic replay normalization).
        use mpt_obs::journal::JournalKind;
        let journal = sim.recorder().journal();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let sim_us = (sim.time().value() * 1e6).round().max(0.0) as u64;
        let passes = sim.clock().steps();
        let wall_us =
            u64::try_from(mpt_obs::clock::elapsed(wall_start).as_micros()).unwrap_or(u64::MAX);
        journal.emit(
            Some(sim_us),
            JournalKind::StageRollup {
                passes,
                stage_runs: passes * sim.stage_names().len() as u64,
                wall_us,
            },
        );
        let stats = sim.macro_stats();
        journal.emit(
            Some(sim_us),
            JournalKind::QueueStats {
                events_popped: stats.events_popped,
                wakes_coalesced: stats.wakes_coalesced,
                trip_bisection_iters: stats.trip_bisection_iters,
            },
        );
    }
    let analysis = crate::report::SessionAnalysis::from_sim(&sim);
    let workloads = spec
        .workloads
        .iter()
        .map(|w| {
            let name = w.display_name();
            let pid = sim.pid_of(&name);
            WorkloadOutcome {
                median_fps: pid.and_then(|p| sim.median_fps(p)),
                final_cluster: pid
                    .and_then(|p| sim.scheduler().process(p))
                    .map_or_else(|| "?".to_owned(), |p| p.cluster().to_string()),
                name,
            }
        })
        .collect();
    let outcome = ScenarioOutcome {
        peak_temperature_c: sim.telemetry().max_temperature().max().unwrap_or(f64::NAN),
        average_power_w: sim.telemetry().average_total_power().value(),
        energy_j: sim.telemetry().total_energy(),
        workloads,
        migrations: stats.map_or(0, |s| s.migrations()),
        events: sim.events().render(),
    };
    let frame = sim.telemetry().frame().clone();
    let trace = sim.take_power_trace();
    Ok((outcome, analysis, frame, trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bml_spec() -> ScenarioSpec {
        ScenarioSpec {
            platform: PlatformSpec::Exynos5422,
            duration_s: 5.0,
            initial_temperature_c: Some(50.0),
            thermal: ThermalPolicySpec::Disabled,
            app_aware: None,
            alerts: Vec::new(),
            engine: EngineSpec::default(),
            control_sensor: None,
            workloads: vec![WorkloadSpec {
                kind: WorkloadKind::BasicMath,
                cluster: ClusterSpec::Big,
                foreground: false,
                realtime: false,
                seed: 0,
            }],
            queries: Vec::new(),
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = bml_spec();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn runs_a_minimal_scenario() {
        let outcome = run_scenario(&bml_spec()).unwrap();
        assert!(
            outcome.average_power_w > 0.5,
            "power {}",
            outcome.average_power_w
        );
        assert!(outcome.peak_temperature_c > 50.0);
        assert_eq!(outcome.workloads[0].final_cluster, "big");
        assert_eq!(outcome.migrations, 0);
    }

    #[test]
    fn app_aware_scenario_migrates() {
        let mut spec = bml_spec();
        spec.duration_s = 20.0;
        spec.initial_temperature_c = Some(80.0);
        // BML alone settles around ~60 C; a 50 C limit forces the
        // governor to act.
        spec.app_aware = Some(AppAwareSpec {
            limit_c: 50.0,
            horizon_s: 60.0,
            cap_instead_of_migrate: false,
        });
        let outcome = run_scenario(&spec).unwrap();
        assert!(outcome.migrations >= 1);
        assert_eq!(outcome.workloads[0].final_cluster, "little");
        assert!(outcome.events.contains("migrated"));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut spec = bml_spec();
        spec.duration_s = 0.0;
        assert!(run_scenario(&spec).is_err());

        let mut spec = bml_spec();
        spec.workloads.clear();
        assert!(run_scenario(&spec).is_err());

        let mut spec = bml_spec();
        spec.workloads[0].kind = WorkloadKind::App {
            name: "tiktok".into(),
        };
        assert!(run_scenario(&spec).is_err());

        let mut spec = bml_spec();
        spec.control_sensor = Some("skin_xyz".into());
        assert!(run_scenario(&spec).is_err());
    }

    #[test]
    fn control_sensor_field_selects_a_platform_sensor() {
        let mut spec = bml_spec();
        spec.duration_s = 1.0;
        spec.control_sensor = Some("gpu".into());
        let outcome = run_scenario(&spec).unwrap();
        assert!(outcome.peak_temperature_c.is_finite());
    }

    #[test]
    fn engine_field_defaults_and_parses() {
        // Absent field → fixed-dt (the historical loop).
        let spec = bml_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.engine, EngineSpec::Fixed);

        let json = r#"{
            "platform": "exynos5422",
            "duration_s": 1.0,
            "engine": "event",
            "workloads": [ { "kind": "basic_math" } ]
        }"#;
        let spec: ScenarioSpec = serde_json::from_str(json).unwrap();
        assert_eq!(spec.engine, EngineSpec::Event);
        assert_eq!(spec.engine.to_mode(), SteppingMode::EventDriven);

        let bad = json.replace("\"event\"", "\"warp\"");
        assert!(serde_json::from_str::<ScenarioSpec>(&bad).is_err());
    }

    #[test]
    fn engines_agree_on_scenario_outcome() {
        // BasicMath makes no phase promise, so the event engine stays on
        // the every-tick path and the runs are bit-identical.
        let fixed = run_scenario(&bml_spec()).unwrap();
        let mut spec = bml_spec();
        spec.engine = EngineSpec::Event;
        let event = run_scenario(&spec).unwrap();
        assert_eq!(fixed.peak_temperature_c, event.peak_temperature_c);
        assert_eq!(fixed.average_power_w, event.average_power_w);
        assert_eq!(fixed.events, event.events);
    }

    #[test]
    fn phased_workload_runs_under_both_engines() {
        let phases = vec![
            ComputePhase {
                until_s: 2.0,
                rate: 2.0e9,
                threads: 2.0,
            },
            ComputePhase {
                until_s: 5.0,
                rate: 0.2e9,
                threads: 1.0,
            },
        ];
        let mut spec = bml_spec();
        spec.workloads[0].kind = WorkloadKind::Phased {
            name: "install".into(),
            phases: phases.clone(),
        };
        let fixed = run_scenario(&spec).unwrap();
        spec.engine = EngineSpec::Event;
        let event = run_scenario(&spec).unwrap();
        assert!(
            (fixed.peak_temperature_c - event.peak_temperature_c).abs() < 0.1,
            "fixed {} vs event {}",
            fixed.peak_temperature_c,
            event.peak_temperature_c
        );
        assert_eq!(fixed.workloads[0].name, "install");
    }

    #[test]
    fn phased_schedule_must_be_monotonic() {
        let mut spec = bml_spec();
        spec.workloads[0].kind = WorkloadKind::Phased {
            name: "broken".into(),
            phases: vec![
                ComputePhase {
                    until_s: 5.0,
                    rate: 1.0e9,
                    threads: 1.0,
                },
                ComputePhase {
                    until_s: 3.0,
                    rate: 1.0e9,
                    threads: 1.0,
                },
            ],
        };
        let err = run_scenario(&spec).unwrap_err();
        assert!(err.to_string().contains("phase"), "got {err}");
    }

    #[test]
    fn step_wise_policy_from_json() {
        let json = r#"{
            "platform": "snapdragon810",
            "duration_s": 10.0,
            "initial_temperature_c": 35.0,
            "thermal": { "policy": "step_wise", "trips_c": [41.0, 44.0], "period_s": 1.0 },
            "workloads": [
                { "kind": "app", "name": "paper_io", "foreground": true, "seed": 42 }
            ]
        }"#;
        let spec: ScenarioSpec = serde_json::from_str(json).unwrap();
        let outcome = run_scenario(&spec).unwrap();
        assert_eq!(outcome.workloads[0].name, "Paper.io");
        assert!(outcome.workloads[0].median_fps.is_some());
    }
}
