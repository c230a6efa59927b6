//! The simulation engine: shared core state plus the staged pipeline.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use mpt_kernel::{CpuFreqPolicy, Pid, Scheduler, ThermalAction};
use mpt_obs::{Counter, HistId, Recorder};
use mpt_soc::{Component, ComponentId, Platform, PowerBreakdown};
use mpt_sysfs::{Attribute, SysFs};
use mpt_thermal::RcNetwork;
use mpt_units::{Celsius, Hertz, Kelvin, Seconds, Watts};
use mpt_workloads::Workload;

use crate::analysis::RunAnalysis;
use crate::clock::SimClock;
use crate::queue::{EventQueue, WakeKind};
use crate::stages::{SimStage, StepContext, Wake};
use crate::{Event, EventKind, EventLog, Result, Telemetry};

/// How the simulator advances time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SteppingMode {
    /// The classic loop: one pipeline pass per base tick, always.
    #[default]
    FixedDt,
    /// The macro-stepper: between scheduled events (governor polls,
    /// phase changes, sample points, alert deadlines, predicted trip
    /// crossings) the thermal/power state jumps analytically in one
    /// solver call over a multi-tick gap.
    EventDriven,
}

impl SteppingMode {
    /// Stable lowercase key (`"fixed"` / `"event"`), as accepted by
    /// `--engine` and the scenario `"engine"` field.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            SteppingMode::FixedDt => "fixed",
            SteppingMode::EventDriven => "event",
        }
    }
}

impl std::fmt::Display for SteppingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

impl std::str::FromStr for SteppingMode {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "fixed" => Ok(SteppingMode::FixedDt),
            "event" => Ok(SteppingMode::EventDriven),
            other => Err(format!(
                "unknown engine {other:?}; use \"fixed\" or \"event\""
            )),
        }
    }
}

pub(crate) struct Attached {
    pub(crate) pid: Pid,
    pub(crate) workload: Box<dyn Workload>,
}

/// Appends a discrete event and bumps its per-kind counter — the one
/// place the event log and the metrics snapshot are kept in step (the
/// kind-to-counter mapping is [`Counter::for_event_kind`] over
/// [`EventKind::key`]). A free function over the two fields so call
/// sites holding other `SimCore` borrows can still log.
pub(crate) fn log_event(recorder: &Recorder, events: &mut EventLog, event: Event) {
    if let Some(counter) = Counter::for_event_kind(event.kind.key()) {
        recorder.incr(counter);
    }
    events.push(event);
}

impl std::fmt::Debug for Attached {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Attached")
            .field("pid", &self.pid)
            .field("workload", &self.workload.name())
            .finish()
    }
}

/// The shared simulation state every [`SimStage`] operates on: the
/// platform, the live thermal network, the process table, per-component
/// cpufreq policies, attached workloads, telemetry, the event log, and
/// the sysfs control plane.
///
/// Per-tick scratch state lives in [`StepContext`]; per-pipeline state
/// (governor accumulators, previous-tick snapshots) lives inside the
/// stages themselves.
#[derive(Debug)]
pub struct SimCore {
    pub(crate) platform: Platform,
    pub(crate) network: RcNetwork,
    pub(crate) scheduler: Scheduler,
    pub(crate) policies: BTreeMap<ComponentId, CpuFreqPolicy>,
    pub(crate) control_sensor: Option<String>,
    pub(crate) workloads: Vec<Attached>,
    pub(crate) clock: SimClock,
    pub(crate) telemetry: Telemetry,
    pub(crate) sysfs: SysFs,
    pub(crate) last_powers: BTreeMap<ComponentId, PowerBreakdown>,
    /// Cluster moves requested through the cpuset control plane, applied
    /// at the start of the next tick.
    pub(crate) pending_migrations: Arc<Mutex<Vec<(Pid, ComponentId)>>>,
    /// The numbers behind the live sysfs files.
    pub(crate) live: Arc<LiveSysfs>,
    pub(crate) events: EventLog,
    /// The run's observability recorder (shared with the campaign layer
    /// when several simulators feed one trace).
    pub(crate) recorder: Arc<Recorder>,
    /// Online derived observables and alert rules, advanced by the
    /// `analyze` stage.
    pub(crate) analysis: RunAnalysis,
    /// Event-engine queue totals for this run (all zero under fixed-dt).
    pub(crate) macro_stats: MacroStats,
    /// Per-tick node-power capture for fleet canonical runs (`None` when
    /// tracing is off — the thermal stage then pays one branch per tick).
    pub(crate) power_trace: Option<mpt_workloads::PowerTrace>,
}

/// The raw numbers behind the simulator's live sysfs files, shared with
/// their handlers. The pipeline stores them once per pass
/// ([`SimCore::publish_sysfs`]); a file formats its number in its unit
/// only when someone reads it. `scaling_max_freq` writes land here too.
/// Each slot is a self-contained number that publishes no other data,
/// so every access is `Relaxed`.
#[derive(Debug)]
pub(crate) struct LiveSysfs {
    /// `scaling_cur_freq` in kHz, indexed by `ComponentId as usize`.
    cur_khz: [AtomicU64; 4],
    /// `scaling_max_freq` in kHz, indexed by `ComponentId as usize`.
    max_khz: [AtomicU64; 4],
    /// Thermal-zone temperatures in °C as `f64` bits, by zone.
    zone_c: Vec<AtomicU64>,
    /// Power-rail readings in W as `f64` bits, by rail.
    rail_w: Vec<AtomicU64>,
    /// Each attached process's cluster as a `ComponentId as u8` code,
    /// in attach order.
    cluster: Vec<AtomicU8>,
}

impl LiveSysfs {
    pub(crate) fn new(platform: &Platform, processes: usize) -> Self {
        let slots = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        Self {
            cur_khz: Default::default(),
            max_khz: Default::default(),
            zone_c: slots(platform.temperature_sensors().len()),
            rail_w: slots(platform.power_rails().len()),
            cluster: (0..processes).map(|_| AtomicU8::new(0)).collect(),
        }
    }
}

/// A sysfs read handler over the shared [`LiveSysfs`].
fn live_read(
    live: &Arc<LiveSysfs>,
    read: impl Fn(&LiveSysfs) -> String + Send + Sync + 'static,
) -> impl Fn() -> String + Send + Sync + 'static {
    let live = Arc::clone(live);
    move || read(&live)
}

fn load_f64(slot: &AtomicU64) -> f64 {
    f64::from_bits(slot.load(Ordering::Relaxed))
}

/// Per-run event-engine queue totals, mirrored into the recorder's
/// counters and reported to the live journal at the end of a run. Driven
/// purely by simulated state, so deterministic across worker counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MacroStats {
    /// Wake events popped off the queue (one per macro pass that
    /// consumed a scheduled wake).
    pub events_popped: u64,
    /// Queued wakes absorbed into an already-running macro pass.
    pub wakes_coalesced: u64,
    /// Bisection iterations spent refining trip-crossing wake times.
    pub trip_bisection_iters: u64,
}

impl SimCore {
    pub(crate) fn component(&self, id: ComponentId) -> &Component {
        self.platform
            .component(id)
            .expect("policies only exist for platform components")
    }

    pub(crate) fn sensor_temps(&self) -> Vec<(String, Celsius)> {
        self.platform
            .temperature_sensors()
            .iter()
            .filter_map(|s| {
                self.network
                    .celsius_of(s.thermal_node())
                    .ok()
                    .map(|c| (s.name().to_owned(), c))
            })
            .collect()
    }

    /// The worst frame rate across the attached workloads' pipelines, or
    /// `None` when none renders: a dropped foreground frame must not be
    /// masked by a fast background renderer.
    pub(crate) fn worst_fps(&self) -> Option<f64> {
        self.workloads
            .iter()
            .filter_map(|a| a.workload.current_fps())
            .fold(None, |acc: Option<f64>, f| {
                Some(acc.map_or(f, |a| a.min(f)))
            })
    }

    pub(crate) fn control_temperature(&self) -> Celsius {
        let temps = self.sensor_temps();
        if let Some(sensor) = &self.control_sensor {
            if let Some((_, c)) = temps.iter().find(|(n, _)| n == sensor) {
                return *c;
            }
        }
        temps
            .iter()
            .map(|(_, c)| *c)
            .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max)
    }

    /// Evaluates the control temperature `dt` ahead of the current state
    /// under constant `node_powers`, without advancing the network — the
    /// probe the event engine bisects on for trip-crossing prediction.
    pub(crate) fn peek_control_temperature(
        &mut self,
        dt: Seconds,
        node_powers: &[Watts],
    ) -> Result<Celsius> {
        let temps = self.network.peek(dt, node_powers)?;
        let temp_of = |node: &str| -> Option<Celsius> {
            self.network.node_index(node).map(|i| temps[i].to_celsius())
        };
        if let Some(sensor_name) = &self.control_sensor {
            if let Some(sensor) = self
                .platform
                .temperature_sensors()
                .iter()
                .find(|s| s.name() == sensor_name.as_str())
            {
                if let Some(c) = temp_of(sensor.thermal_node()) {
                    return Ok(c);
                }
            }
        }
        Ok(self
            .platform
            .temperature_sensors()
            .iter()
            .filter_map(|s| temp_of(s.thermal_node()))
            .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max))
    }

    /// Hash of the control state the macro-stepper must not jump across
    /// a change of: per-policy frequency and cap, the interaction latch,
    /// and each workload's cluster placement and completion flag. Demand
    /// *rates* are deliberately absent — the
    /// [`Workload::next_phase_change`](mpt_workloads::Workload) contract
    /// covers those.
    pub(crate) fn control_fingerprint(&self, interaction: bool) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (&id, policy) in &self.policies {
            id.key().hash(&mut h);
            policy.current().as_khz().hash(&mut h);
            policy.max_cap().map(Hertz::as_khz).hash(&mut h);
        }
        interaction.hash(&mut h);
        for a in &self.workloads {
            if let Some(p) = self.scheduler.process(a.pid) {
                p.cluster().key().hash(&mut h);
            }
            a.workload.is_finished().hash(&mut h);
        }
        h.finish()
    }

    /// Writes a sysfs attribute on behalf of the simulator core, counting
    /// the write.
    pub(crate) fn sysfs_write(&self, path: &str, value: &str) -> Result<()> {
        self.recorder.incr(Counter::SysfsWrites);
        self.sysfs.write(path, value)?;
        Ok(())
    }

    pub(crate) fn apply_thermal_actions(&mut self, actions: &[ThermalAction]) -> Result<()> {
        for action in actions {
            match *action {
                ThermalAction::SetMaxFreq { component, freq } => {
                    self.recorder.incr(Counter::ThrottleEvents);
                    let path = mpt_kernel::paths::max_freq(component);
                    self.sysfs_write(&path, &freq.as_khz().to_string())?;
                }
                ThermalAction::ClearCap { component } => {
                    let top = self.component(component).opps().highest().frequency();
                    let path = mpt_kernel::paths::max_freq(component);
                    self.sysfs_write(&path, &top.as_khz().to_string())?;
                }
            }
        }
        // Caps take effect immediately within the same poll.
        self.apply_sysfs_caps();
        Ok(())
    }

    pub(crate) fn register_sysfs(&mut self) -> Result<()> {
        for component in self.platform.components() {
            let id = component.id();
            let top = component.opps().highest().frequency();
            let freq_list = component
                .opps()
                .frequencies()
                .map(|f| f.as_khz().to_string())
                .collect::<Vec<_>>()
                .join(" ");
            self.sysfs.register(
                &mpt_kernel::paths::available_frequencies(id),
                Attribute::constant(freq_list),
            )?;
            self.sysfs.register(
                &mpt_kernel::paths::cur_freq(id),
                Attribute::read_only(live_read(&self.live, move |l| {
                    l.cur_khz[id as usize].load(Ordering::Relaxed).to_string()
                })),
            )?;
            // A cap must be a kHz value whose Hz fit in a u64, or the
            // write is refused (EINVAL) and the old cap stays.
            self.live.max_khz[id as usize].store(top.as_khz(), Ordering::Relaxed);
            let live = Arc::clone(&self.live);
            self.sysfs.register(
                &mpt_kernel::paths::max_freq(id),
                Attribute::with_handlers(
                    live_read(&self.live, move |l| {
                        l.max_khz[id as usize].load(Ordering::Relaxed).to_string()
                    }),
                    move |v| {
                        let khz = (v.trim().parse::<u64>().ok())
                            .filter(|&k| k <= u64::MAX / 1_000)
                            .ok_or("not a kHz frequency")?;
                        live.max_khz[id as usize].store(khz, Ordering::Relaxed);
                        Ok(())
                    },
                ),
            )?;
            // Nothing applies a floor or a governor change written here,
            // so both files refuse writes rather than accept and ignore.
            self.sysfs.register(
                &mpt_kernel::paths::min_freq(id),
                Attribute::constant(component.opps().lowest().frequency().as_khz().to_string()),
            )?;
            self.sysfs.register(
                &mpt_kernel::paths::governor(id),
                Attribute::constant(self.policies[&id].governor_name()),
            )?;
        }
        for (zone, sensor) in self.platform.temperature_sensors().iter().enumerate() {
            self.sysfs.register(
                &mpt_kernel::paths::thermal_zone_type(zone),
                Attribute::constant(sensor.name()),
            )?;
            // Millidegrees, as in real thermal zones.
            self.sysfs.register(
                &mpt_kernel::paths::thermal_zone_temp(zone),
                Attribute::read_only(live_read(&self.live, move |l| {
                    ((load_f64(&l.zone_c[zone]) * 1000.0).round() as i64).to_string()
                })),
            )?;
        }
        for (i, rail) in self.platform.power_rails().iter().enumerate() {
            self.sysfs.register(
                &mpt_kernel::paths::power_rail_uw(rail.name()),
                Attribute::read_only(live_read(&self.live, move |l| {
                    ((load_f64(&l.rail_w[i]) * 1e6).round() as i64).to_string()
                })),
            )?;
        }
        // cpuset placement files: one per attached process. Reads show
        // the live cluster; writes queue a migration for the next tick —
        // the cgroup path Android thermal daemons use for big.LITTLE
        // task placement.
        for (i, a) in self.workloads.iter().enumerate() {
            let queue = Arc::clone(&self.pending_migrations);
            let raw = a.pid.value();
            self.sysfs.register(
                &mpt_kernel::paths::cpuset_cluster(raw),
                Attribute::with_handlers(
                    live_read(&self.live, move |l| {
                        let code = l.cluster[i].load(Ordering::Relaxed);
                        ComponentId::ALL[usize::from(code)].key().to_owned()
                    }),
                    move |value| {
                        let cluster = match value.trim() {
                            "little" => ComponentId::LittleCluster,
                            "big" => ComponentId::BigCluster,
                            other => {
                                return Err(format!(
                                    "unknown cluster {other:?}; use \"little\" or \"big\""
                                ))
                            }
                        };
                        queue
                            .lock()
                            .expect("queue mutex is never poisoned")
                            .push((Pid::new(raw), cluster));
                        Ok(())
                    },
                ),
            )?;
        }
        Ok(())
    }

    /// Stores this pass's frequencies, zone temperatures, rail powers
    /// and process placements for the live sysfs files to format on
    /// read.
    pub(crate) fn publish_sysfs(&self) {
        let live = &self.live;
        for (&id, policy) in &self.policies {
            live.cur_khz[id as usize].store(policy.current().as_khz(), Ordering::Relaxed);
        }
        for (slot, sensor) in live.zone_c.iter().zip(self.platform.temperature_sensors()) {
            if let Ok(c) = self.network.celsius_of(sensor.thermal_node()) {
                slot.store(c.value().to_bits(), Ordering::Relaxed);
            }
        }
        for (slot, rail) in live.rail_w.iter().zip(self.platform.power_rails()) {
            let power = self
                .last_powers
                .get(&rail.component())
                .map_or(0.0, |b| b.total().value());
            slot.store(power.to_bits(), Ordering::Relaxed);
        }
        for (slot, a) in live.cluster.iter().zip(&self.workloads) {
            if let Some(p) = self.scheduler.process(a.pid) {
                slot.store(p.cluster() as u8, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn apply_pending_migrations(&mut self) -> Result<()> {
        let moves: Vec<(Pid, ComponentId)> = self
            .pending_migrations
            .lock()
            .expect("queue mutex is never poisoned")
            .drain(..)
            .collect();
        for (pid, cluster) in moves {
            self.scheduler.migrate(pid, cluster)?;
        }
        Ok(())
    }

    pub(crate) fn apply_sysfs_caps(&mut self) {
        for component in self.platform.components() {
            let id = component.id();
            let cap = Hertz::from_khz(self.live.max_khz[id as usize].load(Ordering::Relaxed));
            let top = component.opps().highest().frequency();
            let policy = self
                .policies
                .get_mut(&id)
                .expect("policies cover all components");
            let desired = if cap >= top { None } else { Some(cap) };
            if policy.max_cap() != desired {
                // An engage or release transition is the simulator's view
                // of a trip point being crossed; a cap-level move while
                // already throttled is not.
                if policy.max_cap().is_none() != desired.is_none() {
                    self.recorder.incr(Counter::TripCrossings);
                }
                policy.set_max_cap(desired);
                log_event(
                    &self.recorder,
                    &mut self.events,
                    Event {
                        time: self.clock.now(),
                        kind: EventKind::CapChanged {
                            component: id,
                            cap: desired,
                        },
                    },
                );
            }
        }
    }
}

/// The co-simulator: a [`SimCore`] advanced by a staged pipeline. Build
/// with [`SimBuilder`](crate::SimBuilder).
#[derive(Debug)]
pub struct Simulator {
    pub(crate) core: SimCore,
    pub(crate) stages: Vec<Box<dyn SimStage>>,
    /// Histogram id of the whole-tick latency, pre-registered at build.
    pub(crate) tick_hist: HistId,
    /// Per-stage latency histogram ids, parallel to `stages`.
    pub(crate) stage_hists: Vec<HistId>,
    /// How [`run_for`](Simulator::run_for) advances time.
    pub(crate) stepping: SteppingMode,
    /// The macro-stepper's wake queue, rebuilt each pass from the
    /// stages' declared wakes.
    pub(crate) queue: EventQueue,
    /// Control-state fingerprint after the previous pass; a long jump is
    /// only allowed once the fingerprint has been stable across two
    /// consecutive passes.
    pub(crate) last_fingerprint: Option<u64>,
    pub(crate) quiescent: bool,
}

/// Number of whole base ticks (at least one) needed to reach `target`
/// from `now` — the grid quantization that keeps every event-mode pass
/// boundary on a fixed-mode tick boundary.
fn grid_steps(now: Seconds, target: Seconds, base: Seconds) -> u64 {
    let raw = (target.value() - now.value()) / base.value();
    if !raw.is_finite() || raw <= 1.0 {
        return 1;
    }
    // Quantize UP with a small tolerance so a target sitting exactly on
    // the grid does not round to an extra tick.
    let k = (raw - 1e-9).ceil();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    if k <= 1.0 {
        1
    } else {
        k as u64
    }
}

impl Simulator {
    /// Current simulation time.
    #[must_use]
    pub fn time(&self) -> Seconds {
        self.core.clock.now()
    }

    /// The base simulation tick.
    #[must_use]
    pub fn dt(&self) -> Seconds {
        self.core.clock.base_dt()
    }

    /// The shared time source: sim time, base tick, last pass length and
    /// pass count.
    #[must_use]
    pub fn clock(&self) -> SimClock {
        self.core.clock
    }

    /// The active stepping mode.
    #[must_use]
    pub fn stepping(&self) -> SteppingMode {
        self.stepping
    }

    /// The platform under simulation.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.core.platform
    }

    /// The live thermal network.
    #[must_use]
    pub fn network(&self) -> &RcNetwork {
        &self.core.network
    }

    /// The process table.
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.core.scheduler
    }

    /// Run telemetry.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.core.telemetry
    }

    /// The sysfs control plane (live: caps written here take effect on
    /// the next tick).
    #[must_use]
    pub fn sysfs(&self) -> &SysFs {
        &self.core.sysfs
    }

    /// The names of the pipeline stages, in tick order.
    #[must_use]
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Event-engine queue totals for this run so far (all zero under
    /// fixed-dt stepping). Deterministic across worker counts.
    #[must_use]
    pub fn macro_stats(&self) -> MacroStats {
        self.core.macro_stats
    }

    /// Starts capturing the per-tick node-power plane the thermal stage
    /// injects, on the base tick grid. Fleet campaigns enable this on
    /// the canonical run and replay the captured
    /// [`PowerTrace`](mpt_workloads::PowerTrace) across the whole device
    /// population. Idempotent; only meaningful under fixed-dt stepping
    /// (the trace is a uniform grid).
    pub fn enable_power_trace(&mut self) {
        if self.core.power_trace.is_none() {
            self.core.power_trace = Some(mpt_workloads::PowerTrace::new(
                self.core.clock.base_dt().value(),
                self.core.network.len(),
            ));
        }
    }

    /// Takes the captured power trace, leaving capture disabled.
    #[must_use]
    pub fn take_power_trace(&mut self) -> Option<mpt_workloads::PowerTrace> {
        self.core.power_trace.take()
    }

    /// The current frequency of a component.
    #[must_use]
    pub fn current_frequency(&self, id: ComponentId) -> Option<Hertz> {
        self.core.policies.get(&id).map(CpuFreqPolicy::current)
    }

    /// Per-component power from the last tick.
    #[must_use]
    pub fn last_powers(&self) -> &BTreeMap<ComponentId, PowerBreakdown> {
        &self.core.last_powers
    }

    /// The discrete event log of the run (migrations, cap changes,
    /// workload completions).
    #[must_use]
    pub fn events(&self) -> &EventLog {
        &self.core.events
    }

    /// The run's observability recorder: counters for
    /// throttle/trip/governor/migration/sysfs activity and latency
    /// histograms (`tick` per pass, `stage:<name>` per pipeline stage;
    /// passes leave no span records). Export with
    /// [`mpt_obs::trace::chrome_trace_json`]
    /// (its counter tracks come from the [`telemetry`](Self::telemetry)
    /// frame) and [`mpt_obs::MetricsSnapshot`].
    #[must_use]
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.core.recorder
    }

    /// The run's online analysis: derived observables (time-above-trip,
    /// throttle-attributed FPS loss, thermal headroom, stability-margin
    /// drift) and every fired alert.
    #[must_use]
    pub fn analysis(&self) -> &RunAnalysis {
        &self.core.analysis
    }

    /// Total power from the last tick.
    #[must_use]
    pub fn total_power(&self) -> Watts {
        self.core
            .last_powers
            .values()
            .map(PowerBreakdown::total)
            .sum()
    }

    /// The pid of the workload with the given name.
    #[must_use]
    pub fn pid_of(&self, name: &str) -> Option<Pid> {
        self.core
            .workloads
            .iter()
            .find(|a| a.workload.name() == name)
            .map(|a| a.pid)
    }

    /// Downcasts a workload to its concrete type (e.g. to read a
    /// benchmark score after the run).
    #[must_use]
    pub fn workload_as<T: 'static>(&self, pid: Pid) -> Option<&T> {
        self.core
            .workloads
            .iter()
            .find(|a| a.pid == pid)
            .and_then(|a| a.workload.as_any().downcast_ref::<T>())
    }

    /// The median FPS reported by a workload, if it renders frames.
    #[must_use]
    pub fn median_fps(&self, pid: Pid) -> Option<f64> {
        self.core
            .workloads
            .iter()
            .find(|a| a.pid == pid)
            .and_then(|a| a.workload.median_fps())
    }

    /// Whether every attached workload reports completion.
    #[must_use]
    pub fn all_finished(&self) -> bool {
        self.core.workloads.iter().all(|a| a.workload.is_finished())
    }

    /// Runs one pipeline pass of length `dt` (any whole multiple of the
    /// base tick) and advances the clock; returns whether any workload
    /// reported a touch interaction during the pass.
    ///
    /// Each stage's wall time goes into its `stage:<name>` histogram and
    /// the whole pass into `tick`, with one clock read per stage boundary
    /// and none at all under [`Recorder::null`]; a pass leaves no span.
    fn pass(&mut self, dt: Seconds) -> Result<bool> {
        let recorder = Arc::clone(&self.core.recorder);
        let mut ctx = StepContext::new(self.core.clock.now(), dt);
        let mut laps = recorder.laps();
        for (stage, &hist) in self.stages.iter_mut().zip(&self.stage_hists) {
            stage.run(&mut self.core, &mut ctx)?;
            laps.lap(hist);
        }
        laps.finish(self.tick_hist);
        recorder.incr(Counter::Ticks);
        recorder.add(Counter::StageRuns, self.stages.len() as u64);
        self.core.clock.advance(dt);
        Ok(ctx.interaction)
    }

    /// Advances the simulation by one base tick: runs each pipeline
    /// stage in order over the shared core, then advances the clock.
    ///
    /// # Errors
    ///
    /// Propagates thermal/scheduler/sysfs errors (none occur in a
    /// correctly built simulator).
    pub fn step(&mut self) -> Result<()> {
        let dt = self.core.clock.base_dt();
        self.pass(dt)?;
        Ok(())
    }

    /// One event-driven macro step toward `end`: polls every stage for
    /// its next wake, schedules the wakes (plus the run end) on the
    /// event queue, pops the earliest, quantizes the gap up to the
    /// base-tick grid, lets the thermal stage shorten it to a predicted
    /// trip crossing, then runs a single pipeline pass covering the
    /// whole gap.
    ///
    /// Two guards keep this equivalent to fixed-dt stepping: a stage
    /// that answers [`Wake::EveryTick`] (frame-based workloads, pending
    /// control writes) pins the pass to one base tick, and jumps are
    /// only taken while the control-state fingerprint is stable across
    /// consecutive passes.
    fn event_step(&mut self, end: Seconds) -> Result<()> {
        let now = self.core.clock.now();
        let base = self.core.clock.base_dt();
        self.queue.clear();
        let mut every_tick = false;
        for stage in &mut self.stages {
            match stage.next_wake(&mut self.core, now) {
                Wake::Never => {}
                Wake::EveryTick => every_tick = true,
                Wake::At { time, kind } => {
                    if time.value() <= now.value() + 1e-12 {
                        // Due immediately: the earliest legal pass end is
                        // one base tick away.
                        every_tick = true;
                    } else if time.value().is_finite() {
                        self.queue.schedule(time, kind);
                    }
                }
            }
        }
        self.queue.schedule(end, WakeKind::RunEnd);

        let mut steps: u64 = 1;
        if !every_tick && self.quiescent {
            if let Some(event) = self.queue.pop() {
                self.core.macro_stats.events_popped += 1;
                self.core.recorder.incr(Counter::EventsPopped);
                steps = grid_steps(now, event.time, base);
            }
            if steps > 1 {
                let target = now + Seconds::new(steps as f64 * base.value());
                let mut refined = steps;
                for stage in &mut self.stages {
                    if let Some(t) = stage.refine_wake(&mut self.core, now, target) {
                        refined = refined.min(grid_steps(now, t, base));
                    }
                }
                steps = refined.max(1);
            }
            // Whatever still sits in the queue inside the chosen pass is
            // absorbed by it rather than waking the engine separately.
            let pass_end = now + Seconds::new(steps as f64 * base.value());
            let coalesced = self.queue.due_count(pass_end) as u64;
            if coalesced > 0 {
                self.core.macro_stats.wakes_coalesced += coalesced;
                self.core.recorder.add(Counter::WakesCoalesced, coalesced);
            }
        }

        let dt = if steps <= 1 {
            base
        } else {
            Seconds::new(steps as f64 * base.value())
        };
        let interaction = self.pass(dt)?;
        let fingerprint = self.core.control_fingerprint(interaction);
        self.quiescent = self.last_fingerprint == Some(fingerprint);
        self.last_fingerprint = Some(fingerprint);
        Ok(())
    }

    /// Runs for a span of simulated time, advancing tick by tick in
    /// [`SteppingMode::FixedDt`] or event to event in
    /// [`SteppingMode::EventDriven`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`step`](Self::step) error.
    pub fn run_for(&mut self, span: Seconds) -> Result<()> {
        let end = self.core.clock.now() + span;
        match self.stepping {
            SteppingMode::FixedDt => {
                while self.core.clock.now() < end {
                    self.step()?;
                }
            }
            SteppingMode::EventDriven => {
                while self.core.clock.now() < end {
                    self.event_step(end)?;
                }
            }
        }
        Ok(())
    }

    /// Runs until `predicate` returns true or `max` simulated time
    /// elapses; returns whether the predicate fired. The predicate is
    /// checked between passes, so in event mode its granularity is the
    /// macro step, not the base tick.
    ///
    /// # Errors
    ///
    /// Propagates the first [`step`](Self::step) error.
    pub fn run_until(
        &mut self,
        mut predicate: impl FnMut(&Simulator) -> bool,
        max: Seconds,
    ) -> Result<bool> {
        let end = self.core.clock.now() + max;
        while self.core.clock.now() < end {
            if predicate(self) {
                return Ok(true);
            }
            match self.stepping {
                SteppingMode::FixedDt => self.step()?,
                SteppingMode::EventDriven => self.event_step(end)?,
            }
        }
        Ok(predicate(self))
    }

    /// Temperature of a named thermal node, in Celsius.
    ///
    /// # Errors
    ///
    /// [`SimError::Thermal`](crate::SimError::Thermal) if the node does
    /// not exist.
    pub fn temperature_of(&self, node: &str) -> Result<Celsius> {
        Ok(self.core.network.celsius_of(node)?)
    }

    /// The hottest node temperature.
    #[must_use]
    pub fn max_temperature(&self) -> Kelvin {
        self.core.network.hottest().1
    }
}
