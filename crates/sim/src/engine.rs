//! The simulation engine: shared core state plus the staged pipeline.

use std::any::Any;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
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
use crate::stages::govern::{self, Governors};
use crate::stages::observe::{self, Seen};
use crate::stages::{analyze, demand, power, schedule, thermal, StepContext, Wake, STAGES};
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
    pub(crate) fn key(self) -> &'static str {
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

/// The shared simulation state every pipeline stage operates on: the
/// platform, the live thermal network, the process table, per-component
/// cpufreq policies, attached workloads, telemetry, the event log, and
/// the sysfs control plane.
///
/// Per-pass values live in the simulator's one reused step context;
/// the governors and the events stage's previous-pass snapshot live
/// beside the core in the [`Simulator`].
#[derive(Debug)]
pub(crate) struct SimCore {
    pub(crate) platform: Platform,
    pub(crate) network: RcNetwork,
    pub(crate) scheduler: Scheduler,
    pub(crate) policies: BTreeMap<ComponentId, CpuFreqPolicy>,
    /// Each sensor's thermal node, by zone, resolved at build.
    pub(crate) sensor_nodes: Vec<usize>,
    /// The control sensor's zone; `None` controls on the hottest zone.
    pub(crate) control_zone: Option<usize>,
    pub(crate) workloads: Vec<Attached>,
    pub(crate) clock: SimClock,
    pub(crate) telemetry: Telemetry,
    pub(crate) sysfs: SysFs,
    /// Each component's `scaling_max_freq` path, by `ComponentId as
    /// usize` (empty for a component the platform lacks), built once by
    /// [`register_sysfs`](Self::register_sysfs) for the thermal
    /// governor's writes.
    pub(crate) max_freq_paths: [String; 4],
    /// Per-component power of the latest power stage, by
    /// `ComponentId as usize` (`None` for a component the platform
    /// lacks).
    pub(crate) last_powers: [Option<PowerBreakdown>; 4],
    /// The same powers mapped onto thermal nodes: what the thermal stage
    /// steps under, what the event engine holds constant across a gap,
    /// and what the system policy's lumped prediction reduces.
    pub(crate) node_powers: Vec<Watts>,
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
    /// Event-engine wake totals for this run (all zero under fixed-dt).
    pub(crate) macro_stats: MacroStats,
    /// Per-tick node-power capture for fleet canonical runs (`None` when
    /// tracing is off — the thermal stage then pays one branch per tick).
    pub(crate) power_trace: Option<mpt_workloads::PowerTrace>,
    /// The node temperatures of the latest
    /// [`peek_control_temperature`](Self::peek_control_temperature)
    /// probe, kept so the event engine's trip bisection reuses one buffer.
    pub(crate) peeked: Vec<Kelvin>,
}

/// The raw numbers behind the simulator's live sysfs files, shared with
/// their handlers. The pipeline stores them once per pass
/// ([`SimCore::publish_sysfs`]); a file formats its number in its unit
/// only when someone reads it. `scaling_max_freq` writes land here too.
/// Each slot is a self-contained number that publishes no other data,
/// so every slot access is `Relaxed`; only the written flag publishes
/// the writes before it.
#[derive(Debug)]
pub(crate) struct LiveSysfs {
    /// Set by every accepted `scaling_max_freq` or cpuset write (and at
    /// build), cleared by the sysfs-control stage as it applies them
    /// ([`take_written`](Self::take_written)).
    written: AtomicBool,
    /// `scaling_cur_freq` in kHz, indexed by `ComponentId as usize`.
    cur_khz: [AtomicU64; 4],
    /// `scaling_max_freq` in kHz, indexed by `ComponentId as usize`.
    max_khz: [AtomicU64; 4],
    /// Thermal-zone temperatures in °C as `f64` bits, by zone: the one
    /// copy of the sensor readings, stored by the thermal stage.
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
            written: AtomicBool::new(true),
            cur_khz: Default::default(),
            max_khz: Default::default(),
            zone_c: slots(platform.temperature_sensors().len()),
            rail_w: slots(platform.power_rails().len()),
            cluster: (0..processes).map(|_| AtomicU8::new(0)).collect(),
        }
    }

    /// A zone's temperature as last stored.
    pub(crate) fn zone(&self, zone: usize) -> Celsius {
        Celsius::new(load_f64(&self.zone_c[zone]))
    }

    /// Marks a control write for the sysfs-control stage, after the
    /// write's own store or queue push.
    fn mark_written(&self) {
        self.written.store(true, Ordering::Release);
    }

    /// Whether a control file was written since the last call, clearing
    /// the mark.
    pub(crate) fn take_written(&self) -> bool {
        self.written.swap(false, Ordering::Acquire)
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

/// `value` in decimal, written into `buf` (a `u64` has at most 20
/// digits) rather than a new `String`.
fn decimal(value: u64, buf: &mut [u8; 20]) -> &str {
    let mut rest = &mut buf[..];
    write!(rest, "{value}").expect("a u64 has at most 20 digits");
    let len = 20 - rest.len();
    std::str::from_utf8(&buf[..len]).expect("decimal digits are ASCII")
}

/// Per-run event-engine wake totals, mirrored into the recorder's
/// counters and reported to the live journal at the end of a run. Driven
/// purely by simulated state, so deterministic across worker counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MacroStats {
    /// Macro passes sized by a wake scan (one per pass that was free to
    /// jump, whether a stage wake or the run end won).
    pub events_popped: u64,
    /// Stage wakes absorbed into an already-running macro pass.
    pub wakes_coalesced: u64,
    /// Bisection iterations spent refining trip-crossing wake times.
    pub trip_bisection_iters: u64,
}

/// The control state the macro-stepper must not jump across a change
/// of: each policy's frequency and cap, the interaction latch, and each
/// workload's cluster placement and completion flag. Demand *rates* are
/// deliberately absent — the
/// [`Workload::next_phase_change`](mpt_workloads::Workload) contract
/// covers those. Compared exactly, so two snapshots are equal only when
/// the state is.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct ControlState {
    /// `(frequency, cap)` per policy, by `ComponentId as usize` (`None`
    /// for a component the platform lacks).
    policies: [Option<(Hertz, Option<Hertz>)>; 4],
    interaction: bool,
    /// `(cluster, finished)` per attached workload, in attach order; the
    /// cluster is `None` for a process the scheduler no longer has.
    workloads: Vec<(Option<ComponentId>, bool)>,
}

impl SimCore {
    pub(crate) fn component(&self, id: ComponentId) -> &Component {
        self.platform
            .component(id)
            .expect("policies only exist for platform components")
    }

    /// The worst frame rate across the attached workloads' pipelines, or
    /// `None` when none renders: one renderer's dropped frames must not
    /// be masked by a faster one.
    pub(crate) fn worst_fps(&self) -> Option<f64> {
        self.workloads
            .iter()
            .filter_map(|a| a.workload.current_fps())
            .fold(None, |acc: Option<f64>, f| {
                Some(acc.map_or(f, |a| a.min(f)))
            })
    }

    /// The control temperature over per-zone readings: the control
    /// sensor's zone, or the hottest zone when none is named — the one
    /// rule behind the live reading and the event engine's peek.
    fn control_of(&self, zone_c: impl Fn(usize) -> Celsius) -> Celsius {
        match self.control_zone {
            Some(zone) => zone_c(zone),
            None => (0..self.sensor_nodes.len())
                .map(zone_c)
                .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max),
        }
    }

    /// The thermal governor's input, from the zone temperatures the
    /// thermal stage stored.
    pub(crate) fn control_temperature(&self) -> Celsius {
        self.control_of(|zone| self.live.zone(zone))
    }

    /// Evaluates the control temperature `dt` ahead of the current state
    /// with the last pass's [`node_powers`](Self::node_powers) held
    /// constant, without advancing the network — the probe the event
    /// engine bisects on for trip-crossing prediction.
    pub(crate) fn peek_control_temperature(&mut self, dt: Seconds) -> Result<Celsius> {
        self.network.peek(dt, &self.node_powers, &mut self.peeked)?;
        Ok(self.control_of(|zone| self.peeked[self.sensor_nodes[zone]].to_celsius()))
    }

    /// Writes the control state after a pass into `into`, reusing its
    /// buffer: what [`ControlState`] holds, with `interaction` the
    /// pass's interaction latch.
    pub(crate) fn snapshot_control(&self, interaction: bool, into: &mut ControlState) {
        into.policies = [None; 4];
        for (&id, policy) in &self.policies {
            into.policies[id as usize] = Some((policy.current(), policy.max_cap()));
        }
        into.interaction = interaction;
        into.workloads.clear();
        into.workloads.extend(self.workloads.iter().map(|a| {
            let cluster = self.scheduler.process(a.pid).map(|p| p.cluster());
            (cluster, a.workload.is_finished())
        }));
    }

    /// Writes a sysfs attribute on behalf of the simulator core, counting
    /// the write.
    pub(crate) fn sysfs_write(&self, path: &str, value: &str) -> Result<()> {
        self.recorder.incr(Counter::SysfsWrites);
        self.sysfs.write(path, value)?;
        Ok(())
    }

    /// Writes each action's cap to its component's `scaling_max_freq`
    /// file, the value formatted on the stack, then applies the caps.
    pub(crate) fn apply_thermal_actions(&mut self, actions: &[ThermalAction]) -> Result<()> {
        for action in actions {
            let (component, cap) = match *action {
                ThermalAction::SetMaxFreq { component, freq } => {
                    self.recorder.incr(Counter::ThrottleEvents);
                    (component, freq)
                }
                ThermalAction::ClearCap { component } => (
                    component,
                    self.component(component).opps().highest().frequency(),
                ),
            };
            let mut digits = [0; 20];
            self.sysfs_write(
                &self.max_freq_paths[component as usize],
                decimal(cap.as_khz(), &mut digits),
            )?;
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
            let max_freq = mpt_kernel::paths::max_freq(id);
            self.sysfs.register(
                &max_freq,
                Attribute::with_handlers(
                    live_read(&self.live, move |l| {
                        l.max_khz[id as usize].load(Ordering::Relaxed).to_string()
                    }),
                    move |v| {
                        let khz = (v.trim().parse::<u64>().ok())
                            .filter(|&k| k <= u64::MAX / 1_000)
                            .ok_or("not a kHz frequency")?;
                        live.max_khz[id as usize].store(khz, Ordering::Relaxed);
                        live.mark_written();
                        Ok(())
                    },
                ),
            )?;
            self.max_freq_paths[id as usize] = max_freq;
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
            let live = Arc::clone(&self.live);
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
                        live.mark_written();
                        Ok(())
                    },
                ),
            )?;
        }
        Ok(())
    }

    /// Stores each zone's current temperature: the one copy telemetry,
    /// analyze, the thermal poll, the event engine and the
    /// `thermal_zone*/temp` files read. Only the thermal stage changes a
    /// temperature, so it stores them right after its step.
    pub(crate) fn publish_zones(&self) {
        for (slot, &node) in self.live.zone_c.iter().zip(&self.sensor_nodes) {
            let c = self.network.temperature(node).to_celsius();
            slot.store(c.value().to_bits(), Ordering::Relaxed);
        }
    }

    /// Stores this pass's frequencies, rail powers and process
    /// placements for the live sysfs files to format on read.
    pub(crate) fn publish_sysfs(&self) {
        let live = &self.live;
        for (&id, policy) in &self.policies {
            live.cur_khz[id as usize].store(policy.current().as_khz(), Ordering::Relaxed);
        }
        for (slot, rail) in live.rail_w.iter().zip(self.platform.power_rails()) {
            let power =
                self.last_powers[rail.component() as usize].map_or(0.0, |b| b.total().value());
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

/// The co-simulator: a `SimCore` advanced by a staged pipeline. Build
/// with [`SimBuilder`](crate::SimBuilder).
#[derive(Debug)]
pub struct Simulator {
    pub(crate) core: SimCore,
    /// The pass's values, kept for the whole run and reset at the top of
    /// each pass.
    pub(crate) ctx: StepContext,
    /// The govern stage's governors and their poll phases.
    pub(crate) governors: Governors,
    /// The events stage's previous-pass snapshot.
    pub(crate) seen: Seen,
    /// Histogram id of the whole-tick latency, pre-registered at build.
    pub(crate) tick_hist: HistId,
    /// Per-stage latency histogram ids, in [`STAGES`] order.
    pub(crate) stage_hists: [HistId; STAGES.len()],
    /// How [`run_for`](Simulator::run_for) advances time.
    pub(crate) stepping: SteppingMode,
    /// The control state after the previous event pass (`[0]`, once
    /// `control_seen`) and the buffer the next one is written into
    /// (`[1]`); the two swap after each pass, so a snapshot allocates
    /// nothing once both have grown. A long jump is only allowed once two
    /// consecutive snapshots are equal.
    pub(crate) control: [ControlState; 2],
    pub(crate) control_seen: bool,
    pub(crate) quiescent: bool,
    /// Passes already added to the tick and stage-run counters.
    pub(crate) counted_passes: u64,
}

/// One pipeline pass in this many is timed into the stage histograms.
/// At 64 the clock reads and histogram writes cost a pass about 1/64 of
/// what timing every pass did.
const TIMED_PASS_STRIDE: u64 = 64;

/// The time a macro step runs to, from the stages' wake times in stage
/// order (`None` where a stage declared no future wake): the earliest
/// wake wins, a tie goes to the earlier stage, and a wake tied with the
/// run `end` beats it. Also returns the index of the winning wake, or
/// `None` when `end` wins.
fn earliest_wake(wakes: &[Option<Seconds>], end: Seconds) -> (Seconds, Option<usize>) {
    let mut best: Option<(Seconds, usize)> = None;
    for (i, time) in wakes.iter().enumerate() {
        if let Some(time) = *time {
            if best.is_none_or(|(t, _)| time < t) {
                best = Some((time, i));
            }
        }
    }
    match best {
        Some((time, i)) if time <= end => (time, Some(i)),
        _ => (end, None),
    }
}

/// The wakes other than `chosen` due at or before `pass_end` (with the
/// grid tolerance): the wakes a pass ending there absorbs instead of
/// waking the engine separately.
fn coalesced_wakes(wakes: &[Option<Seconds>], chosen: Option<usize>, pass_end: Seconds) -> u64 {
    let due = wakes.iter().enumerate().filter(|&(i, time)| {
        Some(i) != chosen && time.is_some_and(|t| t.value() <= pass_end.value() + 1e-12)
    });
    due.count() as u64
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
        STAGES.to_vec()
    }

    /// Event-engine wake totals for this run so far (all zero under
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

    /// Per-component power from the last tick, indexed by
    /// `ComponentId as usize` (`None` for a component the platform
    /// lacks).
    #[must_use]
    pub fn last_powers(&self) -> &[Option<PowerBreakdown>; 4] {
        &self.core.last_powers
    }

    /// The last tick's powers mapped onto the thermal network's nodes,
    /// indexed like [`network`](Self::network)'s nodes.
    #[must_use]
    pub fn node_powers(&self) -> &[Watts] {
        &self.core.node_powers
    }

    /// The discrete event log of the run (migrations, cap changes,
    /// workload completions).
    #[must_use]
    pub fn events(&self) -> &EventLog {
        &self.core.events
    }

    /// The run's observability recorder: counters for
    /// throttle/trip/governor/migration/sysfs activity and latency
    /// histograms (`tick` and `stage:<name>` per pipeline stage, sampled
    /// on one pass in 64; passes leave no span records). Export with
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
        (self.core.last_powers.iter().flatten())
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
            .and_then(|a| (a.workload.as_ref() as &dyn Any).downcast_ref::<T>())
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
    /// Calls the nine stages in [`STAGES`] order over the core and the
    /// reused step context. One pass in [`TIMED_PASS_STRIDE`], the last
    /// of each run of that many (so never a simulator's cold first
    /// pass), is timed: one clock read per stage boundary, then each
    /// stage's wall time into its `stage:<name>` histogram and their sum
    /// into `tick` (see [`Laps`](mpt_obs::Laps)). Every other pass, and
    /// every pass under [`Recorder::null`], reads no clock and touches no
    /// histogram; a pass leaves no span, and only a timed one adds to the
    /// pass counters ([`count_passes`](Self::count_passes)).
    fn pass(&mut self, dt: Seconds) -> Result<bool> {
        let Self {
            core,
            ctx,
            governors,
            seen,
            tick_hist,
            stage_hists: h,
            ..
        } = self;
        ctx.reset(core.clock.now(), dt, core.workloads.len());
        let timed = core.clock.steps() % TIMED_PASS_STRIDE == TIMED_PASS_STRIDE - 1;
        let mut laps = core.recorder.laps(timed);
        govern::sysfs_control(core)?;
        laps.lap(h[0]);
        demand::run(core, ctx);
        laps.lap(h[1]);
        schedule::run(core, ctx);
        laps.lap(h[2]);
        power::run(core, ctx);
        laps.lap(h[3]);
        thermal::run(core, ctx)?;
        laps.lap(h[4]);
        observe::telemetry(core, ctx);
        laps.lap(h[5]);
        governors.run(core, ctx)?;
        laps.lap(h[6]);
        seen.run(core, ctx);
        laps.lap(h[7]);
        analyze::run(core, ctx);
        laps.lap(h[8]);
        laps.finish(&core.recorder, *tick_hist);
        core.clock.advance(dt);
        let interaction = ctx.interaction;
        if timed {
            self.count_passes();
        }
        Ok(interaction)
    }

    /// Adds the passes completed since the last count to the tick and
    /// stage-run counters. Each timed pass calls it, so a live reader
    /// sees the totals move every 64 passes, and so does each driving
    /// call as it returns ([`counted`](Self::counted)), so the totals
    /// are exact between calls. The other passes write no shared counter.
    fn count_passes(&mut self) {
        let passes = self.core.clock.steps() - self.counted_passes;
        self.counted_passes += passes;
        let recorder = &self.core.recorder;
        recorder.add(Counter::Ticks, passes);
        recorder.add(Counter::StageRuns, passes * STAGES.len() as u64);
    }

    /// Runs `drive`, then [counts](Self::count_passes) the passes it
    /// completed, on `Ok` and `Err` alike.
    fn counted<T>(&mut self, drive: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let result = drive(self);
        self.count_passes();
        result
    }

    /// Advances the simulation by one base tick: runs each pipeline
    /// stage in order over the shared core, then advances the clock.
    ///
    /// # Errors
    ///
    /// Propagates thermal/scheduler/sysfs errors (none occur in a
    /// correctly built simulator).
    pub fn step(&mut self) -> Result<()> {
        self.counted(|sim| sim.pass(sim.core.clock.base_dt()).map(drop))
    }

    /// One event-driven macro step toward `end`: collects the next wake
    /// of each stage that declares one (sysfs-control, demand,
    /// telemetry, govern, analyze — in that order, since a tie goes to
    /// the earlier stage), takes the earliest of them and the run end
    /// ([`earliest_wake`]), quantizes the gap up to the base-tick grid,
    /// lets the thermal stage shorten it to a predicted trip crossing,
    /// then runs a single pipeline pass covering the whole gap.
    ///
    /// Two guards keep this equivalent to fixed-dt stepping: a stage
    /// that answers [`Wake::EveryTick`] (frame-based workloads, pending
    /// control writes) pins the pass to one base tick, and jumps are
    /// only taken while the [`ControlState`] is unchanged across
    /// consecutive passes.
    fn event_step(&mut self, end: Seconds) -> Result<()> {
        let now = self.core.clock.now();
        let base = self.core.clock.base_dt();
        let mut every_tick = false;
        let mut wakes = [None; 5];
        let declared = [
            govern::sysfs_control_wake(&self.core),
            demand::next_wake(&self.core),
            observe::telemetry_wake(&self.core, now),
            self.governors.next_wake(&self.core, now),
            analyze::next_wake(&self.core, now),
        ];
        for (slot, wake) in wakes.iter_mut().zip(declared) {
            match wake {
                Wake::Never => {}
                Wake::EveryTick => every_tick = true,
                Wake::At(time) => {
                    if time.value() <= now.value() + 1e-12 {
                        // Due immediately: the earliest legal pass end is
                        // one base tick away.
                        every_tick = true;
                    } else if time.value().is_finite() {
                        *slot = Some(time);
                    }
                }
            }
        }

        let mut steps: u64 = 1;
        if !every_tick && self.quiescent {
            let (next, chosen) = earliest_wake(&wakes, end);
            self.core.macro_stats.events_popped += 1;
            self.core.recorder.incr(Counter::EventsPopped);
            steps = grid_steps(now, next, base);
            if steps > 1 {
                let target = now + Seconds::new(steps as f64 * base.value());
                if let Some(t) = thermal::refine_wake(&mut self.core, now, target) {
                    steps = steps.min(grid_steps(now, t, base)).max(1);
                }
            }
            let pass_end = now + Seconds::new(steps as f64 * base.value());
            let coalesced = coalesced_wakes(&wakes, chosen, pass_end);
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
        let [previous, current] = &mut self.control;
        self.core.snapshot_control(interaction, current);
        self.quiescent = self.control_seen && current == previous;
        self.control_seen = true;
        std::mem::swap(previous, current);
        Ok(())
    }

    /// One pass toward `end`: a base tick in [`SteppingMode::FixedDt`],
    /// a macro step in [`SteppingMode::EventDriven`].
    fn advance(&mut self, end: Seconds) -> Result<()> {
        match self.stepping {
            SteppingMode::FixedDt => self.pass(self.core.clock.base_dt()).map(drop),
            SteppingMode::EventDriven => self.event_step(end),
        }
    }

    /// Runs for a span of simulated time, advancing tick by tick in
    /// [`SteppingMode::FixedDt`] or event to event in
    /// [`SteppingMode::EventDriven`]. The telemetry frame is first sized
    /// for every row the span can record.
    ///
    /// # Errors
    ///
    /// Propagates the first [`step`](Self::step) error.
    pub fn run_for(&mut self, span: Seconds) -> Result<()> {
        let end = self.core.clock.now() + span;
        self.core.telemetry.reserve_until(end);
        self.counted(|sim| {
            while sim.core.clock.now() < end {
                sim.advance(end)?;
            }
            Ok(())
        })
    }

    /// Runs until `predicate` returns true or `max` simulated time
    /// elapses; returns whether the predicate fired. The predicate is
    /// checked between passes, so in event mode its granularity is the
    /// macro step, not the base tick. The tick counters are added on
    /// each timed pass and when the call returns, so a predicate reading
    /// them sees them up to 63 passes behind the clock. The telemetry
    /// frame is first sized for every row a run to `max` can record.
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
        self.core.telemetry.reserve_until(end);
        self.counted(|sim| {
            while sim.core.clock.now() < end {
                if predicate(sim) {
                    return Ok(true);
                }
                sim.advance(end)?;
            }
            Ok(predicate(sim))
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimBuilder;
    use mpt_soc::platforms;
    use mpt_workloads::benchmarks::{ComputePhase, PhasedCompute};
    use proptest::prelude::*;

    /// An Odroid running a 2 s task on the big cluster, every policy on
    /// `performance` (so no frequency moves by itself), 1 s in.
    fn settled() -> Simulator {
        let task = PhasedCompute::new(
            "task",
            vec![ComputePhase {
                until_s: 2.0,
                rate: 1.0e9,
                threads: 1.0,
            }],
        )
        .unwrap();
        let mut builder = SimBuilder::new(platforms::exynos_5422());
        for id in ComponentId::ALL {
            builder = builder.governor(id, mpt_kernel::GovernorKind::Performance);
        }
        let mut sim = builder
            .attach(Box::new(task), ComponentId::BigCluster)
            .build()
            .unwrap();
        sim.run_for(Seconds::new(1.0)).unwrap();
        sim
    }

    fn snapshot(sim: &Simulator, interaction: bool) -> ControlState {
        let mut state = ControlState::default();
        sim.core.snapshot_control(interaction, &mut state);
        state
    }

    #[test]
    fn control_snapshot_changes_with_each_control_input() {
        let mut sim = settled();
        let before = snapshot(&sim, false);
        sim.step().unwrap();
        assert_eq!(snapshot(&sim, false), before, "a pass that changes nothing");

        fn policy(sim: &mut Simulator) -> &mut CpuFreqPolicy {
            sim.core.policies.get_mut(&ComponentId::BigCluster).unwrap()
        }
        /// Makes one change after a pass, returning the interaction latch.
        type Change = fn(&mut Simulator) -> bool;
        let changes: [(&str, Change); 5] = [
            ("a frequency change", |sim| {
                // Clamp the frequency down, then lift the cap again.
                let lowest = policy(sim).opps().lowest().frequency();
                policy(sim).set_max_cap(Some(lowest));
                policy(sim).set_max_cap(None);
                false
            }),
            ("a cap", |sim| {
                let top = policy(sim).current();
                policy(sim).set_max_cap(Some(top));
                false
            }),
            ("the interaction latch", |_| true),
            ("a migration", |sim| {
                let pid = sim.pid_of("task").unwrap();
                sim.core
                    .scheduler
                    .migrate(pid, ComponentId::LittleCluster)
                    .unwrap();
                false
            }),
            ("a workload completion", |sim| {
                sim.run_for(Seconds::new(1.5)).unwrap();
                assert!(sim.all_finished());
                false
            }),
        ];
        for (what, change) in changes {
            let mut sim = settled();
            sim.step().unwrap();
            let interaction = change(&mut sim);
            assert_ne!(snapshot(&sim, interaction), before, "{what}");
        }
    }

    /// The reference: a queue of the wakes in stage order with the run
    /// end appended, stably sorted by time, so a tie goes to the earlier
    /// stage and a wake beats the run end it ties with. Pops the head,
    /// then counts the wakes left due by `pass_end`.
    fn queue_pop(
        wakes: &[Option<Seconds>],
        end: Seconds,
        pass_end: Seconds,
    ) -> (Seconds, Option<usize>, u64) {
        let mut queue: Vec<(Seconds, Option<usize>)> = (wakes.iter().enumerate())
            .filter_map(|(i, time)| time.map(|t| (t, Some(i))))
            .chain([(end, None)])
            .collect();
        queue.sort_by(|a, b| a.0.value().total_cmp(&b.0.value()));
        let (time, chosen) = queue.remove(0);
        let due = (queue.iter())
            .filter(|(t, i)| i.is_some() && t.value() <= pass_end.value() + 1e-12)
            .count();
        (time, chosen, due as u64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_wake_scan_keeps_the_queue_order(
            slots in proptest::collection::vec(0u32..10, 5),
            end_k in 1u32..10,
            pass_k in 1u32..10,
            nudge in 0usize..3,
        ) {
            // Codes 0–2 leave a stage's slot empty; the rest sit on a
            // quarter-second grid, so stages tie with each other and
            // with the run end.
            let wakes: Vec<Option<Seconds>> = (slots.iter())
                .map(|&k| (k > 2).then(|| Seconds::new(f64::from(k - 2) * 0.25)))
                .collect();
            let end = Seconds::new(f64::from(end_k) * 0.25);
            // The pass may end before the chosen wake (`refine_wake`
            // shortened it) or after it, and within the grid tolerance
            // of a wake on either side.
            let pass_end =
                Seconds::new(f64::from(pass_k) * 0.25 + [0.0, 5e-13, -5e-13][nudge]);
            let (time, chosen) = earliest_wake(&wakes, end);
            let (want_time, want_chosen, want_due) = queue_pop(&wakes, end, pass_end);
            prop_assert_eq!(time, want_time);
            prop_assert_eq!(chosen, want_chosen);
            prop_assert_eq!(coalesced_wakes(&wakes, chosen, pass_end), want_due);
        }
    }
}
