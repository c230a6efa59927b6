//! The step pipeline.
//!
//! Each simulator pass calls nine stages in a fixed order over the shared
//! [`SimCore`](crate::SimCore) and one [`StepContext`] the simulator keeps
//! for the whole run:
//!
//! 1. `sysfs-control` ([`govern::sysfs_control`]) — external sysfs
//!    writes (frequency caps, cpuset moves) take effect.
//! 2. `demand` ([`demand::run`]) — workloads express demand.
//! 3. `schedule` ([`schedule::run`]) — per-cluster max–min allocation
//!    and delivery back to the workloads.
//! 4. `power` ([`power::run`]) — the power model, the per-node power
//!    vector and per-process power attribution.
//! 5. `thermal` ([`thermal::run`]) — heat-equation integration; each
//!    zone's temperature is stored once, in its live sysfs slot.
//! 6. `telemetry` ([`observe::telemetry`]) — telemetry frame rows (the
//!    traced temperature/power/frequency/FPS signals), residency and
//!    energy.
//! 7. `govern` ([`govern::Governors::run`]) — cpufreq governors, the
//!    periodic thermal governor, and the optional
//!    [`SystemPolicy`](crate::SystemPolicy).
//! 8. `events` ([`observe::Seen::run`]) — discrete-event detection,
//!    then the pass's values published to the live sysfs files.
//! 9. `analyze` ([`analyze::run`]) — derived observables and alert rules.
//!
//! State that outlives a pass lives in two simulator fields beside the
//! core: the governors with their poll phases, and the events stage's
//! previous-pass snapshot. Everything shared lives in `SimCore`;
//! everything produced and consumed within one pass lives in
//! `StepContext`, each value written once and read from there.

pub(crate) mod analyze;
pub(crate) mod demand;
pub(crate) mod govern;
pub(crate) mod observe;
pub(crate) mod power;
pub(crate) mod schedule;
pub(crate) mod thermal;

use mpt_kernel::{Allocation, Pid};
use mpt_units::Seconds;
use mpt_workloads::Demand;

/// The stage names, in pass order; each stage's latency histogram is
/// `stage:<name>`.
pub(crate) const STAGES: [&str; 9] = [
    "sysfs-control",
    "demand",
    "schedule",
    "power",
    "thermal",
    "telemetry",
    "govern",
    "events",
    "analyze",
];

/// A stage's answer to "when must the pipeline run again?", used by the
/// event-driven stepping mode to size macro steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Wake {
    /// This stage imposes no wake of its own.
    Never,
    /// This stage cannot predict its next change — run every base tick
    /// (frame-based workloads, pending external control writes).
    EveryTick,
    /// Run a pass ending at (or just after, once grid-quantized) this
    /// absolute simulated time.
    At(Seconds),
}

impl Wake {
    /// Combines two wake requests, keeping the more urgent one.
    /// [`Wake::EveryTick`] dominates (it is the earliest possible wake);
    /// [`Wake::Never`] is the identity.
    #[must_use]
    pub(crate) fn earliest(self, other: Wake) -> Wake {
        match (self, other) {
            (Wake::EveryTick, _) | (_, Wake::EveryTick) => Wake::EveryTick,
            (Wake::Never, w) | (w, Wake::Never) => w,
            (Wake::At(a), Wake::At(b)) if a <= b => Wake::At(a),
            (Wake::At(_), w) => w,
        }
    }
}

/// One pass's values, carried from stage to stage.
///
/// The simulator keeps one context for the whole run and
/// [`reset`](Self::reset)s it at the top of each pass; every buffer
/// keeps its capacity. Per-process values are indexed by attach slot,
/// per-component values by `ComponentId as usize`.
#[derive(Debug, Default)]
pub(crate) struct StepContext {
    /// Simulation time at the start of the pass.
    pub(crate) now: Seconds,
    /// The pass length.
    pub(crate) dt: Seconds,
    /// Whether any workload reported a touch interaction this pass.
    pub(crate) interaction: bool,
    /// Each process's demand.
    pub(crate) demands: Vec<Demand>,
    /// CPU cycles actually delivered to each process.
    pub(crate) delivered_cpu: Vec<f64>,
    /// GPU cycles actually delivered to each process.
    pub(crate) delivered_gpu: Vec<f64>,
    /// Busy-core equivalents per CPU cluster (0..=core count; 0 for the
    /// GPU and memory).
    pub(crate) busy_cores: [f64; 4],
    /// Governor-visible utilization per CPU cluster (busiest-thread
    /// corrected, 0..=1).
    pub(crate) cluster_util: [f64; 4],
    /// GPU utilization (0..=1).
    pub(crate) gpu_util: f64,
    /// The worst frame rate after delivery
    /// ([`SimCore::worst_fps`](crate::SimCore)), read by telemetry and
    /// analyze.
    pub(crate) fps: Option<f64>,
    /// The schedule stage's working buffers: one cluster's requests, the
    /// attach slot of each, and [`mpt_kernel::allocate_max_min`]'s
    /// buffers.
    pub(crate) requests: Vec<(Pid, f64)>,
    pub(crate) request_slots: Vec<usize>,
    pub(crate) order: Vec<usize>,
    pub(crate) allocations: Vec<Allocation>,
}

impl StepContext {
    /// Clears the context for the pass of length `dt` starting at `now`
    /// over `processes` attached processes.
    pub(crate) fn reset(&mut self, now: Seconds, dt: Seconds, processes: usize) {
        self.now = now;
        self.dt = dt;
        self.interaction = false;
        self.demands.clear();
        self.delivered_cpu.clear();
        self.delivered_cpu.resize(processes, 0.0);
        self.delivered_gpu.clear();
        self.delivered_gpu.resize(processes, 0.0);
        self.busy_cores = [0.0; 4];
        self.cluster_util = [0.0; 4];
        self.gpu_util = 0.0;
        self.fps = None;
    }
}
