//! Fleet-scale campaign cells: replaying one canonical run across a
//! simulated install base.
//!
//! A campaign cell that declares a [`FleetSpec`] runs twice. First the
//! *canonical* scenario simulates normally (forced to fixed-dt stepping)
//! with the thermal stage's per-tick node-power plane captured as a
//! [`PowerTrace`]. Then the trace is replayed **open-loop** across N
//! jittered devices through the fleet strip kernel ([`ExactLti::replay`],
//! two devices per register-resident strip, trips observed in the same
//! loop): all devices share the cell's cached
//! `(Ad, Bd)` discretization, and differ only in input-side parameters
//! (leakage scale, ambient offset, workload phase/mix) drawn from the
//! fleet's seeded distributions. The canonical device's governor
//! behaviour is baked into the trace; the jittered devices are *observed*
//! for trip crossings rather than throttled individually — the
//! population question is "how many installs would have tripped, and
//! when", not "re-run N governors".
//!
//! Determinism: device parameters are pure functions of
//! `(cell seed, device index)` and the replay is a fixed tick loop, so
//! fleet rollups are bit-identical at any `--jobs` count, exactly like
//! the classic campaign report.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use mpt_daq::stats;
use mpt_obs::journal::JournalKind;
use mpt_obs::{Counter, Recorder};
use mpt_sim::{Result, SimError};
use mpt_soc::{DeviceParams, FleetSpec};
use mpt_thermal::{ExactLti, FleetState, TraceFeed, TransitionCache, TripWatch};
use mpt_units::{Celsius, Kelvin, Seconds};
use mpt_workloads::{FleetInputs, PowerTrace};

use crate::report::SessionAnalysis;
use crate::scenario::{
    run_scenario_framed_traced, CampaignCell, EngineSpec, ScenarioOutcome, ThermalPolicySpec,
};

/// Percentile ranks reported in the population CDFs/quantiles.
const CDF_RANKS: [f64; 7] = [5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0];

/// Peak-temperature histogram resolution (bins over the population's
/// min–max range).
const HIST_BINS: usize = 16;

/// Journal progress events per fleet replay (deterministic cadence); the
/// replay kernel runs its ticks in chunks of this cadence.
const PROGRESS_EVENTS: usize = 8;

/// One device's replay outcome. Not serialized into the campaign report
/// (a 10k-device cell would dwarf it) — the per-device surface is the
/// columnar frame built by [`device_frame`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceOutcome {
    /// Device index within the fleet.
    pub device: usize,
    /// The device's resolved input-side parameters.
    pub params: DeviceParams,
    /// Peak temperature over the replay, Celsius (max over nodes).
    pub peak_temp_c: f64,
    /// First time the device's hottest node crossed the trip threshold,
    /// seconds from replay start (`None`: never tripped, or no trip
    /// reference configured).
    pub throttle_onset_s: Option<f64>,
    /// Total time the device's hottest node spent above the trip
    /// threshold, seconds (0 without a trip reference).
    pub time_above_trip_s: f64,
}

/// One `(percentile, value)` point of a population quantile curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantilePoint {
    /// Percentile rank, 0–100.
    pub p: f64,
    /// The value at that rank.
    pub value: f64,
}

/// One bin of the population peak-temperature histogram.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistBin {
    /// Inclusive lower edge, Celsius.
    pub lo_c: f64,
    /// Upper edge, Celsius (inclusive for the last bin).
    pub hi_c: f64,
    /// Devices whose peak landed in the bin.
    pub count: u64,
}

/// Population rollups of one fleet cell — the serialized half of the
/// fleet results (per-device rows live in the columnar frame).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetCellOutcome {
    /// The cell's position in the expansion order.
    pub index: usize,
    /// The cell's axis-value label.
    pub label: String,
    /// Devices replayed.
    pub devices: usize,
    /// Replay ticks per device.
    pub ticks: usize,
    /// The trip threshold population statistics refer to (`None`: the
    /// fleet declared none and the scenario has no trip reference).
    pub trip_c: Option<f64>,
    /// Devices that crossed the trip threshold at least once.
    pub tripped_devices: u64,
    /// Throttle-onset CDF over the devices that tripped: onset seconds
    /// at each percentile rank (empty when nothing tripped).
    pub throttle_onset_cdf: Vec<QuantilePoint>,
    /// Time-above-trip quantiles over *all* devices, seconds.
    pub time_above_trip_s: Vec<QuantilePoint>,
    /// Peak-temperature histogram over all devices.
    pub peak_temp_histogram: Vec<HistBin>,
    /// Coolest device's peak temperature, Celsius.
    pub peak_temp_min_c: f64,
    /// Population median peak temperature, Celsius.
    pub peak_temp_median_c: f64,
    /// Hottest device's peak temperature, Celsius.
    pub peak_temp_max_c: f64,
}

/// The full product of one fleet cell: the canonical run's classic
/// results plus the population outcomes and the per-device frame.
pub(crate) struct FleetCellRun {
    pub outcome: ScenarioOutcome,
    pub analysis: SessionAnalysis,
    pub frame: mpt_daq::ColumnFrame,
    pub fleet: FleetCellOutcome,
    pub device_frame: mpt_daq::ColumnFrame,
}

fn invalid(reason: String) -> SimError {
    SimError::InvalidConfig { reason }
}

/// The trip threshold population statistics measure against: the fleet's
/// own `trip_c` if set, else the policy's
/// [`trip_reference_c`](ThermalPolicySpec::trip_reference_c).
#[must_use]
pub fn trip_reference_c(fleet: &FleetSpec, thermal: &ThermalPolicySpec) -> Option<f64> {
    fleet.trip_c.or_else(|| thermal.trip_reference_c())
}

/// Runs one fleet campaign cell: canonical simulation with trace
/// capture, then the batched population replay.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] for an invalid fleet spec or a platform
/// without an LTI form; canonical-run errors otherwise.
pub(crate) fn run_cell_fleet(
    cell: &CampaignCell,
    fleet: &FleetSpec,
    recorder: &Arc<Recorder>,
    solver_cache: &Arc<TransitionCache>,
) -> Result<FleetCellRun> {
    let problems = fleet.problems();
    if !problems.is_empty() {
        return Err(invalid(format!("bad fleet spec: {}", problems.join("; "))));
    }
    // The canonical run must sit on the uniform base-dt grid the trace
    // replays on, so force fixed-dt stepping for it.
    let mut canonical = cell.scenario.clone();
    canonical.engine = EngineSpec::Fixed;
    let (outcome, analysis, frame, trace) = run_scenario_framed_traced(
        &canonical,
        Some(Arc::clone(recorder)),
        Some(Arc::clone(solver_cache)),
        true,
    )?;
    let trace = trace.expect("trace capture was enabled");
    let lti = cell
        .scenario
        .platform
        .build()
        .thermal_spec()
        .lti()
        .map_err(|e| invalid(format!("fleet needs an LTI-form platform: {e}")))?;
    let trip_c = trip_reference_c(fleet, &cell.scenario.thermal);
    let params: Vec<DeviceParams> = (0..fleet.devices)
        .map(|d| fleet.device_params(cell.seed, d))
        .collect();
    let ticks = trace.ticks();
    let devices = replay_fleet(
        &lti,
        trace,
        &params,
        cell.scenario.initial_temperature_c,
        trip_c,
        recorder,
        Some(Arc::clone(solver_cache)),
    )?;
    let fleet_outcome = rollup(cell.index, &cell.label, &devices, trip_c, ticks);
    let device_frame = device_frame(&devices);
    Ok(FleetCellRun {
        outcome,
        analysis,
        frame,
        fleet: fleet_outcome,
        device_frame,
    })
}

/// Replays a captured trace across a jittered device population through
/// the fleet strip kernel, observing per-device thermal outcomes.
///
/// Device `d` behaves exactly as one scalar solver on its own
/// ambient-shifted network, fed trace tick `(tick + offset_d) mod
/// ticks` times its power scale. After every tick its hottest node is
/// observed: the peak, the time above `trip_c` and the end of the first
/// tick above it. Ticks run in chunks of `ticks / 8` (at least one),
/// and each chunk adds its device-ticks to `Counter::DeviceTicks` and
/// emits one `fleet_progress` journal event.
///
/// Public building block: the campaign runner calls this for each fleet
/// cell, and the benchmarks drive it directly to measure
/// device-ticks/sec.
///
/// # Errors
///
/// Solver errors from the batched stepping.
pub fn replay_fleet(
    lti: &mpt_soc::ThermalLti,
    trace: PowerTrace,
    params: &[DeviceParams],
    initial_temperature_c: Option<f64>,
    trip_c: Option<f64>,
    recorder: &Arc<Recorder>,
    solver_cache: Option<Arc<TransitionCache>>,
) -> Result<Vec<DeviceOutcome>> {
    let nodes = lti.len();
    let devices = params.len();
    let ticks = trace.ticks();
    let dt = Seconds::new(trace.dt_s());
    let mut fleet = FleetState::new(nodes, devices, lti.ambient, lti.ambient);
    for (d, p) in params.iter().enumerate() {
        let ambient = Kelvin::new(lti.ambient.value() + p.ambient_offset_c);
        fleet.set_ambient(d, ambient);
        let initial = initial_temperature_c.map_or(ambient, |t0| Celsius::new(t0).to_kelvin());
        for node in 0..nodes {
            fleet.set_temp(node, d, initial);
        }
    }
    let mut solver = match solver_cache {
        Some(cache) => ExactLti::with_cache(cache),
        None => ExactLti::new(),
    };
    let inputs = FleetInputs::new(trace, params);
    let feed = TraceFeed {
        dt,
        samples: inputs.trace().samples(),
        offsets: inputs.offsets(),
        scales: inputs.scales(),
    };
    let mut watch = TripWatch::new(devices, trip_c.map(|c| Celsius::new(c).to_kelvin().value()));
    let journal = recorder.journal();
    let chunk = (ticks / PROGRESS_EVENTS).max(1);
    let mut last = 0;
    solver.replay(lti, &mut fleet, &feed, &mut watch, chunk, |done| {
        recorder.add(Counter::DeviceTicks, (devices * (done - last)) as u64);
        last = done;
        let now_s = done as f64 * dt.value();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        journal.emit(
            Some((now_s * 1e6).round() as u64),
            JournalKind::FleetProgress {
                devices: devices as u64,
                ticks_done: done as u64,
                ticks_total: ticks as u64,
            },
        );
    })?;
    Ok(params
        .iter()
        .enumerate()
        .map(|(d, p)| DeviceOutcome {
            device: d,
            params: *p,
            peak_temp_c: Kelvin::new(watch.peak_k(d)).to_celsius().value(),
            throttle_onset_s: watch.onset_s(d),
            time_above_trip_s: watch.above_s(d),
        })
        .collect())
}

fn quantiles(values: &[f64]) -> Vec<QuantilePoint> {
    stats::cdf_points(values, &CDF_RANKS)
        .into_iter()
        .map(|(p, value)| QuantilePoint { p, value })
        .collect()
}

/// Aggregates per-device outcomes into the cell's population rollup.
fn rollup(
    index: usize,
    label: &str,
    devices: &[DeviceOutcome],
    trip_c: Option<f64>,
    ticks: usize,
) -> FleetCellOutcome {
    let peaks: Vec<f64> = devices.iter().map(|d| d.peak_temp_c).collect();
    let onsets: Vec<f64> = devices.iter().filter_map(|d| d.throttle_onset_s).collect();
    let above: Vec<f64> = devices.iter().map(|d| d.time_above_trip_s).collect();
    let (lo, hi) = peaks
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |a, &v| {
            (a.0.min(v), a.1.max(v))
        });
    // Degenerate (single-valued) populations still get one bin.
    let histogram = if lo.is_finite() && hi > lo {
        stats::histogram(&peaks, lo, hi, HIST_BINS)
    } else if lo.is_finite() {
        stats::histogram(&peaks, lo - 0.5, lo + 0.5, 1)
    } else {
        Vec::new()
    };
    FleetCellOutcome {
        index,
        label: label.to_owned(),
        devices: devices.len(),
        ticks,
        trip_c,
        tripped_devices: onsets.len() as u64,
        throttle_onset_cdf: quantiles(&onsets),
        time_above_trip_s: quantiles(&above),
        peak_temp_histogram: histogram
            .into_iter()
            .map(|b| HistBin {
                lo_c: b.lo,
                hi_c: b.hi,
                count: b.count,
            })
            .collect(),
        peak_temp_min_c: lo,
        peak_temp_median_c: stats::median(&peaks).unwrap_or(f64::NAN),
        peak_temp_max_c: hi,
    }
}

/// The numeric channels [`device_frame`] writes, beside its `device`
/// dictionary column: the per-device schema fleet-campaign queries are
/// checked against.
pub const DEVICE_CHANNELS: [&str; 7] = [
    "peak_temp_c",
    "throttle_onset_s",
    "time_above_trip_s",
    "leakage_scale",
    "ambient_offset_c",
    "phase_offset_s",
    "workload_mix",
];

/// Builds the per-device columnar frame: one row per device keyed by the
/// `device` dictionary column, so the query grammar works over
/// populations (`p99(peak_temp_c) by ambient` across a fleet campaign).
#[must_use]
pub fn device_frame(devices: &[DeviceOutcome]) -> mpt_daq::ColumnFrame {
    let mut frame = mpt_daq::ColumnFrame::new();
    for d in devices {
        frame.begin_row(d.device as f64);
        frame.set_str("device", &format!("d{:05}", d.device));
        frame.set_f64("peak_temp_c", d.peak_temp_c);
        if let Some(onset) = d.throttle_onset_s {
            frame.set_f64("throttle_onset_s", onset);
        }
        frame.set_f64("time_above_trip_s", d.time_above_trip_s);
        frame.set_f64("leakage_scale", d.params.leakage_scale);
        frame.set_f64("ambient_offset_c", d.params.ambient_offset_c);
        frame.set_f64("phase_offset_s", d.params.phase_offset_s);
        frame.set_f64("workload_mix", d.params.workload_mix);
        frame.end_row();
    }
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_frame_writes_exactly_the_shared_device_channels() {
        let device = DeviceOutcome {
            device: 0,
            params: DeviceParams {
                leakage_scale: 1.0,
                ambient_offset_c: 0.0,
                phase_offset_s: 0.0,
                workload_mix: 1.0,
            },
            peak_temp_c: 50.0,
            throttle_onset_s: Some(3.0),
            time_above_trip_s: 1.0,
        };
        let mut numeric = device_frame(&[device]).channel_names();
        numeric.retain(|c| c != "time_s" && c != "device");
        assert_eq!(numeric, DEVICE_CHANNELS);
    }
}
