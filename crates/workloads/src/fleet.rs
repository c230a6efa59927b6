//! Lowering a fleet spec to per-device B-side inputs.
//!
//! A fleet shares one platform model and one canonical workload run; the
//! devices differ only in what they *inject* into the shared dynamics.
//! [`PowerTrace`] captures the canonical run's per-node injected power
//! on a uniform tick grid, and [`FleetInputs`] replays it across N
//! devices with each device's resolved [`DeviceParams`]:
//!
//! - `leakage_scale · workload_mix` multiplies the device's power
//!   (process corner × usage intensity — both strictly input-side),
//! - `phase_offset_s` shifts the device's read position in the trace
//!   circularly (a steady population caught at random phases of the
//!   viral launch), rounded to the tick grid.
//!
//! Nothing here touches temperatures or the platform model. A replay
//! hands the fleet kernel the trace's samples with each device's
//! [`offsets`](FleetInputs::offsets) and [`scales`](FleetInputs::scales),
//! and the kernel reads each device's row of node powers itself;
//! [`FleetInputs::fill_tick`] assembles the same powers into the
//! node-major plane a `FleetState` holds. Exact zeros in the trace stay
//! exact zeros after scaling, so a node the canonical run never powers
//! is one the kernel skips.

use mpt_soc::DeviceParams;
use mpt_units::Watts;

/// Per-node injected power of one canonical run, on a uniform tick grid.
///
/// Tick-major layout: `samples[tick * nodes + node]` in watts.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    dt_s: f64,
    nodes: usize,
    samples: Vec<f64>,
}

impl PowerTrace {
    /// An empty trace over `nodes` thermal nodes sampled every `dt_s`
    /// seconds.
    #[must_use]
    pub fn new(dt_s: f64, nodes: usize) -> Self {
        Self {
            dt_s,
            nodes,
            samples: Vec::new(),
        }
    }

    /// Appends one tick of per-node powers (length must equal the node
    /// count).
    pub fn push_tick(&mut self, node_powers: &[Watts]) {
        debug_assert_eq!(node_powers.len(), self.nodes);
        self.samples.extend(node_powers.iter().map(|p| p.value()));
    }

    /// Number of recorded ticks.
    #[must_use]
    pub fn ticks(&self) -> usize {
        self.samples.len().checked_div(self.nodes).unwrap_or(0)
    }

    /// Number of thermal nodes per tick.
    #[must_use]
    pub(crate) fn nodes(&self) -> usize {
        self.nodes
    }

    /// The tick period in seconds.
    #[must_use]
    pub fn dt_s(&self) -> f64 {
        self.dt_s
    }

    /// Power at `(tick, node)` in watts.
    #[must_use]
    pub fn sample(&self, tick: usize, node: usize) -> f64 {
        self.samples[tick * self.nodes + node]
    }

    /// Every sample in watts, tick-major: `[tick * nodes + node]`.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// A fleet's assembled input model: the canonical trace plus each
/// device's resolved multiplier and phase shift.
#[derive(Debug, Clone)]
pub struct FleetInputs {
    trace: PowerTrace,
    /// Per-device power multiplier (`leakage_scale · workload_mix`).
    scale: Vec<f64>,
    /// Per-device circular read offset in ticks.
    offset_ticks: Vec<usize>,
}

impl FleetInputs {
    /// Lowers resolved device parameters against a canonical trace.
    ///
    /// Phase offsets are rounded to the trace's tick grid (the same
    /// quantization the event engine applies to wake times).
    #[must_use]
    pub fn new(trace: PowerTrace, params: &[DeviceParams]) -> Self {
        let ticks = trace.ticks().max(1);
        let scale = params
            .iter()
            .map(|p| p.leakage_scale * p.workload_mix)
            .collect();
        let offset_ticks = params
            .iter()
            .map(|p| ((p.phase_offset_s / trace.dt_s).round().max(0.0) as usize) % ticks)
            .collect();
        Self {
            trace,
            scale,
            offset_ticks,
        }
    }

    /// Number of devices the inputs were lowered for.
    #[must_use]
    pub fn devices(&self) -> usize {
        self.scale.len()
    }

    /// The canonical trace.
    #[must_use]
    pub fn trace(&self) -> &PowerTrace {
        &self.trace
    }

    /// Each device's circular read offset in ticks, below the trace's
    /// length: device `d` reads trace tick `(tick + offsets[d]) mod ticks`.
    #[must_use]
    pub fn offsets(&self) -> &[usize] {
        &self.offset_ticks
    }

    /// Each device's power multiplier (`leakage_scale · workload_mix`).
    #[must_use]
    pub fn scales(&self) -> &[f64] {
        &self.scale
    }

    /// Fills one tick of the node-major power plane
    /// (`plane[node * devices + device]`, length `nodes · devices`) with
    /// every device's scaled, phase-shifted read of the trace.
    ///
    /// Device `d` reads trace tick `(tick + offset_d) mod ticks`. The
    /// modulo runs once per call: offsets are already below `ticks`, so
    /// one conditional subtraction wraps each device's read, which then
    /// copies that tick's contiguous row of node powers.
    pub fn fill_tick(&self, tick: usize, plane: &mut [f64]) {
        let nodes = self.trace.nodes();
        let devices = self.scale.len();
        let ticks = self.trace.ticks();
        debug_assert_eq!(plane.len(), nodes * devices);
        if ticks == 0 {
            plane.fill(0.0);
            return;
        }
        let tick = tick % ticks;
        for (d, (&scale, &offset)) in self.scale.iter().zip(&self.offset_ticks).enumerate() {
            let mut src = tick + offset;
            if src >= ticks {
                src -= ticks;
            }
            let row = &self.trace.samples[src * nodes..(src + 1) * nodes];
            for (out, &p) in plane[d..].iter_mut().step_by(devices).zip(row) {
                *out = p * scale;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn params(leak: f64, mix: f64, phase: f64) -> DeviceParams {
        DeviceParams {
            leakage_scale: leak,
            ambient_offset_c: 0.0,
            phase_offset_s: phase,
            workload_mix: mix,
        }
    }

    fn two_tick_trace() -> PowerTrace {
        let mut t = PowerTrace::new(1.0, 2);
        t.push_tick(&[Watts::new(1.0), Watts::new(0.0)]);
        t.push_tick(&[Watts::new(3.0), Watts::new(4.0)]);
        t
    }

    #[test]
    fn scales_multiply_and_zeros_stay_exact() {
        let inputs = FleetInputs::new(two_tick_trace(), &[params(2.0, 0.5, 0.0)]);
        let mut plane = vec![f64::NAN; 2];
        inputs.fill_tick(0, &mut plane);
        assert_eq!(plane, vec![1.0, 0.0]);
        inputs.fill_tick(1, &mut plane);
        assert_eq!(plane, vec![3.0, 4.0]);
    }

    #[test]
    fn phase_offset_shifts_circularly() {
        let inputs = FleetInputs::new(
            two_tick_trace(),
            &[params(1.0, 1.0, 0.0), params(1.0, 1.0, 1.0)],
        );
        let mut plane = vec![0.0; 4];
        inputs.fill_tick(0, &mut plane);
        // Device 0 reads tick 0, device 1 reads tick 1 (node-major).
        assert_eq!(plane, vec![1.0, 3.0, 0.0, 4.0]);
        inputs.fill_tick(1, &mut plane);
        assert_eq!(plane, vec![3.0, 1.0, 4.0, 0.0]);
    }

    #[test]
    fn phase_offsets_round_to_tick_grid_and_wrap() {
        let inputs = FleetInputs::new(
            two_tick_trace(),
            // 0.4 s rounds down to 0 ticks; 2.6 s rounds to 3, wraps to 1.
            &[params(1.0, 1.0, 0.4), params(1.0, 1.0, 2.6)],
        );
        let mut plane = vec![0.0; 4];
        inputs.fill_tick(0, &mut plane);
        assert_eq!(plane, vec![1.0, 3.0, 0.0, 4.0]);
    }

    proptest! {
        #[test]
        fn fill_tick_matches_the_modulo_read(
            nodes in 1_usize..7,
            ticks in 1_usize..12,
            devices in 1_usize..40,
            tick in 0_usize..100,
            samples in proptest::collection::vec(0.0_f64..5.0, 6 * 11),
            jitter in proptest::collection::vec((0_usize..40, 0.5_f64..2.0), 39),
        ) {
            let mut trace = PowerTrace::new(0.5, nodes);
            for t in 0..ticks {
                // Values below 1 W become exact zeros, as unpowered nodes.
                let row: Vec<Watts> = samples[t * nodes..(t + 1) * nodes]
                    .iter()
                    .map(|&v| Watts::new(if v < 1.0 { 0.0 } else { v }))
                    .collect();
                trace.push_tick(&row);
            }
            // Device 0 sits at offset `ticks - 1`, the last one that
            // does not wrap at tick 0.
            let mut devs = vec![params(1.5, 1.0, (ticks - 1) as f64 * 0.5)];
            devs.extend(
                jitter[..devices - 1]
                    .iter()
                    .map(|&(k, mix)| params(1.0, mix, k as f64 * 0.5)),
            );
            let inputs = FleetInputs::new(trace, &devs);
            let mut plane = vec![f64::NAN; nodes * devices];
            inputs.fill_tick(tick, &mut plane);
            for node in 0..nodes {
                for d in 0..devices {
                    let src = (tick + inputs.offset_ticks[d]) % ticks;
                    let want = inputs.trace.sample(src, node) * inputs.scale[d];
                    prop_assert_eq!(plane[node * devices + d].to_bits(), want.to_bits());
                }
            }
            prop_assert_eq!(inputs.offset_ticks[0], ticks - 1);
        }
    }

    #[test]
    fn empty_trace_fills_zero() {
        let inputs = FleetInputs::new(PowerTrace::new(1.0, 2), &[params(1.0, 1.0, 0.0)]);
        let mut plane = vec![f64::NAN; 2];
        inputs.fill_tick(5, &mut plane);
        assert_eq!(plane, vec![0.0, 0.0]);
    }
}
