//! Batch-vs-scalar equivalence for the fleet stepping kernel.
//!
//! The contract under test: `step_batch` over N jittered devices
//! produces, for every device, exactly the bits that N independent
//! scalar `step` calls produce on per-device `ThermalLti`s differing
//! only in ambient. No tolerance — `to_bits` equality — on both builtin
//! platforms, across multiple ticks and random per-device spreads in
//! ambient, initial temperature and injected power. Exact zeros cover
//! both sides of the `Bd` scatter: a node unpowered across a whole block
//! is skipped, and a zero-power device in a powered block adds `b · 0`.

use mpt_soc::{platforms, ThermalLti};
use mpt_thermal::{ExactLti, FleetState, ThermalSolver, TransitionCache};
use mpt_units::{Kelvin, Seconds, Watts};
use proptest::prelude::*;
use std::sync::Arc;

fn lti_for(platform: usize) -> ThermalLti {
    let p = if platform == 0 {
        platforms::exynos_5422()
    } else {
        platforms::snapdragon_810()
    };
    p.thermal_spec().lti().unwrap()
}

/// One scalar reference device: its own solver, its own ambient-shifted
/// LTI, stepped through the same dt sequence.
struct ScalarDevice {
    lti: ThermalLti,
    solver: ExactLti,
    temps: Vec<Kelvin>,
}

#[allow(clippy::needless_range_loop)]
fn run_equivalence(
    platform: usize,
    devices: usize,
    ticks: usize,
    dt: f64,
    ambient_offsets: &[f64],
    initial_offsets: &[f64],
    power_scales: &[f64],
) {
    let lti = lti_for(platform);
    let n = lti.len();
    let cache = Arc::new(TransitionCache::new());

    let mut fleet = FleetState::new(n, devices, lti.ambient, lti.ambient);
    let mut scalars: Vec<ScalarDevice> = (0..devices)
        .map(|d| {
            let mut lti_d = lti.clone();
            lti_d.ambient = Kelvin::new(lti.ambient.value() + ambient_offsets[d]);
            fleet.set_ambient(d, lti_d.ambient);
            let mut temps = Vec::with_capacity(n);
            for node in 0..n {
                let t = Kelvin::new(lti.ambient.value() + initial_offsets[d] + 1.5 * node as f64);
                temps.push(t);
                fleet.set_temp(node, d, t);
            }
            ScalarDevice {
                lti: lti_d,
                solver: ExactLti::with_cache(Arc::clone(&cache)),
                temps,
            }
        })
        .collect();

    let mut batch_solver = ExactLti::with_cache(Arc::clone(&cache));
    let mut powers = vec![Watts::ZERO; n];
    for tick in 0..ticks {
        // Per-device B-side inputs: node 1 always powered (scaled per
        // device), node 0 powered on alternate ticks, everything else
        // exactly zero so the scatter's skip path is exercised.
        for (d, dev) in scalars.iter_mut().enumerate() {
            for node in 0..n {
                let pv = match node {
                    1 => 1.75 * power_scales[d],
                    0 if tick % 2 == 0 => 0.6 * power_scales[d],
                    _ => 0.0,
                };
                powers[node] = Watts::new(pv);
                fleet.set_power(node, d, Watts::new(pv));
            }
            dev.solver
                .step(&dev.lti, &mut dev.temps, Seconds::new(dt), &powers)
                .unwrap();
        }
        batch_solver
            .step_batch(&lti, &mut fleet, Seconds::new(dt))
            .unwrap();
        for (d, dev) in scalars.iter().enumerate() {
            for node in 0..n {
                assert_eq!(
                    fleet.temp(node, d).value().to_bits(),
                    dev.temps[node].value().to_bits(),
                    "tick {tick}, device {d}, node {node}: batch {} vs scalar {}",
                    fleet.temp(node, d).value(),
                    dev.temps[node].value(),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_matches_scalar_bit_for_bit(
        platform in 0_usize..2,
        devices in 1_usize..20,
        dt_idx in 0_usize..3,
        seed in proptest::collection::vec(
            (-12.0_f64..12.0, 0.0_f64..40.0, (0.0_f64..2.5, 0_u8..3)),
            20,
        ),
    ) {
        let dt = [0.1, 0.25, 1.0][dt_idx];
        let ambient_offsets: Vec<f64> = seed.iter().map(|s| s.0).collect();
        let initial_offsets: Vec<f64> = seed.iter().map(|s| s.1).collect();
        // One device in three draws exactly zero power, so a block mixes
        // zero and non-zero devices on one node.
        let power_scales: Vec<f64> = seed
            .iter()
            .map(|&(_, _, (scale, pick))| if pick == 0 { 0.0 } else { scale })
            .collect();
        run_equivalence(
            platform,
            devices,
            6,
            dt,
            &ambient_offsets,
            &initial_offsets,
            &power_scales,
        );
    }
}

/// Block-boundary coverage: a fleet larger than the kernel's device
/// block (256) must still match scalar devices on both sides of every
/// block edge. Deterministic (no proptest) so it always runs the big N.
#[test]
fn batch_matches_scalar_across_block_boundary() {
    let devices = 300;
    let ambient_offsets: Vec<f64> = (0..devices).map(|d| (d as f64 % 21.0) - 10.0).collect();
    let initial_offsets: Vec<f64> = (0..devices).map(|d| d as f64 % 35.0).collect();
    let power_scales: Vec<f64> = (0..devices).map(|d| (d as f64 % 7.0) * 0.3).collect();
    run_equivalence(
        0,
        devices,
        3,
        0.25,
        &ambient_offsets,
        &initial_offsets,
        &power_scales,
    );
}

/// The acceptance pin: an N=1 batch is bit-identical to the scalar
/// `exact_lti` path over a long trajectory — the scalar solver is
/// literally the batch kernel's N=1 special case.
#[test]
fn n1_batch_is_the_scalar_path() {
    for platform in 0..2 {
        let lti = lti_for(platform);
        let n = lti.len();
        let cache = Arc::new(TransitionCache::new());
        let mut scalar = ExactLti::with_cache(Arc::clone(&cache));
        let mut batch = ExactLti::with_cache(Arc::clone(&cache));
        let mut temps = vec![lti.ambient; n];
        let mut fleet = FleetState::new(n, 1, lti.ambient, lti.ambient);
        let mut powers = vec![Watts::ZERO; n];
        let dt = Seconds::from_millis(100.0);
        for tick in 0..1000 {
            for (node, power) in powers.iter_mut().enumerate() {
                let pv = if node == tick % n {
                    2.0 + 0.001 * tick as f64
                } else {
                    0.0
                };
                *power = Watts::new(pv);
                fleet.set_power(node, 0, Watts::new(pv));
            }
            scalar.step(&lti, &mut temps, dt, &powers).unwrap();
            batch.step_batch(&lti, &mut fleet, dt).unwrap();
            for (node, temp) in temps.iter().enumerate() {
                assert_eq!(
                    fleet.temp(node, 0).value().to_bits(),
                    temp.value().to_bits(),
                    "tick {tick}, node {node}"
                );
            }
        }
    }
}
