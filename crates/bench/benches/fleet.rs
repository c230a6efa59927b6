//! Criterion benchmarks of the fleet strip kernel, which advances every
//! device of a population with one cached `(Ad, Bd)` pair: its one-tick
//! case `step_batch`, and the observed `replay_fleet` over a trace.
//!
//! The number that matters is **device-ticks per second per core** — the
//! budget for campaign-scale fleet studies (`BENCH_fleet.json` pins it;
//! the target is >= 1e6/s/core, and the batched kernel clears it by
//! orders of magnitude). Each `step_batch` iteration steps the whole
//! fleet once, so device-ticks/s = devices / (seconds per iteration);
//! each `replay` iteration replays a 1000-tick trace, so device-ticks/s
//! = 1000 · devices / (seconds per iteration).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use mpt_core::fleet::replay_fleet;
use mpt_obs::Recorder;
use mpt_soc::{platforms, DeviceParams};
use mpt_thermal::{ExactLti, FleetState, ThermalSolver, TransitionCache};
use mpt_units::{Kelvin, Seconds, Watts};
use mpt_workloads::PowerTrace;

/// A warmed solver + fleet pair on the Odroid-XU3 network: the exp(A dt)
/// build happens once outside the timed region, exactly as the campaign
/// runner amortizes it through the shared TransitionCache.
fn warmed(devices: usize, dt: Seconds) -> (ExactLti, mpt_soc::ThermalLti, FleetState) {
    let lti = platforms::exynos_5422()
        .thermal_spec()
        .lti()
        .expect("builtin platform is LTI-form");
    let nodes = lti.len();
    let mut fleet = FleetState::new(nodes, devices, lti.ambient, lti.ambient);
    for d in 0..devices {
        // Spread ambients and powers so no device-invariant shortcut
        // could fake the numbers.
        let off = (d % 7) as f64 * 0.5;
        fleet.set_ambient(d, Kelvin::new(lti.ambient.value() + off));
        fleet.set_power(1, d, Watts::new(2.0 + off * 0.1));
        fleet.set_power(2, d, Watts::new(0.5));
    }
    let mut solver = ExactLti::new();
    solver
        .step_batch(&lti, &mut fleet, dt)
        .expect("warmup step succeeds");
    (solver, lti, fleet)
}

fn bench_step_batch(c: &mut Criterion) {
    let dt = Seconds::from_millis(10.0);
    let mut group = c.benchmark_group("fleet");
    for (name, devices) in [
        ("step_batch_100dev", 100),
        ("step_batch_1000dev", 1000),
        ("step_batch_10000dev", 10000),
    ] {
        let (mut solver, lti, mut fleet) = warmed(devices, dt);
        group.bench_function(name, |b| {
            b.iter(|| {
                solver
                    .step_batch(&lti, &mut fleet, std::hint::black_box(dt))
                    .expect("step succeeds")
            })
        });
    }
    // The scalar baseline the batch replaces: one device stepped the
    // one-cell-one-device way, 1000 times per iteration so the
    // sub-microsecond cost clears the stub-criterion timer noise.
    let (mut solver, lti, mut fleet) = warmed(1, dt);
    group.bench_function("step_scalar_1dev_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                solver
                    .step_batch(&lti, &mut fleet, std::hint::black_box(dt))
                    .expect("step succeeds");
            }
        })
    });
    group.finish();
}

/// A 1000-tick, 10 ms trace on the Nexus 6P network: each component
/// node draws a slowly varying power, and the passive nodes none, as in
/// a captured canonical run.
fn nexus_trace() -> (mpt_soc::ThermalLti, PowerTrace) {
    let platform = platforms::snapdragon_810();
    let spec = platform.thermal_spec();
    let lti = spec.lti().expect("builtin platform is LTI-form");
    let mut trace = PowerTrace::new(0.01, lti.len());
    for tick in 0..1000 {
        let row: Vec<Watts> = spec
            .nodes
            .iter()
            .enumerate()
            .map(|(node, n)| match n.component {
                Some(_) => Watts::new(1.0 + 0.8 * ((tick + 97 * node) as f64 * 0.013).sin()),
                None => Watts::ZERO,
            })
            .collect();
        trace.push_tick(&row);
    }
    (lti, trace)
}

fn bench_replay(c: &mut Criterion) {
    let (lti, trace) = nexus_trace();
    let cache = Arc::new(TransitionCache::new());
    let recorder = Arc::new(Recorder::null());
    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);
    for (name, devices) in [("replay_2000dev", 2000), ("replay_10000dev", 10000)] {
        // A deterministic spread in every input-side parameter.
        let params: Vec<DeviceParams> = (0..devices)
            .map(|d| DeviceParams {
                leakage_scale: 0.9 + (d % 11) as f64 * 0.02,
                ambient_offset_c: (d % 13) as f64 * 0.8 - 3.0,
                phase_offset_s: (d % 17) as f64 * 0.5,
                workload_mix: 0.9 + (d % 5) as f64 * 0.05,
            })
            .collect();
        group.bench_function(name, |b| {
            b.iter(|| {
                replay_fleet(
                    &lti,
                    trace.clone(),
                    std::hint::black_box(&params),
                    None,
                    Some(40.0),
                    &recorder,
                    Some(Arc::clone(&cache)),
                )
                .expect("replay succeeds")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_step_batch, bench_replay);
criterion_main!(benches);
