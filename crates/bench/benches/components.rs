//! Criterion micro-benchmarks of the reproduction's building blocks: the
//! stability analysis (solved every 100 ms by the paper's governor), the
//! thermal network, the scheduler and the full simulator tick.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use mpt_kernel::{allocate_max_min, GovernorKind, Pid, ProcessClass};
use mpt_sim::{SimBuilder, SteppingMode};
use mpt_soc::{platforms, ComponentId};
use mpt_thermal::{LumpedModel, RcNetwork};
use mpt_units::{Kelvin, Seconds, Watts};
use mpt_workloads::apps;
use mpt_workloads::benchmarks::{BasicMathLarge, SteadyCompute};
use mpt_workloads::mibench;

fn bench_stability_analysis(c: &mut Criterion) {
    let model = LumpedModel::odroid_xu3();
    let mut group = c.benchmark_group("stability");
    group.bench_function("classify_2w", |b| {
        b.iter(|| model.stability(std::hint::black_box(Watts::new(2.0))))
    });
    group.bench_function("classify_runaway_8w", |b| {
        b.iter(|| model.stability(std::hint::black_box(Watts::new(8.0))))
    });
    group.bench_function("critical_power", |b| b.iter(|| model.critical_power()));
    group.bench_function("time_to_reach", |b| {
        b.iter(|| {
            model.time_to_reach(
                Kelvin::new(330.0),
                Kelvin::new(368.0),
                std::hint::black_box(Watts::new(4.5)),
                Seconds::new(600.0),
            )
        })
    });
    group.finish();
}

fn bench_thermal_network(c: &mut Criterion) {
    let spec = platforms::exynos_5422().thermal_spec().clone();
    let mut group = c.benchmark_group("thermal_network");
    group.bench_function("step_100ms", |b| {
        let mut net = RcNetwork::from_spec(&spec).expect("valid spec");
        let mut powers = vec![Watts::ZERO; net.len()];
        powers[1] = Watts::new(2.5);
        b.iter(|| net.step(Seconds::from_millis(100.0), &powers))
    });
    group.bench_function("steady_state", |b| {
        let net = RcNetwork::from_spec(&spec).expect("valid spec");
        let mut powers = vec![Watts::ZERO; net.len()];
        powers[1] = Watts::new(2.5);
        b.iter(|| net.steady_state(&powers))
    });
    group.bench_function("reduce_to_lumped", |b| {
        let net = RcNetwork::from_spec(&spec).expect("valid spec");
        let mut powers = vec![Watts::ZERO; net.len()];
        powers[1] = Watts::new(2.5);
        // The first call computes the network's gain table and τ; warm
        // them outside the timed loop, as a session's first governor
        // poll does for every later one.
        net.reduce(&powers, 1, 1700.0, 8000.0).expect("reducible");
        b.iter(|| net.reduce(&powers, 1, 1700.0, 8000.0))
    });
    group.finish();
}

/// The exact-LTI thermal step on the Odroid network, the throughput
/// recorded in `BENCH_solver.json`: each "iteration" is 1000 ticks so
/// the sub-microsecond per-tick cost clears the stub harness's timer
/// noise. The one-off discretization build is warmed outside the timed
/// region — steady-state throughput is what the simulator pays.
fn bench_solvers(c: &mut Criterion) {
    let platform = platforms::exynos_5422();
    let spec = platform.thermal_spec().clone();
    let mut group = c.benchmark_group("solver");
    for (label, dt) in [
        ("step_100ms_x1000", Seconds::from_millis(100.0)),
        ("step_10ms_x1000", Seconds::from_millis(10.0)),
        ("step_1s_x1000", Seconds::new(1.0)),
    ] {
        group.bench_function(&format!("exact_lti/{label}"), |b| {
            let mut net = RcNetwork::from_spec(&spec).expect("valid spec");
            let mut powers = vec![Watts::ZERO; net.len()];
            powers[1] = Watts::new(2.5);
            net.step(dt, &powers).expect("warm-up step");
            b.iter(|| {
                for _ in 0..1000 {
                    net.step(dt, &powers).expect("step");
                }
            })
        });
    }
    group.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler");
    let demands: Vec<(Pid, f64)> = (0..32)
        .map(|i| (Pid::new(i + 1), f64::from(i) * 1e6))
        .collect();
    let (mut order, mut out) = (Vec::new(), Vec::new());
    group.bench_function("allocate_max_min_32", |b| {
        b.iter(|| {
            allocate_max_min(std::hint::black_box(&demands), 100e6, &mut order, &mut out);
            std::hint::black_box(&out);
        })
    });
    group.finish();
}

fn bench_simulator_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.bench_function("tick_nexus_game", |b| {
        b.iter_batched(
            || {
                SimBuilder::new(platforms::snapdragon_810())
                    .attach(
                        Box::new(apps::paper_io(42)),
                        ProcessClass::Foreground,
                        ComponentId::BigCluster,
                    )
                    .build()
                    .expect("valid sim")
            },
            |mut sim| {
                for _ in 0..100 {
                    sim.step().expect("step");
                }
                sim
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("simulated_second_odroid", |b| {
        b.iter_batched(
            || {
                SimBuilder::new(platforms::exynos_5422())
                    .attach(
                        Box::new(BasicMathLarge::new()),
                        ProcessClass::Background,
                        ComponentId::BigCluster,
                    )
                    .build()
                    .expect("valid sim")
            },
            |mut sim| {
                sim.run_for(Seconds::new(1.0)).expect("run");
                sim
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Head-to-head stepping engines on the macro-step showcase recorded in
/// `BENCH_events.json`: a steady workload with pinned governors — no
/// poll-rate DVFS churn — simulated for 600 s at a 100 ms base tick. The
/// fixed engine grinds 6000 passes; the event engine reaches quiescence
/// in the first few passes and then jumps sample point to sample point,
/// so each "iteration" is dominated by a handful of analytic solver
/// calls.
fn bench_stepping(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(20);
    let build = |mode: SteppingMode| {
        SimBuilder::new(platforms::snapdragon_810())
            .stepping(mode)
            .tick(Seconds::from_millis(100.0))
            .telemetry_period(Seconds::new(30.0))
            .governor(ComponentId::BigCluster, GovernorKind::Performance)
            .governor(ComponentId::LittleCluster, GovernorKind::Performance)
            .attach(
                Box::new(SteadyCompute::new("load", 2.0e9, 2.0)),
                ProcessClass::Background,
                ComponentId::BigCluster,
            )
            .build()
            .expect("valid sim")
    };
    for (label, mode) in [
        ("fixed_100ms_x600s", SteppingMode::FixedDt),
        ("event_100ms_x600s", SteppingMode::EventDriven),
    ] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || build(mode),
                |mut sim| {
                    sim.run_for(Seconds::new(600.0)).expect("run");
                    sim
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// Measures what the always-on recorder costs the hot loop against the
/// `Recorder::null()` path (the target is under 5% of a tick;
/// `BENCH_obs.json` records where it stands).
fn bench_recorder_overhead(c: &mut Criterion) {
    use std::sync::Arc;

    use mpt_obs::Recorder;

    let mut group = c.benchmark_group("recorder");
    let build = |recorder: Arc<Recorder>| {
        SimBuilder::new(platforms::exynos_5422())
            .recorder(recorder)
            .attach(
                Box::new(BasicMathLarge::new()),
                ProcessClass::Background,
                ComponentId::BigCluster,
            )
            .build()
            .expect("valid sim")
    };
    group.bench_function("tick_100_recording", |b| {
        b.iter_batched(
            || build(Arc::new(Recorder::new())),
            |mut sim| {
                for _ in 0..100 {
                    sim.step().expect("step");
                }
                sim
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("tick_100_null", |b| {
        b.iter_batched(
            || build(Arc::new(Recorder::null())),
            |mut sim| {
                for _ in 0..100 {
                    sim.step().expect("step");
                }
                sim
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Measures the journal's emit/poll/snapshot paths: emit on the enabled
/// and the disabled (null-recorder) journal, a full drain of a loaded
/// ring, and the `/progress` snapshot capture.
fn bench_journal(c: &mut Criterion) {
    use std::sync::Arc;

    use mpt_obs::{JournalKind, Recorder};

    let mut group = c.benchmark_group("journal");
    let enabled = Arc::new(Recorder::new());
    let disabled = Arc::new(Recorder::null());
    group.bench_function("emit", |b| {
        b.iter(|| {
            enabled.journal().emit(
                Some(1_000),
                JournalKind::StageRollup {
                    passes: 10,
                    stage_runs: 40,
                    wall_us: 123,
                },
            )
        })
    });
    group.bench_function("emit_null", |b| {
        b.iter(|| {
            disabled.journal().emit(
                Some(1_000),
                JournalKind::StageRollup {
                    passes: 10,
                    stage_runs: 40,
                    wall_us: 123,
                },
            )
        })
    });
    let loaded = Arc::new(Recorder::new());
    for i in 0..1_000u64 {
        loaded.journal().emit(
            Some(i),
            JournalKind::CounterDelta {
                counter: mpt_obs::Counter::Ticks,
                delta: 1,
                total: i,
            },
        );
    }
    group.bench_function("poll_1000", |b| b.iter(|| loaded.journal().poll(0)));
    group.bench_function("snapshot", |b| {
        b.iter(|| loaded.journal().snapshot(&loaded))
    });
    group.finish();
}

fn bench_mibench(c: &mut Criterion) {
    let mut group = c.benchmark_group("mibench");
    group.bench_function("basicmath_iteration", |b| {
        b.iter(|| mibench::basicmath_iteration(std::hint::black_box(7)))
    });
    group.bench_function("solve_cubic", |b| {
        b.iter(|| mibench::solve_cubic(1.0, std::hint::black_box(-10.5), 32.0, -30.0))
    });
    group.bench_function("usqrt", |b| {
        b.iter(|| mibench::usqrt(std::hint::black_box(0x7fff_ffff_ffff)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_stability_analysis,
    bench_thermal_network,
    bench_solvers,
    bench_scheduler,
    bench_simulator_tick,
    bench_stepping,
    bench_recorder_overhead,
    bench_journal,
    bench_mibench
);
criterion_main!(benches);
