//! One Criterion bench per paper artifact, measuring the cost of
//! regenerating it. The runs here are time-scaled (seconds of simulated
//! time instead of the full 140 s / 250 s) so Criterion can sample them;
//! the `repro` binary performs the full-length regenerations.

use criterion::{criterion_group, criterion_main, Criterion};

use mpt_core::experiments::{fig7_curves, nexus_run, NexusApp};
use mpt_core::{AppAwareConfig, AppAwareGovernor};
use mpt_kernel::{IpaConfig, IpaGovernor};
use mpt_sim::SimBuilder;
use mpt_soc::{platforms, ComponentId};
use mpt_units::{Celsius, Seconds, Watts};
use mpt_workloads::benchmarks::{BasicMathLarge, ThreeDMark};

/// A time-scaled Odroid scenario: 10 simulated seconds.
fn short_odroid(proposed: bool) {
    let soc = platforms::exynos_5422();
    let mut builder = SimBuilder::new(soc.clone()).initial_temperature(Celsius::new(50.0));
    if proposed {
        builder = builder.system_policy(Box::new(AppAwareGovernor::new(AppAwareConfig::default())));
    } else {
        builder = builder.thermal_governor(Box::new(IpaGovernor::new(
            IpaConfig {
                control_temp: Celsius::new(95.0),
                sustainable_power: Watts::new(2.6),
                ..IpaConfig::default()
            },
            vec![
                soc.component(ComponentId::BigCluster).expect("big").clone(),
                soc.component(ComponentId::Gpu).expect("gpu").clone(),
            ],
        )));
    }
    let mut sim = builder
        .attach_realtime(
            Box::new(ThreeDMark::with_durations(
                Seconds::new(5.0),
                Seconds::new(5.0),
            )),
            ComponentId::BigCluster,
        )
        .attach(Box::new(BasicMathLarge::new()), ComponentId::BigCluster)
        .build()
        .expect("valid sim");
    sim.run_for(Seconds::new(10.0)).expect("run");
}

fn bench_artifacts(c: &mut Criterion) {
    let mut group = c.benchmark_group("paper_artifacts");
    group.sample_size(10);

    // Figures 1/3/5 + Table I share the same driver: one throttled app
    // run (time-scaled to 10 s).
    group.bench_function("fig1_tab1_nexus_throttled_run", |b| {
        b.iter(|| nexus_run(NexusApp::PaperIo, true, 42, Seconds::new(10.0)).expect("run"))
    });
    // Figures 2/4/6: the residency products of the unthrottled run.
    group.bench_function("fig2_fig4_fig6_nexus_free_run", |b| {
        b.iter(|| nexus_run(NexusApp::PaperIo, false, 42, Seconds::new(10.0)).expect("run"))
    });
    // Figure 7: the stability curves (full-fidelity; it is cheap).
    group.bench_function("fig7_fixed_point_curves", |b| b.iter(fig7_curves));
    // Figures 8/9 + Table II: the Odroid scenarios (time-scaled).
    group.bench_function("fig8_fig9_tab2_odroid_default", |b| {
        b.iter(|| short_odroid(false))
    });
    group.bench_function("fig8_fig9_tab2_odroid_proposed", |b| {
        b.iter(|| short_odroid(true))
    });
    group.finish();
}

criterion_group!(artifacts, bench_artifacts);
criterion_main!(artifacts);
