//! Property-based invariants of the co-simulator, driven by scripted
//! trace workloads: conservation of capacity and energy, temperature
//! floors, and determinism.

use proptest::prelude::*;

use mpt_sim::SimBuilder;
use mpt_soc::{platforms, ComponentId};
use mpt_units::Seconds;
use mpt_workloads::trace::{TraceSegment, TraceWorkload};

fn traced_sim(cpu_rates: &[f64], gpu_rate: f64) -> mpt_sim::Simulator {
    let mut builder = SimBuilder::new(platforms::exynos_5422());
    for (i, &rate) in cpu_rates.iter().enumerate() {
        let segs = vec![
            TraceSegment {
                duration: Seconds::new(0.5),
                cpu_rate: rate,
                cpu_threads: 1.0 + (i % 3) as f64,
                gpu_rate,
            },
            TraceSegment::idle(Seconds::new(0.3)),
        ];
        let cluster = if i % 2 == 0 {
            ComponentId::BigCluster
        } else {
            ComponentId::LittleCluster
        };
        builder = builder.attach(
            Box::new(TraceWorkload::new(format!("w{i}"), segs, true)),
            cluster,
        );
    }
    builder.build().expect("valid sim")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn delivered_cycles_never_exceed_demand(
        rates in proptest::collection::vec(0.0_f64..4.0e9, 1..5),
    ) {
        let mut sim = traced_sim(&rates, 1.0e8);
        sim.run_for(Seconds::new(3.0)).expect("run");
        for (i, &rate) in rates.iter().enumerate() {
            let pid = sim.pid_of(&format!("w{i}")).expect("attached");
            let w: &TraceWorkload = sim.workload_as(pid).expect("type");
            let (cpu, gpu) = w.delivered();
            // Demand is rate * busy time (0.5 of each 0.8 s period).
            let busy_time = 3.0 * 0.5 / 0.8 + 0.5; // generous bound
            prop_assert!(cpu <= rate * busy_time + 1.0, "w{i}: cpu {cpu}");
            prop_assert!(gpu <= 1.0e8 * busy_time + 1.0, "w{i}: gpu {gpu}");
        }
    }

    #[test]
    fn temperatures_never_fall_below_ambient(
        rates in proptest::collection::vec(0.0_f64..4.0e9, 1..4),
    ) {
        let mut sim = traced_sim(&rates, 2.0e8);
        for _ in 0..200 {
            sim.step().expect("step");
            let ambient = sim.network().ambient();
            for &t in sim.network().temperatures() {
                prop_assert!(t.value() >= ambient.value() - 1e-9);
            }
        }
    }

    #[test]
    fn energy_equals_integral_of_power(
        rates in proptest::collection::vec(0.5e9_f64..3.0e9, 1..4),
    ) {
        let mut sim = traced_sim(&rates, 1.5e8);
        let mut integral = 0.0;
        let dt = sim.dt().value();
        for _ in 0..300 {
            sim.step().expect("step");
            integral += sim.total_power().value() * dt;
        }
        let recorded = sim.telemetry().total_energy();
        let rel = (integral - recorded).abs() / recorded.max(1e-9);
        prop_assert!(rel < 1e-6, "integral {integral} vs telemetry {recorded}");
    }

    #[test]
    fn simulation_is_deterministic(
        rates in proptest::collection::vec(0.0_f64..3.0e9, 1..4),
    ) {
        let mut a = traced_sim(&rates, 1.0e8);
        let mut b = traced_sim(&rates, 1.0e8);
        a.run_for(Seconds::new(2.0)).expect("run");
        b.run_for(Seconds::new(2.0)).expect("run");
        prop_assert_eq!(a.total_power(), b.total_power());
        for (ta, tb) in a
            .network()
            .temperatures()
            .iter()
            .zip(b.network().temperatures())
        {
            prop_assert_eq!(ta, tb);
        }
        for id in ComponentId::ALL {
            prop_assert_eq!(a.current_frequency(id), b.current_frequency(id));
        }
    }

    #[test]
    fn frequencies_always_valid_opps(
        rates in proptest::collection::vec(0.0_f64..4.0e9, 1..4),
    ) {
        let mut sim = traced_sim(&rates, 3.0e8);
        for _ in 0..150 {
            sim.step().expect("step");
            for component in platforms::exynos_5422().components() {
                let f = sim.current_frequency(component.id()).expect("policy");
                prop_assert!(
                    component.opps().index_of(f).is_some(),
                    "{}: {f} is not an operating point",
                    component.id()
                );
            }
        }
    }
}

#[test]
fn event_log_records_cpuset_migrations() {
    let mut sim = SimBuilder::new(platforms::exynos_5422())
        .attach(
            Box::new(TraceWorkload::new(
                "mover",
                vec![TraceSegment::cpu(Seconds::new(1.0), 1.0e9, 1.0)],
                true,
            )),
            ComponentId::BigCluster,
        )
        .build()
        .expect("valid sim");
    let pid = sim.pid_of("mover").expect("attached");
    sim.run_for(Seconds::new(0.5)).expect("run");
    sim.sysfs()
        .write(&mpt_kernel::paths::cpuset_cluster(pid.value()), "little")
        .expect("writable");
    sim.run_for(Seconds::new(0.5)).expect("run");
    let migrations: Vec<_> = sim.events().migrations().collect();
    assert_eq!(migrations.len(), 1);
    match &migrations[0].kind {
        mpt_sim::EventKind::Migration { from, to, name, .. } => {
            assert_eq!(*from, ComponentId::BigCluster);
            assert_eq!(*to, ComponentId::LittleCluster);
            assert_eq!(name, "mover");
        }
        other => panic!("unexpected event {other:?}"),
    }
    assert!(sim.events().first_migration().is_some());
}
