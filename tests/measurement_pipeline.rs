//! Integration tests of the measurement substrate against the live
//! simulator: energy bookkeeping and residency accounting must agree
//! with the run they describe.

use mobile_thermal::sim::SimBuilder;
use mobile_thermal::soc::{platforms, ComponentId};
use mobile_thermal::units::Seconds;
use mobile_thermal::workloads::apps;

#[test]
fn telemetry_energy_matches_average_power_times_time() {
    let mut sim = SimBuilder::new(platforms::snapdragon_810())
        .attach(Box::new(apps::facebook(3)), ComponentId::BigCluster)
        .build()
        .expect("valid sim");
    sim.run_for(Seconds::new(20.0)).expect("run");
    let t = sim.telemetry();
    let elapsed = t.elapsed().value();
    assert!((elapsed - 20.0).abs() < 0.05);
    let recomputed = t.average_total_power().value() * elapsed;
    assert!(
        (recomputed - t.total_energy()).abs() < 1e-6,
        "energy bookkeeping must be self-consistent"
    );
    // Per-rail energies sum to the total.
    let sum: f64 = ComponentId::ALL.iter().map(|&id| t.energy(id)).sum();
    assert!((sum - t.total_energy()).abs() < 1e-6);
}

#[test]
fn residency_covers_the_full_run_for_every_component() {
    let mut sim = SimBuilder::new(platforms::exynos_5422())
        .attach(Box::new(apps::paper_io(5)), ComponentId::BigCluster)
        .build()
        .expect("valid sim");
    sim.run_for(Seconds::new(15.0)).expect("run");
    for id in ComponentId::ALL {
        let r = sim.telemetry().residency(id).expect("recorded");
        assert!(
            (r.total().value() - 15.0).abs() < 0.1,
            "{id}: residency covers {} of 15 s",
            r.total()
        );
        let pct_sum: f64 = r.percentages().values().sum();
        assert!(
            (pct_sum - 100.0).abs() < 1e-6,
            "{id}: percentages sum to {pct_sum}"
        );
    }
}
