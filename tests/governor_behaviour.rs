//! Behavioural integration tests of the application-aware governor: who
//! gets migrated, who is protected, and what the predictions say.

use mobile_thermal::core::{AppAwareConfig, AppAwareGovernor};
use mobile_thermal::sim::SimBuilder;
use mobile_thermal::soc::{platforms, ComponentId};
use mobile_thermal::units::{Celsius, Seconds};
use mobile_thermal::workloads::benchmarks::{BasicMathLarge, SteadyCompute, ThreeDMark};

#[test]
fn victim_is_the_most_power_hungry_background_process() {
    // Two background tasks: a heavy one (BML, one full A15 core) and a
    // light one. The governor must pick the heavy one.
    let gov = AppAwareGovernor::new(AppAwareConfig::default());
    let mut sim = SimBuilder::new(platforms::exynos_5422())
        .attach_realtime(
            Box::new(ThreeDMark::with_durations(
                Seconds::new(40.0),
                Seconds::new(40.0),
            )),
            ComponentId::BigCluster,
        )
        .attach(Box::new(BasicMathLarge::new()), ComponentId::BigCluster)
        .attach(
            Box::new(SteadyCompute::new("light-daemon", 0.2e9, 1.0)),
            ComponentId::BigCluster,
        )
        .system_policy(Box::new(gov))
        .initial_temperature(Celsius::new(60.0))
        .build()
        .expect("valid sim");
    sim.run_for(Seconds::new(30.0)).expect("run");
    let bml = sim.pid_of("basicmath_large").expect("bml");
    let light = sim.pid_of("light-daemon").expect("daemon");
    assert_eq!(
        sim.scheduler().process(bml).expect("bml").cluster(),
        ComponentId::LittleCluster,
        "the heavy background task must be the first victim"
    );
    // The light daemon is only migrated if pressure persists; it must
    // never be chosen before BML.
    let bml_migrations = sim.scheduler().process(bml).expect("bml").migration_count();
    assert!(bml_migrations >= 1);
    let _ = light;
}

#[test]
fn realtime_registration_protects_a_process() {
    // BML registers itself as real-time: the governor must leave it
    // alone even under pressure, exactly as the paper's registration
    // mechanism promises.
    let gov = AppAwareGovernor::new(AppAwareConfig::default());
    let stats = gov.stats();
    let mut sim = SimBuilder::new(platforms::exynos_5422())
        .attach_realtime(
            Box::new(ThreeDMark::with_durations(
                Seconds::new(40.0),
                Seconds::new(40.0),
            )),
            ComponentId::BigCluster,
        )
        .attach_realtime(Box::new(BasicMathLarge::new()), ComponentId::BigCluster)
        .system_policy(Box::new(gov))
        .initial_temperature(Celsius::new(60.0))
        .build()
        .expect("valid sim");
    sim.run_for(Seconds::new(30.0)).expect("run");
    let bml = sim.pid_of("basicmath_large").expect("bml");
    assert_eq!(
        sim.scheduler().process(bml).expect("bml").cluster(),
        ComponentId::BigCluster,
        "a registered real-time process is exempt from migration"
    );
    assert_eq!(stats.migrations(), 0);
    // The governor still detected the pressure — it just had no eligible
    // victim.
    assert!(stats.activations() > 0, "pressure must have been detected");
}

#[test]
fn predictions_track_the_thermal_state() {
    let gov = AppAwareGovernor::new(AppAwareConfig::default());
    let stats = gov.stats();
    let mut sim = SimBuilder::new(platforms::exynos_5422())
        .attach(
            Box::new(SteadyCompute::new("idle-ish", 0.1e9, 1.0)),
            ComponentId::LittleCluster,
        )
        .system_policy(Box::new(gov))
        .build()
        .expect("valid sim");
    sim.run_for(Seconds::new(5.0)).expect("run");
    // A nearly idle board predicts a low steady state.
    let prediction = stats.last_prediction().expect("stable prediction");
    assert!(
        prediction.value() < 60.0,
        "idle prediction {prediction} should be cool"
    );
    // And the prediction is at or above the current temperature (the
    // board is still warming toward it).
    let now = sim.max_temperature().to_celsius().value();
    assert!(prediction.value() >= now - 1.0);
}

#[test]
fn governor_counts_match_the_scheduler_state() {
    let gov = AppAwareGovernor::new(AppAwareConfig::default());
    let stats = gov.stats();
    let mut sim = SimBuilder::new(platforms::exynos_5422())
        .attach_realtime(
            Box::new(ThreeDMark::with_durations(
                Seconds::new(40.0),
                Seconds::new(40.0),
            )),
            ComponentId::BigCluster,
        )
        .attach(Box::new(BasicMathLarge::new()), ComponentId::BigCluster)
        .system_policy(Box::new(gov))
        .initial_temperature(Celsius::new(60.0))
        .build()
        .expect("valid sim");
    sim.run_for(Seconds::new(30.0)).expect("run");
    let bml = sim.pid_of("basicmath_large").expect("bml");
    let scheduler_migrations =
        u64::from(sim.scheduler().process(bml).expect("bml").migration_count());
    assert_eq!(
        stats.migrations(),
        scheduler_migrations,
        "governor counters must agree with the scheduler"
    );
}

#[test]
fn governor_generalizes_to_the_phone_platform() {
    // The paper demonstrates on the Odroid "since it provides more
    // flexibility to modify the default governors" — but the algorithm
    // is platform-agnostic. Run it on the simulated Nexus 6P with a
    // phone-appropriate 44 C limit.
    use mobile_thermal::workloads::apps;
    let gov = AppAwareGovernor::new(AppAwareConfig {
        thermal_limit: Celsius::new(44.0),
        ..AppAwareConfig::default()
    });
    let stats = gov.stats();
    let mut sim = SimBuilder::new(platforms::snapdragon_810())
        .attach_realtime(Box::new(apps::paper_io(42)), ComponentId::BigCluster)
        .attach(Box::new(BasicMathLarge::new()), ComponentId::BigCluster)
        .system_policy(Box::new(gov))
        .initial_temperature(Celsius::new(38.0))
        .build()
        .expect("valid sim");
    sim.run_for(Seconds::new(60.0)).expect("run");
    assert!(
        stats.migrations() >= 1,
        "the phone's BML must be migrated too"
    );
    let bml = sim.pid_of("basicmath_large").expect("bml");
    assert_eq!(
        sim.scheduler().process(bml).expect("bml").cluster(),
        ComponentId::LittleCluster
    );
    // The game keeps running on the big cluster at a playable rate.
    let game = sim.pid_of("Paper.io").expect("game");
    assert_eq!(
        sim.scheduler().process(game).expect("game").cluster(),
        ComponentId::BigCluster
    );
    assert!(sim.median_fps(game).expect("fps") > 20.0);
}
