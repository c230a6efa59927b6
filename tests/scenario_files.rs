//! The shipped scenario files must stay parseable and runnable.

use mobile_thermal::core::scenario::{run_scenario, run_scenario_framed_cached, ScenarioSpec};

fn load(name: &str) -> ScenarioSpec {
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    serde_json::from_str(&json).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

#[test]
fn all_shipped_scenarios_parse() {
    for name in [
        "odroid_proposed.json",
        "odroid_default_ipa.json",
        "nexus_throttled_game.json",
    ] {
        let spec = load(name);
        assert!(spec.duration_s > 0.0, "{name}");
        assert!(!spec.workloads.is_empty(), "{name}");
    }
}

#[test]
fn proposed_scenario_runs_and_migrates() {
    let mut spec = load("odroid_proposed.json");
    spec.duration_s = 20.0; // time-scaled for the test suite
    let outcome = run_scenario(&spec).expect("runs");
    assert!(outcome.migrations >= 1);
    assert!(outcome.events.contains("migrated \"basicmath_large\""));
    let bml = outcome
        .workloads
        .iter()
        .find(|w| w.name == "basicmath_large")
        .expect("bml present");
    assert_eq!(bml.final_cluster, "little");
}

#[test]
fn throttled_game_scenario_reports_fps() {
    let mut spec = load("nexus_throttled_game.json");
    spec.duration_s = 20.0;
    let outcome = run_scenario(&spec).expect("runs");
    let game = &outcome.workloads[0];
    assert_eq!(game.name, "Paper.io");
    assert!(game.median_fps.expect("renders frames") > 10.0);
}

#[test]
fn foreground_flag_changes_nothing_a_run_produces() {
    // Nothing reads `foreground`: the proposed governor exempts apps
    // through `realtime`. A policy that starts reading the flag fails here.
    let mut shipped = load("odroid_proposed.json");
    shipped.duration_s = 20.0;
    let mut flipped = shipped.clone();
    for w in &mut flipped.workloads {
        w.foreground = !w.foreground;
    }
    let run = |spec: &ScenarioSpec| run_scenario_framed_cached(spec, None, None).expect("runs");
    let (outcome, analysis, frame) = run(&shipped);
    let (flipped_outcome, flipped_analysis, flipped_frame) = run(&flipped);
    // The governor acts, so the flag had a decision to sway.
    assert!(outcome.migrations >= 1);
    assert_eq!(outcome, flipped_outcome);
    assert_eq!(analysis, flipped_analysis);
    assert_eq!(frame, flipped_frame);
}
