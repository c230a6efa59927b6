//! The MPT401 static schema is the schema a run records: what
//! `platform_channels` promises before tick 0 is exactly what the
//! session frame holds afterwards.

use std::path::PathBuf;

use mpt_core::scenario::{run_scenario_framed_cached, ScenarioSpec};
use mpt_daq::Query;
use mpt_lint::config::{check_scenario_json, platform_channels};

fn run_frame(spec: &ScenarioSpec) -> mpt_daq::ColumnFrame {
    let (_, _, frame) = run_scenario_framed_cached(spec, None, None).expect("scenario runs");
    frame
}

#[test]
fn static_schema_equals_every_shipped_scenarios_recorded_schema() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("scenarios dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with(".json") || name.ends_with(".campaign.json") {
            continue;
        }
        let json = std::fs::read_to_string(&path).expect("readable scenario");
        let mut spec: ScenarioSpec = serde_json::from_str(&json).expect("scenario parses");
        // The schema is fixed from the first row; one second shows it.
        spec.duration_s = 1.0;
        assert_eq!(
            platform_channels(&spec.platform),
            run_frame(&spec).channel_names(),
            "{name}: static schema differs from the recorded one"
        );
        checked += 1;
    }
    assert_eq!(checked, 4, "expected the four shipped scenarios");
}

#[test]
fn fps_query_on_a_non_rendering_run_lints_clean_and_is_empty() {
    let json = r#"{
        "platform": "exynos5422",
        "duration_s": 1.0,
        "workloads": [ { "kind": "basic_math", "cluster": "big" } ],
        "queries": ["p50(fps)"]
    }"#;
    let report = check_scenario_json(json, "inline");
    assert!(report.diagnostics.is_empty(), "{}", report.render_text());
    let spec: ScenarioSpec = serde_json::from_str(json).expect("scenario parses");
    let result = Query::parse("p50(fps)")
        .expect("query parses")
        .run(&run_frame(&spec))
        .expect("fps is a recorded channel");
    assert!(result.rows.is_empty(), "no frame rendered: {result:?}");
}
