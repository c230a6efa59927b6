//! Golden checks over the JSON files shipped in `scenarios/`: every file
//! must parse into its spec type and survive one simulated second, and
//! campaign execution must be bit-identical regardless of worker count.

use std::path::PathBuf;
use std::sync::Arc;

use mpt_core::campaign::run_cells_framed;
use mpt_core::report::SessionReport;
use mpt_core::scenario::{
    build_scenario, run_scenario, run_scenario_analyzed, CampaignSpec, EngineSpec, PlatformSpec,
    ScenarioSpec,
};
use mpt_obs::{Counter, Recorder};
use mpt_units::Seconds;

/// The repo-level `scenarios/` directory, relative to this crate.
fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn scenario_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    files
}

fn is_campaign(path: &std::path::Path) -> bool {
    path.to_string_lossy().ends_with(".campaign.json")
}

#[test]
fn every_shipped_scenario_parses_and_runs_one_second() {
    let files = scenario_files();
    assert!(
        files.len() >= 5,
        "expected the shipped scenario set, got {files:?}"
    );
    for path in files {
        let json = std::fs::read_to_string(&path).expect("readable file");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if is_campaign(&path) {
            let spec: CampaignSpec =
                serde_json::from_str(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut cells = spec.expand().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                cells.len() >= 9,
                "{name}: campaign should sweep a real grid (>= 9 cells)"
            );
            for cell in &mut cells {
                cell.scenario.duration_s = 1.0;
            }
            let (report, _) = run_cells_framed(&cells, 2, &Arc::new(Recorder::new()), None)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(report.cells.len(), cells.len(), "{name}");
        } else {
            let mut spec: ScenarioSpec =
                serde_json::from_str(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
            spec.duration_s = 1.0;
            let outcome = run_scenario(&spec).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(outcome.peak_temperature_c.is_finite(), "{name}");
        }
    }
}

#[test]
fn scenario_runs_are_bit_identical_across_repeats() {
    for path in scenario_files().iter().filter(|p| !is_campaign(p)) {
        let json = std::fs::read_to_string(path).expect("readable file");
        let mut spec: ScenarioSpec = serde_json::from_str(&json).expect("parses");
        spec.duration_s = 2.0;
        let first = run_scenario(&spec).expect("runs");
        let second = run_scenario(&spec).expect("runs");
        assert_eq!(first, second, "{}", path.display());
    }
}

/// The acceptance bar for the event engine: on the throttled-game
/// scenario the event engine matches fixed-dt within 0.1 C peak
/// temperature and produces the identical alert firings and event-log
/// ordering — on both builtin platforms. (The game's app workload makes
/// no phase promise, so the event engine's every-tick path runs and the
/// match is in fact bit-exact.)
#[test]
fn event_engine_matches_fixed_on_both_platforms() {
    let path = scenarios_dir().join("nexus_throttled_game.json");
    let json = std::fs::read_to_string(path).expect("readable file");
    let base: ScenarioSpec = serde_json::from_str(&json).expect("parses");
    for platform in [PlatformSpec::Snapdragon810, PlatformSpec::Exynos5422] {
        let mut spec = base.clone();
        spec.platform = platform;
        spec.duration_s = 30.0;
        let (fixed, fixed_analysis) = run_scenario_analyzed(&spec, None).expect("runs");
        spec.engine = EngineSpec::Event;
        let (event, event_analysis) = run_scenario_analyzed(&spec, None).expect("runs");
        assert!(
            (fixed.peak_temperature_c - event.peak_temperature_c).abs() < 0.1,
            "{platform:?}: fixed peak {} C vs event peak {} C",
            fixed.peak_temperature_c,
            event.peak_temperature_c
        );
        assert_eq!(
            fixed_analysis.alerts, event_analysis.alerts,
            "{platform:?}: alert firings must match"
        );
        assert_eq!(
            fixed.events, event.events,
            "{platform:?}: event-log ordering must match"
        );
    }
}

#[test]
fn campaign_cells_are_identical_between_one_and_eight_workers() {
    let path = scenarios_dir().join("odroid_policy_sweep.campaign.json");
    let json = std::fs::read_to_string(path).expect("readable file");
    let spec: CampaignSpec = serde_json::from_str(&json).expect("parses");
    let mut cells = spec.expand().expect("expands");
    for cell in &mut cells {
        cell.scenario.duration_s = 1.0;
    }
    let (serial, _) = run_cells_framed(&cells, 1, &Arc::new(Recorder::new()), None).expect("runs");
    let (parallel, _) =
        run_cells_framed(&cells, 8, &Arc::new(Recorder::new()), None).expect("runs");
    assert_eq!(serial.cells, parallel.cells);
    assert_eq!(serial.analysis, parallel.analysis);
}

/// The acceptance bar for the analysis layer: derived observables and
/// fired alerts from an alert-carrying scenario are bit-identical across
/// repeats and serialize identically — `--report-out` output does not
/// depend on scheduling.
#[test]
fn derived_observables_and_alerts_are_deterministic() {
    let path = scenarios_dir().join("nexus_throttled_game.json");
    let json = std::fs::read_to_string(path).expect("readable file");
    let mut spec: ScenarioSpec = serde_json::from_str(&json).expect("parses");
    spec.duration_s = 30.0;
    let (outcome_a, first) = run_scenario_analyzed(&spec, None).expect("runs");
    let (outcome_b, second) = run_scenario_analyzed(&spec, None).expect("runs");
    assert_eq!(first, second);
    let report_a = SessionReport::new("nexus_throttled_game.json", outcome_a, first);
    let report_b = SessionReport::new("nexus_throttled_game.json", outcome_b, second);
    assert_eq!(
        serde_json::to_string_pretty(&report_a).expect("serializes"),
        serde_json::to_string_pretty(&report_b).expect("serializes")
    );
}

/// The app-aware governor's decisions, pinned: the session report that
/// `run_scenario scenarios/odroid_proposed.json --report-out FILE` writes
/// must equal `goldens/odroid_proposed.report.json` byte for byte.
/// Regenerate with `MPT_UPDATE_GOLDENS=1 cargo test -p mpt-core --test
/// golden_scenarios`, only for a change meant to move simulated output.
#[test]
fn app_aware_session_report_matches_its_golden() {
    let name = "odroid_proposed.json";
    let json = std::fs::read_to_string(scenarios_dir().join(name)).expect("readable file");
    let spec: ScenarioSpec = serde_json::from_str(&json).expect("parses");
    let (outcome, analysis) = run_scenario_analyzed(&spec, None).expect("runs");
    let report = SessionReport::new(format!("scenarios/{name}"), outcome, analysis);
    let rendered = serde_json::to_string_pretty(&report).expect("serializes");
    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/odroid_proposed.report.json");
    if std::env::var_os("MPT_UPDATE_GOLDENS").is_some() {
        std::fs::write(&golden_path, &rendered).expect("golden written");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).expect("golden exists");
    assert!(
        rendered == golden,
        "{name}: session report differs from its golden"
    );

    // The run must pin both sides of the horizon test: polls that act,
    // and polls whose predicted violation lies beyond the horizon.
    let (mut sim, stats) = build_scenario(&spec).expect("builds");
    sim.run_for(Seconds::new(spec.duration_s)).expect("runs");
    let stats = stats.expect("the scenario installs the app-aware governor");
    assert!(stats.activations() > 0, "no poll acted");
    assert!(stats.deferrals() > 0, "no poll deferred past the horizon");
}

/// Golden list of metric identities: the counter exposition names (in id
/// order) and the histograms a campaign run registers. Exporters,
/// dashboards and the CI artifact step key on these strings — change
/// them deliberately, updating this test and the docs together.
#[test]
fn metric_names_and_histogram_registry_are_stable() {
    let expected: Vec<&str> = vec![
        "mpt_ticks_total",
        "mpt_stage_runs_total",
        "mpt_throttle_events_total",
        "mpt_trip_crossings_total",
        "mpt_governor_freq_changes_total",
        "mpt_sysfs_writes_total",
        "mpt_events_cap_changed_total",
        "mpt_events_migration_total",
        "mpt_events_workload_finished_total",
        "mpt_cells_completed_total",
        "mpt_spans_dropped_total",
        "mpt_alerts_fired_total",
        "mpt_solver_cache_hits_total",
        "mpt_solver_cache_builds_total",
        "mpt_solver_substeps_avoided_total",
        "mpt_lint_checks_total",
        "mpt_lint_diagnostics_total",
        "mpt_engine_events_popped_total",
        "mpt_engine_wakes_coalesced_total",
        "mpt_engine_trip_bisection_iters_total",
        "mpt_fleet_device_ticks_total",
    ];
    let names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
    assert_eq!(names, expected);

    let path = scenarios_dir().join("odroid_policy_sweep.campaign.json");
    let json = std::fs::read_to_string(path).expect("readable file");
    let spec: CampaignSpec = serde_json::from_str(&json).expect("parses");
    let mut cells = spec.expand().expect("expands");
    cells.truncate(1);
    cells[0].scenario.duration_s = 0.5;
    let recorder = Arc::new(Recorder::new());
    run_cells_framed(&cells, 1, &recorder, None).expect("runs");
    assert_eq!(
        recorder.histogram_names(),
        vec![
            "cell",
            "tick",
            "stage:sysfs-control",
            "stage:demand",
            "stage:schedule",
            "stage:power",
            "stage:thermal",
            "stage:telemetry",
            "stage:govern",
            "stage:events",
            "stage:analyze",
        ]
    );
}

/// The Prometheus exposition carries a `# HELP`/`# TYPE` pair for every
/// counter family — scrape configs and dashboards key on this format.
#[test]
fn prometheus_exposition_has_help_for_every_counter() {
    let recorder = Recorder::new();
    let text = recorder.snapshot().to_prometheus();
    for counter in Counter::ALL {
        let name = counter.name();
        assert!(
            text.contains(&format!("# HELP {name} ")),
            "missing HELP for {name}"
        );
        assert!(
            text.contains(&format!("# TYPE {name} counter")),
            "missing TYPE for {name}"
        );
    }
}

/// The acceptance bar for the observability layer: counter totals from a
/// shipped campaign are bit-identical whether one or eight workers ran
/// it — only span/histogram timing may differ.
#[test]
fn campaign_counter_totals_are_identical_between_one_and_eight_workers() {
    let path = scenarios_dir().join("odroid_policy_sweep.campaign.json");
    let json = std::fs::read_to_string(path).expect("readable file");
    let spec: CampaignSpec = serde_json::from_str(&json).expect("parses");
    let mut cells = spec.expand().expect("expands");
    for cell in &mut cells {
        cell.scenario.duration_s = 1.0;
    }
    let serial = Arc::new(Recorder::new());
    let parallel = Arc::new(Recorder::new());
    run_cells_framed(&cells, 1, &serial, None).expect("runs");
    run_cells_framed(&cells, 8, &parallel, None).expect("runs");
    let serial = serial.snapshot().deterministic_counters();
    let parallel = parallel.snapshot().deterministic_counters();
    assert_eq!(serial, parallel);
    let ticks = serial
        .iter()
        .find(|(n, _)| n == "mpt_ticks_total")
        .map(|&(_, v)| v)
        .expect("ticks counter present");
    assert!(ticks > 0, "campaign should have simulated ticks");
}

/// The live-journal acceptance bar: after timestamp normalization the
/// journal replay of a shipped campaign is bit-identical between one and
/// eight workers. Raw journals interleave differently (sequence numbers,
/// wall-clock stamps, sampler batches), but the deterministic subset —
/// regrouped per cell — must not.
#[test]
fn campaign_journal_replay_is_identical_between_one_and_eight_workers() {
    let path = scenarios_dir().join("nexus_trip_sweep.campaign.json");
    let json = std::fs::read_to_string(path).expect("readable file");
    let spec: CampaignSpec = serde_json::from_str(&json).expect("parses");
    let mut cells = spec.expand().expect("expands");
    for cell in &mut cells {
        cell.scenario.duration_s = 1.0;
    }
    let replay = |jobs: usize| {
        let recorder = Arc::new(Recorder::new());
        run_cells_framed(&cells, jobs, &recorder, None).expect("runs");
        let delta = recorder.journal().poll(0);
        assert_eq!(delta.dropped, 0, "ring must not lap during a 12-cell run");
        mpt_obs::journal::normalized_replay(&delta.events)
    };
    let serial = replay(1);
    let parallel = replay(8);
    assert_eq!(serial, parallel, "normalized journal replay diverged");
    assert_eq!(
        serial.matches("\"kind\":\"cell_finished\"").count(),
        cells.len(),
        "one cell_finished per cell"
    );
    assert!(serial.contains("\"kind\":\"campaign_started\""));
    assert!(serial.contains("\"kind\":\"stage_rollup\""));
    assert!(serial.contains("\"kind\":\"queue_stats\""));
    assert!(
        !serial.contains("\"kind\":\"counter_delta\""),
        "sampler events are excluded from the deterministic replay"
    );
}
