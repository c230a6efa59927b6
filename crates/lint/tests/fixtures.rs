//! Snapshot tests over `scenarios/invalid/`: every fixture fires its
//! documented code exactly once, with no collateral diagnostics, and the
//! `mpt_lint` binary turns that into a non-zero exit.

use std::path::PathBuf;
use std::process::Command;

use mpt_lint::{check_file, diag::Code};

/// `(fixture file, the one code it must fire)`.
const EXPECTED: [(&str, Code); 13] = [
    ("asymmetric_g.model.json", Code::InvalidConductance),
    ("non_monotonic_opp.model.json", Code::OppVoltageMonotonicity),
    ("builtin_typo.model.json", Code::UnknownKey),
    ("dangling_sensor.json", Code::DanglingControlSensor),
    ("unknown_solver.json", Code::RetiredSolverField),
    ("unknown_engine.json", Code::InvalidEngine),
    ("three_typos.json", Code::UnknownKey),
    ("sub_tick_thermal_period.json", Code::ParameterOutOfRange),
    ("phased_nonmonotonic.json", Code::NonMonotonicPhases),
    (
        "query_unknown_channel.campaign.json",
        Code::QueryUnknownChannel,
    ),
    ("query_non_axis_key.campaign.json", Code::QueryNonAxisKey),
    ("fleet_zero_devices.campaign.json", Code::InvalidFleet),
    (
        "fleet_nonphysical_jitter.campaign.json",
        Code::NonPhysicalFleetJitter,
    ),
];

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn every_invalid_fixture_fires_its_code_exactly_once() {
    for (name, code) in EXPECTED {
        let path = workspace_root().join("scenarios/invalid").join(name);
        let report = check_file(&path).expect("fixture readable");
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code.code()).collect();
        assert_eq!(
            codes,
            vec![code.code()],
            "{name} must fire {} exactly once and nothing else:\n{}",
            code.code(),
            report.render_text()
        );
        assert_eq!(report.exit_code(false), 1, "{name} must fail the lint");
    }
}

#[test]
fn binary_fails_each_fixture_with_its_code_in_json_output() {
    for (name, code) in EXPECTED {
        let path = workspace_root().join("scenarios/invalid").join(name);
        let flag = if name.ends_with(".model.json") {
            "--platform"
        } else if name.ends_with(".campaign.json") {
            "--campaign"
        } else {
            "--scenario"
        };
        let out = Command::new(env!("CARGO_BIN_EXE_mpt_lint"))
            .args([flag, path.to_str().expect("utf-8 path"), "--format", "json"])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{name} must exit 1");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(code.code()),
            "{name}: JSON output must name {}:\n{stdout}",
            code.code()
        );
    }
}

/// `--verify` certifies only what lint accepted, so a rejected fixture
/// gets its one code and nothing from the certifier.
#[test]
fn binary_verify_adds_nothing_to_a_rejected_fixture() {
    for (name, code) in EXPECTED {
        let flag = if name.ends_with(".model.json") {
            "--platform"
        } else if name.ends_with(".campaign.json") {
            "--campaign"
        } else {
            "--scenario"
        };
        let path = workspace_root().join("scenarios/invalid").join(name);
        let out = Command::new(env!("CARGO_BIN_EXE_mpt_lint"))
            .args([flag, path.to_str().expect("utf-8 path")])
            .args(["--verify", "--format", "json"])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{name} must exit 1");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let codes: Vec<&str> = stdout
            .split("\"code\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().unwrap_or_default())
            .collect();
        assert_eq!(
            codes,
            vec![code.code()],
            "{name} under --verify must fire {} alone:\n{stdout}",
            code.code()
        );
    }
}

#[test]
fn binary_all_passes_on_the_shipped_workspace() {
    let root = workspace_root();
    let out = Command::new(env!("CARGO_BIN_EXE_mpt_lint"))
        .args([
            "--all",
            "--root",
            root.to_str().expect("utf-8 path"),
            "--format",
            "json",
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "--all must pass on the shipped tree:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("\"errors\": 0"), "{stdout}");
}

#[test]
fn binary_usage_errors_exit_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_mpt_lint"))
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "no work requested is a usage error"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_mpt_lint"))
        .args(["--scenario", "does-not-exist.json"])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "unreadable input is an I/O error"
    );
}
