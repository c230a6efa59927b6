#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `mpt-lint`: static analysis over platform models, scenario/campaign
//! configs and the sim crates' source.
//!
//! Three analysis families, each with stable machine-readable `MPTxxx`
//! diagnostic codes (see [`diag::Code`]):
//!
//! - [`model`] (MPT0xx) — OPP-table monotonicity, power coefficients,
//!   conductance symmetry and connectivity, a Hurwitz check of the
//!   assembled thermal A-matrix, and fixed-point existence at the
//!   max-power and idle operating points.
//! - [`config`] (MPT1xx) — cross-reference checks over scenario,
//!   campaign and alert JSON: sensor names resolve, trip points lie in
//!   the sensor range, alert rules reference observables the configured
//!   mechanisms emit, the retired `solver` field is absent, sweep axes
//!   are sane.
//!   `run_scenario` runs the same checks fail-fast before tick 0.
//! - [`source`] (MPT2xx) — a determinism scan over the sim crates
//!   flagging wall-clock reads, nondeterministic RNGs and unordered
//!   containers outside `crates/lint/determinism.allow`.
//! - [`verify`] (MPT6xx) — the static reachability certifier: interval
//!   abstract interpretation over the discretized thermal system
//!   proving, before tick 0, whether a scenario can trip (no-trip
//!   certificate, possible trip, guaranteed trip, governor limit-cycle
//!   risk) plus the platform's thermally-safe sustained power budget.
//!   Opt-in via `mpt_lint --verify` / `run_scenario --verify`.
//!
//! The `mpt_lint` binary fronts all three; `--all` is wired into CI as a
//! blocking job. Lint activity is observable through `mpt-obs`: each
//! family runs under a `lint` span and feeds the `mpt_lint_checks_total`
//! and `mpt_lint_diagnostics_total` counters.
//!
//! # Examples
//!
//! ```
//! use mpt_lint::config::check_scenario_json;
//!
//! let report = check_scenario_json(
//!     r#"{ "platform": "exynos5422", "duration_s": 1.0,
//!          "control_sensor": "skin_xyz",
//!          "workloads": [ { "kind": "basic_math" } ] }"#,
//!     "example.json",
//! );
//! assert_eq!(report.errors(), 1);
//! assert!(report.render_text().contains("MPT104"));
//! ```

use std::fs;
use std::io;
use std::path::Path;

use mpt_obs::{Counter, Recorder};

pub mod config;
pub mod diag;
pub mod model;
pub mod source;
pub mod verify;

/// Runs the MPT6xx certifier over every scenario and campaign JSON under
/// `<root>/scenarios/` (skipping the `invalid/` fixtures), as
/// `mpt_lint --all --verify` and the CI verify gate do.
///
/// # Errors
///
/// I/O errors walking the workspace.
pub fn verify_all(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    for path in json_files_skipping_invalid(&root.join("scenarios"))? {
        let json = fs::read_to_string(&path)?;
        let shown = path.display().to_string();
        match classify(&path) {
            FileKind::Campaign => report.merge(verify::verify_campaign_json(&json, &shown)),
            FileKind::Scenario => report.merge(verify::verify_scenario_json(&json, &shown)),
            FileKind::Model | FileKind::Alerts => {}
        }
    }
    Ok(report)
}

pub use diag::{Code, Diagnostic, Report, Severity};

/// Relative path of the determinism allowlist within the workspace.
pub const ALLOWLIST_PATH: &str = "crates/lint/determinism.allow";

/// Directory under `scenarios/` holding intentionally broken fixtures;
/// `--all` skips it (the fixture tests lint them individually).
pub const INVALID_DIR: &str = "invalid";

/// Classification of a config file by its path, mirroring the
/// `run_scenario` CLI's conventions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `*.model.json` — a platform/network model file.
    Model,
    /// `*.campaign.json` — a campaign spec.
    Campaign,
    /// A JSON array of alert rules (under an `alerts/` directory).
    Alerts,
    /// Anything else: a scenario spec.
    Scenario,
}

/// Classifies a config path the way `check_config_file` will treat it.
#[must_use]
pub fn classify(path: &Path) -> FileKind {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if name.ends_with(".model.json") {
        FileKind::Model
    } else if name.ends_with(".campaign.json") {
        FileKind::Campaign
    } else if path
        .parent()
        .and_then(|p| p.file_name())
        .is_some_and(|d| d == "alerts")
    {
        FileKind::Alerts
    } else {
        FileKind::Scenario
    }
}

/// Lints one file according to its [`classify`] kind.
///
/// # Errors
///
/// Propagates the read error if the file is unreadable.
pub fn check_file(path: &Path) -> io::Result<Report> {
    Ok(check_text(path, &fs::read_to_string(path)?))
}

/// Lints `json` as the contents of the file at `path` (its [`classify`]
/// kind picks the check).
#[must_use]
pub fn check_text(path: &Path, json: &str) -> Report {
    let shown = path.display().to_string();
    match classify(path) {
        FileKind::Model => model::check_model_file(json, &shown),
        FileKind::Campaign => config::check_campaign_json(json, &shown),
        FileKind::Alerts => config::check_alerts_json(json, &shown),
        FileKind::Scenario => config::check_scenario_json(json, &shown),
    }
}

/// Runs everything `--all` covers: the builtin platforms, every JSON
/// file under `<root>/scenarios/` (skipping `scenarios/invalid/`, whose
/// fixtures are supposed to fail), and the source scan.
///
/// # Errors
///
/// I/O errors walking the workspace.
pub fn run_all(root: &Path, recorder: &Recorder) -> io::Result<Report> {
    let mut report = Report::default();
    {
        let _span = recorder.span("lint", "model");
        for (name, build) in model::BUILTINS {
            report.merge(model::check_platform(&build(), &format!("builtin:{name}")));
        }
    }
    {
        let _span = recorder.span("lint", "config");
        for path in json_files_skipping_invalid(&root.join("scenarios"))? {
            report.merge(check_file(&path)?);
        }
    }
    {
        let _span = recorder.span("lint", "source");
        let allowlist_file = root.join(ALLOWLIST_PATH);
        let allowlist = if allowlist_file.exists() {
            source::Allowlist::load(&allowlist_file)?
        } else {
            source::Allowlist::default()
        };
        report.merge(source::scan_workspace(root, &allowlist)?);
    }
    recorder.add(Counter::LintChecksRun, report.checks_run);
    recorder.add(Counter::LintDiagnostics, report.diagnostics.len() as u64);
    Ok(report)
}

/// Sorted `*.json` files under `dir` (recursively), skipping the
/// `invalid/` fixture directory. Missing `dir` yields an empty list so
/// `--all` works from a partial checkout.
fn json_files_skipping_invalid(dir: &Path) -> io::Result<Vec<std::path::PathBuf>> {
    let mut files = Vec::new();
    if !dir.is_dir() {
        return Ok(files);
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<_> = fs::read_dir(&d)?.collect::<io::Result<_>>()?;
        entries.sort_by_key(std::fs::DirEntry::path);
        for entry in entries {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == INVALID_DIR) {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "json") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn workspace_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root resolves")
    }

    #[test]
    fn classify_follows_cli_conventions() {
        assert_eq!(classify(Path::new("a/b.model.json")), FileKind::Model);
        assert_eq!(classify(Path::new("a/b.campaign.json")), FileKind::Campaign);
        assert_eq!(
            classify(Path::new("scenarios/alerts/r.json")),
            FileKind::Alerts
        );
        assert_eq!(
            classify(Path::new("scenarios/game.json")),
            FileKind::Scenario
        );
    }

    #[test]
    fn run_all_on_this_workspace_has_no_errors() {
        let recorder = Recorder::new();
        let report = run_all(&workspace_root(), &recorder).expect("workspace walks");
        assert_eq!(
            report.errors(),
            0,
            "shipped tree must lint clean:\n{}",
            report.render_text()
        );
        assert!(report.checks_run > 20, "the sweep actually ran");
        assert_eq!(recorder.counter(Counter::LintChecksRun), report.checks_run);
        assert_eq!(
            recorder.counter(Counter::LintDiagnostics),
            report.diagnostics.len() as u64
        );
        let cats: Vec<String> = recorder
            .spans()
            .iter()
            .map(|s| s.name.to_string())
            .collect();
        for expected in ["model", "config", "source"] {
            assert!(
                cats.iter().any(|n| n == expected),
                "span {expected} missing"
            );
        }
    }
}
