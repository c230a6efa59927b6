//! `mpt_lint` — static analysis over models, configs and source.
//!
//! ```sh
//! mpt_lint --all                         # everything CI checks, text output
//! mpt_lint --all --format json           # machine-readable
//! mpt_lint --scenario s.json --deny-warnings
//! mpt_lint --platform custom.model.json
//! mpt_lint --source --root .             # determinism scan only
//! mpt_lint --list-codes                  # the stable code registry
//! ```
//!
//! Exit codes: 0 clean (or warnings only), 1 findings of error severity
//! (or any finding under `--deny-warnings`), 2 usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mpt_lint::{config, diag::Code, model, source, verify, Report};
use mpt_obs::Recorder;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

#[derive(Debug)]
struct Args {
    all: bool,
    source_only: bool,
    root: PathBuf,
    models: Vec<PathBuf>,
    scenarios: Vec<PathBuf>,
    campaigns: Vec<PathBuf>,
    alerts: Vec<PathBuf>,
    allowlist: Option<PathBuf>,
    format: Format,
    deny_warnings: bool,
    list_codes: bool,
    verify: bool,
}

const USAGE: &str = "usage: mpt_lint [--all] [--platform FILE]... [--scenario FILE]... \
                     [--campaign FILE]... [--alerts FILE]... [--source] [--root DIR] \
                     [--allowlist FILE] [--format text|json] [--deny-warnings] \
                     [--verify] [--list-codes]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        all: false,
        source_only: false,
        root: PathBuf::from("."),
        models: Vec::new(),
        scenarios: Vec::new(),
        campaigns: Vec::new(),
        alerts: Vec::new(),
        allowlist: None,
        format: Format::Text,
        deny_warnings: false,
        list_codes: false,
        verify: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--all" => args.all = true,
            "--source" => args.source_only = true,
            "--deny-warnings" => args.deny_warnings = true,
            "--verify" => args.verify = true,
            "--list-codes" => args.list_codes = true,
            "--root" => args.root = PathBuf::from(value("--root")?),
            "--platform" => args.models.push(PathBuf::from(value("--platform")?)),
            "--scenario" => args.scenarios.push(PathBuf::from(value("--scenario")?)),
            "--campaign" => args.campaigns.push(PathBuf::from(value("--campaign")?)),
            "--alerts" => args.alerts.push(PathBuf::from(value("--alerts")?)),
            "--allowlist" => args.allowlist = Some(PathBuf::from(value("--allowlist")?)),
            "--format" => {
                args.format = match value("--format")?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format {other:?}")),
                }
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let has_work = args.all
        || args.source_only
        || args.list_codes
        || !(args.models.is_empty()
            && args.scenarios.is_empty()
            && args.campaigns.is_empty()
            && args.alerts.is_empty());
    if !has_work {
        return Err("nothing to lint".to_owned());
    }
    Ok(args)
}

fn list_codes() {
    println!("{:<8} {:<8} meaning", "code", "default");
    for code in Code::ALL {
        println!(
            "{:<8} {:<8} {}",
            code.code(),
            code.default_severity().label(),
            code.title()
        );
    }
}

fn read_checked(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn run(args: &Args) -> Result<Report, String> {
    let recorder = Recorder::new();
    let mut report = Report::default();
    if args.all {
        report.merge(
            mpt_lint::run_all(&args.root, &recorder, args.verify)
                .map_err(|e| format!("walking {}: {e}", args.root.display()))?,
        );
    } else if args.source_only {
        let allowlist_file = args
            .allowlist
            .clone()
            .unwrap_or_else(|| args.root.join(mpt_lint::ALLOWLIST_PATH));
        let allowlist = if allowlist_file.exists() {
            source::Allowlist::load(&allowlist_file)
                .map_err(|e| format!("cannot read {}: {e}", allowlist_file.display()))?
        } else {
            source::Allowlist::default()
        };
        report.merge(
            source::scan_workspace(&args.root, &allowlist)
                .map_err(|e| format!("scanning {}: {e}", args.root.display()))?,
        );
    }
    for path in &args.models {
        let shown = path.display().to_string();
        report.merge(model::check_model_file(&read_checked(path)?, &shown));
    }
    // `--verify` certifies only what lint accepted.
    for path in &args.scenarios {
        let shown = path.display().to_string();
        let (lint, spec) = config::lint_scenario_json(&read_checked(path)?, &shown);
        report.merge(lint);
        if let Some(spec) = spec.filter(|_| args.verify) {
            report.merge(verify::scenario_report(&spec, &shown));
        }
    }
    for path in &args.campaigns {
        let shown = path.display().to_string();
        let (lint, spec) = config::lint_campaign_json(&read_checked(path)?, &shown);
        report.merge(lint);
        if let Some(spec) = spec.filter(|_| args.verify) {
            report.merge(verify::campaign_report(&spec, &shown));
        }
    }
    for path in &args.alerts {
        let shown = path.display().to_string();
        report.merge(config::check_alerts_json(&read_checked(path)?, &shown));
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("mpt_lint: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list_codes {
        list_codes();
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(report) => {
            match args.format {
                Format::Text => println!("{}", report.render_text()),
                Format::Json => println!("{}", report.render_json()),
            }
            match report.exit_code(args.deny_warnings) {
                0 => ExitCode::SUCCESS,
                code => ExitCode::from(u8::try_from(code).unwrap_or(1)),
            }
        }
        Err(msg) => {
            eprintln!("mpt_lint: {msg}");
            ExitCode::from(2)
        }
    }
}
