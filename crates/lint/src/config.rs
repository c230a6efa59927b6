//! Config analysis: scenarios, campaigns and alert files (MPT1xx).
//!
//! Each file is parsed once, from text straight into its typed spec, and
//! that parse is the schema gate: the spec types refuse any key they do
//! not declare (keys starting with `_` are comments). A refusal maps to
//! one stable code: a retired key (today only `solver`) gets MPT106, any
//! other unknown key MPT109 naming the key and the keys its object
//! accepts, an unknown or malformed `engine` MPT301, and anything else
//! MPT101.
//!
//! What follows are the cross-reference checks the serde layer cannot
//! express: sensor names must resolve against the scenario's platform,
//! trip points must lie inside the sensor's plausible range, alert rules
//! must reference observables the configured mechanisms actually emit,
//! and sweep axes must be non-empty, duplicate-free and compatible with
//! the base policy. `run_scenario` runs the same checks as a fail-fast
//! phase before tick 0, so a dangling reference refuses to simulate with
//! the same `MPTxxx` diagnostic the linter prints.

use mpt_core::scenario::{
    CampaignSpec, ComputePhase, EngineSpec, PlatformSpec, ScenarioSpec, SweepAxes,
    ThermalPolicySpec, WorkloadKind,
};
use mpt_obs::AlertRule;

use crate::diag::{Code, Diagnostic, Report, Severity};
use crate::model::MAX_SANE_TEMP_C;
use crate::verify::BASE_DT_S;

/// Keys the spec types no longer declare, each with why it went.
const RETIRED_KEYS: [(&str, &str); 1] = [("solver", "every run uses the exact LTI discretization")];

/// What the scenario's mechanisms can observably emit; alert rules are
/// checked against this.
struct AlertContext {
    ambient_c: f64,
    /// A foreground workload that reports frames exists.
    foreground_fps: bool,
    /// Some throttling mechanism (baseline policy or app-aware governor)
    /// can generate cap-change events.
    throttling: bool,
}

/// Lints a scenario JSON document.
#[must_use]
pub fn check_scenario_json(json: &str, path: &str) -> Report {
    lint_scenario_json(json, path).0
}

/// Lints a campaign JSON document.
#[must_use]
pub fn check_campaign_json(json: &str, path: &str) -> Report {
    lint_campaign_json(json, path).0
}

/// Lints a standalone alert-rules file (a JSON array of rules, as passed
/// to `run_scenario --alerts`). Without a scenario there is no platform
/// or mechanism context, so only rule parameters are checked.
#[must_use]
pub fn check_alerts_json(json: &str, path: &str) -> Report {
    lint_alerts_json(json, path).0
}

/// Lints a scenario JSON document and hands on the spec its one parse
/// produced, only when the report holds no error: what `--verify`
/// certifies and `run_scenario` runs.
#[must_use]
pub fn lint_scenario_json(json: &str, path: &str) -> (Report, Option<ScenarioSpec>) {
    lint(json, "scenario", path, |spec, r| {
        r.merge(check_scenario(spec, path))
    })
}

/// [`lint_scenario_json`] for a campaign document.
#[must_use]
pub fn lint_campaign_json(json: &str, path: &str) -> (Report, Option<CampaignSpec>) {
    lint(json, "campaign", path, |spec, r| {
        r.merge(check_campaign(spec, path))
    })
}

/// [`lint_scenario_json`] for a standalone alert-rules file.
#[must_use]
pub fn lint_alerts_json(json: &str, path: &str) -> (Report, Option<Vec<AlertRule>>) {
    lint::<Vec<AlertRule>>(json, "alert file", path, |rules, r| {
        check_alert_rules(rules, None, path, r);
    })
}

/// Parses `json` once, runs `check` on the spec, and keeps the spec
/// only if the report holds no error.
fn lint<T: serde::Deserialize>(
    json: &str,
    what: &str,
    path: &str,
    check: impl FnOnce(&T, &mut Report),
) -> (Report, Option<T>) {
    let mut r = Report::default();
    let spec = parse::<T>(json, what, path, &mut r);
    if let Some(spec) = &spec {
        check(spec, &mut r);
    }
    let accepted = spec.filter(|_| r.errors() == 0);
    (r, accepted)
}

/// The one parse of a config or model file, JSON text to its typed
/// spec. A refusal pushes its one diagnostic and yields `None`.
pub(crate) fn parse<T: serde::Deserialize>(
    json: &str,
    what: &str,
    path: &str,
    r: &mut Report,
) -> Option<T> {
    r.checks_run += 1;
    let (code, message) = match serde_json::value_from_str(json) {
        Ok(value) => match T::deserialize_value(&value) {
            Ok(spec) => return Some(spec),
            Err(e) => refusal(&e, what),
        },
        Err(e) => (Code::ParseFailure, format!("invalid JSON: {e}")),
    };
    r.diagnostics.push(Diagnostic::new(code, path, message));
    None
}

/// The stable code and message for a typed-parse refusal.
fn refusal(e: &serde::Error, what: &str) -> (Code, String) {
    let at = e.path();
    let at = if at.is_empty() {
        String::new()
    } else {
        format!(" in {at}")
    };
    match e.unknown() {
        Some(serde::Unknown::Key(key)) => {
            match RETIRED_KEYS.iter().find(|(retired, _)| retired == key) {
                Some((_, why)) => (
                    Code::RetiredSolverField,
                    format!("the {key:?} key{at} is retired; {why}"),
                ),
                None => (
                    Code::UnknownKey,
                    format!(
                        "unknown key {key:?}{at} (accepted: {})",
                        e.accepted().join(", ")
                    ),
                ),
            }
        }
        _ if e.is_raised_by::<EngineSpec>() => {
            let valid = e.accepted().join(", ");
            let message = match e.unknown() {
                Some(serde::Unknown::Variant(name)) => {
                    format!("engine {name:?} is not registered (valid: {valid})")
                }
                _ => format!("engine must be a string naming a stepping engine (valid: {valid})"),
            };
            (Code::InvalidEngine, message)
        }
        _ => (Code::ParseFailure, format!("{what} does not parse: {e}")),
    }
}

/// Full cross-reference check of a parsed scenario.
#[must_use]
pub(crate) fn check_scenario(spec: &ScenarioSpec, path: &str) -> Report {
    let mut r = Report::default();
    r.checks_run += 1;
    let platform = spec.platform.build();
    let ambient_c = platform.thermal_spec().ambient.value();
    if !spec.duration_s.is_finite() || spec.duration_s <= 0.0 {
        r.diagnostics.push(Diagnostic::new(
            Code::ScenarioShape,
            path,
            format!("duration_s = {} must be finite and > 0", spec.duration_s),
        ));
    }
    if spec.workloads.is_empty() {
        r.diagnostics.push(Diagnostic::new(
            Code::ScenarioShape,
            path,
            "scenario attaches no workloads; nothing would draw power",
        ));
    }
    for (i, w) in spec.workloads.iter().enumerate() {
        r.checks_run += 1;
        if let WorkloadKind::Phased { phases, .. } = &w.kind {
            if let Some(msg) = phase_schedule_problem(phases) {
                // The specific MPT302 beats the generic build failure the
                // same schedule would also produce.
                r.diagnostics.push(Diagnostic::new(
                    Code::NonMonotonicPhases,
                    path,
                    format!("workloads[{i}]: {msg}"),
                ));
                continue;
            }
        }
        if let Err(msg) = w.build() {
            r.diagnostics.push(Diagnostic::new(
                Code::InvalidWorkload,
                path,
                format!("workloads[{i}]: {msg}"),
            ));
        }
    }
    if let Some(sensor) = &spec.control_sensor {
        r.checks_run += 1;
        if !platform
            .temperature_sensors()
            .iter()
            .any(|s| s.name() == sensor)
        {
            let known: Vec<&str> = platform
                .temperature_sensors()
                .iter()
                .map(mpt_soc::TemperatureSensor::name)
                .collect();
            r.diagnostics.push(Diagnostic::new(
                Code::DanglingControlSensor,
                path,
                format!(
                    "control_sensor {sensor:?} names no sensor on {} (available: {})",
                    platform.name(),
                    known.join(", ")
                ),
            ));
        }
    }
    if let Some(t0) = spec.initial_temperature_c {
        if !t0.is_finite() || !(-40.0..=MAX_SANE_TEMP_C).contains(&t0) {
            r.diagnostics.push(Diagnostic::new(
                Code::ParameterOutOfRange,
                path,
                format!("initial_temperature_c = {t0} outside [-40, {MAX_SANE_TEMP_C}] C"),
            ));
        }
    }
    check_policy(&spec.thermal, ambient_c, path, &mut r);
    if let Some(aa) = &spec.app_aware {
        r.checks_run += 1;
        if !temp_in_range(aa.limit_c, ambient_c) {
            r.diagnostics.push(Diagnostic::new(
                Code::ParameterOutOfRange,
                path,
                format!(
                    "app_aware limit_c = {} outside ({ambient_c}, {MAX_SANE_TEMP_C}] C",
                    aa.limit_c
                ),
            ));
        }
        if !aa.horizon_s.is_finite() || aa.horizon_s <= 0.0 {
            r.diagnostics.push(Diagnostic::new(
                Code::ParameterOutOfRange,
                path,
                format!(
                    "app_aware horizon_s = {} must be finite and > 0",
                    aa.horizon_s
                ),
            ));
        }
    }
    let context = AlertContext {
        ambient_c,
        foreground_fps: spec.workloads.iter().any(|w| {
            w.foreground
                && matches!(
                    w.kind,
                    WorkloadKind::App { .. }
                        | WorkloadKind::ThreeDMark { .. }
                        | WorkloadKind::Nenamark
                )
        }),
        throttling: spec.thermal != ThermalPolicySpec::Disabled || spec.app_aware.is_some(),
    };
    check_alert_rules(&spec.alerts, Some(&context), path, &mut r);
    // Scenario-level queries run over the single-session frame, which
    // has no axis (dictionary) columns — any group-by/filter key is a
    // non-axis key there.
    let (channels, axes) = scenario_query_schema(spec);
    check_queries(&spec.queries, &channels, &axes, path, &mut r);
    r
}

/// Full check of a parsed campaign: the base scenario plus every sweep
/// axis (MPT108) and axis-policy compatibility.
#[must_use]
pub(crate) fn check_campaign(spec: &CampaignSpec, path: &str) -> Report {
    let mut r = check_scenario(&spec.base, path);
    let ambient_c = spec.base.platform.build().thermal_spec().ambient.value();
    check_sweep(&spec.sweep, &spec.base.thermal, ambient_c, path, &mut r);
    check_fleet(spec, path, &mut r);
    // Campaign-level queries may target the per-cell metrics frame or
    // any telemetry channel a swept platform records, grouped/filtered
    // by the swept axes.
    let (channels, axes) = campaign_query_schema(spec);
    check_queries(&spec.queries, &channels, &axes, path, &mut r);
    r
}

/// MPT501: validates the campaign's `fleet` block with the same
/// [`problems`](mpt_soc::FleetSpec::problems) surface the runner
/// enforces, plus the `fleet_mix` axis / fleet-block dependency — so a
/// degenerate fleet fails before a single device is jittered.
fn check_fleet(spec: &CampaignSpec, path: &str, r: &mut Report) {
    r.checks_run += 1;
    if !spec.sweep.fleet_mix.is_empty() && spec.fleet.is_none() {
        r.diagnostics.push(Diagnostic::new(
            Code::InvalidFleet,
            path,
            "sweep.fleet_mix needs a campaign-level \"fleet\" block to apply the mix to",
        ));
    }
    let Some(fleet) = &spec.fleet else { return };
    for problem in fleet.problems() {
        r.checks_run += 1;
        r.diagnostics
            .push(Diagnostic::new(Code::InvalidFleet, path, problem));
    }
    // MPT502: well-formed distributions whose *range* can still realize
    // non-physical device parameters (normal tails the MPT501 min/max
    // checks cannot see). Caught here, statically, instead of letting a
    // 10k-device replay inject negative power.
    r.checks_run += 1;
    for problem in fleet.nonphysical_ranges() {
        r.diagnostics
            .push(Diagnostic::new(Code::NonPhysicalFleetJitter, path, problem));
    }
}

/// The static query schema of a single scenario: the channels its
/// platform records, and no axes (a session frame has no dictionary
/// columns to group or filter on).
#[must_use]
pub fn scenario_query_schema(spec: &ScenarioSpec) -> (Vec<String>, Vec<String>) {
    (platform_channels(&spec.platform), Vec::new())
}

/// The static query schema of a campaign: the per-cell metric channels
/// plus every telemetry channel a swept platform records, and the swept
/// axis keys.
#[must_use]
pub fn campaign_query_schema(spec: &CampaignSpec) -> (Vec<String>, Vec<String>) {
    let mut channels: Vec<String> = mpt_core::campaign::CampaignReport::METRIC_CHANNELS
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let platforms = if spec.sweep.platforms.is_empty() {
        std::slice::from_ref(&spec.base.platform)
    } else {
        &spec.sweep.platforms[..]
    };
    for platform in platforms {
        for channel in platform_channels(platform) {
            if !channels.contains(&channel) {
                channels.push(channel);
            }
        }
    }
    if spec.fleet.is_some() {
        // Fleet campaigns additionally expose the per-device population
        // frame: one row per device, grouped by the `device` dictionary
        // column on top of the swept axes.
        for channel in mpt_core::fleet::DEVICE_CHANNELS {
            if !channels.iter().any(|c| c == channel) {
                channels.push(channel.to_owned());
            }
        }
    }
    let mut axes: Vec<String> = spec
        .sweep
        .axis_keys()
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    if spec.fleet.is_some() {
        axes.push("device".to_owned());
    }
    (channels, axes)
}

/// The columnar channels a scenario on `platform` records — the static
/// schema the MPT401 check validates query expressions against before
/// anything runs.
#[must_use]
pub fn platform_channels(platform: &PlatformSpec) -> Vec<String> {
    let platform = platform.build();
    let sensors: Vec<String> = platform
        .temperature_sensors()
        .iter()
        .map(|s| s.name().to_owned())
        .collect();
    let components: Vec<&str> = platform.components().iter().map(|c| c.id().key()).collect();
    mpt_sim::Telemetry::channel_names_for(&sensors, &components)
}

/// Checks telemetry query expressions against a static schema: MPT401
/// for a malformed expression or an unrecorded channel, MPT402 for a
/// group-by or filter key outside `axes`. `run_scenario` reuses this
/// for `--query` flags, so a CLI query fails with the same diagnostic
/// the linter prints for an embedded one.
pub fn check_queries(
    queries: &[String],
    channels: &[String],
    axes: &[String],
    path: &str,
    r: &mut Report,
) {
    for (i, expr) in queries.iter().enumerate() {
        r.checks_run += 1;
        let origin = format!("{path}#queries[{i}]");
        match mpt_daq::Query::parse(expr).and_then(|q| q.validate(channels, axes)) {
            Ok(()) => {}
            Err(
                e @ (mpt_daq::QueryError::Parse(_) | mpt_daq::QueryError::UnknownChannel { .. }),
            ) => {
                r.diagnostics.push(Diagnostic::new(
                    Code::QueryUnknownChannel,
                    origin,
                    e.to_string(),
                ));
            }
            Err(e) => {
                r.diagnostics.push(Diagnostic::new(
                    Code::QueryNonAxisKey,
                    origin,
                    e.to_string(),
                ));
            }
        }
    }
}

fn check_sweep(
    sweep: &SweepAxes,
    base_policy: &ThermalPolicySpec,
    ambient_c: f64,
    path: &str,
    r: &mut Report,
) {
    r.checks_run += 1;
    check_axis_duplicates("platforms", &sweep.platforms, path, r);
    check_axis_duplicates("thermal", &sweep.thermal, path, r);
    check_axis_duplicates("workloads", &sweep.workloads, path, r);
    check_axis_duplicates("trips_c", &sweep.trips_c, path, r);
    check_axis_duplicates(
        "initial_temperatures_c",
        &sweep.initial_temperatures_c,
        path,
        r,
    );
    for (i, policy) in sweep.thermal.iter().enumerate() {
        check_policy(policy, ambient_c, &format!("{path}#sweep.thermal[{i}]"), r);
    }
    for (i, set) in sweep.workloads.iter().enumerate() {
        if set.is_empty() {
            r.diagnostics.push(Diagnostic::new(
                Code::InvalidSweepAxis,
                path,
                format!("sweep.workloads[{i}] is empty; every cell needs a workload"),
            ));
        }
        for (j, w) in set.iter().enumerate() {
            if let Err(msg) = w.build() {
                r.diagnostics.push(Diagnostic::new(
                    Code::InvalidWorkload,
                    path,
                    format!("sweep.workloads[{i}][{j}]: {msg}"),
                ));
            }
        }
    }
    for (i, trips) in sweep.trips_c.iter().enumerate() {
        if trips.is_empty() {
            r.diagnostics.push(Diagnostic::new(
                Code::InvalidSweepAxis,
                path,
                format!("sweep.trips_c[{i}] is empty; a step_wise ladder needs trips"),
            ));
        }
        check_trips(trips, ambient_c, &format!("{path}#sweep.trips_c[{i}]"), r);
    }
    if !sweep.trips_c.is_empty() {
        let policies: Vec<&ThermalPolicySpec> = if sweep.thermal.is_empty() {
            vec![base_policy]
        } else {
            sweep.thermal.iter().collect()
        };
        for policy in policies {
            if !matches!(policy, ThermalPolicySpec::StepWise { .. }) {
                r.diagnostics.push(Diagnostic::new(
                    Code::InvalidSweepAxis,
                    path,
                    "trips_c sweep combined with a non-step_wise policy; expansion would fail",
                ));
                break;
            }
        }
    }
    for (i, &t0) in sweep.initial_temperatures_c.iter().enumerate() {
        if !t0.is_finite() || !(-40.0..=MAX_SANE_TEMP_C).contains(&t0) {
            r.diagnostics.push(Diagnostic::new(
                Code::ParameterOutOfRange,
                path,
                format!(
                    "sweep.initial_temperatures_c[{i}] = {t0} outside [-40, {MAX_SANE_TEMP_C}] C"
                ),
            ));
        }
    }
}

fn check_axis_duplicates<T: std::fmt::Debug>(name: &str, axis: &[T], path: &str, r: &mut Report) {
    for (i, entry) in axis.iter().enumerate() {
        let key = format!("{entry:?}");
        if axis[..i].iter().any(|e| format!("{e:?}") == key) {
            r.diagnostics.push(Diagnostic::new(
                Code::InvalidSweepAxis,
                path,
                format!("sweep.{name}[{i}] duplicates an earlier entry; cells would repeat"),
            ));
        }
    }
}

fn check_policy(policy: &ThermalPolicySpec, ambient_c: f64, path: &str, r: &mut Report) {
    r.checks_run += 1;
    match policy {
        ThermalPolicySpec::Disabled => {}
        ThermalPolicySpec::StepWise { trips_c, period_s } => {
            if trips_c.is_empty() {
                r.diagnostics.push(Diagnostic::new(
                    Code::ParameterOutOfRange,
                    path,
                    "step_wise policy needs at least one trip temperature",
                ));
            }
            check_trips(trips_c, ambient_c, path, r);
            // The simulator polls the governor on its base tick, so it
            // refuses a period shorter than one tick.
            if !period_s.is_finite() || *period_s < BASE_DT_S {
                r.diagnostics.push(Diagnostic::new(
                    Code::ParameterOutOfRange,
                    path,
                    format!(
                        "step_wise period_s = {period_s} must be finite and at least the \
                         {BASE_DT_S} s base tick"
                    ),
                ));
            }
        }
        ThermalPolicySpec::Ipa {
            control_c,
            sustainable_w,
            gpu_weight,
        } => {
            if !temp_in_range(*control_c, ambient_c) {
                r.diagnostics.push(Diagnostic::new(
                    Code::ParameterOutOfRange,
                    path,
                    format!(
                        "ipa control_c = {control_c} outside ({ambient_c}, {MAX_SANE_TEMP_C}] C"
                    ),
                ));
            }
            if !sustainable_w.is_finite() || *sustainable_w <= 0.0 {
                r.diagnostics.push(Diagnostic::new(
                    Code::ParameterOutOfRange,
                    path,
                    format!("ipa sustainable_w = {sustainable_w} must be finite and > 0"),
                ));
            }
            if !gpu_weight.is_finite() || *gpu_weight <= 0.0 {
                r.diagnostics.push(Diagnostic::new(
                    Code::ParameterOutOfRange,
                    path,
                    format!("ipa gpu_weight = {gpu_weight} must be finite and > 0"),
                ));
            }
        }
    }
}

fn check_trips(trips_c: &[f64], ambient_c: f64, path: &str, r: &mut Report) {
    for (i, &trip) in trips_c.iter().enumerate() {
        if !temp_in_range(trip, ambient_c) {
            r.diagnostics.push(Diagnostic::new(
                Code::ParameterOutOfRange,
                path,
                format!(
                    "trip point {trip} C outside the sensor range ({ambient_c}, \
                     {MAX_SANE_TEMP_C}] C"
                ),
            ));
        }
        if i > 0 && trip <= trips_c[i - 1] {
            r.diagnostics.push(Diagnostic::new(
                Code::ParameterOutOfRange,
                path,
                format!(
                    "trip points must be strictly ascending ({} then {trip})",
                    trips_c[i - 1]
                ),
            ));
        }
    }
}

fn check_alert_rules(
    rules: &[AlertRule],
    context: Option<&AlertContext>,
    path: &str,
    r: &mut Report,
) {
    fn invalid(r: &mut Report, origin: &str, what: String) {
        r.diagnostics.push(
            Diagnostic::new(Code::UnreachableAlert, origin, what).with_severity(Severity::Error),
        );
    }
    for (i, rule) in rules.iter().enumerate() {
        r.checks_run += 1;
        let origin = format!("{path}#alerts[{i}]");
        match *rule {
            AlertRule::TempAbove {
                threshold_c,
                sustain_s,
            } => {
                if let Some(ctx) = context {
                    if !temp_in_range(threshold_c, ctx.ambient_c) {
                        r.diagnostics.push(Diagnostic::new(
                            Code::ParameterOutOfRange,
                            &origin,
                            format!(
                                "temp_above threshold_c = {threshold_c} outside the sensor \
                                 range ({}, {MAX_SANE_TEMP_C}] C",
                                ctx.ambient_c
                            ),
                        ));
                    }
                }
                if !sustain_s.is_finite() || sustain_s < 0.0 {
                    invalid(
                        r,
                        &origin,
                        format!("temp_above sustain_s = {sustain_s} must be >= 0"),
                    );
                }
            }
            AlertRule::FpsBelow { target, sustain_s } => {
                if !target.is_finite() || target <= 0.0 {
                    invalid(
                        r,
                        &origin,
                        format!("fps_below target = {target} must be finite and > 0"),
                    );
                }
                if !sustain_s.is_finite() || sustain_s < 0.0 {
                    invalid(
                        r,
                        &origin,
                        format!("fps_below sustain_s = {sustain_s} must be >= 0"),
                    );
                }
                if let Some(ctx) = context {
                    if !ctx.foreground_fps {
                        invalid(
                            r,
                            &origin,
                            "fps_below watches the foreground frame rate, but no foreground \
                             workload reports frames"
                                .to_owned(),
                        );
                    }
                }
            }
            AlertRule::ThrottleStorm { events, window_s } => {
                if events == 0 {
                    invalid(r, &origin, "throttle_storm events must be >= 1".to_owned());
                }
                if !window_s.is_finite() || window_s <= 0.0 {
                    invalid(
                        r,
                        &origin,
                        format!("throttle_storm window_s = {window_s} must be > 0"),
                    );
                }
                warn_if_no_throttling(context, "throttle_storm", &origin, r);
            }
            AlertRule::Runaway {
                window_s,
                slope_c_per_s,
            } => {
                if !window_s.is_finite() || window_s <= 0.0 {
                    invalid(
                        r,
                        &origin,
                        format!("runaway window_s = {window_s} must be > 0"),
                    );
                }
                if !slope_c_per_s.is_finite() || slope_c_per_s <= 0.0 {
                    invalid(
                        r,
                        &origin,
                        format!("runaway slope_c_per_s = {slope_c_per_s} must be > 0"),
                    );
                }
                warn_if_no_throttling(context, "runaway", &origin, r);
            }
        }
    }
}

fn warn_if_no_throttling(context: Option<&AlertContext>, rule: &str, origin: &str, r: &mut Report) {
    if let Some(ctx) = context {
        if !ctx.throttling {
            r.diagnostics.push(Diagnostic::new(
                Code::UnreachableAlert,
                origin,
                format!(
                    "{rule} watches throttle events, but no thermal policy or app-aware \
                     governor is configured to emit any"
                ),
            ));
        }
    }
}

fn temp_in_range(t: f64, ambient_c: f64) -> bool {
    t.is_finite() && t > ambient_c && t <= MAX_SANE_TEMP_C
}

/// The first ordering problem in a phased schedule, if any: end times
/// must be finite, strictly increasing and start above zero. (Rate and
/// thread validity stay with the generic workload build check, MPT103.)
fn phase_schedule_problem(phases: &[ComputePhase]) -> Option<String> {
    if phases.is_empty() {
        return Some("phased workload has no phases".to_owned());
    }
    let mut prev = 0.0;
    for (i, p) in phases.iter().enumerate() {
        if !p.until_s.is_finite() || p.until_s <= prev {
            return Some(format!(
                "phases[{i}].until_s = {} must be finite and strictly after {prev}",
                p.until_s
            ));
        }
        prev = p.until_s;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_core::scenario::PlatformSpec;

    fn minimal() -> ScenarioSpec {
        serde_json::from_str(
            r#"{
                "platform": "exynos5422",
                "duration_s": 5.0,
                "workloads": [ { "kind": "basic_math" } ]
            }"#,
        )
        .expect("minimal scenario parses")
    }

    #[test]
    fn minimal_scenario_is_clean() {
        let report = check_scenario(&minimal(), "s");
        assert!(report.diagnostics.is_empty(), "{}", report.render_text());
    }

    #[test]
    fn dangling_control_sensor_fires_mpt104() {
        let mut spec = minimal();
        spec.control_sensor = Some("skin_xyz".to_owned());
        let report = check_scenario(&spec, "s");
        let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![Code::DanglingControlSensor]);
    }

    #[test]
    fn unknown_solver_fires_mpt106_before_typed_parse() {
        // Any value of the retired field, the old valid names included,
        // in a scenario or in a campaign base.
        for value in [r#""forward_euler""#, r#""exact_lti""#, r#""magic""#, "7"] {
            let scenario = format!(
                r#"{{ "platform": "exynos5422", "duration_s": 1.0, "solver": {value},
                     "workloads": [ {{ "kind": "basic_math" }} ] }}"#
            );
            let campaign = format!(r#"{{ "base": {scenario}, "sweep": {{}} }}"#);
            for report in [
                check_scenario_json(&scenario, "s"),
                check_campaign_json(&campaign, "c"),
            ] {
                let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
                assert_eq!(codes, vec![Code::RetiredSolverField], "solver: {value}");
            }
        }
    }

    #[test]
    fn unknown_engine_fires_mpt301_before_typed_parse() {
        let report = check_scenario_json(
            r#"{ "platform": "exynos5422", "duration_s": 1.0, "engine": "warp",
                 "workloads": [ { "kind": "basic_math" } ] }"#,
            "s",
        );
        let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![Code::InvalidEngine]);
    }

    #[test]
    fn unknown_keys_fire_mpt109_naming_the_key_and_what_its_object_accepts() {
        let report = check_scenario_json(
            r#"{ "platform": "exynos5422", "duration_s": 1.0, "_comment": "ok",
                 "workloads": [ { "kind": "basic_math", "forground": true } ] }"#,
            "s",
        );
        let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![Code::UnknownKey]);
        let message = &report.diagnostics[0].message;
        for part in [
            "\"forground\"",
            "workloads[0]",
            "kind",
            "foreground",
            "seed",
        ] {
            assert!(message.contains(part), "{part} missing from: {message}");
        }
        // The same gate covers campaign sweeps and alert files; `_` keys
        // are comments at any depth.
        let campaign = check_campaign_json(
            r#"{ "base": { "platform": "exynos5422", "duration_s": 1.0,
                           "workloads": [ { "kind": "basic_math", "_note": "" } ] },
                 "sweep": { "initial_temperature_c": [40.0] } }"#,
            "c",
        );
        let codes: Vec<_> = campaign.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![Code::UnknownKey], "{}", campaign.render_text());
        assert!(campaign.diagnostics[0].message.contains("in sweep"));
        let alerts = check_alerts_json(r#"[ { "rule": "runaway", "windows_s": 5.0 } ]"#, "a");
        let codes: Vec<_> = alerts.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![Code::UnknownKey], "{}", alerts.render_text());
    }

    #[test]
    fn non_monotonic_phases_fire_mpt302() {
        let report = check_scenario_json(
            r#"{ "platform": "exynos5422", "duration_s": 10.0,
                 "workloads": [ { "kind": "phased", "name": "p", "phases": [
                     { "until_s": 5.0, "rate": 1e9 },
                     { "until_s": 3.0, "rate": 2e9 } ] } ] }"#,
            "s",
        );
        let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![Code::NonMonotonicPhases]);
        // A bad rate is still the generic workload-build failure.
        let report = check_scenario_json(
            r#"{ "platform": "exynos5422", "duration_s": 10.0,
                 "workloads": [ { "kind": "phased", "name": "p", "phases": [
                     { "until_s": 5.0, "rate": -1.0 } ] } ] }"#,
            "s",
        );
        let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![Code::InvalidWorkload]);
    }

    #[test]
    fn unreachable_alerts_warn_but_invalid_params_error() {
        let mut spec = minimal();
        spec.alerts = vec![
            AlertRule::ThrottleStorm {
                events: 5,
                window_s: 30.0,
            },
            AlertRule::FpsBelow {
                target: 30.0,
                sustain_s: 1.0,
            },
        ];
        let report = check_scenario(&spec, "s");
        assert_eq!(report.warnings(), 1, "{}", report.render_text());
        assert_eq!(report.errors(), 1, "{}", report.render_text());
    }

    #[test]
    fn bad_trips_and_policy_parameters_fire_mpt105() {
        let mut spec = minimal();
        spec.thermal = ThermalPolicySpec::StepWise {
            trips_c: vec![90.0, 80.0, 200.0],
            period_s: 0.0,
        };
        let report = check_scenario(&spec, "s");
        assert!(report.errors() >= 3, "{}", report.render_text());
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.code == Code::ParameterOutOfRange));
    }

    #[test]
    fn step_wise_period_below_the_base_tick_fires_mpt105() {
        let period = |period_s: f64| {
            let mut spec = minimal();
            spec.thermal = ThermalPolicySpec::StepWise {
                trips_c: vec![60.0],
                period_s,
            };
            check_scenario(&spec, "s")
        };
        let sub_tick = period(0.005);
        assert_eq!(sub_tick.errors(), 1, "{}", sub_tick.render_text());
        assert_eq!(sub_tick.diagnostics[0].code, Code::ParameterOutOfRange);
        // One tick is the shortest period the simulator accepts.
        let one_tick = period(BASE_DT_S);
        assert_eq!(one_tick.errors(), 0, "{}", one_tick.render_text());
        // A campaign sweep entry goes through the same check.
        let campaign = CampaignSpec {
            base: minimal(),
            sweep: SweepAxes {
                thermal: vec![ThermalPolicySpec::StepWise {
                    trips_c: vec![60.0],
                    period_s: 0.005,
                }],
                ..SweepAxes::default()
            },
            seed: 0,
            queries: Vec::new(),
            fleet: None,
        };
        let report = check_campaign(&campaign, "c");
        let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![Code::ParameterOutOfRange]);
    }

    #[test]
    fn campaign_axis_checks_fire_mpt108() {
        let campaign = CampaignSpec {
            base: minimal(),
            sweep: SweepAxes {
                platforms: vec![PlatformSpec::Exynos5422, PlatformSpec::Exynos5422],
                trips_c: vec![vec![60.0, 70.0]],
                ..SweepAxes::default()
            },
            seed: 0,
            queries: Vec::new(),
            fleet: None,
        };
        let report = check_campaign(&campaign, "c");
        let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        // Duplicate platform entry, plus trips_c against a non-step_wise
        // base policy.
        assert_eq!(
            codes,
            vec![Code::InvalidSweepAxis, Code::InvalidSweepAxis],
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn campaign_fleet_checks_fire_mpt501() {
        let mut campaign = CampaignSpec {
            base: minimal(),
            sweep: SweepAxes {
                fleet_mix: vec![0.5, 1.0],
                ..SweepAxes::default()
            },
            seed: 0,
            queries: Vec::new(),
            fleet: None,
        };
        // Mix axis without a fleet block.
        let report = check_campaign(&campaign, "c");
        let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![Code::InvalidFleet], "{}", report.render_text());

        // Degenerate fleet: zero devices, inverted jitter, absurd trip.
        campaign.fleet = Some(mpt_soc::FleetSpec {
            devices: 0,
            leakage_scale: mpt_soc::ParamJitter::Uniform { min: 2.0, max: 1.0 },
            ambient_c: mpt_soc::ParamJitter::fixed(0.0),
            phase_offset_s: mpt_soc::ParamJitter::fixed(0.0),
            workload_mix: mpt_soc::ParamJitter::fixed(1.0),
            trip_c: Some(500.0),
        });
        let report = check_campaign(&campaign, "c");
        assert!(
            report
                .diagnostics
                .iter()
                .filter(|d| d.code == Code::InvalidFleet)
                .count()
                >= 3,
            "{}",
            report.render_text()
        );

        // A healthy fleet block is clean and unlocks the device schema.
        campaign.fleet = Some(mpt_soc::FleetSpec {
            devices: 100,
            leakage_scale: mpt_soc::ParamJitter::Normal {
                mean: 1.0,
                std: 0.05,
            },
            ambient_c: mpt_soc::ParamJitter::Uniform {
                min: -5.0,
                max: 10.0,
            },
            phase_offset_s: mpt_soc::ParamJitter::fixed(0.0),
            workload_mix: mpt_soc::ParamJitter::fixed(1.0),
            trip_c: Some(70.0),
        });
        campaign.queries = vec!["p99(peak_temp_c) by device".to_owned()];
        let report = check_campaign(&campaign, "c");
        assert_eq!(report.diagnostics.len(), 0, "{}", report.render_text());
        let (channels, axes) = campaign_query_schema(&campaign);
        assert!(channels.iter().any(|c| c == "throttle_onset_s"));
        assert!(axes.iter().any(|a| a == "device"));
    }

    #[test]
    fn scenario_query_checks_fire_mpt401_and_402() {
        let mut spec = minimal();
        spec.queries = vec![
            "mean(total_power_w)".to_owned(),          // clean
            "max(power_npu_w)".to_owned(),             // unknown channel
            "nonsense".to_owned(),                     // malformed
            "mean(max_temp_c) by platform".to_owned(), // no axes in a scenario
        ];
        let report = check_scenario(&spec, "s");
        let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            vec![
                Code::QueryUnknownChannel,
                Code::QueryUnknownChannel,
                Code::QueryNonAxisKey
            ],
            "{}",
            report.render_text()
        );
        assert!(report.diagnostics[0].path.ends_with("#queries[1]"));
    }

    #[test]
    fn campaign_queries_accept_axes_and_metric_channels() {
        let campaign = CampaignSpec {
            base: minimal(),
            sweep: SweepAxes {
                platforms: vec![PlatformSpec::Exynos5422, PlatformSpec::Snapdragon810],
                initial_temperatures_c: vec![35.0, 50.0],
                ..SweepAxes::default()
            },
            seed: 0,
            queries: vec![
                "max(peak_temperature_c) by platform".to_owned(), // metrics frame
                "p95(max_temp_c) by ambient".to_owned(),          // telemetry channel
                "mean(total_power_w) where thermal=ipa".to_owned(), // unswept axis
            ],
            fleet: None,
        };
        let report = check_campaign(&campaign, "c");
        let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            vec![Code::QueryNonAxisKey],
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn shipped_style_alerts_file_is_clean() {
        let report = check_alerts_json(
            r#"[ { "rule": "temp_above", "threshold_c": 43.0, "sustain_s": 5.0 },
                 { "rule": "runaway" } ]"#,
            "a",
        );
        assert!(report.diagnostics.is_empty(), "{}", report.render_text());
    }
}
