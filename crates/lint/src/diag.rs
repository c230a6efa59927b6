//! The diagnostic registry: stable codes, severities and rendering.
//!
//! Every check in this crate reports through a [`Diagnostic`] carrying a
//! stable `MPTxxx` code. Codes are append-only: once shipped, a code's
//! meaning never changes, so CI logs and suppression lists stay valid
//! across releases. The numbering is grouped by analysis family:
//!
//! - `MPT0xx` — model analysis (platforms, OPP tables, thermal networks),
//! - `MPT1xx` — config analysis (scenarios, campaigns, alert files),
//! - `MPT2xx` — source analysis (determinism scan of the sim crates),
//! - `MPT3xx` — stepping-engine analysis (event-engine compatibility,
//!   phase schedules),
//! - `MPT4xx` — telemetry-query analysis (embedded `queries` against the
//!   static columnar schema),
//! - `MPT5xx` — fleet analysis (population specs and jitter ranges),
//! - `MPT6xx` — reachability verification (certified temperature
//!   envelopes from interval abstract interpretation of `(Ad, Bd)`).

use std::fmt;

/// How bad a finding is.
///
/// Errors make `mpt_lint` exit non-zero (and make `run_scenario` refuse
/// to simulate); warnings are advisory unless `--deny-warnings` is set;
/// infos are positive findings (certificates) and never fail a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A positive finding — a certificate the verifier proved, reported
    /// for the record. Never fails the run, even under `--deny-warnings`.
    Info,
    /// Suspicious but not certainly wrong; does not fail the run.
    Warning,
    /// A defect that would produce wrong or undefined results.
    Error,
}

impl Severity {
    /// Lowercase label used in text and JSON output.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Stable diagnostic codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// MPT001: OPP frequencies are not strictly increasing.
    OppFrequencyOrder,
    /// MPT002: OPP voltage decreases as frequency rises.
    OppVoltageMonotonicity,
    /// MPT003: max-utilization OPP power is not strictly increasing.
    OppPowerMonotonicity,
    /// MPT004: a thermal node has a non-positive heat capacity.
    NonPositiveHeatCapacity,
    /// MPT005: a power coefficient (ceff, alpha, beta, floor) is invalid.
    InvalidPowerCoefficient,
    /// MPT006: the conductance matrix is asymmetric or has an invalid entry.
    InvalidConductance,
    /// MPT007: the thermal network is disconnected or has no ambient path.
    DisconnectedNetwork,
    /// MPT008: the assembled thermal A-matrix is not Hurwitz.
    NotHurwitz,
    /// MPT009: no stable power-temperature fixed point at an operating point.
    NoStableFixedPoint,
    /// MPT010: a temperature sensor references an unknown thermal node.
    DanglingSensorNode,
    /// MPT011: a cross-reference between platform parts does not resolve.
    DanglingComponentRef,
    /// MPT101: a file is not valid JSON or does not parse as its spec type.
    ParseFailure,
    /// MPT102: a scenario's overall shape is invalid (duration, workloads).
    ScenarioShape,
    /// MPT103: a workload spec cannot be built.
    InvalidWorkload,
    /// MPT104: `control_sensor` names no sensor on the platform.
    DanglingControlSensor,
    /// MPT105: a trip point or policy parameter is outside the sane range.
    ParameterOutOfRange,
    /// MPT106: a retired key is present (today only `solver`: exact LTI
    /// is the only thermal solver).
    RetiredSolverField,
    /// MPT107: an alert rule can never fire or has invalid parameters.
    UnreachableAlert,
    /// MPT108: a campaign sweep axis is empty, duplicated or inconsistent.
    InvalidSweepAxis,
    /// MPT109: a config object carries a key its spec type does not
    /// declare (usually a misspelling).
    UnknownKey,
    /// MPT201: a wall-clock read outside the sanctioned clock helper.
    WallClockRead,
    /// MPT202: a nondeterministically seeded RNG.
    NondeterministicRng,
    /// MPT203: iteration over an unordered container.
    UnorderedContainer,
    /// MPT301: `engine` names no stepping engine.
    InvalidEngine,
    /// MPT302: a phased workload's schedule is not strictly increasing.
    NonMonotonicPhases,
    /// MPT401: a telemetry query is malformed or names a channel the
    /// scenario's columnar schema does not record.
    QueryUnknownChannel,
    /// MPT402: a telemetry query groups or filters on a key that is not
    /// a sweep axis (or axis-like dictionary column) of the spec.
    QueryNonAxisKey,
    /// MPT501: a campaign's `fleet` block is invalid (device count,
    /// jitter ranges, trip reference).
    InvalidFleet,
    /// MPT502: a fleet jitter range can realize non-physical device
    /// parameters (non-positive leakage scale, negative workload mix).
    NonPhysicalFleetJitter,
    /// MPT601: no-trip certificate — the certified upper temperature
    /// envelope stays below the trip reference with margin for the whole
    /// run (every device of a fleet population included).
    NoTripCertificate,
    /// MPT602: possible trip — the certified envelope straddles the trip
    /// reference, so some realization may throttle.
    PossibleTrip,
    /// MPT603: guaranteed trip — even the *lower* envelope bound crosses
    /// the trip reference; every realization throttles.
    GuaranteedTrip,
    /// MPT604: governor limit-cycle risk — the abstract
    /// `(cooling state, steady-state interval)` transition graph of the
    /// step-wise governor contains a throttle/release cycle.
    GovernorLimitCycle,
}

impl Code {
    /// Every code, in numeric order (used by `--list-codes`).
    pub const ALL: [Code; 33] = [
        Code::OppFrequencyOrder,
        Code::OppVoltageMonotonicity,
        Code::OppPowerMonotonicity,
        Code::NonPositiveHeatCapacity,
        Code::InvalidPowerCoefficient,
        Code::InvalidConductance,
        Code::DisconnectedNetwork,
        Code::NotHurwitz,
        Code::NoStableFixedPoint,
        Code::DanglingSensorNode,
        Code::DanglingComponentRef,
        Code::ParseFailure,
        Code::ScenarioShape,
        Code::InvalidWorkload,
        Code::DanglingControlSensor,
        Code::ParameterOutOfRange,
        Code::RetiredSolverField,
        Code::UnreachableAlert,
        Code::InvalidSweepAxis,
        Code::UnknownKey,
        Code::WallClockRead,
        Code::NondeterministicRng,
        Code::UnorderedContainer,
        Code::InvalidEngine,
        Code::NonMonotonicPhases,
        Code::QueryUnknownChannel,
        Code::QueryNonAxisKey,
        Code::InvalidFleet,
        Code::NonPhysicalFleetJitter,
        Code::NoTripCertificate,
        Code::PossibleTrip,
        Code::GuaranteedTrip,
        Code::GovernorLimitCycle,
    ];

    /// The stable `MPTxxx` identifier.
    #[must_use]
    pub const fn code(self) -> &'static str {
        match self {
            Code::OppFrequencyOrder => "MPT001",
            Code::OppVoltageMonotonicity => "MPT002",
            Code::OppPowerMonotonicity => "MPT003",
            Code::NonPositiveHeatCapacity => "MPT004",
            Code::InvalidPowerCoefficient => "MPT005",
            Code::InvalidConductance => "MPT006",
            Code::DisconnectedNetwork => "MPT007",
            Code::NotHurwitz => "MPT008",
            Code::NoStableFixedPoint => "MPT009",
            Code::DanglingSensorNode => "MPT010",
            Code::DanglingComponentRef => "MPT011",
            Code::ParseFailure => "MPT101",
            Code::ScenarioShape => "MPT102",
            Code::InvalidWorkload => "MPT103",
            Code::DanglingControlSensor => "MPT104",
            Code::ParameterOutOfRange => "MPT105",
            Code::RetiredSolverField => "MPT106",
            Code::UnreachableAlert => "MPT107",
            Code::InvalidSweepAxis => "MPT108",
            Code::UnknownKey => "MPT109",
            Code::WallClockRead => "MPT201",
            Code::NondeterministicRng => "MPT202",
            Code::UnorderedContainer => "MPT203",
            Code::InvalidEngine => "MPT301",
            Code::NonMonotonicPhases => "MPT302",
            Code::QueryUnknownChannel => "MPT401",
            Code::QueryNonAxisKey => "MPT402",
            Code::InvalidFleet => "MPT501",
            Code::NonPhysicalFleetJitter => "MPT502",
            Code::NoTripCertificate => "MPT601",
            Code::PossibleTrip => "MPT602",
            Code::GuaranteedTrip => "MPT603",
            Code::GovernorLimitCycle => "MPT604",
        }
    }

    /// Default severity for findings of this code.
    ///
    /// [`Code::NoStableFixedPoint`] defaults to [`Severity::Warning`]
    /// because runaway at *max* power is a real property of real phones
    /// (the paper's Section IV): throttling exists precisely to handle
    /// it. The model check escalates it to an error when even the idle
    /// floor has no fixed point. [`Code::UnreachableAlert`] is likewise a
    /// warning when a rule is merely vacuous but an error when its
    /// parameters are invalid.
    #[must_use]
    pub const fn default_severity(self) -> Severity {
        match self {
            Code::NoStableFixedPoint
            | Code::UnreachableAlert
            | Code::PossibleTrip
            | Code::GovernorLimitCycle => Severity::Warning,
            Code::NoTripCertificate => Severity::Info,
            _ => Severity::Error,
        }
    }

    /// One-line description (used by `--list-codes` and docs).
    #[must_use]
    pub const fn title(self) -> &'static str {
        match self {
            Code::OppFrequencyOrder => "OPP frequencies must be strictly increasing",
            Code::OppVoltageMonotonicity => "OPP voltages must not decrease with frequency",
            Code::OppPowerMonotonicity => "max-utilization OPP power must be strictly increasing",
            Code::NonPositiveHeatCapacity => "thermal node heat capacity must be positive",
            Code::InvalidPowerCoefficient => "power-model coefficient out of range",
            Code::InvalidConductance => "conductance matrix asymmetric or entry invalid",
            Code::DisconnectedNetwork => "thermal network disconnected or no ambient path",
            Code::NotHurwitz => "thermal A-matrix is not Hurwitz (unstable dynamics)",
            Code::NoStableFixedPoint => "no stable power-temperature fixed point",
            Code::DanglingSensorNode => "temperature sensor reads an unknown thermal node",
            Code::DanglingComponentRef => "platform cross-reference does not resolve",
            Code::ParseFailure => "file is not valid JSON for its spec type",
            Code::ScenarioShape => "scenario shape invalid (duration, workloads)",
            Code::InvalidWorkload => "workload spec cannot be built",
            Code::DanglingControlSensor => "control_sensor names no platform sensor",
            Code::ParameterOutOfRange => "trip point or policy parameter out of range",
            Code::RetiredSolverField => "retired key present",
            Code::UnreachableAlert => "alert rule invalid or can never fire",
            Code::InvalidSweepAxis => "campaign sweep axis empty, duplicated or inconsistent",
            Code::UnknownKey => "config object carries a key its spec does not declare",
            Code::WallClockRead => "wall-clock read outside mpt_obs::clock",
            Code::NondeterministicRng => "nondeterministically seeded RNG",
            Code::UnorderedContainer => "iteration-order-sensitive unordered container",
            Code::InvalidEngine => "engine names no registered stepping engine",
            Code::NonMonotonicPhases => "phased workload schedule must be strictly increasing",
            Code::QueryUnknownChannel => "query malformed or names an unrecorded channel",
            Code::QueryNonAxisKey => "query groups or filters on a non-axis key",
            Code::InvalidFleet => "campaign fleet block invalid (devices, jitter, trip)",
            Code::NonPhysicalFleetJitter => {
                "fleet jitter range can realize non-physical device parameters"
            }
            Code::NoTripCertificate => {
                "certified: the temperature envelope stays below trip with margin"
            }
            Code::PossibleTrip => "certified envelope straddles the trip reference",
            Code::GuaranteedTrip => "even the lower envelope bound crosses the trip reference",
            Code::GovernorLimitCycle => "step-wise governor throttle/release limit-cycle risk",
        }
    }

    /// A fix hint attached to every finding of this code.
    #[must_use]
    pub(crate) const fn hint(self) -> &'static str {
        match self {
            Code::OppFrequencyOrder => "sort the OPP table by frequency and remove duplicates",
            Code::OppVoltageMonotonicity => {
                "higher frequencies need equal or higher supply voltage; fix the voltage column"
            }
            Code::OppPowerMonotonicity => {
                "a higher OPP that draws less power dominates the table; check ceff and voltages"
            }
            Code::NonPositiveHeatCapacity => "set heat_capacity to a positive, finite J/K value",
            Code::InvalidPowerCoefficient => {
                "ceff, alpha and static_floor must be finite and >= 0; beta finite and > 0"
            }
            Code::InvalidConductance => {
                "conductances must be finite, positive and symmetric (g[i][j] == g[j][i])"
            }
            Code::DisconnectedNetwork => {
                "every node needs a coupling path to the rest and some node an ambient path"
            }
            Code::NotHurwitz => {
                "check for negative conductances; a passive RC network is always Hurwitz"
            }
            Code::NoStableFixedPoint => {
                "leakage exceeds what the network can reject; a throttling policy is mandatory"
            }
            Code::DanglingSensorNode => "point thermal_node at a node declared in thermal.nodes",
            Code::DanglingComponentRef => {
                "reference only components declared in the platform's component list"
            }
            Code::ParseFailure => "fix the JSON syntax or match the documented spec schema",
            Code::ScenarioShape => "duration_s must be positive and workloads non-empty",
            Code::InvalidWorkload => "see the workload registry for valid kinds and clusters",
            Code::DanglingControlSensor => "use one of the platform's temperature_sensors names",
            Code::ParameterOutOfRange => {
                "temperatures must lie in (ambient, 125] C, rates must be positive and \
                 periods at least the 10 ms base tick"
            }
            Code::RetiredSolverField => "delete the field; exact_lti is the only thermal solver",
            Code::UnreachableAlert => {
                "fix the rule parameters or add the mechanism (workload/policy) it observes"
            }
            Code::InvalidSweepAxis => {
                "remove duplicate axis entries; trips_c sweeps need a step_wise base policy"
            }
            Code::UnknownKey => {
                "spell the key as one the message accepts; keys starting with `_` are comments"
            }
            Code::WallClockRead => {
                "route wall-clock reads through mpt_obs::clock (or extend determinism.allow)"
            }
            Code::NondeterministicRng => "seed RNGs from the scenario/campaign seed",
            Code::UnorderedContainer => "use BTreeMap/BTreeSet for deterministic iteration",
            Code::InvalidEngine => "name one of the stepping engines the message lists",
            Code::NonMonotonicPhases => {
                "order phases by until_s, strictly increasing and starting above zero"
            }
            Code::QueryUnknownChannel => {
                "use `agg(channel) [by axes] [where axis=value]` over the channels the \
                 platform records (time_s, temp_*_c, max_temp_c, power_*_w, total_power_w, \
                 freq_*_mhz, fps)"
            }
            Code::QueryNonAxisKey => {
                "group or filter only on the campaign's swept axes (platform, thermal, \
                 workloads, trips, ambient) or per-cell metric axes"
            }
            Code::InvalidFleet => {
                "devices must be positive, jitter ranges finite with min <= max and \
                 std >= 0, and trip_c (when set) a plausible Celsius trip point"
            }
            Code::NonPhysicalFleetJitter => {
                "tighten the jitter so leakage_scale stays positive and workload_mix \
                 non-negative (normal jitters are judged at 6 sigma)"
            }
            Code::NoTripCertificate => {
                "nothing to fix: this run cannot throttle; the budget in the message is \
                 the thermally-safe sustained power"
            }
            Code::PossibleTrip => {
                "lower the workload, raise the trip, or accept throttling; the first \
                 straddle time bounds when it can start"
            }
            Code::GuaranteedTrip => {
                "this configuration always throttles: reduce sustained power below the \
                 reported budget or raise the trip reference"
            }
            Code::GovernorLimitCycle => {
                "widen the trip hysteresis or add intermediate OPPs so a throttle step \
                 does not overshoot the release band"
            }
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding: a code, where it was found, and a specific message.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// Effective severity (defaults to the code's, may be escalated).
    pub severity: Severity,
    /// File path or logical origin (`builtin:snapdragon810`).
    pub path: String,
    /// 1-based line number for source findings, `None` for spec findings.
    pub line: Option<usize>,
    /// The specific finding, with offending values inlined.
    pub message: String,
}

impl Diagnostic {
    /// Creates a finding with the code's default severity.
    #[must_use]
    pub(crate) fn new(code: Code, path: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: code.default_severity(),
            path: path.into(),
            line: None,
            message: message.into(),
        }
    }

    /// Attaches a 1-based line number (source findings).
    #[must_use]
    pub(crate) const fn with_line(mut self, line: usize) -> Self {
        self.line = Some(line);
        self
    }

    /// Overrides the severity (escalation or demotion).
    #[must_use]
    pub(crate) const fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// Renders `severity[CODE] path[:line]: message` plus a hint line.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = format!("{}[{}] {}", self.severity.label(), self.code, self.path);
        if let Some(line) = self.line {
            out.push_str(&format!(":{line}"));
        }
        out.push_str(&format!(": {}\n  hint: {}", self.message, self.code.hint()));
        out
    }
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The aggregate outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, in the order the checks emitted them.
    pub diagnostics: Vec<Diagnostic>,
    /// How many individual checks executed (for the summary line and the
    /// `mpt_lint_checks_total` counter).
    pub checks_run: u64,
}

impl Report {
    /// Appends another report's findings and check count.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
        self.checks_run += other.checks_run;
    }

    /// Number of error-severity findings.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warnings(&self) -> usize {
        self.diagnostics.len() - self.errors() - self.infos()
    }

    /// Number of info-severity findings (positive certificates).
    #[must_use]
    pub fn infos(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Info)
            .count()
    }

    /// Process exit code: 0 clean (or warnings only), 1 on errors (or any
    /// warning under `deny_warnings`). Info-severity certificates never
    /// fail a run.
    #[must_use]
    pub fn exit_code(&self, deny_warnings: bool) -> i32 {
        let failing = if deny_warnings {
            self.errors() + self.warnings()
        } else {
            self.errors()
        };
        i32::from(failing > 0)
    }

    /// Human-readable rendering: one block per finding plus a summary.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render_text());
            out.push('\n');
        }
        out.push_str(&format!(
            "mpt_lint: {} checks, {} errors, {} warnings",
            self.checks_run,
            self.errors(),
            self.warnings()
        ));
        if self.infos() > 0 {
            out.push_str(&format!(", {} certificates", self.infos()));
        }
        out
    }

    /// Machine-readable rendering, stable across releases:
    ///
    /// ```json
    /// {"version":1,"checks_run":n,"errors":e,"warnings":w,
    ///  "diagnostics":[{"code","severity","path","line","message","hint"}]}
    /// ```
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"checks_run\": {},\n", self.checks_run));
        out.push_str(&format!("  \"errors\": {},\n", self.errors()));
        out.push_str(&format!("  \"warnings\": {},\n", self.warnings()));
        out.push_str(&format!("  \"infos\": {},\n", self.infos()));
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let line = d.line.map_or_else(|| "null".to_owned(), |l| l.to_string());
            out.push_str(&format!(
                "\n    {{\"code\": \"{}\", \"severity\": \"{}\", \"path\": \"{}\", \
                 \"line\": {}, \"message\": \"{}\", \"hint\": \"{}\"}}",
                d.code,
                d.severity.label(),
                json_escape(&d.path),
                line,
                json_escape(&d.message),
                json_escape(d.code.hint()),
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_ordered() {
        let codes: Vec<&str> = Code::ALL.iter().map(|c| c.code()).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(codes.len(), sorted.len(), "duplicate code ids");
        assert_eq!(codes, sorted, "Code::ALL must be in numeric order");
    }

    #[test]
    fn text_rendering_includes_code_path_and_hint() {
        let d = Diagnostic::new(Code::DanglingControlSensor, "s.json", "no sensor 'x'");
        let text = d.render_text();
        assert!(
            text.contains("error[MPT104] s.json: no sensor 'x'"),
            "{text}"
        );
        assert!(text.contains("hint:"), "{text}");
    }

    #[test]
    fn json_rendering_is_parseable_and_escaped() {
        let mut report = Report {
            checks_run: 2,
            ..Report::default()
        };
        report
            .diagnostics
            .push(Diagnostic::new(Code::ParseFailure, "a\"b.json", "bad \"quote\"").with_line(3));
        let json = report.render_json();
        let value = serde_json::value_from_str(&json).expect("valid JSON");
        let obj = value.as_object().expect("object");
        let diags = serde::__find(obj, "diagnostics")
            .and_then(serde::Value::as_array)
            .expect("diagnostics array");
        assert_eq!(diags.len(), 1);
        let d = diags[0].as_object().expect("diagnostic object");
        assert_eq!(
            serde::__find(d, "code").and_then(serde::Value::as_str),
            Some("MPT101")
        );
        assert_eq!(
            serde::__find(d, "line").and_then(serde::Value::as_f64),
            Some(3.0)
        );
    }

    #[test]
    fn exit_codes_respect_deny_warnings() {
        let mut report = Report::default();
        assert_eq!(report.exit_code(false), 0);
        assert_eq!(report.exit_code(true), 0);
        report
            .diagnostics
            .push(Diagnostic::new(Code::NoStableFixedPoint, "p", "warn"));
        assert_eq!(report.exit_code(false), 0, "warnings alone pass");
        assert_eq!(report.exit_code(true), 1, "--deny-warnings fails them");
        report
            .diagnostics
            .push(Diagnostic::new(Code::NotHurwitz, "p", "err"));
        assert_eq!(report.exit_code(false), 1);
    }

    #[test]
    fn info_certificates_never_fail_and_count_separately() {
        let mut report = Report::default();
        report
            .diagnostics
            .push(Diagnostic::new(Code::NoTripCertificate, "s.json", "ok"));
        assert_eq!(report.infos(), 1);
        assert_eq!(report.warnings(), 0);
        assert_eq!(report.errors(), 0);
        assert_eq!(report.exit_code(false), 0);
        assert_eq!(
            report.exit_code(true),
            0,
            "--deny-warnings must not fail a positive certificate"
        );
        assert!(report.render_text().contains("1 certificates"));
        assert!(report.render_json().contains("\"infos\": 1"));
    }
}
