//! The unified session report: everything one run produced, as data.
//!
//! [`SessionReport`] bundles a scenario's [`ScenarioOutcome`] with the
//! online analysis the simulator accumulated while running — the derived
//! paper observables ([`DerivedSummary`]), every fired alert
//! ([`AlertRecord`]) and the per-component frequency residency. It is
//! what `run_scenario --report-out report.json` writes.
//!
//! Every field in the report is driven only by simulated time, so a
//! report is bit-identical across repeats and (for campaigns) worker
//! counts. Metrics that are undefined for a run — headroom without a
//! trip reference, FPS loss without frames on both sides of a throttle
//! window — serialize as `null` rather than NaN, keeping the JSON valid
//! everywhere.

use serde::{Deserialize, Serialize};

use mpt_obs::{Alert, DerivedSummary};
use mpt_sim::Simulator;

use crate::scenario::ScenarioOutcome;

/// One fired alert, as recorded in the session report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertRecord {
    /// The firing rule's key (`"temp_above"`, `"fps_below"`,
    /// `"throttle_storm"` or `"runaway"`).
    pub rule: String,
    /// Simulation time of the firing, seconds.
    pub t_s: f64,
    /// The observed value that fired the rule.
    pub value: f64,
    /// Human-readable one-liner.
    pub message: String,
}

impl From<&Alert> for AlertRecord {
    fn from(a: &Alert) -> Self {
        Self {
            rule: a.rule.to_owned(),
            t_s: a.t_s,
            value: a.value,
            message: a.message.clone(),
        }
    }
}

/// Time spent in one frequency state of one component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResidencyRow {
    /// The frequency state, MHz.
    pub mhz: f64,
    /// Simulated seconds spent at this frequency.
    pub time_s: f64,
    /// Share of the component's total residency, percent.
    pub share_pct: f64,
}

/// Frequency residency of one component (Figures 2/4/6 material).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentResidency {
    /// The component's stable key (`"big"`, `"little"`, `"gpu"`, ...).
    pub component: String,
    /// Per-frequency rows, ascending by frequency.
    pub states: Vec<ResidencyRow>,
}

/// The analysis half of a run: derived observables, fired alerts and
/// frequency residency, extracted from a finished [`Simulator`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionAnalysis {
    /// The derived per-run observables.
    pub derived: DerivedSummary,
    /// Every fired alert, in firing order.
    pub alerts: Vec<AlertRecord>,
    /// Per-component frequency residency.
    pub residency: Vec<ComponentResidency>,
}

impl SessionAnalysis {
    /// Extracts the analysis from a finished simulator.
    #[must_use]
    pub fn from_sim(sim: &Simulator) -> Self {
        let analysis = sim.analysis();
        let residency = sim
            .platform()
            .components()
            .iter()
            .filter_map(|c| {
                let res = sim.telemetry().residency(c.id())?;
                let shares = res.percentages();
                let states = res
                    .iter()
                    .map(|(f, dt)| ResidencyRow {
                        mhz: f.as_khz() as f64 / 1000.0,
                        time_s: dt.value(),
                        share_pct: shares.get(&f).copied().unwrap_or(0.0),
                    })
                    .collect();
                Some(ComponentResidency {
                    component: c.id().key().to_owned(),
                    states,
                })
            })
            .collect();
        Self {
            derived: analysis.summary(),
            alerts: analysis.alerts().iter().map(AlertRecord::from).collect(),
            residency,
        }
    }

    /// How many alerts each rule fired, keyed by rule name.
    #[must_use]
    pub(crate) fn alert_counts(&self) -> std::collections::BTreeMap<String, u64> {
        let mut counts = std::collections::BTreeMap::new();
        for a in &self.alerts {
            *counts.entry(a.rule.clone()).or_insert(0) += 1;
        }
        counts
    }
}

/// The outcome of the static reachability certifier (`mpt-lint`'s
/// MPT6xx family), as plain data: a guaranteed per-node temperature
/// envelope was propagated through the scenario before tick 0, and this
/// is the verdict. Lives here (not in `mpt-lint`) so session and
/// campaign reports can carry it without a report→lint dependency; the
/// verifier in `mpt-lint` constructs it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerificationSummary {
    /// The verdict code: `"MPT601"` (provably never trips), `"MPT602"`
    /// (envelope straddles the trip — a trip is possible) or `"MPT603"`
    /// (the envelope's lower bound crosses the trip — a trip is
    /// guaranteed).
    pub verdict: String,
    /// What the trip threshold was resolved from: `"step_wise trips"`,
    /// `"ipa control_c"`, `"fleet trip_c"` or `"sanity cap"`.
    pub reference: String,
    /// The resolved trip threshold, Celsius.
    pub trip_c: f64,
    /// Safety margin demanded below the trip for a MPT601 certificate,
    /// Celsius.
    pub margin_c: f64,
    /// Peak of the envelope's upper bound across the run, Celsius.
    pub peak_upper_c: f64,
    /// Peak of the envelope's lower bound across the run, Celsius.
    pub peak_lower_c: f64,
    /// First simulated time the upper bound reaches the trip (the
    /// earliest a trip could possibly happen), if any.
    pub first_straddle_s: Option<f64>,
    /// First simulated time the lower bound reaches the trip (a trip is
    /// guaranteed by then), if any.
    pub first_guaranteed_s: Option<f64>,
    /// Whether the step-wise governor's abstract transition graph
    /// contains a throttle/release limit cycle (MPT604).
    pub limit_cycle: bool,
    /// Largest sustained total power, watts, whose steady state keeps
    /// every node below the trip — the platform's thermally-safe budget.
    pub sustained_budget_w: Option<f64>,
    /// Devices covered (1 for a plain scenario; the fleet size when the
    /// envelope absorbs `ParamJitter` ranges).
    pub devices: usize,
    /// Envelope length in ticks (10 ms steps).
    pub ticks: usize,
}

/// One campaign cell's verification verdict, in expansion order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellVerification {
    /// The cell's campaign label (axis summary).
    pub label: String,
    /// The cell's certified envelope verdict.
    pub summary: VerificationSummary,
}

/// The complete session report `run_scenario --report-out` writes: the
/// classic outcome plus the online analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// The scenario's source (file path or `"stdin"`).
    pub scenario: String,
    /// The classic scenario outcome.
    pub outcome: ScenarioOutcome,
    /// Derived observables, alerts and residency.
    #[serde(flatten)]
    pub analysis: SessionAnalysis,
    /// The static certifier's verdict when the run was started with
    /// `--verify`; `None` otherwise.
    #[serde(default)]
    pub verification: Option<VerificationSummary>,
}

impl SessionReport {
    /// Assembles a report from a run's two halves.
    #[must_use]
    pub fn new(
        scenario: impl Into<String>,
        outcome: ScenarioOutcome,
        analysis: SessionAnalysis,
    ) -> Self {
        Self {
            scenario: scenario.into(),
            outcome,
            analysis,
            verification: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{run_scenario_analyzed, ScenarioSpec};
    use mpt_obs::AlertRule;

    fn throttled_spec() -> ScenarioSpec {
        let json = r#"{
            "platform": "snapdragon810",
            "duration_s": 60.0,
            "initial_temperature_c": 35.0,
            "thermal": { "policy": "step_wise", "trips_c": [42.0, 45.0], "period_s": 1.0 },
            "alerts": [
                { "rule": "temp_above", "threshold_c": 41.0, "sustain_s": 2.0 },
                { "rule": "throttle_storm", "events": 3, "window_s": 30.0 }
            ],
            "workloads": [
                { "kind": "app", "name": "stickman_hook", "foreground": true, "seed": 7 }
            ]
        }"#;
        serde_json::from_str(json).expect("spec parses")
    }

    #[test]
    fn report_carries_derived_alerts_and_residency() {
        let spec = throttled_spec();
        let (outcome, analysis) = run_scenario_analyzed(&spec, None).expect("runs");
        assert_eq!(analysis.derived.trip_c, Some(42.0));
        assert!(analysis.derived.elapsed_s >= 60.0 - 1e-9);
        assert!(analysis.derived.peak_temp_c.is_some());
        assert!(
            !analysis.residency.is_empty(),
            "residency should cover the platform's components"
        );
        assert!(analysis.residency.iter().any(|r| r.component == "big"));
        for comp in &analysis.residency {
            let total: f64 = comp.states.iter().map(|s| s.share_pct).sum();
            assert!(
                total <= 100.0 + 1e-6,
                "{}: shares sum to {total}",
                comp.component
            );
        }
        let report = SessionReport::new("test.json", outcome, analysis);
        let json = serde_json::to_string_pretty(&report).expect("serializes");
        let back: SessionReport = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(report, back);
    }

    #[test]
    fn analysis_is_bit_identical_across_repeats() {
        let spec = throttled_spec();
        let (_, first) = run_scenario_analyzed(&spec, None).expect("runs");
        let (_, second) = run_scenario_analyzed(&spec, None).expect("runs");
        assert_eq!(first, second);
    }

    #[test]
    fn alert_counts_group_by_rule() {
        let analysis = SessionAnalysis {
            derived: DerivedSummary {
                elapsed_s: 1.0,
                peak_temp_c: None,
                trip_c: None,
                time_above_trip_s: 0.0,
                thermal_headroom_c: None,
                time_throttled_s: 0.0,
                throttle_events: 0,
                fps_mean_free: None,
                fps_mean_throttled: None,
                throttle_fps_loss: None,
                throttle_fps_loss_pct: None,
                temp_trend_c_per_s: 0.0,
                power_temp_coupling_w_per_c: 0.0,
                stability_margin_drift_c_per_s: None,
            },
            alerts: vec![
                AlertRecord {
                    rule: "temp_above".into(),
                    t_s: 1.0,
                    value: 43.0,
                    message: String::new(),
                },
                AlertRecord {
                    rule: "temp_above".into(),
                    t_s: 2.0,
                    value: 44.0,
                    message: String::new(),
                },
                AlertRecord {
                    rule: "fps_below".into(),
                    t_s: 3.0,
                    value: 12.0,
                    message: String::new(),
                },
            ],
            residency: Vec::new(),
        };
        let counts = analysis.alert_counts();
        assert_eq!(counts.get("temp_above"), Some(&2));
        assert_eq!(counts.get("fps_below"), Some(&1));
        assert_eq!(counts.get("runaway"), None);
    }

    #[test]
    fn alert_rule_spec_defaults_parse() {
        let spec: AlertRule = serde_json::from_str(r#"{ "rule": "runaway" }"#).unwrap();
        assert_eq!(
            spec,
            AlertRule::Runaway {
                window_s: 5.0,
                slope_c_per_s: 0.1
            }
        );
        let spec: AlertRule =
            serde_json::from_str(r#"{ "rule": "temp_above", "threshold_c": 40.0 }"#).unwrap();
        assert_eq!(
            spec,
            AlertRule::TempAbove {
                threshold_c: 40.0,
                sustain_s: 0.0
            }
        );
    }
}
