//! Online derived observables and the alert-rule engine.
//!
//! This module computes the paper's headline metrics *while the run is in
//! flight*, from a per-tick [`TickSample`] stream: time above the trip
//! reference, throttle-attributed FPS loss (mean FPS inside vs. outside
//! throttle windows), thermal headroom, and the temperature-trend /
//! power–temperature-coupling slopes behind the stability-margin analysis
//! of Bhat et al. Everything is pure `f64` accumulator arithmetic driven
//! only by simulation time — no wall clock, no allocation per tick beyond
//! the alert log — so results are bit-identical across worker counts.
//!
//! [`AlertEngine`] evaluates declarative [`AlertRule`]s against the same
//! stream. Sustain-style rules (`temp_above`, `fps_below`) arm when their
//! predicate holds, fire once the condition has held for `sustain_s`, and
//! re-arm only after the predicate clears — one alert per sustained
//! episode, not one per tick. Windowed rules (`throttle_storm`,
//! `runaway`) evaluate over a trailing simulation-time window.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// One per-tick observation handed to the tracker and the alert engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickSample {
    /// Simulation time at the *end* of the tick, seconds.
    pub t_s: f64,
    /// Tick length, seconds.
    pub dt_s: f64,
    /// Control temperature (the thermal governor's input), °C.
    pub temp_c: f64,
    /// Total platform power this tick, W.
    pub power_w: f64,
    /// Frame rate of the foreground pipeline, if any workload reports one.
    pub fps: Option<f64>,
    /// Whether any component was frequency-capped during this tick.
    pub throttled: bool,
    /// Throttle-related events (cap changes) logged during this tick.
    pub throttle_events: u64,
}

/// Linear-regression accumulator: slope of `y` against `x` over every
/// sample seen (the classic closed form, online).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct SlopeAcc {
    n: f64,
    sum_x: f64,
    sum_y: f64,
    sum_xx: f64,
    sum_xy: f64,
}

impl SlopeAcc {
    fn push(&mut self, x: f64, y: f64) {
        self.n += 1.0;
        self.sum_x += x;
        self.sum_y += y;
        self.sum_xx += x * x;
        self.sum_xy += x * y;
    }

    fn slope(&self) -> f64 {
        if self.n < 2.0 {
            return 0.0;
        }
        let denom = self.n * self.sum_xx - self.sum_x * self.sum_x;
        if denom.abs() < f64::EPSILON {
            return 0.0;
        }
        (self.n * self.sum_xy - self.sum_x * self.sum_y) / denom
    }
}

/// Tracker for the derived per-run observables: online accumulators of
/// constant size, whatever the run length.
#[derive(Debug, Clone, Default)]
pub struct DerivedTracker {
    /// Trip reference, °C: the lowest thermal-governor trip (step-wise)
    /// or the IPA control temperature. `None` when throttling is
    /// disabled — time-above-trip and headroom are then undefined.
    trip_c: Option<f64>,
    elapsed_s: f64,
    peak_temp_c: Option<f64>,
    /// Sum of `dt` over the ticks whose control temperature was strictly
    /// above the trip reference (zero without one).
    time_above_trip_s: f64,
    time_throttled_s: f64,
    throttle_events: u64,
    // FPS-seconds and seconds, split by throttle state. Weighting by dt
    // keeps the means exact under variable decimation.
    fps_weight_throttled: f64,
    fps_sum_throttled: f64,
    fps_weight_free: f64,
    fps_sum_free: f64,
    temp_trend: SlopeAcc,
    power_coupling: SlopeAcc,
}

impl DerivedTracker {
    /// A tracker with no trip reference (throttling disabled).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A tracker computing time-above-trip and headroom against `trip_c`.
    #[must_use]
    pub fn with_trip(trip_c: f64) -> Self {
        Self {
            trip_c: Some(trip_c),
            ..Self::default()
        }
    }

    /// The trip reference, if one was configured.
    #[must_use]
    pub fn trip_c(&self) -> Option<f64> {
        self.trip_c
    }

    /// Folds one tick into the accumulators.
    pub fn observe(&mut self, s: &TickSample) {
        self.elapsed_s = s.t_s;
        self.peak_temp_c = Some(match self.peak_temp_c {
            Some(p) if p >= s.temp_c => p,
            _ => s.temp_c,
        });
        if self.trip_c.is_some_and(|trip| s.temp_c > trip) {
            self.time_above_trip_s += s.dt_s;
        }
        if s.throttled {
            self.time_throttled_s += s.dt_s;
        }
        self.throttle_events += s.throttle_events;
        if let Some(fps) = s.fps {
            if s.throttled {
                self.fps_weight_throttled += s.dt_s;
                self.fps_sum_throttled += fps * s.dt_s;
            } else {
                self.fps_weight_free += s.dt_s;
                self.fps_sum_free += fps * s.dt_s;
            }
        }
        self.temp_trend.push(s.t_s, s.temp_c);
        self.power_coupling.push(s.temp_c, s.power_w);
    }

    /// The derived summary over everything observed so far.
    #[must_use]
    pub fn summary(&self) -> DerivedSummary {
        let mean = |sum: f64, weight: f64| {
            if weight > 0.0 {
                Some(sum / weight)
            } else {
                None
            }
        };
        let fps_mean_throttled = mean(self.fps_sum_throttled, self.fps_weight_throttled);
        let fps_mean_free = mean(self.fps_sum_free, self.fps_weight_free);
        let (fps_loss, fps_loss_pct) = match (fps_mean_free, fps_mean_throttled) {
            (Some(free), Some(thr)) => {
                let loss = free - thr;
                let pct = if free.abs() > f64::EPSILON {
                    Some(loss / free * 100.0)
                } else {
                    None
                };
                (Some(loss), pct)
            }
            _ => (None, None),
        };
        let trend = self.temp_trend.slope();
        DerivedSummary {
            elapsed_s: self.elapsed_s,
            peak_temp_c: self.peak_temp_c,
            trip_c: self.trip_c,
            time_above_trip_s: self.time_above_trip_s,
            thermal_headroom_c: match (self.trip_c, self.peak_temp_c) {
                (Some(trip), Some(peak)) => Some(trip - peak),
                _ => None,
            },
            time_throttled_s: self.time_throttled_s,
            throttle_events: self.throttle_events,
            fps_mean_free,
            fps_mean_throttled,
            throttle_fps_loss: fps_loss,
            throttle_fps_loss_pct: fps_loss_pct,
            temp_trend_c_per_s: trend,
            power_temp_coupling_w_per_c: self.power_coupling.slope(),
            stability_margin_drift_c_per_s: self.trip_c.map(|_| -trend),
        }
    }
}

/// The derived per-run observables — the paper's headline metrics, as
/// the session report serializes them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DerivedSummary {
    /// Simulation time covered, seconds.
    pub elapsed_s: f64,
    /// Peak control temperature, °C (`None` if no ticks were observed).
    pub peak_temp_c: Option<f64>,
    /// Trip reference, °C, if throttling was configured.
    pub trip_c: Option<f64>,
    /// Simulated seconds spent with the control temperature above the
    /// trip reference.
    pub time_above_trip_s: f64,
    /// `trip - peak` °C: positive means the run never reached the trip.
    pub thermal_headroom_c: Option<f64>,
    /// Simulated seconds spent with at least one component capped.
    pub time_throttled_s: f64,
    /// Total throttle-related events.
    pub throttle_events: u64,
    /// dt-weighted mean FPS outside throttle windows.
    pub fps_mean_free: Option<f64>,
    /// dt-weighted mean FPS inside throttle windows.
    pub fps_mean_throttled: Option<f64>,
    /// `fps_mean_free - fps_mean_throttled`: the throttle-attributed FPS
    /// loss (needs samples on both sides).
    pub throttle_fps_loss: Option<f64>,
    /// The FPS loss as a percentage of the un-throttled mean.
    pub throttle_fps_loss_pct: Option<f64>,
    /// Least-squares temperature slope over the whole run, °C/s.
    pub temp_trend_c_per_s: f64,
    /// Least-squares power-vs-temperature slope, W/°C — the coupling the
    /// stability analysis bounds.
    pub power_temp_coupling_w_per_c: f64,
    /// `-temp_trend` when a trip is configured: how fast the margin to
    /// the trip is growing (positive) or eroding (negative).
    pub stability_margin_drift_c_per_s: Option<f64>,
}

/// A declarative alert rule, evaluated per tick against the
/// [`TickSample`] stream. Scenario JSON and `--alerts` files carry rules
/// in this shape, tagged by `"rule"`; firings land in the event log
/// (`ALERT <rule>: ...`) and in the session report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "rule", rename_all = "snake_case")]
pub enum AlertRule {
    /// Control temperature above `threshold_c` for at least `sustain_s`
    /// consecutive simulated seconds.
    TempAbove {
        /// Temperature threshold, °C.
        threshold_c: f64,
        /// Required consecutive time above threshold, seconds.
        #[serde(default)]
        sustain_s: f64,
    },
    /// FPS below `target` for at least `sustain_s` consecutive simulated
    /// seconds (ticks without an FPS reading don't count either way).
    FpsBelow {
        /// FPS floor.
        target: f64,
        /// Required consecutive time below target, seconds.
        #[serde(default)]
        sustain_s: f64,
    },
    /// At least `events` throttle events within any trailing `window_s`.
    ThrottleStorm {
        /// Event count threshold.
        events: u64,
        /// Trailing window length, seconds.
        window_s: f64,
    },
    /// Thermal runaway: temperature rising faster than `slope_c_per_s`
    /// over the trailing `window_s` while already throttled — throttling
    /// is engaged and losing.
    Runaway {
        /// Trailing window length, seconds.
        #[serde(default = "default_runaway_window")]
        window_s: f64,
        /// Minimum sustained heating rate, °C/s.
        #[serde(default = "default_runaway_slope")]
        slope_c_per_s: f64,
    },
}

fn default_runaway_window() -> f64 {
    5.0
}

fn default_runaway_slope() -> f64 {
    0.1
}

impl AlertRule {
    /// The rule's stable key, used in alert records and event logs.
    #[must_use]
    pub fn key(&self) -> &'static str {
        match self {
            AlertRule::TempAbove { .. } => "temp_above",
            AlertRule::FpsBelow { .. } => "fps_below",
            AlertRule::ThrottleStorm { .. } => "throttle_storm",
            AlertRule::Runaway { .. } => "runaway",
        }
    }
}

/// One fired alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// The firing rule's key (`"temp_above"`, ...).
    pub rule: &'static str,
    /// Simulation time of the firing, seconds.
    pub t_s: f64,
    /// The observed value that fired the rule (temperature, FPS, event
    /// count or slope, per rule).
    pub value: f64,
    /// Human-readable one-liner.
    pub message: String,
}

/// Per-rule evaluation state.
#[derive(Debug, Clone)]
enum RuleState {
    /// Sustain rules: how long the predicate has held, and whether the
    /// current episode already fired.
    Sustain { held_s: f64, fired: bool },
    /// Windowed event-count rules: firing times of recent events.
    Window {
        times: VecDeque<(f64, u64)>,
        fired: bool,
    },
    /// Runaway: trailing `(t, temp)` samples.
    Trail {
        samples: VecDeque<(f64, f64)>,
        fired: bool,
    },
}

/// Evaluates a fixed rule set against the per-tick sample stream.
#[derive(Debug, Clone, Default)]
pub struct AlertEngine {
    rules: Vec<(AlertRule, RuleState)>,
}

impl AlertEngine {
    /// An engine evaluating `rules` (an empty set is valid and cheap).
    #[must_use]
    pub fn new(rules: Vec<AlertRule>) -> Self {
        let rules = rules
            .into_iter()
            .map(|r| {
                let state = match &r {
                    AlertRule::TempAbove { .. } | AlertRule::FpsBelow { .. } => {
                        RuleState::Sustain {
                            held_s: 0.0,
                            fired: false,
                        }
                    }
                    AlertRule::ThrottleStorm { .. } => RuleState::Window {
                        times: VecDeque::new(),
                        fired: false,
                    },
                    AlertRule::Runaway { .. } => RuleState::Trail {
                        samples: VecDeque::new(),
                        fired: false,
                    },
                };
                (r, state)
            })
            .collect();
        Self { rules }
    }

    /// Whether any rules are installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Remaining simulated seconds until the earliest *armed* sustain
    /// deadline would fire: a sustain rule is armed when its predicate
    /// has held for part of an episode (`held_s > 0`) that has not fired
    /// yet. `None` when no sustain rule is mid-episode — the event-driven
    /// engine then has no alert deadline to schedule.
    #[must_use]
    pub fn next_deadline(&self) -> Option<f64> {
        self.rules
            .iter()
            .filter_map(|(rule, state)| {
                let sustain_s = match rule {
                    AlertRule::TempAbove { sustain_s, .. }
                    | AlertRule::FpsBelow { sustain_s, .. } => *sustain_s,
                    _ => return None,
                };
                match state {
                    RuleState::Sustain { held_s, fired } if *held_s > 0.0 && !fired => {
                        Some((sustain_s - held_s).max(0.0))
                    }
                    _ => None,
                }
            })
            .fold(None, |acc: Option<f64>, r| {
                Some(acc.map_or(r, |a| a.min(r)))
            })
    }

    /// The temperature thresholds watched by `temp_above` rules — the
    /// crossings the event-driven engine predicts from the LTI
    /// trajectory so a macro step never glides past an arming boundary.
    #[must_use]
    pub fn temp_thresholds(&self) -> Vec<f64> {
        self.rules
            .iter()
            .filter_map(|(rule, _)| match rule {
                AlertRule::TempAbove { threshold_c, .. } => Some(*threshold_c),
                _ => None,
            })
            .collect()
    }

    /// Evaluates every rule against one tick; returns the alerts that
    /// fire on this tick (usually none).
    pub fn observe(&mut self, s: &TickSample) -> Vec<Alert> {
        let mut fired = Vec::new();
        for (rule, state) in &mut self.rules {
            match (rule, state) {
                (
                    AlertRule::TempAbove {
                        threshold_c,
                        sustain_s,
                    },
                    RuleState::Sustain { held_s, fired: f },
                ) => {
                    if s.temp_c > *threshold_c {
                        *held_s += s.dt_s;
                        if !*f && *held_s >= *sustain_s {
                            *f = true;
                            fired.push(Alert {
                                rule: "temp_above",
                                t_s: s.t_s,
                                value: s.temp_c,
                                message: format!(
                                    "temp {:.2} C above {:.2} C for {:.2} s",
                                    s.temp_c, threshold_c, held_s
                                ),
                            });
                        }
                    } else {
                        *held_s = 0.0;
                        *f = false;
                    }
                }
                (
                    AlertRule::FpsBelow { target, sustain_s },
                    RuleState::Sustain { held_s, fired: f },
                ) => {
                    // Ticks without an FPS reading leave the state alone:
                    // a pipeline warming up is neither below nor above.
                    if let Some(fps) = s.fps {
                        if fps < *target {
                            *held_s += s.dt_s;
                            if !*f && *held_s >= *sustain_s {
                                *f = true;
                                fired.push(Alert {
                                    rule: "fps_below",
                                    t_s: s.t_s,
                                    value: fps,
                                    message: format!(
                                        "fps {fps:.1} below target {target:.1} for {held_s:.2} s"
                                    ),
                                });
                            }
                        } else {
                            *held_s = 0.0;
                            *f = false;
                        }
                    }
                }
                (
                    AlertRule::ThrottleStorm { events, window_s },
                    RuleState::Window { times, fired: f },
                ) => {
                    if s.throttle_events > 0 {
                        times.push_back((s.t_s, s.throttle_events));
                    }
                    while times.front().is_some_and(|&(t, _)| t < s.t_s - *window_s) {
                        times.pop_front();
                    }
                    let in_window: u64 = times.iter().map(|&(_, n)| n).sum();
                    if in_window >= *events {
                        if !*f {
                            *f = true;
                            fired.push(Alert {
                                rule: "throttle_storm",
                                t_s: s.t_s,
                                value: in_window as f64,
                                message: format!(
                                    "{in_window} throttle events within {window_s:.1} s"
                                ),
                            });
                        }
                    } else {
                        *f = false;
                    }
                }
                (
                    AlertRule::Runaway {
                        window_s,
                        slope_c_per_s,
                    },
                    RuleState::Trail { samples, fired: f },
                ) => {
                    samples.push_back((s.t_s, s.temp_c));
                    while samples.front().is_some_and(|&(t, _)| t < s.t_s - *window_s) {
                        samples.pop_front();
                    }
                    let full_window = samples
                        .front()
                        .is_some_and(|&(t, _)| s.t_s - t >= *window_s * 0.9);
                    let slope = match (samples.front(), samples.back()) {
                        (Some(&(t0, y0)), Some(&(t1, y1))) if t1 > t0 => (y1 - y0) / (t1 - t0),
                        _ => 0.0,
                    };
                    if full_window && s.throttled && slope >= *slope_c_per_s {
                        if !*f {
                            *f = true;
                            fired.push(Alert {
                                rule: "runaway",
                                t_s: s.t_s,
                                value: slope,
                                message: format!(
                                    "temp rising {slope:.3} C/s over {window_s:.1} s while throttled"
                                ),
                            });
                        }
                    } else {
                        *f = false;
                    }
                }
                _ => unreachable!("rule/state pairing fixed at construction"),
            }
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(t_s: f64, temp_c: f64) -> TickSample {
        TickSample {
            t_s,
            dt_s: 0.1,
            temp_c,
            power_w: 2.0,
            fps: None,
            throttled: false,
            throttle_events: 0,
        }
    }

    #[test]
    fn tracker_accumulates_basics() {
        let mut tr = DerivedTracker::with_trip(41.0);
        for i in 1..=100 {
            let t = i as f64 * 0.1;
            let mut s = tick(t, 39.0 + t); // 39.1 .. 49.0
            s.throttled = s.temp_c > 41.0;
            tr.observe(&s);
        }
        let d = tr.summary();
        assert_eq!(d.trip_c, Some(41.0));
        assert!((d.elapsed_s - 10.0).abs() < 1e-9);
        assert!((d.peak_temp_c.unwrap() - 49.0).abs() < 1e-9);
        // temp crosses 41.0 at t=2.0; ~80 of 100 ticks above.
        assert!((d.time_above_trip_s - 8.0).abs() < 0.15);
        assert!((d.time_throttled_s - 8.0).abs() < 0.15);
        assert!((d.thermal_headroom_c.unwrap() - (41.0 - 49.0)).abs() < 1e-9);
        // Temperature rises 1 °C per second.
        assert!((d.temp_trend_c_per_s - 1.0).abs() < 1e-6);
        assert!((d.stability_margin_drift_c_per_s.unwrap() + 1.0).abs() < 1e-6);
    }

    #[test]
    fn tracker_fps_split_by_throttle_state() {
        let mut tr = DerivedTracker::new();
        for i in 1..=40 {
            let throttled = i > 20;
            let mut s = tick(i as f64 * 0.1, 40.0);
            s.throttled = throttled;
            s.fps = Some(if throttled { 40.0 } else { 60.0 });
            tr.observe(&s);
        }
        let d = tr.summary();
        assert!((d.fps_mean_free.unwrap() - 60.0).abs() < 1e-9);
        assert!((d.fps_mean_throttled.unwrap() - 40.0).abs() < 1e-9);
        assert!((d.throttle_fps_loss.unwrap() - 20.0).abs() < 1e-9);
        assert!((d.throttle_fps_loss_pct.unwrap() - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_tracker_summary_is_all_absent() {
        let d = DerivedTracker::new().summary();
        assert_eq!(d.peak_temp_c, None);
        assert_eq!(d.thermal_headroom_c, None);
        assert_eq!(d.throttle_fps_loss, None);
        assert_eq!(d.stability_margin_drift_c_per_s, None);
        assert_eq!(d.temp_trend_c_per_s, 0.0);
    }

    #[test]
    fn temp_above_fires_once_per_episode() {
        let mut eng = AlertEngine::new(vec![AlertRule::TempAbove {
            threshold_c: 41.0,
            sustain_s: 0.5,
        }]);
        let mut alerts = Vec::new();
        // Hot for 1 s, cool for 1 s, hot again for 1 s.
        for i in 1..=30 {
            let t = i as f64 * 0.1;
            let temp = if (10..20).contains(&i) { 39.0 } else { 42.0 };
            alerts.extend(eng.observe(&tick(t, temp)));
        }
        assert_eq!(alerts.len(), 2, "one alert per sustained episode");
        assert!(alerts.iter().all(|a| a.rule == "temp_above"));
        assert!(alerts[0].t_s < 1.0 && alerts[1].t_s > 2.0);
    }

    #[test]
    fn temp_above_needs_sustain() {
        let mut eng = AlertEngine::new(vec![AlertRule::TempAbove {
            threshold_c: 41.0,
            sustain_s: 5.0,
        }]);
        for i in 1..=30 {
            assert!(eng.observe(&tick(i as f64 * 0.1, 42.0)).is_empty());
        }
    }

    #[test]
    fn fps_below_ignores_missing_fps() {
        let mut eng = AlertEngine::new(vec![AlertRule::FpsBelow {
            target: 55.0,
            sustain_s: 0.3,
        }]);
        let mut alerts = Vec::new();
        for i in 1..=10 {
            let mut s = tick(i as f64 * 0.1, 40.0);
            // FPS only present on every second tick; below target.
            s.fps = if i % 2 == 0 { Some(30.0) } else { None };
            alerts.extend(eng.observe(&s));
        }
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "fps_below");
    }

    #[test]
    fn throttle_storm_counts_window() {
        let mut eng = AlertEngine::new(vec![AlertRule::ThrottleStorm {
            events: 5,
            window_s: 1.0,
        }]);
        let mut alerts = Vec::new();
        for i in 1..=30 {
            let mut s = tick(i as f64 * 0.1, 42.0);
            // A burst of events between t=1.0 and t=1.5.
            s.throttle_events = if (10..15).contains(&i) { 1 } else { 0 };
            alerts.extend(eng.observe(&s));
        }
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "throttle_storm");
        assert!((alerts[0].value - 5.0).abs() < 1e-9);
    }

    #[test]
    fn runaway_requires_throttled_and_slope() {
        let rule = AlertRule::Runaway {
            window_s: 1.0,
            slope_c_per_s: 0.5,
        };
        // Rising fast but never throttled: no alert.
        let mut eng = AlertEngine::new(vec![rule.clone()]);
        for i in 1..=30 {
            let t = i as f64 * 0.1;
            assert!(eng.observe(&tick(t, 35.0 + t)).is_empty());
        }
        // Rising fast while throttled: fires.
        let mut eng = AlertEngine::new(vec![rule]);
        let mut alerts = Vec::new();
        for i in 1..=30 {
            let t = i as f64 * 0.1;
            let mut s = tick(t, 35.0 + t);
            s.throttled = true;
            alerts.extend(eng.observe(&s));
        }
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "runaway");
    }

    #[test]
    fn columnar_time_above_trip_matches_online_accumulation() {
        let mut tracker = DerivedTracker::with_trip(40.0);
        let mut online = 0.0;
        for i in 0..500 {
            // Every 50th tick sits exactly on the trip, which is not
            // "above" it.
            let temp_c = if i % 50 == 0 {
                40.0
            } else {
                35.0 + 10.0 * ((i as f64) * 0.11).sin()
            };
            let dt_s = 0.001 + (i as f64) * 1e-6;
            if temp_c > 40.0 {
                online += dt_s;
            }
            tracker.observe(&TickSample {
                t_s: i as f64 * 0.001,
                dt_s,
                temp_c,
                power_w: 1.0,
                fps: None,
                throttled: false,
                throttle_events: 0,
            });
        }
        // Bit-identical, not approximately equal: the tracker performs
        // the same additions in the same order.
        assert_eq!(
            tracker.summary().time_above_trip_s.to_bits(),
            online.to_bits()
        );
    }

    #[test]
    fn time_above_trip_kernel_basics() {
        let above = |ticks: &[(f64, f64)]| {
            let mut tracker = DerivedTracker::with_trip(40.0);
            for &(dt_s, temp_c) in ticks {
                let mut s = tick(0.0, temp_c);
                s.dt_s = dt_s;
                tracker.observe(&s);
            }
            tracker.summary().time_above_trip_s
        };
        assert_eq!(above(&[]), 0.0);
        assert_eq!(above(&[(1.0, 39.0), (2.0, 41.0), (4.0, 40.0)]), 2.0);
        // Without a trip reference nothing counts as above it.
        let mut untripped = DerivedTracker::new();
        untripped.observe(&tick(0.0, 99.0));
        assert_eq!(untripped.summary().time_above_trip_s, 0.0);
    }

    #[test]
    fn rule_keys() {
        assert_eq!(
            AlertRule::TempAbove {
                threshold_c: 0.0,
                sustain_s: 0.0
            }
            .key(),
            "temp_above"
        );
        assert_eq!(
            AlertRule::Runaway {
                window_s: 1.0,
                slope_c_per_s: 0.1
            }
            .key(),
            "runaway"
        );
    }
}
