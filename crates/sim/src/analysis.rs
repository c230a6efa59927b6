//! Per-run online analysis: derived observables and alert rules.
//!
//! [`RunAnalysis`] is the simulator-side owner of the `mpt-obs` analyze
//! machinery: it folds every tick into a
//! [`DerivedTracker`](mpt_obs::DerivedTracker) and evaluates the
//! configured [`AlertRule`](mpt_obs::AlertRule)s, firing
//! [`EventKind::Alert`] events into the run's event log. The figure-style
//! temperature/power/frequency/FPS curves live in the telemetry frame,
//! which `--trace-out` renders as counter tracks.
//!
//! Everything here is driven by simulation time only, so derived
//! summaries and fired alerts are bit-identical across worker counts.

use mpt_obs::{
    Alert, AlertEngine, AlertRule, DerivedSummary, DerivedTracker, Recorder, TickSample,
};
use mpt_units::Seconds;

use crate::engine::log_event;
use crate::{Event, EventKind, EventLog};

/// The per-run analysis state held by the simulator core and advanced by
/// the `analyze` pipeline stage.
pub struct RunAnalysis {
    tracker: DerivedTracker,
    engine: AlertEngine,
    alerts: Vec<Alert>,
    /// Watermark into the event log: events at or past this index have
    /// not yet been scanned for throttle activity.
    pub(crate) events_seen: usize,
}

impl std::fmt::Debug for RunAnalysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunAnalysis")
            .field("trip_c", &self.tracker.trip_c())
            .field("alerts", &self.alerts.len())
            .finish()
    }
}

impl RunAnalysis {
    /// Creates the analysis state. `trip_c` is the thermal governor's
    /// reference (lowest trip or IPA control temperature) — `None` when
    /// throttling is disabled; `rules` is the declarative alert set.
    #[must_use]
    pub(crate) fn new(trip_c: Option<f64>, rules: Vec<AlertRule>) -> Self {
        Self {
            tracker: match trip_c {
                Some(t) => DerivedTracker::with_trip(t),
                None => DerivedTracker::new(),
            },
            engine: AlertEngine::new(rules),
            alerts: Vec::new(),
            events_seen: 0,
        }
    }

    /// Folds one tick: updates the derived tracker and evaluates alert
    /// rules, logging firings as [`EventKind::Alert`].
    pub(crate) fn observe_tick(
        &mut self,
        recorder: &Recorder,
        events: &mut EventLog,
        sample: &TickSample,
    ) {
        self.tracker.observe(sample);
        for alert in self.engine.observe(sample) {
            log_event(
                recorder,
                events,
                Event {
                    time: Seconds::new(alert.t_s),
                    kind: EventKind::Alert {
                        rule: alert.rule,
                        message: alert.message.clone(),
                    },
                },
            );
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let sim_us = (alert.t_s * 1e6).round().max(0.0) as u64;
            recorder.journal().emit(
                Some(sim_us),
                mpt_obs::journal::JournalKind::AlertFired {
                    rule: alert.rule.to_owned(),
                    message: alert.message.clone(),
                },
            );
            self.alerts.push(alert);
        }
        self.events_seen = events.len();
    }

    /// The derived summary over the run so far.
    #[must_use]
    pub fn summary(&self) -> DerivedSummary {
        self.tracker.summary()
    }

    /// Every alert fired so far, in firing order.
    #[must_use]
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// The trip reference used for time-above-trip and headroom, if one
    /// was configured.
    #[must_use]
    pub fn trip_c(&self) -> Option<f64> {
        self.tracker.trip_c()
    }

    /// Remaining seconds until the earliest armed alert sustain deadline
    /// (see [`AlertEngine::next_deadline`]); `None` when no sustain rule
    /// is mid-episode.
    #[must_use]
    pub fn next_alert_deadline_s(&self) -> Option<f64> {
        self.engine.next_deadline()
    }

    /// Every temperature threshold the analysis is watching: `temp_above`
    /// rule thresholds plus the trip reference. The event engine
    /// bisects the LTI trajectory against these so a macro step never
    /// jumps across a crossing.
    #[must_use]
    pub fn temp_thresholds(&self) -> Vec<f64> {
        let mut thresholds = self.engine.temp_thresholds();
        if let Some(trip) = self.tracker.trip_c() {
            thresholds.push(trip);
        }
        thresholds
    }
}
