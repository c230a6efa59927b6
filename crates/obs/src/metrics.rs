//! Pre-registered counters with stable names and ids.
//!
//! Counters are the *deterministic* half of the recorder: every increment
//! corresponds to a simulated event (a throttle action, a migration, a
//! sysfs write), never to wall-clock behaviour, so totals are
//! bit-identical across runs and worker counts. Ids are fixed at compile
//! time — the hot path is one atomic add into a fixed slot, with no
//! lookup and no allocation.

/// A pre-registered counter.
///
/// The discriminant is the counter's slot index; [`Counter::name`] is its
/// stable Prometheus-style name. Both are part of the observability
/// contract (golden-tested), so new counters must be appended, never
/// reordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Counter {
    /// Simulator ticks executed.
    Ticks,
    /// Pipeline stage executions (ticks × stages).
    StageRuns,
    /// Thermal-governor throttle actions applied (`SetMaxFreq`, incl.
    /// repeats of the same cap).
    ThrottleEvents,
    /// Cap-state transitions between uncapped and capped — the simulator's
    /// view of a trip point being crossed (either direction).
    TripCrossings,
    /// cpufreq governor frequency changes (any component, any direction).
    GovernorFreqChanges,
    /// Control writes the simulator core makes to the sysfs control plane
    /// (the thermal governor's frequency caps).
    SysfsWrites,
    /// `cap_changed` events (includes cap-level moves while throttled).
    CapChanges,
    /// `migration` events (cluster moves, whatever initiated them).
    Migrations,
    /// `workload_finished` events.
    WorkloadsFinished,
    /// Campaign cells completed.
    CellsCompleted,
    /// Spans dropped because the span buffer hit its cap.
    SpansDropped,
    /// `alert` events — alert rules fired by the analyze stage.
    AlertsFired,
    /// Thermal-solver transition-matrix cache hits (a simulator reused a
    /// discretization another cell already built).
    SolverCacheHits,
    /// Thermal-solver transition-matrix cache builds (discretizations
    /// actually factored).
    SolverCacheBuilds,
    /// Forward-Euler substeps the exact-LTI solver made unnecessary
    /// (what the stability bound would have forced, minus the one
    /// mat-vec actually taken).
    SolverSubstepsAvoided,
    /// Static-analysis checks executed by `mpt-lint` (one per analysis
    /// target: a platform model, a config file, a source file).
    LintChecksRun,
    /// Diagnostics emitted by `mpt-lint` (errors and warnings).
    LintDiagnostics,
    /// Wake events popped off the event-driven engine's queue (one per
    /// macro pass that consumed a scheduled wake).
    EventsPopped,
    /// Queued wakes absorbed into an already-running macro pass instead
    /// of waking the engine separately (lands due to the base-dt grid
    /// quantization of wake times).
    WakesCoalesced,
    /// Bisection iterations spent refining trip-crossing wake times on
    /// the analytic thermal trajectory.
    TripBisectionIters,
    /// Fleet device-ticks stepped by the batched solver (devices × ticks
    /// — the unit the fleet throughput benchmarks report per second).
    DeviceTicks,
}

impl Counter {
    /// Every counter, in slot order.
    pub const ALL: [Counter; 21] = [
        Counter::Ticks,
        Counter::StageRuns,
        Counter::ThrottleEvents,
        Counter::TripCrossings,
        Counter::GovernorFreqChanges,
        Counter::SysfsWrites,
        Counter::CapChanges,
        Counter::Migrations,
        Counter::WorkloadsFinished,
        Counter::CellsCompleted,
        Counter::SpansDropped,
        Counter::AlertsFired,
        Counter::SolverCacheHits,
        Counter::SolverCacheBuilds,
        Counter::SolverSubstepsAvoided,
        Counter::LintChecksRun,
        Counter::LintDiagnostics,
        Counter::EventsPopped,
        Counter::WakesCoalesced,
        Counter::TripBisectionIters,
        Counter::DeviceTicks,
    ];

    /// Number of counter slots.
    pub const COUNT: usize = Counter::ALL.len();

    /// The counter's slot index.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The stable exposition name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::Ticks => "mpt_ticks_total",
            Counter::StageRuns => "mpt_stage_runs_total",
            Counter::ThrottleEvents => "mpt_throttle_events_total",
            Counter::TripCrossings => "mpt_trip_crossings_total",
            Counter::GovernorFreqChanges => "mpt_governor_freq_changes_total",
            Counter::SysfsWrites => "mpt_sysfs_writes_total",
            Counter::CapChanges => "mpt_events_cap_changed_total",
            Counter::Migrations => "mpt_events_migration_total",
            Counter::WorkloadsFinished => "mpt_events_workload_finished_total",
            Counter::CellsCompleted => "mpt_cells_completed_total",
            Counter::SpansDropped => "mpt_spans_dropped_total",
            Counter::AlertsFired => "mpt_alerts_fired_total",
            Counter::SolverCacheHits => "mpt_solver_cache_hits_total",
            Counter::SolverCacheBuilds => "mpt_solver_cache_builds_total",
            Counter::SolverSubstepsAvoided => "mpt_solver_substeps_avoided_total",
            Counter::LintChecksRun => "mpt_lint_checks_total",
            Counter::LintDiagnostics => "mpt_lint_diagnostics_total",
            Counter::EventsPopped => "mpt_engine_events_popped_total",
            Counter::WakesCoalesced => "mpt_engine_wakes_coalesced_total",
            Counter::TripBisectionIters => "mpt_engine_trip_bisection_iters_total",
            Counter::DeviceTicks => "mpt_fleet_device_ticks_total",
        }
    }

    /// One-line description for the Prometheus `# HELP` exposition.
    #[must_use]
    pub fn help(self) -> &'static str {
        match self {
            Counter::Ticks => "Simulator ticks executed.",
            Counter::StageRuns => "Pipeline stage executions (ticks x stages).",
            Counter::ThrottleEvents => {
                "Thermal-governor throttle actions applied, including repeated caps."
            }
            Counter::TripCrossings => {
                "Cap-state transitions between uncapped and capped (trip crossings)."
            }
            Counter::GovernorFreqChanges => "cpufreq governor frequency changes.",
            Counter::SysfsWrites => "Writes against the sysfs control plane.",
            Counter::CapChanges => "cap_changed events, including cap-level moves.",
            Counter::Migrations => "migration events (cluster moves).",
            Counter::WorkloadsFinished => "workload_finished events.",
            Counter::CellsCompleted => "Campaign cells completed.",
            Counter::SpansDropped => "Spans dropped at the span-buffer cap.",
            Counter::AlertsFired => "Alert-rule firings recorded by the analyze stage.",
            Counter::SolverCacheHits => "Thermal-solver transition-matrix cache hits.",
            Counter::SolverCacheBuilds => "Thermal-solver transition-matrix cache builds.",
            Counter::SolverSubstepsAvoided => {
                "Forward-Euler substeps avoided by the exact-LTI solver."
            }
            Counter::LintChecksRun => "Static-analysis checks executed by mpt-lint.",
            Counter::LintDiagnostics => "Diagnostics emitted by mpt-lint (errors and warnings).",
            Counter::EventsPopped => "Wake events popped off the event-driven engine's queue.",
            Counter::WakesCoalesced => "Queued wakes absorbed into an already-running macro pass.",
            Counter::TripBisectionIters => {
                "Bisection iterations refining trip-crossing wake times."
            }
            Counter::DeviceTicks => "Fleet device-ticks stepped by the batched solver.",
        }
    }

    /// Looks up the `# HELP` text for a counter by its exposition name,
    /// for exporters that only carry `(name, value)` pairs.
    #[must_use]
    pub fn help_for_name(name: &str) -> Option<&'static str> {
        Counter::ALL
            .iter()
            .find(|c| c.name() == name)
            .map(|c| c.help())
    }

    /// Maps a discrete-event kind key (as produced by the simulator's
    /// event log) to its counter, if one exists. This is the single
    /// source of the event-to-counter semantics shared by the event log's
    /// rendering and the metrics snapshot.
    #[must_use]
    pub fn for_event_kind(key: &str) -> Option<Counter> {
        match key {
            "migration" => Some(Counter::Migrations),
            "cap_changed" => Some(Counter::CapChanges),
            "workload_finished" => Some(Counter::WorkloadsFinished),
            "alert" => Some(Counter::AlertsFired),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
    }

    #[test]
    fn every_counter_has_help() {
        for c in Counter::ALL {
            assert!(!c.help().is_empty());
            assert_eq!(Counter::help_for_name(c.name()), Some(c.help()));
        }
        assert_eq!(Counter::help_for_name("no_such"), None);
    }

    #[test]
    fn event_kind_mapping() {
        assert_eq!(
            Counter::for_event_kind("migration"),
            Some(Counter::Migrations)
        );
        assert_eq!(Counter::for_event_kind("nope"), None);
    }
}
