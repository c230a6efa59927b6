//! Discrete event log: the "annotations" of a run.
//!
//! Temperature traces tell you *what* happened; the event log tells you
//! *why* — when the thermal governor capped a component, when a process
//! was migrated between clusters, when a benchmark finished. The
//! experiment drivers use it to report, e.g., "BML migrated at 1.1 s".

use mpt_kernel::Pid;
use mpt_soc::ComponentId;
use mpt_units::{Hertz, Seconds};

/// What happened.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EventKind {
    /// A process moved between CPU clusters (by the system policy, a
    /// cpuset write, or any other path).
    Migration {
        /// The moved process.
        pid: Pid,
        /// Its name.
        name: String,
        /// Where it ran before.
        from: ComponentId,
        /// Where it runs now.
        to: ComponentId,
    },
    /// A component's maximum-frequency cap changed (`None` = uncapped).
    CapChanged {
        /// The governed component.
        component: ComponentId,
        /// The new cap.
        cap: Option<Hertz>,
    },
    /// A workload reported completion.
    WorkloadFinished {
        /// The finished process.
        pid: Pid,
        /// Its name.
        name: String,
    },
    /// An alert rule fired (the online analyze stage).
    Alert {
        /// The rule's stable key (`"temp_above"`, `"fps_below"`, ...).
        rule: &'static str,
        /// Human-readable description of what fired.
        message: String,
    },
}

impl EventKind {
    /// The kind's stable key — the grouping used by
    /// [`EventLog::counts_by_kind`], the rendered summary line, and the
    /// metrics counters (`mpt_events_<key>_total`).
    #[must_use]
    pub(crate) fn key(&self) -> &'static str {
        match self {
            EventKind::Migration { .. } => "migration",
            EventKind::CapChanged { .. } => "cap_changed",
            EventKind::WorkloadFinished { .. } => "workload_finished",
            EventKind::Alert { .. } => "alert",
        }
    }
}

/// A timestamped event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// When it happened (simulation time).
    pub time: Seconds,
    /// What happened.
    pub kind: EventKind,
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:8.2} s] ", self.time.value())?;
        match &self.kind {
            EventKind::Migration { name, from, to, .. } => {
                write!(f, "migrated {name:?} {from} -> {to}")
            }
            EventKind::CapChanged {
                component,
                cap: Some(freq),
            } => {
                write!(f, "capped {component} at {freq}")
            }
            EventKind::CapChanged {
                component,
                cap: None,
            } => {
                write!(f, "uncapped {component}")
            }
            EventKind::WorkloadFinished { name, .. } => write!(f, "{name:?} finished"),
            EventKind::Alert { rule, message } => write!(f, "ALERT {rule}: {message}"),
        }
    }
}

/// An append-only event log.
///
/// # Examples
///
/// ```
/// use mpt_sim::events::{Event, EventKind, EventLog};
/// use mpt_kernel::Pid;
/// use mpt_soc::ComponentId;
/// use mpt_units::Seconds;
///
/// let mut log = EventLog::new();
/// log.push(Event {
///     time: Seconds::new(1.1),
///     kind: EventKind::Migration {
///         pid: Pid::new(3),
///         name: "bml".into(),
///         from: ComponentId::BigCluster,
///         to: ComponentId::LittleCluster,
///     },
/// });
/// assert_eq!(log.migrations().count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// All events in chronological order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has happened yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the migration events.
    pub fn migrations(&self) -> impl Iterator<Item = &Event> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Migration { .. }))
    }

    /// The time of the first migration, if any happened.
    #[must_use]
    pub fn first_migration(&self) -> Option<Seconds> {
        self.migrations().next().map(|e| e.time)
    }

    /// Event totals grouped by `EventKind::key` — the same counter
    /// semantics the metrics snapshot exposes as
    /// `mpt_events_<key>_total`.
    #[must_use]
    pub fn counts_by_kind(&self) -> std::collections::BTreeMap<&'static str, u64> {
        let mut counts = std::collections::BTreeMap::new();
        for e in &self.events {
            *counts.entry(e.kind.key()).or_insert(0) += 1;
        }
        counts
    }

    /// Renders the whole log: one event per line, then a per-kind summary
    /// footer (from [`counts_by_kind`](Self::counts_by_kind)). Empty logs
    /// render as the empty string.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        if !self.events.is_empty() {
            let summary = self
                .counts_by_kind()
                .into_iter()
                .map(|(k, n)| format!("{k}={n}"))
                .collect::<Vec<_>>()
                .join(" ");
            out.push_str(&format!("-- {} events: {summary}\n", self.events.len()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn migration(t: f64) -> Event {
        Event {
            time: Seconds::new(t),
            kind: EventKind::Migration {
                pid: Pid::new(1),
                name: "bml".into(),
                from: ComponentId::BigCluster,
                to: ComponentId::LittleCluster,
            },
        }
    }

    #[test]
    fn filters_and_first_migration() {
        let mut log = EventLog::new();
        log.push(Event {
            time: Seconds::new(0.5),
            kind: EventKind::CapChanged {
                component: ComponentId::Gpu,
                cap: Some(Hertz::from_mhz(390)),
            },
        });
        log.push(migration(1.1));
        log.push(migration(2.2));
        assert_eq!(log.len(), 3);
        assert_eq!(log.migrations().count(), 2);
        assert_eq!(log.first_migration(), Some(Seconds::new(1.1)));
    }

    #[test]
    fn display_is_human_readable() {
        let e = migration(1.1);
        assert_eq!(e.to_string(), "[    1.10 s] migrated \"bml\" big -> little");
        let cap = Event {
            time: Seconds::new(3.0),
            kind: EventKind::CapChanged {
                component: ComponentId::Gpu,
                cap: None,
            },
        };
        assert!(cap.to_string().contains("uncapped gpu"));
    }

    #[test]
    fn render_has_one_line_per_event_plus_summary() {
        let mut log = EventLog::new();
        log.push(migration(1.0));
        log.push(migration(2.0));
        let rendered = log.render();
        assert_eq!(rendered.lines().count(), 3);
        assert_eq!(rendered.lines().last().unwrap(), "-- 2 events: migration=2");
    }

    #[test]
    fn counts_by_kind_groups_by_key() {
        let mut log = EventLog::new();
        log.push(migration(1.0));
        log.push(migration(2.0));
        log.push(Event {
            time: Seconds::new(3.0),
            kind: EventKind::CapChanged {
                component: ComponentId::Gpu,
                cap: None,
            },
        });
        let counts = log.counts_by_kind();
        assert_eq!(counts[&"migration"], 2);
        assert_eq!(counts[&"cap_changed"], 1);
        assert_eq!(counts.get(&"workload_finished"), None);
        assert!(EventLog::new().counts_by_kind().is_empty());
    }

    #[test]
    fn empty_log() {
        let log = EventLog::new();
        assert!(log.is_empty());
        assert_eq!(log.first_migration(), None);
        assert_eq!(log.render(), "");
    }
}
