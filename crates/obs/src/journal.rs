//! Live event journal: a bounded deque of sequence-numbered events with
//! a snapshot+delta subscriber protocol.
//!
//! The batch exporters ([`crate::trace`], [`crate::MetricsSnapshot`])
//! only speak after a run finishes; the journal is the *live* plane. Emitters (the
//! campaign runner, both stepping engines, the alert engine) push
//! [`JournalEvent`]s into it; subscribers (the `--progress` renderer, the
//! `--serve-obs` HTTP endpoint, eventually `mpt-serve`) follow along with
//! a cursor:
//!
//! 1. take a [`Snapshot`] — a consistent aggregate view (counters,
//!    histogram summaries, per-cell progress, device-ticks/sec throughput
//!    with an ETA) stamped with the journal cursor at capture time;
//! 2. repeatedly [`Journal::poll`] from that cursor — each poll returns
//!    the events after the cursor plus an explicit `dropped` count for
//!    anything the journal evicted before the subscriber got to it.
//!
//! # One lock
//!
//! One mutex guards the retained events (the last `capacity`, oldest
//! evicted first), the next sequence number and the progress aggregates
//! (cells total and done, the cells in flight, the last counter sample).
//! Events come per run and per cell, never per pass — a 12-cell campaign
//! emits about a hundred — so the lock is never on the simulator's hot
//! path. Each event owns its strings, and the deque grows only as events
//! arrive, so a session that emits a handful pays for a handful.
//!
//! # Determinism
//!
//! Journal *content* is deterministic modulo wall-clock fields: per-cell
//! events (cell started/finished, alerts, stage rollups, queue stats) are
//! driven purely by simulated state, while global sampler events
//! ([`JournalKind::CounterDelta`]) depend on when the sampler ran
//! relative to the workers and are excluded from the deterministic
//! replay. [`normalized_replay`] renders the deterministic subset — with
//! sequence numbers and wall-clock fields zeroed, grouped by cell — to a
//! form that is bit-identical across `--jobs 1` and `--jobs 8`.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crate::metrics::Counter;
use crate::recorder::Recorder;
use crate::trace::escape_json;

/// Default capacity (events) for a [`Recorder`]'s journal.
pub(crate) const DEFAULT_CAPACITY: usize = 1 << 13;

/// What one journal event reports.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalKind {
    /// A campaign began expanding `cells` cells.
    CampaignStarted {
        /// Total cell count of the campaign.
        cells: u64,
    },
    /// A worker picked up a campaign cell.
    CellStarted {
        /// The cell's axis label (e.g. `trips=70 workloads=game`).
        label: String,
    },
    /// A campaign cell finished simulating.
    CellFinished {
        /// The cell's axis label.
        label: String,
        /// Peak control-sensor temperature the cell reached.
        peak_temp_c: f64,
    },
    /// An alert rule fired inside a run.
    AlertFired {
        /// The rule kind key (`temp_above`, `fps_below`, ...).
        rule: String,
        /// The rendered firing message.
        message: String,
    },
    /// A counter moved since the last sampler pass (batched: one event
    /// per changed counter per pass). **Not deterministic** across worker
    /// counts — the sampler runs on wall-clock-ish boundaries relative to
    /// the workers — so replay reconciles on `total`, not `delta`.
    CounterDelta {
        /// Which counter moved.
        counter: Counter,
        /// Increase since the previous sampler pass.
        delta: u64,
        /// Absolute value at sample time.
        total: u64,
    },
    /// Per-run rollup of the stage pipeline (emitted once per scenario
    /// run; `wall_us` is normalized away in deterministic replay).
    StageRollup {
        /// Engine passes executed (macro steps for the event engine).
        passes: u64,
        /// Stage executions (passes x pipeline stages).
        stage_runs: u64,
        /// Wall-clock duration of the run, microseconds.
        wall_us: u64,
    },
    /// Solver transition-cache totals (emitted at campaign end).
    SolverCacheSummary {
        /// Discretizations reused.
        hits: u64,
        /// Discretizations actually factored.
        builds: u64,
    },
    /// Event-engine wake totals for one run (zeros under fixed-dt).
    QueueStats {
        /// Macro passes sized by a wake scan.
        events_popped: u64,
        /// Stage wakes absorbed into an already-running macro pass.
        wakes_coalesced: u64,
        /// Bisection iterations refining trip-crossing wake times.
        trip_bisection_iters: u64,
    },
    /// Batched fleet replay progress inside one cell, emitted on a
    /// deterministic tick cadence (so replay stays bit-identical across
    /// worker counts).
    FleetProgress {
        /// Devices in the cell's fleet.
        devices: u64,
        /// Replay ticks completed so far.
        ticks_done: u64,
        /// Total replay ticks the cell will run.
        ticks_total: u64,
    },
}

/// One sequence-numbered journal event.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEvent {
    /// Global sequence number (the journal's cursor coordinate).
    pub seq: u64,
    /// Wall-clock microseconds since the recorder epoch.
    pub ts_us: u64,
    /// Simulation-time microseconds, where the event has one.
    pub sim_us: Option<u64>,
    /// The campaign cell the emitting thread was running, if any.
    pub cell: Option<u32>,
    /// What happened.
    pub kind: JournalKind,
}

impl JournalEvent {
    /// Stable key naming the event kind in exports.
    #[must_use]
    pub(crate) fn kind_key(&self) -> &'static str {
        match self.kind {
            JournalKind::CampaignStarted { .. } => "campaign_started",
            JournalKind::CellStarted { .. } => "cell_started",
            JournalKind::CellFinished { .. } => "cell_finished",
            JournalKind::AlertFired { .. } => "alert_fired",
            JournalKind::CounterDelta { .. } => "counter_delta",
            JournalKind::StageRollup { .. } => "stage_rollup",
            JournalKind::SolverCacheSummary { .. } => "solver_cache",
            JournalKind::QueueStats { .. } => "queue_stats",
            JournalKind::FleetProgress { .. } => "fleet_progress",
        }
    }

    /// Whether the event's payload is a pure function of simulated state
    /// (bit-identical across worker counts). [`JournalKind::CounterDelta`]
    /// batches depend on sampler timing and are excluded.
    #[must_use]
    pub(crate) fn is_deterministic(&self) -> bool {
        !matches!(self.kind, JournalKind::CounterDelta { .. })
    }

    /// Renders the event as one JSON object (one NDJSON line, no
    /// trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"seq\":{},\"ts_us\":{}", self.seq, self.ts_us);
        match self.sim_us {
            Some(t) => out.push_str(&format!(",\"sim_us\":{t}")),
            None => out.push_str(",\"sim_us\":null"),
        }
        match self.cell {
            Some(c) => out.push_str(&format!(",\"cell\":{c}")),
            None => out.push_str(",\"cell\":null"),
        }
        out.push_str(&format!(",\"kind\":\"{}\"", self.kind_key()));
        match &self.kind {
            JournalKind::CampaignStarted { cells } => {
                out.push_str(&format!(",\"cells\":{cells}"));
            }
            JournalKind::CellStarted { label } => {
                out.push_str(&format!(",\"label\":\"{}\"", escape_json(label)));
            }
            JournalKind::CellFinished { label, peak_temp_c } => {
                out.push_str(&format!(
                    ",\"label\":\"{}\",\"peak_temp_c\":",
                    escape_json(label)
                ));
                if peak_temp_c.is_finite() {
                    out.push_str(&format!("{peak_temp_c}"));
                } else {
                    out.push_str("null");
                }
            }
            JournalKind::AlertFired { rule, message } => {
                out.push_str(&format!(
                    ",\"rule\":\"{}\",\"message\":\"{}\"",
                    escape_json(rule),
                    escape_json(message)
                ));
            }
            JournalKind::CounterDelta {
                counter,
                delta,
                total,
            } => {
                out.push_str(&format!(
                    ",\"counter\":\"{}\",\"delta\":{delta},\"total\":{total}",
                    counter.name()
                ));
            }
            JournalKind::StageRollup {
                passes,
                stage_runs,
                wall_us,
            } => {
                out.push_str(&format!(
                    ",\"passes\":{passes},\"stage_runs\":{stage_runs},\"wall_us\":{wall_us}"
                ));
            }
            JournalKind::SolverCacheSummary { hits, builds } => {
                out.push_str(&format!(",\"hits\":{hits},\"builds\":{builds}"));
            }
            JournalKind::QueueStats {
                events_popped,
                wakes_coalesced,
                trip_bisection_iters,
            } => {
                out.push_str(&format!(
                    ",\"events_popped\":{events_popped},\"wakes_coalesced\":{wakes_coalesced},\"trip_bisection_iters\":{trip_bisection_iters}"
                ));
            }
            JournalKind::FleetProgress {
                devices,
                ticks_done,
                ticks_total,
            } => {
                out.push_str(&format!(
                    ",\"devices\":{devices},\"ticks_done\":{ticks_done},\"ticks_total\":{ticks_total}"
                ));
            }
        }
        out.push('}');
        out
    }

    /// The event with every wall-clock-dependent field zeroed: `seq` and
    /// `ts_us` cleared, and `wall_us` zeroed for stage rollups.
    #[must_use]
    pub(crate) fn normalized(&self) -> JournalEvent {
        let mut ev = self.clone();
        ev.seq = 0;
        ev.ts_us = 0;
        if let JournalKind::StageRollup { wall_us, .. } = &mut ev.kind {
            *wall_us = 0;
        }
        ev
    }
}

/// The result of one [`Journal::poll`]: events after the cursor, how many
/// were evicted before the reader saw them, and where to resume.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Events in sequence order, all with `seq >= ` the polled cursor.
    pub events: Vec<JournalEvent>,
    /// Events between the cursor and `next_cursor` the journal evicted
    /// before this reader observed them (a lapped slow reader).
    pub dropped: u64,
    /// Cursor to pass to the next poll.
    pub next_cursor: u64,
}

/// One cell currently being simulated, for progress rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellInFlight {
    /// Campaign cell index.
    pub cell: u32,
    /// The cell's axis label.
    pub label: String,
}

/// The bounded live event journal. One lives inside every [`Recorder`];
/// a disabled recorder carries a zero-capacity journal whose every
/// operation is a cheap early return.
pub struct Journal {
    epoch: Instant,
    /// Events retained; `0` exactly when the journal is disabled.
    capacity: usize,
    state: Mutex<State>,
}

/// Everything the journal's one lock guards.
#[derive(Default)]
struct State {
    /// The retained events, oldest first, with contiguous sequence
    /// numbers ending at `next_seq - 1`.
    events: VecDeque<JournalEvent>,
    next_seq: u64,
    cells_total: u64,
    cells_done: u64,
    in_flight: BTreeMap<u32, String>,
    last_sample: [u64; Counter::COUNT],
}

impl State {
    fn track_progress(&mut self, cell: Option<u32>, kind: &JournalKind) {
        match kind {
            JournalKind::CampaignStarted { cells } => self.cells_total = *cells,
            JournalKind::CellStarted { label } => {
                if let Some(c) = cell {
                    self.in_flight.insert(c, label.clone());
                }
            }
            JournalKind::CellFinished { .. } => {
                self.cells_done += 1;
                if let Some(c) = cell {
                    self.in_flight.remove(&c);
                }
            }
            _ => {}
        }
    }
}

impl Journal {
    /// A journal retaining the last `capacity` events (at least one when
    /// enabled; a disabled journal retains nothing).
    pub(crate) fn new(enabled: bool, epoch: Instant, capacity: usize) -> Self {
        let capacity = if enabled { capacity } else { 0 };
        assert!(
            !enabled || capacity >= 1,
            "journal capacity must be at least 1, got {capacity}"
        );
        Self {
            epoch,
            capacity,
            state: Mutex::new(State::default()),
        }
    }

    /// Whether this journal records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// How many events the journal retains.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current cursor: the sequence number the *next* event will get.
    /// Polling from here returns only events emitted after this call.
    #[must_use]
    pub(crate) fn cursor(&self) -> u64 {
        self.state().next_seq
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("journal mutex never poisoned")
    }

    /// Appends one event stamped with the wall clock and the calling
    /// thread's [`cell_scope`], evicting the oldest at capacity.
    fn push(&self, state: &mut State, sim_us: Option<u64>, kind: JournalKind) -> u64 {
        let cell = current_cell();
        state.track_progress(cell, &kind);
        let seq = state.next_seq;
        state.next_seq += 1;
        if state.events.len() == self.capacity {
            state.events.pop_front();
        }
        state.events.push_back(JournalEvent {
            seq,
            ts_us: u64::try_from(crate::clock::elapsed(self.epoch).as_micros()).unwrap_or(u64::MAX),
            sim_us,
            cell,
            kind,
        });
        seq
    }

    /// Emits one event, stamped with the current wall clock and the
    /// calling thread's [`cell_scope`]. Returns the event's sequence
    /// number, or `None` on a disabled journal.
    pub fn emit(&self, sim_us: Option<u64>, kind: JournalKind) -> Option<u64> {
        if !self.is_enabled() {
            return None;
        }
        Some(self.push(&mut self.state(), sim_us, kind))
    }

    /// Returns every retained event with `seq >= cursor`, in sequence
    /// order, plus the exact count of events the journal evicted before
    /// this reader observed them.
    #[must_use]
    pub fn poll(&self, cursor: u64) -> Delta {
        if !self.is_enabled() {
            return Delta {
                events: Vec::new(),
                dropped: 0,
                next_cursor: 0,
            };
        }
        let state = self.state();
        let oldest = state.next_seq - state.events.len() as u64;
        let start = cursor.max(oldest);
        let skip = usize::try_from(start - oldest).unwrap_or(usize::MAX);
        Delta {
            events: state.events.iter().skip(skip).cloned().collect(),
            dropped: start - cursor,
            next_cursor: start.max(state.next_seq),
        }
    }

    /// Emits one [`JournalKind::CounterDelta`] per counter that moved
    /// since the previous sampler pass. Global (not per-cell) and driven
    /// by *when* it is called, so its events are excluded from
    /// deterministic replay; subscribers reconcile on the carried
    /// `total`.
    pub fn sample_counters(&self, rec: &Recorder) {
        if !self.is_enabled() {
            return;
        }
        let mut state = self.state();
        for &counter in &Counter::ALL {
            let total = rec.counter(counter);
            let delta = total.saturating_sub(state.last_sample[counter.index()]);
            if delta > 0 {
                state.last_sample[counter.index()] = total;
                self.push(
                    &mut state,
                    None,
                    JournalKind::CounterDelta {
                        counter,
                        delta,
                        total,
                    },
                );
            }
        }
    }

    /// Captures a consistent [`Snapshot`] of aggregate state. The cursor
    /// and the progress aggregates are read under the journal's lock, so
    /// every event before the cursor is folded into them and every event
    /// after it reaches the subscriber's next poll — never silently lost.
    #[must_use]
    pub fn snapshot(&self, rec: &Recorder) -> Snapshot {
        let (cursor, cells_total, cells_done, in_flight) = {
            let state = self.state();
            let in_flight = state
                .in_flight
                .iter()
                .map(|(&cell, label)| CellInFlight {
                    cell,
                    label: label.clone(),
                })
                .collect();
            (
                state.next_seq,
                state.cells_total,
                state.cells_done,
                in_flight,
            )
        };
        let elapsed_s = crate::clock::elapsed(self.epoch).as_secs_f64();
        let ticks_total = rec.counter(Counter::Ticks);
        let ticks_per_sec = if elapsed_s > 0.0 {
            #[allow(clippy::cast_precision_loss)]
            {
                ticks_total as f64 / elapsed_s
            }
        } else {
            0.0
        };
        let device_ticks_total = rec.counter(Counter::DeviceTicks);
        let device_ticks_per_sec = if elapsed_s > 0.0 {
            #[allow(clippy::cast_precision_loss)]
            {
                device_ticks_total as f64 / elapsed_s
            }
        } else {
            0.0
        };
        #[allow(clippy::cast_precision_loss)]
        let eta_s = (cells_done > 0 && cells_total > cells_done)
            .then(|| elapsed_s * (cells_total - cells_done) as f64 / cells_done as f64);
        Snapshot {
            cursor,
            elapsed_s,
            cells_total,
            cells_done,
            in_flight,
            ticks_total,
            ticks_per_sec,
            device_ticks_total,
            device_ticks_per_sec,
            eta_s,
            metrics: rec.snapshot(),
        }
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("enabled", &self.is_enabled())
            .field("capacity", &self.capacity)
            .field("cursor", &self.cursor())
            .finish()
    }
}

/// A consistent aggregate view for subscribers joining mid-run: resume
/// polling from [`Snapshot::cursor`] to observe everything after it.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Journal cursor at capture time.
    pub cursor: u64,
    /// Wall-clock seconds since the recorder epoch.
    pub elapsed_s: f64,
    /// Campaign cell count (0 outside a campaign).
    pub cells_total: u64,
    /// Cells finished so far.
    pub cells_done: u64,
    /// Cells currently simulating, with their axis labels.
    pub in_flight: Vec<CellInFlight>,
    /// Simulator ticks executed so far (all cells).
    pub ticks_total: u64,
    /// Simulator ticks per wall-clock second.
    pub ticks_per_sec: f64,
    /// Fleet device-ticks stepped so far (devices × replay ticks, all
    /// cells; 0 outside fleet campaigns).
    pub device_ticks_total: u64,
    /// Fleet device-ticks per wall-clock second.
    pub device_ticks_per_sec: f64,
    /// Estimated seconds to campaign completion, where computable.
    pub eta_s: Option<f64>,
    /// Full counter + histogram snapshot.
    pub metrics: crate::export::MetricsSnapshot,
}

impl Snapshot {
    /// Renders the snapshot as a JSON object (the `/progress` payload).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"cursor\": {},\n  \"elapsed_s\": {:.6},\n  \"progress\": {{\n    \"cells_total\": {},\n    \"cells_done\": {},\n    \"in_flight\": [",
            self.cursor, self.elapsed_s, self.cells_total, self.cells_done
        );
        for (i, c) in self.in_flight.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n      {{ \"cell\": {}, \"label\": \"{}\" }}",
                c.cell,
                escape_json(&c.label)
            ));
        }
        if !self.in_flight.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("],\n    \"eta_s\": ");
        match self.eta_s {
            Some(eta) => out.push_str(&format!("{eta:.3}")),
            None => out.push_str("null"),
        }
        out.push_str(&format!(
            "\n  }},\n  \"throughput\": {{\n    \"ticks_total\": {},\n    \"ticks_per_sec\": {:.1},\n    \"device_ticks_total\": {},\n    \"device_ticks_per_sec\": {:.1}\n  }},\n  \"counters\": {{",
            self.ticks_total, self.ticks_per_sec, self.device_ticks_total, self.device_ticks_per_sec
        ));
        for (i, (name, value)) in self.metrics.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {value}", escape_json(name)));
        }
        out.push_str("\n  },\n  \"histograms\": [");
        for (i, h) in self.metrics.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{ \"name\": \"{}\", \"count\": {}, \"mean_ns\": {:.1}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {} }}",
                escape_json(&h.name),
                h.count,
                h.mean_ns,
                h.p50_ns,
                h.p95_ns,
                h.p99_ns,
                h.max_ns
            ));
        }
        if !self.metrics.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

thread_local! {
    static CELL_SCOPE: std::cell::Cell<Option<u32>> = const { std::cell::Cell::new(None) };
}

/// RAII guard restoring the previous cell scope on drop.
#[derive(Debug)]
pub struct CellScopeGuard {
    prev: Option<u32>,
}

impl Drop for CellScopeGuard {
    fn drop(&mut self) {
        CELL_SCOPE.with(|c| c.set(self.prev));
    }
}

/// Marks the calling thread as running campaign cell `cell` until the
/// returned guard drops; every journal event emitted on this thread in
/// between is stamped with the cell index.
#[must_use]
pub fn cell_scope(cell: u32) -> CellScopeGuard {
    CELL_SCOPE.with(|c| {
        let prev = c.get();
        c.set(Some(cell));
        CellScopeGuard { prev }
    })
}

/// The cell the calling thread is currently scoped to, if any.
#[must_use]
pub(crate) fn current_cell() -> Option<u32> {
    CELL_SCOPE.with(std::cell::Cell::get)
}

/// Renders the deterministic subset of `events` to a normalized form
/// that is bit-identical across worker counts: wall-clock-dependent
/// fields zeroed (`JournalEvent::normalized`), sampler events dropped,
/// lines grouped by cell (global events first, then cells in index
/// order) with per-cell emission order preserved.
#[must_use]
pub fn normalized_replay(events: &[JournalEvent]) -> String {
    let mut groups: BTreeMap<Option<u32>, Vec<String>> = BTreeMap::new();
    for ev in events.iter().filter(|e| e.is_deterministic()) {
        groups
            .entry(ev.cell)
            .or_default()
            .push(ev.normalized().to_json());
    }
    let mut out = String::new();
    for lines in groups.values() {
        for line in lines {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_journal(capacity: usize) -> Journal {
        Journal::new(true, crate::clock::now(), capacity)
    }

    #[test]
    fn emit_and_poll_round_trip() {
        let j = test_journal(16);
        j.emit(None, JournalKind::CampaignStarted { cells: 12 });
        j.emit(
            Some(1_500_000),
            JournalKind::AlertFired {
                rule: "temp_above".into(),
                message: "temp 71.2 C".into(),
            },
        );
        let d = j.poll(0);
        assert_eq!(d.dropped, 0);
        assert_eq!(d.next_cursor, 2);
        assert_eq!(d.events.len(), 2);
        assert_eq!(d.events[0].seq, 0);
        assert_eq!(d.events[0].kind, JournalKind::CampaignStarted { cells: 12 });
        assert_eq!(d.events[1].sim_us, Some(1_500_000));
        assert_eq!(
            d.events[1].kind,
            JournalKind::AlertFired {
                rule: "temp_above".into(),
                message: "temp 71.2 C".into(),
            }
        );
    }

    #[test]
    fn ring_lap_reports_exact_dropped_count() {
        let j = test_journal(8);
        for i in 0..11 {
            j.emit(None, JournalKind::CampaignStarted { cells: i });
        }
        let d = j.poll(0);
        assert_eq!(d.dropped, 3, "11 events in an 8-slot ring drop exactly 3");
        assert_eq!(d.events.len(), 8);
        assert_eq!(d.events[0].seq, 3);
        assert_eq!(d.next_cursor, 11);
        // Resuming from next_cursor drops nothing further.
        let d2 = j.poll(d.next_cursor);
        assert_eq!((d2.dropped, d2.events.len()), (0, 0));
    }

    #[test]
    fn cell_scope_stamps_and_restores() {
        let j = test_journal(16);
        assert_eq!(current_cell(), None);
        {
            let _outer = cell_scope(3);
            j.emit(None, JournalKind::CellStarted { label: "a".into() });
            {
                let _inner = cell_scope(4);
                assert_eq!(current_cell(), Some(4));
            }
            assert_eq!(current_cell(), Some(3));
        }
        assert_eq!(current_cell(), None);
        assert_eq!(j.poll(0).events[0].cell, Some(3));
    }

    #[test]
    fn disabled_journal_is_inert() {
        let j = Journal::new(false, crate::clock::now(), DEFAULT_CAPACITY);
        assert_eq!(
            j.emit(None, JournalKind::CampaignStarted { cells: 1 }),
            None
        );
        assert_eq!(j.capacity(), 0);
        let d = j.poll(0);
        assert!(d.events.is_empty());
        assert_eq!(d.dropped, 0);
    }

    #[test]
    fn normalized_replay_groups_by_cell_and_zeroes_wall_fields() {
        let j = test_journal(32);
        j.emit(None, JournalKind::CampaignStarted { cells: 2 });
        {
            let _s = cell_scope(1);
            j.emit(None, JournalKind::CellStarted { label: "b".into() });
        }
        {
            let _s = cell_scope(0);
            j.emit(None, JournalKind::CellStarted { label: "a".into() });
            j.emit(
                None,
                JournalKind::StageRollup {
                    passes: 10,
                    stage_runs: 90,
                    wall_us: 12345,
                },
            );
        }
        j.sample_counters(&Recorder::new()); // no movement: no events
        let replay = normalized_replay(&j.poll(0).events);
        let lines: Vec<&str> = replay.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("campaign_started"), "global first");
        assert!(lines[1].contains("\"cell\":0"), "cell 0 before cell 1");
        assert!(lines[2].contains("\"wall_us\":0"), "wall clock normalized");
        assert!(lines[3].contains("\"cell\":1"));
        assert!(!replay.contains("\"ts_us\":1"), "timestamps zeroed");
    }

    #[test]
    fn concurrent_emitters_never_tear() {
        let j = std::sync::Arc::new(test_journal(64));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let j = std::sync::Arc::clone(&j);
                s.spawn(move || {
                    let _scope = cell_scope(t);
                    for i in 0..500 {
                        j.emit(
                            None,
                            JournalKind::StageRollup {
                                passes: u64::from(t),
                                stage_runs: i,
                                wall_us: 0,
                            },
                        );
                    }
                });
            }
        });
        let d = j.poll(0);
        assert_eq!(d.events.len() as u64 + d.dropped, 2000);
        for ev in &d.events {
            let JournalKind::StageRollup { passes, .. } = ev.kind else {
                panic!("unexpected kind {ev:?}");
            };
            // The payload must agree with the emitting thread's scope —
            // a torn read would mix them.
            assert_eq!(ev.cell, Some(u32::try_from(passes).unwrap()));
        }
    }
}
