//! Live event journal: a bounded lock-free ring of sequence-numbered
//! events with a snapshot+delta subscriber protocol.
//!
//! The batch exporters ([`crate::trace`], [`crate::export`]) only speak
//! after a run finishes; the journal is the *live* plane. Emitters (the
//! campaign runner, both stepping engines, the alert engine) push
//! [`JournalEvent`]s into a fixed-capacity ring of atomic word slots;
//! subscribers (the `--progress` renderer, the `--serve-obs` HTTP
//! endpoint, eventually `mpt-serve`) follow along with a cursor:
//!
//! 1. take a [`Snapshot`] — a consistent aggregate view (counters,
//!    histogram summaries, per-cell progress, device-ticks/sec throughput
//!    with an ETA) stamped with the journal cursor at capture time;
//! 2. repeatedly [`Journal::poll`] from that cursor — each poll returns
//!    the events after the cursor plus an explicit `dropped` count for
//!    anything the ring overwrote before the subscriber got to it.
//!
//! # Lock-free ring
//!
//! Each slot is a seqlock over plain `AtomicU64` payload words: a
//! writer claims a global sequence number with one
//! `fetch_add`, marks the slot busy for that generation via `fetch_max`
//! (abandoning the write if a newer generation already owns the slot),
//! stores the payload words — generation echo first — and publishes with
//! a `compare_exchange` to the stable state. A reader accepts a slot only
//! if the state word reads *stable for the expected generation* before
//! the payload loads, and both the embedded generation echo and the state
//! word still match afterwards; anything else is reported as `dropped`,
//! never returned torn. Strings (cell labels, alert rules/messages) live
//! in an append-only interner so the ring itself stays plain words.
//!
//! The protocol itself needs no `unsafe`. The one `unsafe` block is the
//! ring's allocation: the slots are requested zero-filled from the
//! allocator instead of being initialised one by one, because all-zero
//! is a slot's never-written state.
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

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Mutex;
use std::time::Instant;

use crate::metrics::Counter;
use crate::recorder::Recorder;
use crate::trace::escape_json;

/// Default ring capacity (events) for a [`Recorder`]'s journal.
pub const DEFAULT_CAPACITY: usize = 1 << 13;

const PAYLOAD_WORDS: usize = 8;
const W_GEN: usize = 0;
const W_KIND: usize = 1;
const W_TS: usize = 2;
const W_SIM: usize = 3;
const W_CELL: usize = 4;
const W_A: usize = 5;
const W_B: usize = 6;
const W_C: usize = 7;
const NONE: u64 = u64::MAX;

/// One ring slot: a seqlock state word plus plain payload words. Only
/// `AtomicU64`s, so the all-zero bit pattern is a valid, never-written
/// slot (see [`zeroed_slots`]).
struct Slot {
    /// `0` = never written; `2g+1` = busy writing generation `g`;
    /// `2g+2` = stable, holds generation `g`. Strictly monotonic.
    state: AtomicU64,
    words: [AtomicU64; PAYLOAD_WORDS],
}

fn busy(seq: u64) -> u64 {
    2 * seq + 1
}

fn stable(seq: u64) -> u64 {
    2 * seq + 2
}

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
    /// Event-engine queue totals for one run (zeros under fixed-dt).
    QueueStats {
        /// Wake events popped off the queue.
        events_popped: u64,
        /// Queued wakes absorbed into an already-running macro pass.
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
    pub fn kind_key(&self) -> &'static str {
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
    pub fn is_deterministic(&self) -> bool {
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
    pub fn normalized(&self) -> JournalEvent {
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
/// were lost to ring overwrites, and where to resume.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Events in sequence order, all with `seq >= ` the polled cursor.
    pub events: Vec<JournalEvent>,
    /// Events between the cursor and `next_cursor` the ring overwrote
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

enum SlotRead {
    Event(JournalEvent),
    NotYet,
    Gone,
}

/// The bounded live event journal. One lives inside every [`Recorder`];
/// a disabled recorder carries a zero-capacity journal whose every
/// operation is a cheap early return.
pub struct Journal {
    enabled: bool,
    epoch: Instant,
    mask: u64,
    head: AtomicU64,
    slots: Box<[Slot]>,
    strings: Mutex<Vec<String>>,
    cells_total: AtomicU64,
    cells_done: AtomicU64,
    in_flight: Mutex<BTreeMap<u32, String>>,
    last_sample: Mutex<[u64; Counter::COUNT]>,
}

/// `capacity` never-written slots in one zero-filled allocation. When
/// the allocator hands out fresh pages, as it does for a process's
/// first ring, the slots cost nothing until an event lands in them, and
/// a session emits only a handful: the first `Recorder::new` of a
/// `run_scenario` process takes ~15 µs instead of ~300 µs. A recycled
/// heap block is zeroed by the allocator, at the cost of writing the
/// slots one by one.
fn zeroed_slots(capacity: usize) -> Box<[Slot]> {
    let slots = Box::<[Slot]>::new_zeroed_slice(capacity);
    // SAFETY: a `Slot` is nothing but `AtomicU64`s, which have the same
    // in-memory representation as `u64` and accept every bit pattern;
    // all-zero is `state == 0` (never written) with zero payload words,
    // exactly what `AtomicU64::new(0)` would build.
    unsafe { slots.assume_init() }
}

impl Journal {
    /// A journal with `capacity` ring slots (must be a power of two when
    /// enabled; a disabled journal allocates nothing).
    pub(crate) fn new(enabled: bool, epoch: Instant, capacity: usize) -> Self {
        let capacity = if enabled { capacity } else { 0 };
        assert!(
            !enabled || capacity.is_power_of_two(),
            "journal capacity must be a power of two, got {capacity}"
        );
        Self {
            enabled,
            epoch,
            mask: capacity.wrapping_sub(1) as u64,
            head: AtomicU64::new(0),
            slots: zeroed_slots(capacity),
            strings: Mutex::new(Vec::new()),
            cells_total: AtomicU64::new(0),
            cells_done: AtomicU64::new(0),
            in_flight: Mutex::new(BTreeMap::new()),
            last_sample: Mutex::new([0; Counter::COUNT]),
        }
    }

    /// Whether this journal records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Ring capacity in events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The current cursor: the sequence number the *next* event will get.
    /// Polling from here returns only events emitted after this call.
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.head.load(SeqCst)
    }

    fn intern(&self, s: &str) -> u64 {
        let mut strings = self.strings.lock().expect("interner never poisoned");
        if let Some(i) = strings.iter().position(|x| x == s) {
            return i as u64;
        }
        strings.push(s.to_owned());
        (strings.len() - 1) as u64
    }

    fn resolve(&self, id: u64) -> String {
        self.strings
            .lock()
            .expect("interner never poisoned")
            .get(usize::try_from(id).unwrap_or(usize::MAX))
            .cloned()
            .unwrap_or_default()
    }

    /// Emits one event, stamped with the current wall clock and the
    /// calling thread's [`cell_scope`]. Returns the event's sequence
    /// number, or `None` on a disabled journal.
    pub fn emit(&self, sim_us: Option<u64>, kind: JournalKind) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let cell = current_cell();
        self.track_progress(cell, &kind);
        let (code, a, b, c) = self.encode(&kind);
        let ts_us =
            u64::try_from(crate::clock::elapsed(self.epoch).as_micros()).unwrap_or(u64::MAX);
        let seq = self.head.fetch_add(1, SeqCst);
        let slot = &self.slots[(seq & self.mask) as usize];
        // SAFETY-equivalent seqlock invariant (all-atomic, no `unsafe`):
        // a slot's `state` is monotone non-decreasing and odd (`busy`)
        // exactly while its payload words are torn. Claim the slot for
        // this generation; if a newer generation got there first (the
        // ring lapped mid-write), abandon — readers will report the
        // sequence number as dropped.
        if slot.state.fetch_max(busy(seq), SeqCst) > busy(seq) {
            return Some(seq);
        }
        slot.words[W_GEN].store(seq, SeqCst);
        slot.words[W_KIND].store(code, SeqCst);
        slot.words[W_TS].store(ts_us, SeqCst);
        slot.words[W_SIM].store(sim_us.unwrap_or(NONE), SeqCst);
        slot.words[W_CELL].store(cell.map_or(NONE, u64::from), SeqCst);
        slot.words[W_A].store(a, SeqCst);
        slot.words[W_B].store(b, SeqCst);
        slot.words[W_C].store(c, SeqCst);
        // SAFETY-equivalent invariant: publishing `stable(seq)` asserts
        // every payload word above is written; the CAS (not a plain
        // store) keeps `state` monotone — failure means a newer
        // generation overwrote us mid-write and owns the slot now.
        let _ = slot
            .state
            .compare_exchange(busy(seq), stable(seq), SeqCst, SeqCst);
        Some(seq)
    }

    fn track_progress(&self, cell: Option<u32>, kind: &JournalKind) {
        match kind {
            JournalKind::CampaignStarted { cells } => {
                self.cells_total.store(*cells, SeqCst);
            }
            JournalKind::CellStarted { label } => {
                if let Some(c) = cell {
                    self.in_flight
                        .lock()
                        .expect("in-flight map never poisoned")
                        .insert(c, label.clone());
                }
            }
            JournalKind::CellFinished { .. } => {
                self.cells_done.fetch_add(1, SeqCst);
                if let Some(c) = cell {
                    self.in_flight
                        .lock()
                        .expect("in-flight map never poisoned")
                        .remove(&c);
                }
            }
            _ => {}
        }
    }

    fn encode(&self, kind: &JournalKind) -> (u64, u64, u64, u64) {
        match kind {
            JournalKind::CampaignStarted { cells } => (0, *cells, 0, 0),
            JournalKind::CellStarted { label } => (1, self.intern(label), 0, 0),
            JournalKind::CellFinished { label, peak_temp_c } => {
                (2, self.intern(label), peak_temp_c.to_bits(), 0)
            }
            JournalKind::AlertFired { rule, message } => {
                (3, self.intern(rule), self.intern(message), 0)
            }
            JournalKind::CounterDelta {
                counter,
                delta,
                total,
            } => (4, counter.index() as u64, *delta, *total),
            JournalKind::StageRollup {
                passes,
                stage_runs,
                wall_us,
            } => (5, *passes, *stage_runs, *wall_us),
            JournalKind::SolverCacheSummary { hits, builds } => (6, *hits, *builds, 0),
            JournalKind::QueueStats {
                events_popped,
                wakes_coalesced,
                trip_bisection_iters,
            } => (7, *events_popped, *wakes_coalesced, *trip_bisection_iters),
            JournalKind::FleetProgress {
                devices,
                ticks_done,
                ticks_total,
            } => (8, *devices, *ticks_done, *ticks_total),
        }
    }

    fn decode(&self, code: u64, a: u64, b: u64, c: u64) -> Option<JournalKind> {
        Some(match code {
            0 => JournalKind::CampaignStarted { cells: a },
            1 => JournalKind::CellStarted {
                label: self.resolve(a),
            },
            2 => JournalKind::CellFinished {
                label: self.resolve(a),
                peak_temp_c: f64::from_bits(b),
            },
            3 => JournalKind::AlertFired {
                rule: self.resolve(a),
                message: self.resolve(b),
            },
            4 => JournalKind::CounterDelta {
                counter: *Counter::ALL.get(usize::try_from(a).ok()?)?,
                delta: b,
                total: c,
            },
            5 => JournalKind::StageRollup {
                passes: a,
                stage_runs: b,
                wall_us: c,
            },
            6 => JournalKind::SolverCacheSummary { hits: a, builds: b },
            7 => JournalKind::QueueStats {
                events_popped: a,
                wakes_coalesced: b,
                trip_bisection_iters: c,
            },
            8 => JournalKind::FleetProgress {
                devices: a,
                ticks_done: b,
                ticks_total: c,
            },
            _ => return None,
        })
    }

    fn read_slot(&self, seq: u64) -> SlotRead {
        let slot = &self.slots[(seq & self.mask) as usize];
        let s0 = slot.state.load(SeqCst);
        if s0 < stable(seq) {
            return SlotRead::NotYet;
        }
        if s0 > stable(seq) {
            return SlotRead::Gone;
        }
        let words: [u64; PAYLOAD_WORDS] = std::array::from_fn(|i| slot.words[i].load(SeqCst));
        // SAFETY-equivalent seqlock read protocol: the payload is only
        // trusted if `state` still equals `stable(seq)` *after* every
        // word was loaded — any concurrent writer must first bump the
        // state through `busy(newer)`, so an unchanged state proves the
        // words above are an untorn generation-`seq` snapshot.
        if words[W_GEN] != seq || slot.state.load(SeqCst) != stable(seq) {
            return SlotRead::Gone;
        }
        let Some(kind) = self.decode(words[W_KIND], words[W_A], words[W_B], words[W_C]) else {
            return SlotRead::Gone;
        };
        SlotRead::Event(JournalEvent {
            seq,
            ts_us: words[W_TS],
            sim_us: (words[W_SIM] != NONE).then_some(words[W_SIM]),
            cell: (words[W_CELL] != NONE).then(|| u32::try_from(words[W_CELL]).unwrap_or(u32::MAX)),
            kind,
        })
    }

    /// Returns every retained event with `seq >= cursor`, in sequence
    /// order, plus the exact count of events the ring overwrote before
    /// this reader observed them. Events still being written are left for
    /// the next poll (`next_cursor` stops short of them).
    #[must_use]
    pub fn poll(&self, cursor: u64) -> Delta {
        if !self.enabled {
            return Delta {
                events: Vec::new(),
                dropped: 0,
                next_cursor: 0,
            };
        }
        let head = self.head.load(SeqCst);
        let oldest = head.saturating_sub(self.slots.len() as u64);
        let start = cursor.max(oldest);
        let mut dropped = start.saturating_sub(cursor);
        let mut events = Vec::new();
        let mut next_cursor = start;
        for seq in start..head {
            match self.read_slot(seq) {
                SlotRead::Event(ev) => {
                    events.push(ev);
                    next_cursor = seq + 1;
                }
                SlotRead::NotYet => break,
                SlotRead::Gone => {
                    dropped += 1;
                    next_cursor = seq + 1;
                }
            }
        }
        Delta {
            events,
            dropped,
            next_cursor,
        }
    }

    /// Emits one [`JournalKind::CounterDelta`] per counter that moved
    /// since the previous sampler pass. Global (not per-cell) and driven
    /// by *when* it is called, so its events are excluded from
    /// deterministic replay; subscribers reconcile on the carried
    /// `total`.
    pub fn sample_counters(&self, rec: &Recorder) {
        if !self.enabled {
            return;
        }
        let mut last = self.last_sample.lock().expect("sampler never poisoned");
        for &counter in &Counter::ALL {
            let total = rec.counter(counter);
            let delta = total.saturating_sub(last[counter.index()]);
            if delta > 0 {
                last[counter.index()] = total;
                self.emit(
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
    /// is read *first*, so an event emitted concurrently is either after
    /// the cursor (the subscriber sees it in its next poll) or already
    /// folded into the aggregates — never silently lost.
    #[must_use]
    pub fn snapshot(&self, rec: &Recorder) -> Snapshot {
        let cursor = self.cursor();
        let elapsed_s = crate::clock::elapsed(self.epoch).as_secs_f64();
        let cells_total = self.cells_total.load(SeqCst);
        let cells_done = self.cells_done.load(SeqCst);
        let in_flight = self
            .in_flight
            .lock()
            .expect("in-flight map never poisoned")
            .iter()
            .map(|(&cell, label)| CellInFlight {
                cell,
                label: label.clone(),
            })
            .collect();
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
            .field("enabled", &self.enabled)
            .field("capacity", &self.slots.len())
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
pub fn current_cell() -> Option<u32> {
    CELL_SCOPE.with(std::cell::Cell::get)
}

/// Renders the deterministic subset of `events` to a normalized form
/// that is bit-identical across worker counts: wall-clock-dependent
/// fields zeroed ([`JournalEvent::normalized`]), sampler events dropped,
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
