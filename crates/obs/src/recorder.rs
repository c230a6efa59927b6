//! The recorder: the simulator's flight data recorder.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::export::{HistSnapshot, MetricsSnapshot};
use crate::hist::{HistId, Histogram};
use crate::journal::Journal;
use crate::metrics::Counter;
use crate::span::{current_lane, SpanGuard, SpanRecord};

/// Maximum number of registrable histograms.
pub const MAX_HISTOGRAMS: usize = 32;

/// Maximum retained span records; further spans are dropped (and counted
/// under [`Counter::SpansDropped`]).
pub const SPAN_CAP: usize = 1 << 17;

/// Collects spans, counters and histograms for one run (or one whole
/// campaign — a single recorder is safely shared across worker threads
/// behind an `Arc`).
///
/// All methods take `&self`; counters and histograms are atomic slots,
/// spans go through one mutex (spans come per campaign cell and per lint
/// phase, so workers rarely meet on it). The disabled recorder from
/// [`Recorder::null`] turns every operation into a cheap early return.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    counters: [AtomicU64; Counter::COUNT],
    hists: [Histogram; MAX_HISTOGRAMS],
    hist_names: Mutex<Vec<String>>,
    spans: Mutex<Vec<SpanRecord>>,
    journal: Journal,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    fn with_enabled(enabled: bool, journal_capacity: usize) -> Self {
        let epoch = crate::clock::now();
        Self {
            enabled,
            epoch,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| Histogram::new()),
            hist_names: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
            journal: Journal::new(enabled, epoch, journal_capacity),
        }
    }

    /// An enabled recorder with its epoch set to "now".
    #[must_use]
    pub fn new() -> Self {
        Self::with_enabled(true, crate::journal::DEFAULT_CAPACITY)
    }

    /// An enabled recorder whose journal retains `capacity` events (at
    /// least one) — for tests and benchmarks that exercise evictions.
    #[must_use]
    pub fn with_journal_capacity(capacity: usize) -> Self {
        Self::with_enabled(true, capacity)
    }

    /// The "NullRecorder": a disabled recorder whose every operation is a
    /// no-op behind one branch — for hot loops that must not pay for
    /// observability.
    #[must_use]
    pub fn null() -> Self {
        Self::with_enabled(false, 0)
    }

    /// Whether this recorder records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The live event journal sharing this recorder's epoch. Disabled
    /// (zero-capacity, every call an early return) on a null recorder.
    #[must_use]
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Adds `n` to a counter.
    pub fn add(&self, counter: Counter, n: u64) {
        if self.enabled && n > 0 {
            self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments a counter by one.
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Current value of a counter.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Registers (or looks up) a histogram by name and returns its id.
    /// Registration is idempotent: the same name always yields the same
    /// id on a given recorder, so callers registering a fixed name set in
    /// a fixed order get deterministic ids.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_HISTOGRAMS`] distinct names are
    /// registered.
    pub fn register_histogram(&self, name: &str) -> HistId {
        let mut names = self.hist_names.lock().expect("hist mutex never poisoned");
        if let Some(i) = names.iter().position(|n| n == name) {
            return HistId(i);
        }
        assert!(
            names.len() < MAX_HISTOGRAMS,
            "too many histograms (cap {MAX_HISTOGRAMS})"
        );
        names.push(name.to_owned());
        HistId(names.len() - 1)
    }

    /// The registered histogram names, in id order.
    #[must_use]
    pub fn histogram_names(&self) -> Vec<String> {
        self.hist_names
            .lock()
            .expect("hist mutex never poisoned")
            .clone()
    }

    /// Records a duration into a registered histogram.
    pub fn record_duration(&self, id: HistId, d: Duration) {
        if self.enabled {
            self.hists[id.index()].record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Direct access to a registered histogram.
    #[must_use]
    pub fn histogram(&self, id: HistId) -> &Histogram {
        &self.hists[id.index()]
    }

    /// Starts timing back-to-back laps into histograms, reading the
    /// clock once now and once per [`Laps::lap`]. A disabled recorder
    /// hands out inert laps that never read the clock.
    pub fn laps(&self) -> Laps<'_> {
        let marks = self.enabled.then(|| {
            let now = crate::clock::now();
            (now, now)
        });
        Laps { rec: self, marks }
    }

    /// Opens a span; it records itself when the returned guard drops.
    pub fn span(&self, cat: &'static str, name: impl Into<Cow<'static, str>>) -> SpanGuard<'_> {
        self.span_inner(cat, name.into(), None)
    }

    /// Opens a span that additionally records its duration into a
    /// histogram — the shape of a campaign cell.
    pub fn span_with_hist(
        &self,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        hist: HistId,
    ) -> SpanGuard<'_> {
        self.span_inner(cat, name.into(), Some(hist))
    }

    fn span_inner(
        &self,
        cat: &'static str,
        name: Cow<'static, str>,
        hist: Option<HistId>,
    ) -> SpanGuard<'_> {
        if self.enabled {
            SpanGuard::new(Some(self), name, cat, hist)
        } else {
            SpanGuard::new(None, name, cat, hist)
        }
    }

    pub(crate) fn micros_since_epoch(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_micros()).unwrap_or(u64::MAX)
    }

    pub(crate) fn finish_span(&self, record: SpanRecord) {
        let mut spans = self.spans.lock().expect("span mutex never poisoned");
        if spans.len() < SPAN_CAP {
            spans.push(record);
        } else {
            self.incr(Counter::SpansDropped);
        }
    }

    /// All finished spans, ordered by start time (then lane). Intended
    /// for export after the run — not a hot-path call.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut all = self
            .spans
            .lock()
            .expect("span mutex never poisoned")
            .clone();
        all.sort_by_key(|s| (s.start_us, s.lane));
        all
    }

    /// A point-in-time metrics snapshot: every counter (in id order) and
    /// every registered histogram with its quantile summary.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name().to_owned(), self.counter(c)))
            .collect();
        let histograms = self
            .histogram_names()
            .into_iter()
            .enumerate()
            .map(|(i, name)| {
                let h = &self.hists[i];
                HistSnapshot {
                    name,
                    count: h.count(),
                    sum_ns: h.sum_ns(),
                    mean_ns: h.mean_ns(),
                    p50_ns: h.quantile_ns(0.50),
                    p95_ns: h.quantile_ns(0.95),
                    p99_ns: h.quantile_ns(0.99),
                    max_ns: h.max_ns(),
                }
            })
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }

    /// The lane the calling thread records spans on (the `tid` of the
    /// exported trace).
    #[must_use]
    pub fn lane(&self) -> u32 {
        current_lane()
    }
}

/// Consecutive laps timed into histograms with one clock read per lap
/// boundary and no span record: how the simulator times its pipeline
/// stages and whole pass. Obtained from [`Recorder::laps`].
#[must_use = "laps record only through `lap` and `finish`"]
#[derive(Debug)]
pub struct Laps<'a> {
    rec: &'a Recorder,
    /// When the first lap started and the last one ended; `None` on a
    /// disabled recorder.
    marks: Option<(Instant, Instant)>,
}

impl Laps<'_> {
    /// Ends the current lap, recording its duration into `hist`.
    pub fn lap(&mut self, hist: HistId) {
        if let Some((_, last)) = &mut self.marks {
            let now = crate::clock::now();
            self.rec
                .record_duration(hist, now.saturating_duration_since(*last));
            *last = now;
        }
    }

    /// Records the time from the first lap's start to the last lap's end
    /// into `hist`.
    pub fn finish(self, hist: HistId) {
        if let Some((start, last)) = self.marks {
            self.rec
                .record_duration(hist, last.saturating_duration_since(start));
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled)
            .field(
                "spans",
                &self.spans.lock().expect("span mutex never poisoned").len(),
            )
            .field("histograms", &self.histogram_names().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let rec = Recorder::new();
        rec.incr(Counter::Ticks);
        rec.add(Counter::Ticks, 9);
        assert_eq!(rec.counter(Counter::Ticks), 10);
    }

    #[test]
    fn null_recorder_records_nothing() {
        let rec = Recorder::null();
        rec.incr(Counter::Ticks);
        let h = rec.register_histogram("x");
        rec.record_duration(h, Duration::from_millis(1));
        {
            let _s = rec.span("cat", "name");
        }
        assert_eq!(rec.counter(Counter::Ticks), 0);
        assert_eq!(rec.histogram(h).count(), 0);
        assert!(rec.spans().is_empty());
        assert!(!rec.is_enabled());
    }

    #[test]
    fn laps_record_each_lap_and_the_whole() {
        let rec = Recorder::new();
        let (a, b, whole) = (
            rec.register_histogram("stage:a"),
            rec.register_histogram("stage:b"),
            rec.register_histogram("tick"),
        );
        for _ in 0..3 {
            let mut laps = rec.laps();
            laps.lap(a);
            laps.lap(b);
            laps.finish(whole);
        }
        for h in [a, b, whole] {
            assert_eq!(rec.histogram(h).count(), 3);
        }
        // The laps partition the whole: one clock read per boundary.
        let laps_ns = rec.histogram(a).sum_ns() + rec.histogram(b).sum_ns();
        assert_eq!(rec.histogram(whole).sum_ns(), laps_ns);
        assert!(rec.spans().is_empty(), "laps leave no span records");

        let null = Recorder::null();
        let h = null.register_histogram("tick");
        let mut laps = null.laps();
        laps.lap(h);
        laps.finish(h);
        assert_eq!(null.histogram(h).count(), 0);
    }

    #[test]
    fn histogram_registration_is_idempotent() {
        let rec = Recorder::new();
        let a = rec.register_histogram("stage:power");
        let b = rec.register_histogram("stage:thermal");
        let a2 = rec.register_histogram("stage:power");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(rec.histogram_names(), vec!["stage:power", "stage:thermal"]);
    }

    #[test]
    fn spans_record_and_sort() {
        let rec = Recorder::new();
        {
            let _outer = rec.span("tick", "tick");
            let _inner = rec.span("stage", "power");
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].start_us <= spans[1].start_us);
        assert!(spans.iter().any(|s| s.name == "tick"));
        assert!(spans.iter().any(|s| s.name == "power"));
    }

    #[test]
    fn snapshot_lists_every_counter_in_order() {
        let rec = Recorder::new();
        rec.incr(Counter::Migrations);
        let snap = rec.snapshot();
        assert_eq!(snap.counters.len(), Counter::COUNT);
        assert_eq!(snap.counter("mpt_events_migration_total"), Some(1));
        assert_eq!(snap.counter("mpt_ticks_total"), Some(0));
        assert_eq!(snap.counter("no_such"), None);
    }

    #[test]
    fn shared_across_threads() {
        let rec = std::sync::Arc::new(Recorder::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rec = std::sync::Arc::clone(&rec);
                s.spawn(move || {
                    for _ in 0..1000 {
                        rec.incr(Counter::StageRuns);
                    }
                    let _span = rec.span("cell", "worker");
                });
            }
        });
        assert_eq!(rec.counter(Counter::StageRuns), 4000);
        assert_eq!(rec.spans().len(), 4);
    }
}
