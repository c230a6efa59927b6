//! Monotonic wall-clock spans.
//!
//! A span is opened with [`Recorder::span`](crate::Recorder::span) and
//! closed when its [`SpanGuard`] drops; the finished [`SpanRecord`] lands
//! in the recorder's span buffer, tagged with its lane. Lanes are stable
//! per OS thread (campaign workers each get their own lane), and become
//! the `tid` rows of the exported Chrome trace.
//!
//! Spans are for coarse, once-per-unit work (a campaign cell, a lint
//! phase). The simulator's per-pass stage timing goes straight into
//! histograms through [`Laps`](crate::recorder::Laps) instead, leaving
//! no span record behind.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use crate::hist::HistId;
use crate::recorder::Recorder;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (a campaign-cell label or a lint phase).
    pub name: Cow<'static, str>,
    /// Category, e.g. `"cell"` or `"lint"`.
    pub cat: &'static str,
    /// The lane (per-thread row) the span ran on.
    pub lane: u32,
    /// Start time in microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static LANE: u32 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's lane: a small integer stable for the thread's
/// lifetime and unique across threads.
#[must_use]
pub fn current_lane() -> u32 {
    LANE.with(|l| *l)
}

/// An open span; records itself into the recorder on drop. Obtained from
/// [`Recorder::span`](crate::Recorder::span); inert (no clock read, a
/// no-op on drop) when the recorder is disabled.
#[must_use = "a span measures the scope it is held for"]
#[derive(Debug)]
pub struct SpanGuard<'a> {
    /// The recorder and the span's start; `None` when disabled.
    open: Option<(&'a Recorder, Instant)>,
    name: Option<Cow<'static, str>>,
    cat: &'static str,
    hist: Option<HistId>,
}

impl<'a> SpanGuard<'a> {
    pub(crate) fn new(
        rec: Option<&'a Recorder>,
        name: Cow<'static, str>,
        cat: &'static str,
        hist: Option<HistId>,
    ) -> Self {
        Self {
            open: rec.map(|rec| (rec, crate::clock::now())),
            name: Some(name),
            cat,
            hist,
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some((rec, start)) = self.open else {
            return;
        };
        let elapsed = crate::clock::elapsed(start);
        if let Some(hist) = self.hist {
            rec.record_duration(hist, elapsed);
        }
        let name = self.name.take().unwrap_or(Cow::Borrowed("?"));
        rec.finish_span(SpanRecord {
            name,
            cat: self.cat,
            lane: current_lane(),
            start_us: rec.micros_since_epoch(start),
            dur_us: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_differ_across_threads() {
        let here = current_lane();
        assert_eq!(here, current_lane(), "lane is stable within a thread");
        let there = std::thread::spawn(current_lane).join().unwrap();
        assert_ne!(here, there);
    }
}
