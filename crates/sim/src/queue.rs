//! The event queue behind the event-driven stepping mode.
//!
//! A binary heap keyed by simulated time with deterministic FIFO
//! tie-breaking: two events scheduled for the same instant pop in the
//! order they were inserted, regardless of heap internals. Cancellation
//! is lazy — [`EventQueue::cancel`] marks the entry dead and
//! [`EventQueue::pop`] skips corpses — so re-arming a wake source (the
//! alert-sustain deadline does this every pass) never lets a stale event
//! fire.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use mpt_units::Seconds;

/// Why the engine wants to wake up — the event kinds of the macro-stepper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WakeKind {
    /// A cpufreq / thermal / system policy governor is due to poll.
    GovernorPoll,
    /// A workload's demand rate is about to change.
    PhaseChange,
    /// An armed alert-rule sustain window is about to expire.
    AlertDeadline,
    /// A telemetry sample point.
    SamplePoint,
    /// A predicted trip-point / alert-threshold temperature crossing.
    TripCrossing,
    /// The end of the requested simulation span.
    RunEnd,
}

impl WakeKind {
    /// Short lowercase label used in logs and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            WakeKind::GovernorPoll => "governor-poll",
            WakeKind::PhaseChange => "phase-change",
            WakeKind::AlertDeadline => "alert-deadline",
            WakeKind::SamplePoint => "sample-point",
            WakeKind::TripCrossing => "trip-crossing",
            WakeKind::RunEnd => "run-end",
        }
    }
}

/// Handle to a scheduled event, used to cancel it before it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

/// An event popped from the queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledEvent {
    /// The simulated time the event is due.
    pub time: Seconds,
    /// Why the wake was scheduled.
    pub kind: WakeKind,
    /// The handle it was scheduled under.
    pub id: EventId,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    time: f64,
    seq: u64,
    kind: WakeKind,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap + `Reverse`-free: invert here instead. Earlier time
        // wins; equal times break ties by insertion order (lower seq
        // first), which is what makes event ordering deterministic.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic time-ordered event queue.
///
/// Events with equal times pop in insertion order. `seq` doubles as the
/// [`EventId`], so cancellation is an O(1) mark plus a lazy skip on pop.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    next_seq: u64,
    /// Sequence numbers of cancelled-but-not-yet-popped entries.
    dead: std::collections::BTreeSet<u64>,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule an event at `time`; returns a handle for cancellation.
    pub fn schedule(&mut self, time: Seconds, kind: WakeKind) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time: time.value(),
            seq,
            kind,
        });
        EventId(seq)
    }

    /// Cancel a previously scheduled event. Safe to call after the event
    /// already popped (it simply does nothing).
    pub fn cancel(&mut self, id: EventId) {
        self.dead.insert(id.0);
    }

    /// Pop the earliest live event, skipping cancelled entries.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        while let Some(entry) = self.heap.pop() {
            if self.dead.remove(&entry.seq) {
                continue;
            }
            return Some(ScheduledEvent {
                time: Seconds::new(entry.time),
                kind: entry.kind,
                id: EventId(entry.seq),
            });
        }
        None
    }

    /// The time of the earliest live event without removing it.
    pub fn peek_time(&mut self) -> Option<Seconds> {
        while let Some(entry) = self.heap.peek() {
            if self.dead.contains(&entry.seq) {
                let seq = entry.seq;
                self.heap.pop();
                self.dead.remove(&seq);
                continue;
            }
            return Some(Seconds::new(entry.time));
        }
        None
    }

    /// Number of live events still queued.
    pub fn len(&self) -> usize {
        self.heap
            .iter()
            .filter(|entry| !self.dead.contains(&entry.seq))
            .count()
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of live wake events due at or before `t` (with the grid
    /// tolerance the engine uses), excluding the [`WakeKind::RunEnd`]
    /// bookkeeping entry — the wakes a macro pass ending at `t` absorbs
    /// without waking the engine separately.
    pub fn due_count(&self, t: Seconds) -> usize {
        self.heap
            .iter()
            .filter(|entry| {
                !self.dead.contains(&entry.seq)
                    && entry.kind != WakeKind::RunEnd
                    && entry.time <= t.value() + 1e-12
            })
            .count()
    }

    /// Drop every queued event (live or cancelled).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.dead.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(3.0), WakeKind::GovernorPoll);
        q.schedule(Seconds::new(1.0), WakeKind::PhaseChange);
        q.schedule(Seconds::new(2.0), WakeKind::SamplePoint);
        let order: Vec<f64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.value())
            .collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = Seconds::new(5.0);
        q.schedule(t, WakeKind::GovernorPoll);
        q.schedule(t, WakeKind::AlertDeadline);
        q.schedule(t, WakeKind::SamplePoint);
        let kinds: Vec<WakeKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                WakeKind::GovernorPoll,
                WakeKind::AlertDeadline,
                WakeKind::SamplePoint
            ]
        );
    }

    #[test]
    fn cancelled_events_never_fire() {
        let mut q = EventQueue::new();
        let stale = q.schedule(Seconds::new(1.0), WakeKind::AlertDeadline);
        q.schedule(Seconds::new(2.0), WakeKind::SamplePoint);
        q.cancel(stale);
        let first = q.pop().expect("one live event");
        assert_eq!(first.kind, WakeKind::SamplePoint);
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_and_rearm_alert_deadline_fires_only_the_fresh_event() {
        // The engine's per-pass pattern: the sustain deadline moves as
        // `held_s` accrues, so the old deadline is cancelled and a new
        // one armed. The stale (earlier!) deadline must never surface.
        let mut q = EventQueue::new();
        let stale = q.schedule(Seconds::new(1.5), WakeKind::AlertDeadline);
        q.cancel(stale);
        let fresh = q.schedule(Seconds::new(2.5), WakeKind::AlertDeadline);
        let event = q.pop().expect("fresh deadline");
        assert_eq!(event.id, fresh);
        assert_eq!(event.time, Seconds::new(2.5));
        assert!(q.pop().is_none());

        // Cancelling after the pop is a harmless no-op.
        q.cancel(fresh);
        q.schedule(Seconds::new(3.0), WakeKind::AlertDeadline);
        assert_eq!(q.pop().expect("next").time, Seconds::new(3.0));
    }

    #[test]
    fn peek_time_skips_corpses() {
        let mut q = EventQueue::new();
        let a = q.schedule(Seconds::new(1.0), WakeKind::GovernorPoll);
        q.schedule(Seconds::new(4.0), WakeKind::RunEnd);
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(Seconds::new(4.0)));
        assert_eq!(q.len(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any interleaving of scheduled events pops in
        /// (time, insertion-order) order.
        #[test]
        fn prop_pops_sorted_by_time_then_insertion(times in proptest::collection::vec(0u32..50, 1..64)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                let kind = if i % 2 == 0 { WakeKind::GovernorPoll } else { WakeKind::SamplePoint };
                q.schedule(Seconds::new(f64::from(t)), kind);
            }
            let mut expected: Vec<(f64, usize)> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| (f64::from(t), i))
                .collect();
            expected.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            let popped: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.value()).collect();
            let expected_times: Vec<f64> = expected.iter().map(|&(t, _)| t).collect();
            prop_assert_eq!(popped, expected_times);
        }

        /// Random cancellations: survivors pop in order, corpses never do.
        #[test]
        fn prop_cancelled_never_pop(
            times in proptest::collection::vec(0u32..20, 1..32),
            kill_mask in proptest::collection::vec(any::<bool>(), 32),
        ) {
            let mut q = EventQueue::new();
            let ids: Vec<EventId> = times
                .iter()
                .map(|&t| q.schedule(Seconds::new(f64::from(t)), WakeKind::AlertDeadline))
                .collect();
            let mut survivors: Vec<(f64, usize)> = Vec::new();
            for (i, (&t, id)) in times.iter().zip(&ids).enumerate() {
                if kill_mask[i % kill_mask.len()] && i % 3 != 0 {
                    q.cancel(*id);
                } else {
                    survivors.push((f64::from(t), i));
                }
            }
            survivors.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            let popped: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.value()).collect();
            let expected: Vec<f64> = survivors.iter().map(|&(t, _)| t).collect();
            prop_assert_eq!(popped, expected);
        }
    }
}
