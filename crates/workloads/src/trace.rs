//! Trace-playback workloads: replay a recorded demand schedule.
//!
//! Useful for regression tests (exact, scriptable demand), for replaying
//! demand captured from real devices, and as the deterministic input for
//! property-based tests of the simulator.

use mpt_units::Seconds;

use crate::{Demand, Workload};

/// One segment of a demand trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSegment {
    /// Segment duration.
    pub duration: Seconds,
    /// CPU cycles per second demanded during the segment.
    pub cpu_rate: f64,
    /// Parallelism bound.
    pub cpu_threads: f64,
    /// GPU cycles per second demanded during the segment.
    pub gpu_rate: f64,
}

impl TraceSegment {
    /// A fully idle segment.
    #[must_use]
    pub fn idle(duration: Seconds) -> Self {
        Self {
            duration,
            cpu_rate: 0.0,
            cpu_threads: 0.0,
            gpu_rate: 0.0,
        }
    }

    /// A CPU-only segment.
    #[must_use]
    pub fn cpu(duration: Seconds, rate: f64, threads: f64) -> Self {
        Self {
            duration,
            cpu_rate: rate,
            cpu_threads: threads,
            gpu_rate: 0.0,
        }
    }
}

/// Replays a sequence of [`TraceSegment`]s, optionally looping.
///
/// # Examples
///
/// ```
/// use mpt_workloads::trace::{TraceSegment, TraceWorkload};
/// use mpt_workloads::Workload;
/// use mpt_units::Seconds;
///
/// let mut w = TraceWorkload::new(
///     "burst-then-idle",
///     vec![
///         TraceSegment::cpu(Seconds::new(1.0), 1.0e9, 1.0),
///         TraceSegment::idle(Seconds::new(1.0)),
///     ],
///     true, // loop forever
/// );
/// let busy = w.demand(Seconds::new(0.5), Seconds::from_millis(10.0));
/// let idle = w.demand(Seconds::new(1.5), Seconds::from_millis(10.0));
/// assert!(busy.cpu_cycles > 0.0);
/// assert_eq!(idle.cpu_cycles, 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    name: String,
    segments: Vec<TraceSegment>,
    looping: bool,
    total: f64,
    delivered_cpu: f64,
    delivered_gpu: f64,
}

impl TraceWorkload {
    /// Creates a trace playback.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty or any duration is not positive.
    #[must_use]
    pub fn new(name: impl Into<String>, segments: Vec<TraceSegment>, looping: bool) -> Self {
        assert!(!segments.is_empty(), "a trace needs at least one segment");
        assert!(
            segments.iter().all(|s| s.duration.value() > 0.0),
            "segment durations must be positive"
        );
        let total = segments.iter().map(|s| s.duration.value()).sum();
        Self {
            name: name.into(),
            segments,
            looping,
            total,
            delivered_cpu: 0.0,
            delivered_gpu: 0.0,
        }
    }

    /// Cycles delivered so far: `(cpu, gpu)`.
    #[must_use]
    pub fn delivered(&self) -> (f64, f64) {
        (self.delivered_cpu, self.delivered_gpu)
    }

    fn segment_at(&self, now: Seconds) -> Option<&TraceSegment> {
        let mut t = now.value();
        if self.looping {
            t = t.rem_euclid(self.total);
        } else if t >= self.total {
            return None;
        }
        let mut acc = 0.0;
        for seg in &self.segments {
            acc += seg.duration.value();
            if t < acc {
                return Some(seg);
            }
        }
        self.segments.last()
    }
}

impl Workload for TraceWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn demand(&mut self, now: Seconds, dt: Seconds) -> Demand {
        match self.segment_at(now) {
            Some(seg) => Demand {
                cpu_cycles: seg.cpu_rate * dt.value(),
                cpu_threads: seg.cpu_threads,
                gpu_cycles: seg.gpu_rate * dt.value(),
                interaction: false,
            },
            None => Demand::IDLE,
        }
    }

    fn deliver(&mut self, cpu_cycles: f64, gpu_cycles: f64, _now: Seconds, _dt: Seconds) {
        self.delivered_cpu += cpu_cycles.max(0.0);
        self.delivered_gpu += gpu_cycles.max(0.0);
    }

    fn is_finished(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn two_phase(looping: bool) -> TraceWorkload {
        TraceWorkload::new(
            "t",
            vec![
                TraceSegment::cpu(Seconds::new(1.0), 2.0e9, 2.0),
                TraceSegment::idle(Seconds::new(1.0)),
            ],
            looping,
        )
    }

    #[test]
    fn plays_segments_in_order() {
        let mut w = two_phase(false);
        assert!(w.demand(Seconds::new(0.2), Seconds::new(0.01)).cpu_cycles > 0.0);
        assert_eq!(
            w.demand(Seconds::new(1.5), Seconds::new(0.01)),
            Demand::IDLE
        );
        // Past the end of a non-looping trace: idle.
        assert_eq!(
            w.demand(Seconds::new(5.0), Seconds::new(0.01)),
            Demand::IDLE
        );
    }

    #[test]
    fn looping_wraps_around() {
        let mut w = two_phase(true);
        assert!(w.demand(Seconds::new(2.3), Seconds::new(0.01)).cpu_cycles > 0.0);
        assert_eq!(
            w.demand(Seconds::new(3.5), Seconds::new(0.01)),
            Demand::IDLE
        );
    }

    #[test]
    fn accounts_delivered_cycles() {
        let mut w = two_phase(false);
        w.deliver(1.0e7, 5.0e6, Seconds::ZERO, Seconds::new(0.01));
        w.deliver(-3.0, -2.0, Seconds::ZERO, Seconds::new(0.01));
        assert_eq!(w.delivered(), (1.0e7, 5.0e6));
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_trace_is_a_bug() {
        let _ = TraceWorkload::new("x", vec![], false);
    }

    #[test]
    fn trace_length_sums_segments() {
        assert_eq!(two_phase(false).total, 2.0);
    }

    proptest! {
        #[test]
        fn prop_looping_demand_is_periodic(t in 0.0_f64..10.0) {
            let mut w1 = two_phase(true);
            let mut w2 = two_phase(true);
            let dt = Seconds::new(0.01);
            let d1 = w1.demand(Seconds::new(t), dt);
            let d2 = w2.demand(Seconds::new(t + 2.0), dt);
            prop_assert_eq!(d1, d2);
        }
    }
}
