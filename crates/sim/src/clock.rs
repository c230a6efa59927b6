//! The single source of simulated time shared by both stepping modes.
//!
//! Before the event-driven engine existed, "what time is it" lived in two
//! `SimCore` fields (`time`, `dt`) and every stage implicitly assumed the
//! step size never changed. [`SimClock`] centralizes that bookkeeping:
//! current sim time, the base tick the scenario was configured with and
//! a monotonically increasing pass counter. A pass's length (in event
//! mode, possibly many base ticks) is the `dt` the stages are handed.

use mpt_units::Seconds;

/// Simulation time bookkeeping shared by the fixed-dt and event-driven
/// stepping modes.
///
/// In fixed-dt mode every pass advances by exactly
/// the base tick; in event-driven mode a pass may cover
/// any whole multiple of the base tick. Either way, stages read the pass
/// length from the `dt` they are handed and the wall of record is the
/// clock's current time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimClock {
    time: Seconds,
    base_dt: Seconds,
    steps: u64,
}

impl SimClock {
    /// A clock at time zero with the given base tick.
    pub fn new(base_dt: Seconds) -> Self {
        SimClock {
            time: Seconds::ZERO,
            base_dt,
            steps: 0,
        }
    }

    /// Current simulated time (start of the next pass).
    pub(crate) fn now(&self) -> Seconds {
        self.time
    }

    /// The configured base tick — the dt of every fixed-mode pass and
    /// the quantum event-mode gaps are quantized to.
    pub(crate) fn base_dt(&self) -> Seconds {
        self.base_dt
    }

    /// Number of passes completed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Advance the clock by one completed pass of length `dt`.
    pub(crate) fn advance(&mut self, dt: Seconds) {
        self.time += dt;
        self.steps += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let clock = SimClock::new(Seconds::new(0.01));
        assert_eq!(clock.now(), Seconds::ZERO);
        assert_eq!(clock.base_dt(), Seconds::new(0.01));
        assert_eq!(clock.steps(), 0);
    }

    #[test]
    fn advance_accumulates_like_the_tick_loop() {
        let dt = Seconds::new(0.01);
        let mut clock = SimClock::new(dt);
        let mut reference = Seconds::ZERO;
        for _ in 0..1000 {
            clock.advance(dt);
            reference += dt;
        }
        // Bit-identical to the historical `time += dt` accumulation —
        // this is what keeps event mode's every-tick passes exactly
        // equal to fixed mode.
        assert_eq!(clock.now(), reference);
        assert_eq!(clock.steps(), 1000);
    }

    #[test]
    fn variable_length_passes_advance_time() {
        let mut clock = SimClock::new(Seconds::new(0.01));
        clock.advance(Seconds::new(0.01));
        clock.advance(Seconds::new(0.5));
        assert_eq!(clock.now(), Seconds::new(0.51));
        assert_eq!(clock.steps(), 2);
    }
}
