//! The single source of simulated time shared by both stepping modes.
//!
//! Before the event-driven engine existed, "what time is it" lived in two
//! `SimCore` fields (`time`, `dt`) and every stage implicitly assumed the
//! step size never changed. [`SimClock`] centralizes that bookkeeping:
//! current sim time, the base tick the scenario was configured with, the
//! duration of the most recent pass (which in event mode may be many base
//! ticks long) and a monotonically increasing pass counter.

use mpt_units::Seconds;

/// Simulation time bookkeeping shared by the fixed-dt and event-driven
/// stepping modes.
///
/// In fixed-dt mode every pass advances by exactly
/// [`base_dt`](SimClock::base_dt); in event-driven mode a pass may cover
/// any whole multiple of the base tick. Either way, stages read the pass
/// length from the `dt` they are handed and the wall of record is
/// [`now`](SimClock::now).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimClock {
    time: Seconds,
    base_dt: Seconds,
    last_dt: Seconds,
    steps: u64,
}

impl SimClock {
    /// A clock at time zero with the given base tick.
    pub fn new(base_dt: Seconds) -> Self {
        SimClock {
            time: Seconds::ZERO,
            base_dt,
            last_dt: Seconds::ZERO,
            steps: 0,
        }
    }

    /// Current simulated time (start of the next pass).
    pub fn now(&self) -> Seconds {
        self.time
    }

    /// The configured base tick — the dt of every fixed-mode pass and
    /// the quantum event-mode gaps are quantized to.
    pub fn base_dt(&self) -> Seconds {
        self.base_dt
    }

    /// Duration of the most recently completed pass (zero before the
    /// first pass).
    pub fn last_dt(&self) -> Seconds {
        self.last_dt
    }

    /// Number of passes completed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Advance the clock by one completed pass of length `dt`.
    pub fn advance(&mut self, dt: Seconds) {
        self.time += dt;
        self.last_dt = dt;
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
        assert_eq!(clock.last_dt(), Seconds::ZERO);
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
        assert_eq!(clock.last_dt(), dt);
    }

    #[test]
    fn variable_length_passes_record_last_dt() {
        let mut clock = SimClock::new(Seconds::new(0.01));
        clock.advance(Seconds::new(0.01));
        clock.advance(Seconds::new(0.5));
        assert_eq!(clock.last_dt(), Seconds::new(0.5));
        assert_eq!(clock.now(), Seconds::new(0.51));
        assert_eq!(clock.steps(), 2);
    }
}
