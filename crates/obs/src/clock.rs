//! The workspace's single wall-clock authority.
//!
//! Simulation results must be a pure function of the scenario spec and
//! seed — wall-clock time may only influence *observability* (span
//! timestamps, campaign wall-time accounting, progress reporting). To
//! keep that auditable, every wall-clock read in the workspace goes
//! through this module, and the `mpt-lint` determinism scanner (MPT201)
//! flags `Instant::now()` / `.elapsed()` anywhere else. This file is the
//! only entry in the scanner's allowlist (`crates/lint/determinism.allow`).

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Reads the monotonic wall clock. The one sanctioned `Instant::now()`
/// call site in the workspace.
#[must_use]
pub fn now() -> Instant {
    #[allow(clippy::disallowed_methods)]
    Instant::now()
}

/// Wall-clock time elapsed since `start`. Equivalent to
/// `start.elapsed()`, routed through this module so the read shows up in
/// the determinism audit.
#[must_use]
pub fn elapsed(start: Instant) -> Duration {
    now().saturating_duration_since(start)
}

/// What one [`now`] read adds to an interval timed between two reads:
/// the median interval of back-to-back reads, measured once per process
/// over 1,001 pairs. Subtracting it from a timed interval leaves (about)
/// the work in between. The median and not the minimum: on a 2-vCPU
/// x86-64 VM with a TSC clock source the minimum (~33 ns) sits ~12 ns
/// below a typical read, and nine laps a pass then overstate the stages
/// by ~0.1 µs, enough to read stage coverage above 1.
#[must_use]
pub(crate) fn read_cost() -> Duration {
    const PAIRS: usize = 1_001;
    static COST: OnceLock<Duration> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut pairs = [Duration::ZERO; PAIRS];
        for pair in &mut pairs {
            let start = now();
            *pair = now().saturating_duration_since(start);
        }
        *pairs.select_nth_unstable(PAIRS / 2).1
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic_and_nonnegative() {
        let start = now();
        let a = elapsed(start);
        let b = elapsed(start);
        assert!(b >= a);
    }

    #[test]
    fn read_cost_is_measured_once() {
        let cost = read_cost();
        assert_eq!(read_cost(), cost);
        assert!(cost < Duration::from_millis(1), "{cost:?}");
    }
}
