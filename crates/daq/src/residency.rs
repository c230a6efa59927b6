//! Time-in-state (residency) accounting.

use std::collections::BTreeMap;

use mpt_units::Seconds;

/// Accumulates how long a signal spent in each discrete state — the
/// measurement behind the paper's GPU/CPU frequency-residency histograms
/// (Figures 2, 4 and 6), equivalent to cpufreq's `stats/time_in_state`.
///
/// # Examples
///
/// ```
/// use mpt_daq::Residency;
/// use mpt_units::{Hertz, Seconds};
///
/// let mut r = Residency::new();
/// r.record(Hertz::from_mhz(390), Seconds::new(6.7));
/// r.record(Hertz::from_mhz(600), Seconds::new(3.3));
/// let pct = r.percentages();
/// assert!((pct[&Hertz::from_mhz(390)] - 67.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Residency<K: Ord = mpt_units::Hertz> {
    time_in_state: BTreeMap<K, f64>,
    total: f64,
}

impl<K: Ord + Copy> Residency<K> {
    /// Creates an empty counter.
    #[must_use]
    pub fn new() -> Self {
        Self {
            time_in_state: BTreeMap::new(),
            total: 0.0,
        }
    }

    /// Records `dt` spent in `state`. Non-positive durations are ignored.
    pub fn record(&mut self, state: K, dt: Seconds) {
        let dt = dt.value();
        if dt <= 0.0 {
            return;
        }
        *self.time_in_state.entry(state).or_insert(0.0) += dt;
        self.total += dt;
    }

    /// Total observed time.
    #[must_use]
    pub fn total(&self) -> Seconds {
        Seconds::new(self.total)
    }

    /// Fraction of time per state (sums to 1 when nonempty).
    #[must_use]
    pub(crate) fn fractions(&self) -> BTreeMap<K, f64> {
        if self.total <= 0.0 {
            return BTreeMap::new();
        }
        self.time_in_state
            .iter()
            .map(|(&k, &t)| (k, t / self.total))
            .collect()
    }

    /// Percentage of time per state (sums to 100 when nonempty) — the
    /// y-axis of the paper's residency figures.
    #[must_use]
    pub fn percentages(&self) -> BTreeMap<K, f64> {
        self.fractions()
            .into_iter()
            .map(|(k, f)| (k, f * 100.0))
            .collect()
    }

    /// Ensures the given states appear in the output maps even with zero
    /// residency (the paper's histograms show all OPPs, including unused
    /// ones).
    pub fn ensure_states<I: IntoIterator<Item = K>>(&mut self, states: I) {
        for s in states {
            self.time_in_state.entry(s).or_insert(0.0);
        }
    }

    /// Iterates over `(state, seconds)` in state order.
    pub fn iter(&self) -> impl Iterator<Item = (K, Seconds)> + '_ {
        self.time_in_state
            .iter()
            .map(|(&k, &t)| (k, Seconds::new(t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_units::Hertz;
    use proptest::prelude::*;

    #[test]
    fn percentages_sum_to_100() {
        let mut r = Residency::new();
        r.record(Hertz::from_mhz(180), Seconds::new(1.0));
        r.record(Hertz::from_mhz(390), Seconds::new(2.0));
        r.record(Hertz::from_mhz(600), Seconds::new(1.0));
        let sum: f64 = r.percentages().values().sum();
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_counter_yields_empty_maps() {
        let r: Residency<Hertz> = Residency::new();
        assert!(r.fractions().is_empty());
        assert_eq!(r.total(), Seconds::ZERO);
    }

    #[test]
    fn zero_and_negative_durations_ignored() {
        let mut r = Residency::new();
        r.record(Hertz::from_mhz(180), Seconds::ZERO);
        r.record(Hertz::from_mhz(180), Seconds::new(-1.0));
        assert_eq!(r.total(), Seconds::ZERO);
    }

    #[test]
    fn ensure_states_adds_zero_bars() {
        let mut r = Residency::new();
        r.record(Hertz::from_mhz(390), Seconds::new(1.0));
        r.ensure_states([Hertz::from_mhz(180), Hertz::from_mhz(600)]);
        let pct = r.percentages();
        assert_eq!(pct.len(), 3);
        assert_eq!(pct[&Hertz::from_mhz(180)], 0.0);
        assert_eq!(pct[&Hertz::from_mhz(600)], 0.0);
    }

    proptest! {
        #[test]
        fn prop_fractions_sum_to_one(
            states in proptest::collection::vec((0u64..8, 0.001_f64..10.0), 1..40),
        ) {
            let mut r = Residency::new();
            for (s, d) in states {
                r.record(Hertz::from_mhz(s * 100), Seconds::new(d));
            }
            let sum: f64 = r.fractions().values().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }

        #[test]
        fn prop_time_in_state_never_exceeds_total(
            states in proptest::collection::vec((0u64..4, 0.001_f64..10.0), 1..20),
        ) {
            let mut r = Residency::new();
            for (s, d) in &states {
                r.record(Hertz::from_mhz(s * 100), Seconds::new(*d));
            }
            for (_, t) in r.iter() {
                prop_assert!(t.value() <= r.total().value() + 1e-9);
            }
        }
    }
}
