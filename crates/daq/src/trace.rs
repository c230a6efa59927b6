//! Timestamped signal traces.

use serde::{Deserialize, Serialize};

use mpt_units::Seconds;

/// A named, timestamped `f64` signal trace.
///
/// # Examples
///
/// ```
/// use mpt_daq::TimeSeries;
/// use mpt_units::Seconds;
///
/// let mut ts = TimeSeries::new("package_temp_c");
/// ts.push(Seconds::new(0.0), 25.0);
/// ts.push(Seconds::new(1.0), 26.5);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.max().unwrap(), 26.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    times: Vec<f64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty trace.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The trace name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the previous sample (traces are
    /// strictly forward in time; recording out of order is a harness bug).
    pub fn push(&mut self, t: Seconds, value: f64) {
        if let Some(&last) = self.times.last() {
            assert!(
                t.value() >= last,
                "time series must be monotone: {} < {last}",
                t.value()
            );
        }
        self.times.push(t.value());
        self.values.push(value);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Iterates over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Seconds, f64)> + '_ {
        self.times
            .iter()
            .zip(&self.values)
            .map(|(&t, &v)| (Seconds::new(t), v))
    }

    /// The raw values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The raw timestamps in seconds.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Minimum value, or `None` when empty.
    #[must_use]
    pub(crate) fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// Maximum value, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// Arithmetic mean, or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// The last value, or `None` when empty.
    #[must_use]
    pub fn last(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// The value at or before time `t` (step interpolation), or `None` if
    /// `t` precedes the first sample.
    #[must_use]
    pub(crate) fn at(&self, t: Seconds) -> Option<f64> {
        let idx = self.times.partition_point(|&x| x <= t.value());
        if idx == 0 {
            None
        } else {
            Some(self.values[idx - 1])
        }
    }

    /// Resamples onto a uniform grid of `n` points spanning the trace
    /// (step interpolation). Returns an empty vector for an empty trace or
    /// `n == 0`.
    #[must_use]
    pub(crate) fn resample(&self, n: usize) -> Vec<(f64, f64)> {
        if self.is_empty() || n == 0 {
            return Vec::new();
        }
        let (t0, t1) = (self.times[0], *self.times.last().expect("nonempty"));
        let span = (t1 - t0).max(0.0);
        (0..n)
            .map(|i| {
                let t = if n == 1 {
                    t0
                } else {
                    t0 + span * i as f64 / (n - 1) as f64
                };
                let v = self.at(Seconds::new(t)).unwrap_or(self.values[0]);
                (t, v)
            })
            .collect()
    }

    /// Serializes to CSV (`time,value` rows with a header).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = format!("time_s,{}\n", self.name);
        for (t, v) in self.iter() {
            out.push_str(&format!("{},{}\n", t.value(), v));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ramp() -> TimeSeries {
        let mut ts = TimeSeries::new("ramp");
        for i in 0..=10 {
            ts.push(Seconds::new(i as f64), i as f64 * 2.0);
        }
        ts
    }

    #[test]
    fn summary_statistics() {
        let ts = ramp();
        assert_eq!(ts.min(), Some(0.0));
        assert_eq!(ts.max(), Some(20.0));
        assert_eq!(ts.mean(), Some(10.0));
        assert_eq!(ts.last(), Some(20.0));
    }

    #[test]
    fn empty_trace_has_no_statistics() {
        let ts = TimeSeries::new("empty");
        assert!(ts.is_empty());
        assert_eq!(ts.min(), None);
        assert_eq!(ts.max(), None);
        assert_eq!(ts.mean(), None);
        assert_eq!(ts.at(Seconds::new(1.0)), None);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn out_of_order_push_is_a_bug() {
        let mut ts = TimeSeries::new("x");
        ts.push(Seconds::new(2.0), 1.0);
        ts.push(Seconds::new(1.0), 1.0);
    }

    #[test]
    fn step_lookup() {
        let ts = ramp();
        assert_eq!(ts.at(Seconds::new(3.5)), Some(6.0));
        assert_eq!(ts.at(Seconds::new(0.0)), Some(0.0));
        assert_eq!(ts.at(Seconds::new(-1.0)), None);
        assert_eq!(ts.at(Seconds::new(100.0)), Some(20.0));
    }

    #[test]
    fn resample_endpoints() {
        let ts = ramp();
        let rs = ts.resample(5);
        assert_eq!(rs.len(), 5);
        assert_eq!(rs[0], (0.0, 0.0));
        assert_eq!(rs[4], (10.0, 20.0));
    }

    #[test]
    fn resample_degenerate_cases() {
        let ts = ramp();
        assert!(ts.resample(0).is_empty());
        assert_eq!(ts.resample(1).len(), 1);
        let empty = TimeSeries::new("e");
        assert!(empty.resample(10).is_empty());
    }

    #[test]
    fn csv_round_shape() {
        let ts = ramp();
        let csv = ts.to_csv();
        assert!(csv.starts_with("time_s,ramp\n"));
        assert_eq!(csv.lines().count(), 12);
    }

    proptest! {
        #[test]
        fn prop_at_returns_an_observed_value(
            values in proptest::collection::vec(-10.0_f64..10.0, 1..30),
            probe in 0.0_f64..40.0,
        ) {
            let mut ts = TimeSeries::new("p");
            for (i, &v) in values.iter().enumerate() {
                ts.push(Seconds::new(i as f64), v);
            }
            if let Some(v) = ts.at(Seconds::new(probe)) {
                prop_assert!(values.contains(&v));
            }
        }

        #[test]
        fn prop_mean_between_min_and_max(
            values in proptest::collection::vec(-10.0_f64..10.0, 1..30),
        ) {
            let mut ts = TimeSeries::new("p");
            for (i, &v) in values.iter().enumerate() {
                ts.push(Seconds::new(i as f64), v);
            }
            let (mn, mx, mean) = (ts.min().unwrap(), ts.max().unwrap(), ts.mean().unwrap());
            prop_assert!(mn - 1e-9 <= mean && mean <= mx + 1e-9);
        }
    }
}
