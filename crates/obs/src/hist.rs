//! Log-scale latency histograms.
//!
//! Durations land in power-of-two nanosecond buckets (bucket *i* covers
//! `[2^(i-1), 2^i)` ns), so 64 atomic slots span everything from 1 ns to
//! ~584 years with a fixed ~2× relative error on quantile estimates —
//! the classic HdrHistogram-style trade for an allocation-free, lock-free
//! hot path.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets.
pub(crate) const BUCKETS: usize = 64;

/// A pre-registered histogram's id: an index into the recorder's fixed
/// histogram table. Obtained from
/// [`Recorder::register_histogram`](crate::Recorder::register_histogram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(pub(crate) usize);

impl HistId {
    /// The histogram's slot index.
    #[must_use]
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// A concurrent log2-bucketed histogram over nanosecond durations.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    // 0 -> bucket 0; otherwise 1 + floor(log2(ns)), capped at the top.
    if ns == 0 {
        0
    } else {
        ((64 - ns.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration in nanoseconds.
    pub(crate) fn record_ns(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded durations, nanoseconds.
    #[must_use]
    pub(crate) fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Largest recorded duration, nanoseconds.
    #[must_use]
    pub(crate) fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// Mean duration in nanoseconds (0 when empty).
    #[must_use]
    pub(crate) fn mean_ns(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_ns() as f64 / n as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) in nanoseconds: the upper
    /// bound of the bucket holding the `ceil(q*count)`-th sample. Returns
    /// 0 for an empty histogram.
    #[must_use]
    pub(crate) fn quantile_ns(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Upper bound of bucket i: 2^i - 1 clamped to i=0 -> 0.
                return if i == 0 {
                    0
                } else {
                    (1u64 << i).saturating_sub(1)
                };
            }
        }
        self.max_ns()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum_ns", &self.sum_ns())
            .field("max_ns", &self.max_ns())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_bracket_the_samples() {
        let h = Histogram::new();
        for ns in [100u64, 200, 300, 400, 10_000] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_ns(), 11_000);
        assert_eq!(h.max_ns(), 10_000);
        let p50 = h.quantile_ns(0.5);
        // 300 lands in bucket [256, 512); upper bound 511.
        assert!((256..=511).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_ns(0.99);
        assert!(p99 >= 10_000, "p99 = {p99}");
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile_ns(0.5), 0);
        assert_eq!(h.mean_ns(), 0.0);
    }
}
