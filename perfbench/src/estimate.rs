//! The closed-loop runner and the best-of-R host-time estimator.
//!
//! Op kinds run round-robin — kind 0, 1, …, K−1, then again — with one
//! op in flight, until the time budget is spent. Each kind is scored by
//! its fastest repetition: on a shared host, slow phases inflate every
//! timing they touch, and the minimum over many repetitions is the only
//! estimator that repeats from run to run. Medians and upper quantiles
//! are kept as diagnostics of how noisy the host was.

/// Runs `op(kind)` round-robin over `kinds` kinds until `now()` reaches
/// `budget_s` past its first reading, always finishing at least one full
/// round. Returns the kinds in the order they ran.
pub fn round_robin(
    kinds: usize,
    budget_s: f64,
    mut now: impl FnMut() -> f64,
    mut op: impl FnMut(usize),
) -> Vec<usize> {
    let start = now();
    let mut order = Vec::new();
    if kinds == 0 {
        return order;
    }
    loop {
        let kind = order.len() % kinds;
        op(kind);
        order.push(kind);
        if order.len() >= kinds && now() - start >= budget_s {
            return order;
        }
    }
}

/// The fastest of a kind's repetitions (`None` when it has none).
pub fn best(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().reduce(f64::min)
}

/// The `q`-quantile (0–1) by linear interpolation between order
/// statistics; `None` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// One kind's timed repetitions, in seconds.
#[derive(Debug, Clone, Default)]
pub struct KindTimes {
    /// Simulated seconds (device-seconds for fleets) one op covers.
    pub sim_s: f64,
    /// Whole-op host time: JSON text to the op's last output.
    pub whole: Vec<f64>,
    /// Set-up host time: JSON text to the first simulated tick.
    pub setup: Vec<f64>,
}

/// The end-to-end figures of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Estimate {
    /// Σ simulated seconds over kinds ÷ Σ each kind's fastest whole op.
    pub sim_speed: f64,
    /// Mean over kinds of each kind's fastest set-up.
    pub setup_s: f64,
    /// Diagnostics: median and p90 of every whole-op sample pooled.
    pub raw_median_s: f64,
    pub raw_p90_s: f64,
    /// Diagnostics: Σ per-kind median ÷ Σ per-kind best whole-op time.
    pub median_over_best: f64,
    /// Fewest and most repetitions any kind got.
    pub reps: (usize, usize),
}

/// Σ simulated seconds over kinds ÷ Σ each kind's fastest whole op;
/// `None` when some kind has no successful repetition.
pub fn sim_speed(kinds: &[KindTimes]) -> Option<f64> {
    let mut best_sum = 0.0;
    for k in kinds {
        best_sum += best(&k.whole)?;
    }
    Some(kinds.iter().map(|k| k.sim_s).sum::<f64>() / best_sum)
}

/// Applies the best-of-R rule. `None` when some kind has no successful
/// repetition to score.
pub fn estimate(kinds: &[KindTimes]) -> Option<Estimate> {
    let mut best_sum = 0.0;
    let mut median_sum = 0.0;
    let mut setup_sum = 0.0;
    let mut pooled = Vec::new();
    for k in kinds {
        best_sum += best(&k.whole)?;
        median_sum += quantile(&k.whole, 0.5)?;
        setup_sum += best(&k.setup)?;
        pooled.extend_from_slice(&k.whole);
    }
    let reps = kinds.iter().map(|k| k.whole.len());
    Some(Estimate {
        sim_speed: sim_speed(kinds)?,
        setup_s: setup_sum / kinds.len() as f64,
        raw_median_s: quantile(&pooled, 0.5)?,
        raw_p90_s: quantile(&pooled, 0.9)?,
        median_over_best: median_sum / best_sum,
        reps: (reps.clone().min()?, reps.max()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles_kinds_in_order_and_finishes_the_first_round() {
        // Each op advances a fake clock by 1 s.
        let clock = std::cell::Cell::new(0.0);
        let mut ran = Vec::new();
        let tick = |k: usize, ran: &mut Vec<usize>| {
            ran.push(k);
            clock.set(clock.get() + 1.0);
        };
        // A budget shorter than one op still runs every kind once.
        let order = round_robin(3, 0.5, || clock.get(), |k| tick(k, &mut ran));
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(ran, order);
        let order = round_robin(3, 7.0, || clock.get(), |k| tick(k, &mut ran));
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2, 0]);
        assert!(round_robin(0, 1.0, || clock.get(), |_| {}).is_empty());
    }

    #[test]
    fn best_of_r_scores_each_kind_by_its_fastest_repetition() {
        let kinds = [
            KindTimes {
                sim_s: 20.0,
                whole: vec![0.050, 0.040, 0.090, 0.041],
                setup: vec![0.0011, 0.0010, 0.0030],
            },
            KindTimes {
                sim_s: 30.0,
                whole: vec![0.070, 0.060, 0.200],
                setup: vec![0.0020, 0.0040],
            },
        ];
        let e = estimate(&kinds).expect("every kind has samples");
        // (20 + 30) sim-s over (0.040 + 0.060) host-s.
        assert!((e.sim_speed - 500.0).abs() < 1e-9);
        assert!((e.setup_s - 0.0015).abs() < 1e-12);
        assert!((e.median_over_best - (0.0455 + 0.070) / 0.100).abs() < 1e-9);
        assert_eq!(e.reps, (3, 4));
        // A slow phase that doubles every other repetition leaves the
        // estimate untouched, while the median moves.
        let mut slow = kinds.clone();
        for k in &mut slow {
            let extra: Vec<f64> = k.whole.iter().map(|t| t * 2.0).collect();
            k.whole.extend(extra);
        }
        let s = estimate(&slow).expect("every kind has samples");
        assert_eq!(s.sim_speed, e.sim_speed);
        assert!(s.raw_median_s > e.raw_median_s);
    }

    #[test]
    fn a_kind_without_samples_cannot_be_scored() {
        let kinds = [KindTimes {
            sim_s: 1.0,
            whole: Vec::new(),
            setup: vec![0.1],
        }];
        assert_eq!(estimate(&kinds), None);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.5));
        assert_eq!(quantile(&[1.0, 2.0], 1.0), Some(2.0));
        assert_eq!(best(&[2.0, 0.5, 1.0]), Some(0.5));
    }
}
