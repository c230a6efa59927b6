//! Thermal integration: heat flows for one tick.

use mpt_obs::Counter;
use mpt_units::Seconds;

use crate::engine::SimCore;
use crate::stages::StepContext;
use crate::Result;

/// Integrates the heat equation across the pass under the power stage's
/// node-power vector, then stores each zone's new temperature in its
/// live sysfs slot — the one copy every later reader uses.
pub(crate) fn run(core: &mut SimCore, ctx: &StepContext) -> Result<()> {
    if let Some(trace) = core.power_trace.as_mut() {
        trace.push_tick(&core.node_powers);
    }
    let stats = core.network.step(ctx.dt, &core.node_powers)?;
    if stats.cache_hit {
        core.recorder.incr(Counter::SolverCacheHits);
    }
    if stats.cache_build {
        core.recorder.incr(Counter::SolverCacheBuilds);
    }
    core.recorder.add(
        Counter::SolverSubstepsAvoided,
        u64::from(stats.substeps_avoided),
    );
    core.publish_zones();
    Ok(())
}

/// Predicted trip-point crossing: bisects the analytical trajectory
/// `x(t) = Ad(t)·x0 + ∫Bd·u` (evaluated through the network's
/// solver, so exact-LTI probes share the `TransitionCache` keyed by
/// each probed gap) against every watched temperature threshold, and
/// stops the pass one base tick *before* the first crossing tick —
/// so the crossing tick itself contributes exactly one base dt of
/// sustain accrual, as it would in fixed-dt mode.
pub(crate) fn refine_wake(core: &mut SimCore, now: Seconds, target: Seconds) -> Option<Seconds> {
    let base = core.clock.base_dt();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let k_max = ((target.value() - now.value()) / base.value()).round() as u64;
    if k_max <= 1 {
        return None;
    }
    let watched = core.analysis.temp_thresholds().len();
    if watched == 0 {
        return None;
    }
    // Input held constant across the gap: the previous pass's node
    // powers, as the thermal stage stepped under them.
    let t0 = core.control_temperature().value();
    let t_end = core
        .peek_control_temperature(Seconds::new(k_max as f64 * base.value()))
        .ok()?
        .value();
    let crossed = |t: f64, threshold: f64| (t0 > threshold) != (t > threshold);
    let mut stop_at: Option<u64> = None;
    for i in 0..watched {
        // Read by index: each probe below borrows the core mutably.
        let threshold = core.analysis.temp_thresholds()[i];
        if !crossed(t_end, threshold) {
            continue;
        }
        // First k in 1..=k_max whose end temperature is on the other
        // side of the threshold (monotone approach to steady state
        // under constant input, so a single crossing per gap).
        let mut lo = 0u64;
        let mut hi = k_max;
        while hi - lo > 1 {
            core.macro_stats.trip_bisection_iters += 1;
            core.recorder.incr(Counter::TripBisectionIters);
            let mid = lo + (hi - lo) / 2;
            let tm = core
                .peek_control_temperature(Seconds::new(mid as f64 * base.value()))
                .ok()?
                .value();
            if crossed(tm, threshold) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let stop = hi.saturating_sub(1).max(1);
        stop_at = Some(stop_at.map_or(stop, |s| s.min(stop)));
    }
    stop_at.map(|k| now + Seconds::new(k as f64 * base.value()))
}
