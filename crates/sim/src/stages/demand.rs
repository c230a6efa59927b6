//! Demand collection: workloads express what they want this tick.

use crate::engine::SimCore;
use crate::stages::{StepContext, Wake};

/// Asks every attached workload for its per-tick demand (CPU cycles and
/// parallelism, GPU cycles) and latches whether any touch interaction
/// occurred — the trigger the `interactive` cpufreq governor boosts on.
pub(crate) fn run(core: &mut SimCore, ctx: &mut StepContext) {
    for a in &mut core.workloads {
        let d = a.workload.demand(ctx.now, ctx.dt);
        ctx.interaction |= d.interaction;
        ctx.demands.push(d);
    }
}

/// The earliest promised phase change of an unfinished workload, or
/// [`Wake::EveryTick`] if any of them cannot promise one.
pub(crate) fn next_wake(core: &SimCore) -> Wake {
    let mut wake = Wake::Never;
    for a in &core.workloads {
        if a.workload.is_finished() {
            continue;
        }
        match a.workload.next_phase_change(core.clock.now()) {
            // No phase promise (frame-based apps/benchmarks): the
            // demand rate can change any tick.
            None => return Wake::EveryTick,
            Some(t) if t.value().is_finite() => {
                wake = wake.earliest(Wake::At(t));
            }
            // Constant forever: imposes nothing.
            Some(_) => {}
        }
    }
    wake
}
