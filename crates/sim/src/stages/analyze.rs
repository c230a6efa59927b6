//! The analyze stage: the last phase of every tick, feeding the run's
//! [`RunAnalysis`](crate::RunAnalysis) — derived observables and alert
//! rules.

use mpt_kernel::CpuFreqPolicy;
use mpt_obs::TickSample;
use mpt_units::Seconds;

use crate::engine::SimCore;
use crate::stages::{StepContext, Wake};
use crate::EventKind;

/// Gathers the tick's domain signals (control temperature, total power,
/// worst FPS, throttle state) into one [`TickSample`] and hands it to
/// the core's analysis state.
pub(crate) fn run(core: &mut SimCore, ctx: &StepContext) {
    let temp_c = core.control_temperature().value();
    let power_w: f64 = (core.last_powers.iter().flatten())
        .map(|b| b.total().value())
        .sum();
    let throttled = core
        .policies
        .values()
        .any(|p| CpuFreqPolicy::max_cap(p).is_some());
    // Throttle activity since the last analyze pass: cap engagements
    // and cap-level moves, not releases.
    let throttle_events = core.events.events()[core.analysis.events_seen..]
        .iter()
        .filter(|e| matches!(e.kind, EventKind::CapChanged { cap: Some(_), .. }))
        .count() as u64;
    let sample = TickSample {
        t_s: (ctx.now + ctx.dt).value(),
        dt_s: ctx.dt.value(),
        temp_c,
        power_w,
        fps: ctx.fps,
        throttled,
        throttle_events,
    };
    let SimCore {
        ref recorder,
        ref mut events,
        ref mut analysis,
        ..
    } = *core;
    analysis.observe_tick(recorder, events, &sample);
}

/// An armed sustain window fires (or resets) exactly when its deadline
/// elapses; schedule the check so `held_s` accrues across macro steps
/// just as it would tick by tick.
pub(crate) fn next_wake(core: &SimCore, now: Seconds) -> Wake {
    match core.analysis.next_alert_deadline_s() {
        Some(remaining) => Wake::At(now + Seconds::new(remaining)),
        None => Wake::Never,
    }
}
