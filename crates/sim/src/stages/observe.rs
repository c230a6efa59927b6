//! Observation: telemetry recording, discrete events, live sysfs values.

use mpt_soc::ComponentId;
use mpt_units::Seconds;

use crate::engine::{log_event, SimCore};
use crate::stages::{StepContext, Wake};
use crate::{Event, EventKind};

/// Records the tick into the run telemetry (frame rows, residency,
/// energy) from the zone temperatures the thermal stage stored, the
/// current frequencies and the power stage's
/// [`last_powers`](crate::Simulator::last_powers), and latches the
/// pass's worst frame rate for the analyze stage.
pub(crate) fn telemetry(core: &mut SimCore, ctx: &mut StepContext) {
    let mut freqs = [None; 4];
    for (&id, p) in &core.policies {
        freqs[id as usize] = Some(p.current());
    }
    ctx.fps = core.worst_fps();
    let temps = (core.platform.temperature_sensors().iter())
        .enumerate()
        .map(|(zone, s)| (s.name(), core.live.zone(zone)));
    core.telemetry
        .record(ctx.now, ctx.dt, temps, &freqs, &core.last_powers, ctx.fps);
}

/// Telemetry samples on the first pass *starting* at or after the sample
/// point, so the previous pass must end there.
pub(crate) fn telemetry_wake(core: &SimCore, now: Seconds) -> Wake {
    let next = core.telemetry.next_sample_time();
    let target = if next.value() <= now.value() + 1e-12 {
        // The pass about to start records a row stamped with its
        // start time but holding the temperatures at its end: keep
        // it one base tick long, as under fixed-dt stepping.
        now + core.clock.base_dt()
    } else {
        next
    };
    Wake::At(target)
}

/// The events stage's memory of the previous pass, by attach slot: each
/// process's cluster (`None` before its first pass) and whether its
/// completion has been logged.
#[derive(Debug)]
pub(crate) struct Seen {
    clusters: Vec<Option<ComponentId>>,
    finished: Vec<bool>,
}

impl Seen {
    /// An empty snapshot of `processes` attached processes.
    pub(crate) fn new(processes: usize) -> Self {
        Self {
            clusters: vec![None; processes],
            finished: vec![false; processes],
        }
    }

    /// Detects discrete events (cluster migrations, workload completions)
    /// against the previous pass, then publishes the pass's values to the
    /// live sysfs files.
    pub(crate) fn run(&mut self, core: &mut SimCore, ctx: &StepContext) {
        for (slot, a) in core.workloads.iter().enumerate() {
            let Some(p) = core.scheduler.process(a.pid) else {
                continue;
            };
            let cluster = p.cluster();
            if let Some(prev) = self.clusters[slot] {
                if prev != cluster {
                    log_event(
                        &core.recorder,
                        &mut core.events,
                        Event {
                            time: ctx.now,
                            kind: EventKind::Migration {
                                pid: a.pid,
                                name: a.workload.name().to_owned(),
                                from: prev,
                                to: cluster,
                            },
                        },
                    );
                }
            }
            self.clusters[slot] = Some(cluster);
            if a.workload.is_finished() && !self.finished[slot] {
                self.finished[slot] = true;
                log_event(
                    &core.recorder,
                    &mut core.events,
                    Event {
                        time: ctx.now,
                        kind: EventKind::WorkloadFinished {
                            pid: a.pid,
                            name: a.workload.name().to_owned(),
                        },
                    },
                );
            }
        }
        core.publish_sysfs();
    }
}
