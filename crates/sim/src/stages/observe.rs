//! Observation: telemetry recording, discrete events, live sysfs values.

use std::collections::{BTreeMap, BTreeSet};

use mpt_kernel::Pid;
use mpt_soc::ComponentId;
use mpt_units::{Hertz, Seconds};

use crate::engine::{log_event, SimCore};
use crate::queue::WakeKind;
use crate::stages::{SimStage, StepContext, Wake};
use crate::{Event, EventKind, Result};

/// Records the tick into the run telemetry (frame rows, residency,
/// energy) and latches this tick's powers as
/// [`Simulator::last_powers`](crate::Simulator::last_powers).
#[derive(Debug, Default)]
pub struct TelemetryStage;

impl SimStage for TelemetryStage {
    fn name(&self) -> &'static str {
        "telemetry"
    }

    fn run(&mut self, core: &mut SimCore, ctx: &mut StepContext) -> Result<()> {
        let freqs: Vec<(ComponentId, Hertz)> = core
            .policies
            .iter()
            .map(|(&id, p)| (id, p.current()))
            .collect();
        let sensor_temps = core.sensor_temps();
        let fps = core.worst_fps();
        core.telemetry
            .record(ctx.now, ctx.dt, &sensor_temps, &freqs, &ctx.powers, fps);
        core.last_powers = std::mem::take(&mut ctx.powers);
        Ok(())
    }

    fn next_wake(&mut self, core: &mut SimCore, now: Seconds) -> Wake {
        // Telemetry samples on the first pass *starting* at or after the
        // sample point, so the previous pass must end there.
        let next = core.telemetry.next_sample_time();
        let target = if next.value() <= now.value() + 1e-12 {
            // The pass about to start records a row stamped with its
            // start time but holding the temperatures at its end: keep
            // it one base tick long, as under fixed-dt stepping.
            now + core.clock.base_dt()
        } else {
            next
        };
        Wake::at(target, WakeKind::SamplePoint)
    }
}

/// Detects discrete events (cluster migrations, workload completions)
/// against its previous-tick snapshot, then publishes the pass's values
/// to the live sysfs files.
#[derive(Debug, Default)]
pub struct EventStage {
    prev_clusters: BTreeMap<Pid, ComponentId>,
    finished: BTreeSet<Pid>,
}

impl SimStage for EventStage {
    fn name(&self) -> &'static str {
        "events"
    }

    fn run(&mut self, core: &mut SimCore, ctx: &mut StepContext) -> Result<()> {
        for a in &core.workloads {
            let Some(p) = core.scheduler.process(a.pid) else {
                continue;
            };
            let cluster = p.cluster();
            if let Some(&prev) = self.prev_clusters.get(&a.pid) {
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
            self.prev_clusters.insert(a.pid, cluster);
            if a.workload.is_finished() && self.finished.insert(a.pid) {
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
        Ok(())
    }
}
