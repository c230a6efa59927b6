//! The power model and per-process power accounting.

use mpt_soc::ComponentId;
use mpt_units::Watts;

use crate::engine::SimCore;
use crate::stages::StepContext;

/// Converts delivered utilization into per-component power (dynamic plus
/// temperature-dependent leakage from the *previous* tick's temperatures
/// — the positive feedback loop) and maps it onto the thermal nodes,
/// then attributes cluster dynamic power to processes and records their
/// utilization/power windows.
pub(crate) fn run(core: &mut SimCore, ctx: &StepContext) {
    let dt = ctx.dt;
    let little_busy = ctx.busy_cores[ComponentId::LittleCluster as usize];
    let big_busy = ctx.busy_cores[ComponentId::BigCluster as usize];

    // Per-component power (leakage from the previous tick's
    // temperatures), and the node-power vector the thermal stage steps
    // under.
    core.node_powers.fill(Watts::ZERO);
    for component in core.platform.components() {
        let id = component.id();
        let freq = core.policies[&id].current();
        let opp = component.opps().at_or_below(freq);
        let util = match id {
            ComponentId::LittleCluster => little_busy,
            ComponentId::BigCluster => big_busy,
            ComponentId::Gpu => ctx.gpu_util,
            ComponentId::Memory => {
                (0.04 * little_busy + 0.08 * big_busy + 0.5 * ctx.gpu_util).min(1.0)
            }
        };
        let node = core
            .platform
            .thermal_spec()
            .node_for_component(id)
            .expect("validated at platform build");
        let power = component.power_params().power(
            opp.voltage(),
            opp.frequency(),
            util,
            core.network.temperature(node),
        );
        core.node_powers[node] += power.total();
        core.last_powers[id as usize] = Some(power);
    }

    // Attribute power to processes and record their windows. The
    // paper's governor ranks processes "by monitoring the average
    // utilization of each active process", i.e. by their *CPU*
    // activity — GPU power is a property of the display pipeline, not
    // of a schedulable process, so it is not attributed. A cluster's
    // dynamic power splits by each process's share of the cycles the
    // cluster delivered, summed in attach order as the schedule stage
    // delivered them.
    let mut delivered = [0.0_f64; 4];
    for (a, &cycles) in core.workloads.iter().zip(&ctx.delivered_cpu) {
        if let Some(p) = core.scheduler.process(a.pid) {
            delivered[p.cluster() as usize] += cycles;
        }
    }
    for (a, &cycles) in core.workloads.iter().zip(&ctx.delivered_cpu) {
        let cluster = core
            .scheduler
            .process(a.pid)
            .expect("attached workloads have processes")
            .cluster();
        let component = core.component(cluster);
        let freq = core.policies[&cluster].current();
        let per_core = component.effective_rate(freq) * dt.value();
        let util = if per_core > 0.0 {
            cycles / per_core
        } else {
            0.0
        };
        let total = delivered[cluster as usize];
        let power = if total > 0.0 {
            let dynamic = core.last_powers[cluster as usize]
                .expect("every platform component has a power")
                .dynamic;
            dynamic.value() * cycles / total
        } else {
            0.0
        };
        if let Some(p) = core.scheduler.process_mut(a.pid) {
            p.record_tick(util, Watts::new(power), dt);
        }
    }
}
