//! Cycle allocation and delivery: the scheduler stage.

use mpt_kernel::allocate_max_min;
use mpt_soc::ComponentId;

use crate::engine::SimCore;
use crate::stages::StepContext;

/// Allocates each CPU cluster's cycle capacity max–min fairly among its
/// processes (respecting per-process parallelism), allocates the GPU the
/// same way, and delivers the granted cycles back to the workloads.
///
/// Produces the delivered cycles and the utilization figures every
/// later stage consumes.
pub(crate) fn run(core: &mut SimCore, ctx: &mut StepContext) {
    let dt = ctx.dt;

    // CPU clusters.
    for cluster in [ComponentId::LittleCluster, ComponentId::BigCluster] {
        let Ok(component) = core.platform.component(cluster) else {
            continue;
        };
        let freq = core.policies[&cluster].current();
        let per_core = component.effective_rate(freq) * dt.value();
        let cores = f64::from(component.core_count());
        let capacity = per_core * cores;
        ctx.requests.clear();
        ctx.request_slots.clear();
        for (slot, (a, d)) in core.workloads.iter().zip(&ctx.demands).enumerate() {
            if core
                .scheduler
                .process(a.pid)
                .is_some_and(|p| p.cluster() == cluster)
            {
                ctx.requests
                    .push((a.pid, d.cpu_cycles.min(d.cpu_threads * per_core)));
                ctx.request_slots.push(slot);
            }
        }
        allocate_max_min(
            &ctx.requests,
            capacity,
            &mut ctx.order,
            &mut ctx.allocations,
        );
        let mut total = 0.0;
        // Governors see the *busiest CPU's* load, as the Linux
        // cpufreq core does (a single saturated thread must drive the
        // cluster to high frequency even though the cluster-average
        // utilization is only 1/cores).
        let mut busiest_thread = 0.0_f64;
        for (alloc, &slot) in ctx.allocations.iter().zip(&ctx.request_slots) {
            ctx.delivered_cpu[slot] = alloc.delivered;
            total += alloc.delivered;
            let threads = ctx.demands[slot].cpu_threads.clamp(1.0, cores);
            if per_core > 0.0 {
                busiest_thread = busiest_thread.max(alloc.delivered / (threads * per_core));
            }
        }
        ctx.busy_cores[cluster as usize] = if per_core > 0.0 {
            total / per_core
        } else {
            0.0
        };
        let avg = if capacity > 0.0 {
            total / capacity
        } else {
            0.0
        };
        ctx.cluster_util[cluster as usize] = avg.max(busiest_thread);
    }

    // GPU.
    if core.platform.component(ComponentId::Gpu).is_ok() {
        let freq = core.policies[&ComponentId::Gpu].current();
        let capacity = freq.as_f64() * dt.value();
        ctx.requests.clear();
        ctx.request_slots.clear();
        for (slot, (a, d)) in core.workloads.iter().zip(&ctx.demands).enumerate() {
            if d.gpu_cycles > 0.0 {
                ctx.requests.push((a.pid, d.gpu_cycles));
                ctx.request_slots.push(slot);
            }
        }
        allocate_max_min(
            &ctx.requests,
            capacity,
            &mut ctx.order,
            &mut ctx.allocations,
        );
        let mut total = 0.0;
        for (alloc, &slot) in ctx.allocations.iter().zip(&ctx.request_slots) {
            ctx.delivered_gpu[slot] = alloc.delivered;
            total += alloc.delivered;
        }
        ctx.gpu_util = if capacity > 0.0 {
            total / capacity
        } else {
            0.0
        };
    }

    // Deliver to workloads.
    for (slot, a) in core.workloads.iter_mut().enumerate() {
        a.workload.deliver(
            ctx.delivered_cpu[slot],
            ctx.delivered_gpu[slot],
            ctx.now,
            dt,
        );
    }
}
