//! The workload abstraction: demand in, delivered cycles out.

use std::fmt;

use mpt_units::Seconds;

/// A workload's resource request for one simulation tick.
///
/// CPU work is expressed in *big-cluster-equivalent cycles* (one cycle of
/// a big core at IPC 1); when a process runs on the little cluster the
/// simulator converts through the cluster's `perf_per_clock`, so migrating
/// a task to the little cluster both slows it down and cuts its power —
/// the mechanism the paper's governor exploits.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Demand {
    /// CPU cycles wanted this tick (big-equivalent).
    pub cpu_cycles: f64,
    /// Maximum CPU parallelism (threads that can run simultaneously).
    pub cpu_threads: f64,
    /// GPU cycles wanted this tick.
    pub gpu_cycles: f64,
    /// Whether a user interaction (touch) happened this tick — the
    /// trigger Android's `interactive` governor boosts on.
    pub interaction: bool,
}

impl Demand {
    /// A completely idle tick.
    pub(crate) const IDLE: Demand = Demand {
        cpu_cycles: 0.0,
        cpu_threads: 0.0,
        gpu_cycles: 0.0,
        interaction: false,
    };
}

/// A demand generator driven by the simulation loop.
///
/// Call order per tick: [`demand`](Workload::demand) first, then (after
/// the simulator allocates capacity) [`deliver`](Workload::deliver) with
/// the cycles actually granted. The `Any` supertrait lets a
/// `&dyn Workload` upcast to `&dyn Any`, so benchmark scores and app
/// pipelines can be read back by concrete type after a run.
pub trait Workload: fmt::Debug + Send + std::any::Any {
    /// The workload's display name.
    fn name(&self) -> &str;

    /// The resource request for the tick beginning at `now`.
    fn demand(&mut self, now: Seconds, dt: Seconds) -> Demand;

    /// Reports the cycles actually delivered for the tick at `now`.
    fn deliver(&mut self, cpu_cycles: f64, gpu_cycles: f64, now: Seconds, dt: Seconds);

    /// Whether the workload has run to completion (benchmarks terminate;
    /// apps run forever).
    fn is_finished(&self) -> bool {
        false
    }

    /// The median frame rate achieved so far, if this workload renders
    /// frames.
    fn median_fps(&self) -> Option<f64> {
        None
    }

    /// The *instantaneous* frame rate (a short trailing window), if this
    /// workload renders frames — the signal the per-tick observability
    /// stream and `fps_below` alert rules watch. `None` until enough
    /// frame history exists, and always `None` for compute workloads.
    fn current_fps(&self) -> Option<f64> {
        None
    }

    /// The next simulated time at which this workload's demand *rate*
    /// changes, as seen from `now` — the phase boundary the event-driven
    /// engine schedules a wake for.
    ///
    /// The contract: `Some(t)` promises the demand per unit time is
    /// constant on `[now, t)`, so the engine may cover that span in one
    /// macro pass; `Some(Seconds::new(f64::INFINITY))` promises it never
    /// changes again. `None` (the default) makes no promise at all —
    /// frame-based apps and benchmarks whose demand varies tick to tick
    /// return it, and the engine falls back to base-tick stepping.
    fn next_phase_change(&self, now: Seconds) -> Option<Seconds> {
        let _ = now;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_demand_is_zero() {
        let idle = Demand::IDLE;
        assert_eq!(idle.cpu_cycles, 0.0);
        assert_eq!(idle.gpu_cycles, 0.0);
        assert!(!idle.interaction);
    }

    #[test]
    fn workload_trait_is_object_safe() {
        fn assert_object(_: &dyn Workload) {}
        #[derive(Debug)]
        struct Nop;
        impl Workload for Nop {
            fn name(&self) -> &str {
                "nop"
            }
            fn demand(&mut self, _: Seconds, _: Seconds) -> Demand {
                Demand::IDLE
            }
            fn deliver(&mut self, _: f64, _: f64, _: Seconds, _: Seconds) {}
        }
        assert_object(&Nop);
        let nop: &dyn Workload = &Nop;
        assert!(nop.median_fps().is_none());
        assert!(!nop.is_finished());
    }
}
