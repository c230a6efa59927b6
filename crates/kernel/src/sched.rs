//! Process table and per-cluster CPU allocation.

use std::collections::BTreeMap;

use mpt_soc::ComponentId;
use mpt_units::Seconds;

use crate::{KernelError, Pid, Process, Result};

/// The default rolling-window span used for per-process utilization and
/// power accounting (the paper uses a one-second window).
pub(crate) const DEFAULT_WINDOW: Seconds = Seconds::new(1.0);

/// One process's share of a cluster's cycle capacity for a tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Allocation {
    /// The process.
    pub pid: Pid,
    /// Cycles actually granted this tick.
    pub delivered: f64,
    /// Cycles the process asked for.
    pub demanded: f64,
}

/// Max–min fair allocation of `capacity` cycles among competing demands,
/// written into `out`: one [`Allocation`] per demand, in demand order.
///
/// Small demands are fully served first; the remaining capacity is split
/// evenly among the still-hungry processes (water-filling). This is the
/// fairness model of the Linux CFS scheduler at equal weights.
///
/// `order` receives the sort's index permutation. Both buffers are
/// cleared on entry and keep their capacity, so a caller that reuses
/// them stops allocating once they have grown to its largest demand set.
///
/// # Examples
///
/// ```
/// use mpt_kernel::{allocate_max_min, Pid};
///
/// let demands = [(Pid::new(1), 10.0), (Pid::new(2), 100.0), (Pid::new(3), 100.0)];
/// let (mut order, mut out) = (Vec::new(), Vec::new());
/// allocate_max_min(&demands, 110.0, &mut order, &mut out);
/// assert_eq!(out[0].delivered, 10.0); // small demand fully served
/// assert_eq!(out[1].delivered, 50.0); // remainder split evenly
/// assert_eq!(out[2].delivered, 50.0);
/// ```
pub fn allocate_max_min(
    demands: &[(Pid, f64)],
    capacity: f64,
    order: &mut Vec<usize>,
    out: &mut Vec<Allocation>,
) {
    order.clear();
    order.extend(0..demands.len());
    order.sort_by(|&i, &j| {
        demands[i]
            .1
            .partial_cmp(&demands[j].1)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out.clear();
    out.resize(
        demands.len(),
        Allocation {
            pid: Pid::new(0),
            delivered: 0.0,
            demanded: 0.0,
        },
    );
    let mut remaining = capacity.max(0.0);
    let mut left = demands.len();
    for &idx in order.iter() {
        let (pid, demand) = demands[idx];
        let demand = demand.max(0.0);
        let fair_share = remaining / left as f64;
        let granted = demand.min(fair_share);
        out[idx] = Allocation {
            pid,
            delivered: granted,
            demanded: demand,
        };
        remaining -= granted;
        left -= 1;
    }
}

/// The process table: spawn, kill, migrate, and per-tick accounting.
///
/// # Examples
///
/// ```
/// use mpt_kernel::Scheduler;
/// use mpt_soc::ComponentId;
///
/// let mut sched = Scheduler::new();
/// let pid = sched.spawn("bml", ComponentId::BigCluster);
/// sched.migrate(pid, ComponentId::LittleCluster)?;
/// assert_eq!(sched.on_cluster(ComponentId::LittleCluster).count(), 1);
/// # Ok::<(), mpt_kernel::KernelError>(())
/// ```
#[derive(Debug, Default)]
pub struct Scheduler {
    processes: BTreeMap<Pid, Process>,
    next_pid: u32,
    window: Option<Seconds>,
}

impl Scheduler {
    /// Creates an empty process table with the default 1 s accounting
    /// window.
    #[must_use]
    pub fn new() -> Self {
        Self {
            processes: BTreeMap::new(),
            next_pid: 1,
            window: None,
        }
    }

    /// Creates a scheduler whose processes use a custom accounting window
    /// (used by the ablation study on the paper's 1 s choice).
    #[must_use]
    pub fn with_window(window: Seconds) -> Self {
        Self {
            processes: BTreeMap::new(),
            next_pid: 1,
            window: Some(window),
        }
    }

    /// Spawns a process on a CPU cluster, returning its pid.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is not a CPU cluster; spawning onto the GPU is
    /// a programming error (GPU work is expressed through the workload's
    /// GPU demand instead).
    pub fn spawn(&mut self, name: impl Into<String>, cluster: ComponentId) -> Pid {
        assert!(cluster.is_cpu(), "processes run on CPU clusters");
        let pid = Pid::new(self.next_pid);
        self.next_pid += 1;
        let span = self.window.unwrap_or(DEFAULT_WINDOW);
        self.processes
            .insert(pid, Process::new(pid, name, cluster, span));
        pid
    }

    /// Moves a process to another CPU cluster.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`] or [`KernelError::NotACpuCluster`].
    pub fn migrate(&mut self, pid: Pid, cluster: ComponentId) -> Result<()> {
        if !cluster.is_cpu() {
            return Err(KernelError::NotACpuCluster { id: cluster });
        }
        let p = self
            .processes
            .get_mut(&pid)
            .ok_or(KernelError::NoSuchProcess { pid })?;
        p.set_cluster(cluster);
        Ok(())
    }

    /// Looks up a process.
    #[must_use]
    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.processes.get(&pid)
    }

    /// Looks up a process mutably.
    #[must_use]
    pub fn process_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.processes.get_mut(&pid)
    }

    /// Iterates over all processes in pid order.
    pub fn iter(&self) -> impl Iterator<Item = &Process> {
        self.processes.values()
    }

    /// Number of live processes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.processes.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }

    /// Iterates over the processes currently assigned to `cluster`.
    pub fn on_cluster(&self, cluster: ComponentId) -> impl Iterator<Item = &Process> {
        self.processes
            .values()
            .filter(move |p| p.cluster() == cluster)
    }

    /// Registers a process as real-time (exempt from application-aware
    /// throttling), as the paper's governor allows.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`].
    pub fn set_realtime(&mut self, pid: Pid, realtime: bool) -> Result<()> {
        self.processes
            .get_mut(&pid)
            .map(|p| p.set_realtime(realtime))
            .ok_or(KernelError::NoSuchProcess { pid })
    }

    /// The non-realtime process with the highest windowed power
    /// consumption — the paper's migration victim selection. Returns
    /// `None` if there is no eligible process with nonzero windowed power.
    #[must_use]
    pub fn most_power_hungry(&self, exclude_cluster: Option<ComponentId>) -> Option<&Process> {
        self.processes
            .values()
            .filter(|p| !p.is_realtime())
            .filter(|p| Some(p.cluster()) != exclude_cluster)
            .filter(|p| p.windowed_power().value() > 0.0)
            .max_by(|a, b| {
                a.windowed_power()
                    .value()
                    .partial_cmp(&b.windowed_power().value())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }
}

impl<'a> IntoIterator for &'a Scheduler {
    type Item = &'a Process;
    type IntoIter = std::collections::btree_map::Values<'a, Pid, Process>;

    fn into_iter(self) -> Self::IntoIter {
        self.processes.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_units::Watts;
    use proptest::prelude::*;

    #[test]
    fn spawn_assigns_unique_pids() {
        let mut s = Scheduler::new();
        let a = s.spawn("a", ComponentId::BigCluster);
        let b = s.spawn("b", ComponentId::LittleCluster);
        assert_ne!(a, b);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn migrate_to_gpu_is_rejected() {
        let mut s = Scheduler::new();
        let a = s.spawn("a", ComponentId::BigCluster);
        assert!(matches!(
            s.migrate(a, ComponentId::Gpu).unwrap_err(),
            KernelError::NotACpuCluster { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "CPU clusters")]
    fn spawn_on_gpu_is_a_bug() {
        let mut s = Scheduler::new();
        let _ = s.spawn("a", ComponentId::Gpu);
    }

    #[test]
    fn on_cluster_filters() {
        let mut s = Scheduler::new();
        let a = s.spawn("a", ComponentId::BigCluster);
        let _b = s.spawn("b", ComponentId::BigCluster);
        s.migrate(a, ComponentId::LittleCluster).unwrap();
        assert_eq!(s.on_cluster(ComponentId::BigCluster).count(), 1);
        assert_eq!(s.on_cluster(ComponentId::LittleCluster).count(), 1);
    }

    #[test]
    fn most_power_hungry_respects_realtime_exemption() {
        let mut s = Scheduler::new();
        let hungry = s.spawn("hungry", ComponentId::BigCluster);
        let modest = s.spawn("modest", ComponentId::BigCluster);
        for _ in 0..10 {
            s.process_mut(hungry)
                .unwrap()
                .record_tick(4.0, Watts::new(2.0), Seconds::new(0.1));
            s.process_mut(modest)
                .unwrap()
                .record_tick(1.0, Watts::new(0.5), Seconds::new(0.1));
        }
        assert_eq!(s.most_power_hungry(None).unwrap().pid(), hungry);
        // Register the hungry one as real-time: the modest one is picked.
        s.set_realtime(hungry, true).unwrap();
        assert_eq!(s.most_power_hungry(None).unwrap().pid(), modest);
    }

    #[test]
    fn most_power_hungry_can_exclude_a_cluster() {
        let mut s = Scheduler::new();
        let big = s.spawn("big-task", ComponentId::BigCluster);
        let little = s.spawn("little-task", ComponentId::LittleCluster);
        for _ in 0..10 {
            s.process_mut(big)
                .unwrap()
                .record_tick(1.0, Watts::new(0.5), Seconds::new(0.1));
            s.process_mut(little)
                .unwrap()
                .record_tick(4.0, Watts::new(2.0), Seconds::new(0.1));
        }
        // Excluding the little cluster (already-throttled victims) picks
        // the big-cluster process even though it draws less.
        let victim = s
            .most_power_hungry(Some(ComponentId::LittleCluster))
            .unwrap();
        assert_eq!(victim.pid(), big);
    }

    #[test]
    fn most_power_hungry_none_when_all_idle() {
        let mut s = Scheduler::new();
        let _ = s.spawn("idle", ComponentId::BigCluster);
        assert!(s.most_power_hungry(None).is_none());
    }

    #[test]
    fn allocation_under_capacity_serves_everyone() {
        let demands = [(Pid::new(1), 30.0), (Pid::new(2), 20.0)];
        let (mut order, mut out) = (Vec::new(), Vec::new());
        allocate_max_min(&demands, 100.0, &mut order, &mut out);
        assert_eq!(out[0].delivered, 30.0);
        assert_eq!(out[1].delivered, 20.0);
    }

    #[test]
    fn allocation_over_capacity_is_max_min_fair() {
        let demands = [
            (Pid::new(1), 10.0),
            (Pid::new(2), 100.0),
            (Pid::new(3), 100.0),
        ];
        let (mut order, mut out) = (Vec::new(), Vec::new());
        allocate_max_min(&demands, 110.0, &mut order, &mut out);
        assert!((out[0].delivered - 10.0).abs() < 1e-9);
        assert!((out[1].delivered - 50.0).abs() < 1e-9);
        assert!((out[2].delivered - 50.0).abs() < 1e-9);
    }

    #[test]
    fn allocation_of_empty_demands() {
        let (mut order, mut out) = (Vec::new(), Vec::new());
        allocate_max_min(&[], 100.0, &mut order, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn allocation_clamps_negative_inputs() {
        let (mut order, mut out) = (Vec::new(), Vec::new());
        allocate_max_min(&[(Pid::new(1), -5.0)], -10.0, &mut order, &mut out);
        assert_eq!(out[0].delivered, 0.0);
    }

    proptest! {
        #[test]
        fn prop_allocation_conserves_capacity(
            demands in proptest::collection::vec(0.0_f64..50.0, 1..10),
            capacity in 0.0_f64..100.0,
        ) {
            let demands: Vec<(Pid, f64)> = demands
                .into_iter()
                .enumerate()
                .map(|(i, d)| (Pid::new(i as u32 + 1), d))
                .collect();
            let (mut order, mut out) = (Vec::new(), Vec::new());
            allocate_max_min(&demands, capacity, &mut order, &mut out);
            let total: f64 = out.iter().map(|a| a.delivered).sum();
            let demand_total: f64 = demands.iter().map(|(_, d)| d).sum();
            prop_assert!(total <= capacity + 1e-9);
            prop_assert!(total <= demand_total + 1e-9);
            // Work-conserving: if demand exceeds capacity, capacity is
            // fully used, otherwise demand is fully served.
            prop_assert!((total - capacity.min(demand_total)).abs() < 1e-6);
            // No process exceeds its demand.
            for a in &out {
                prop_assert!(a.delivered <= a.demanded + 1e-9);
            }
        }

        #[test]
        fn prop_allocation_is_fair(
            d1 in 0.0_f64..50.0,
            d2 in 0.0_f64..50.0,
            capacity in 1.0_f64..60.0,
        ) {
            // Equal demands get equal shares.
            let (mut order, mut out) = (Vec::new(), Vec::new());
            allocate_max_min(
                &[(Pid::new(1), d1), (Pid::new(2), d1), (Pid::new(3), d2)],
                capacity,
                &mut order,
                &mut out,
            );
            prop_assert!((out[0].delivered - out[1].delivered).abs() < 1e-9);
        }
    }
}
