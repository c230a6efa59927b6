//! Allocation discipline of the simulator pass, pinned by exact counts.
//!
//! A pass reuses one step context, reads each sensor temperature from
//! the zone slot the thermal stage stored, and maps powers onto nodes
//! once, so a steady-state pass allocates nothing of its own. What is
//! left is amortized growth: the telemetry frame's columns doubling, a
//! frequency first seen by the residency table, the event log, and the
//! IPA governor's own per-poll maps.
//!
//! Each test warms a simulator up for 20 s, then counts the allocations
//! of 1,000 base-tick steps (10 ms tick, 100 ms telemetry). A counting
//! global allocator pins the counts; its counter is per thread, so each
//! test counts only its own allocations, not those of sibling tests
//! running beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mpt_kernel::{IpaConfig, IpaGovernor, ProcessClass, StepWiseGovernor, TripPoint};
use mpt_sim::{SimBuilder, Simulator};
use mpt_soc::{platforms, ComponentId};
use mpt_units::{Celsius, Seconds, Watts};
use mpt_workloads::apps;
use mpt_workloads::benchmarks::ThreeDMark;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: pure pass-through to the `System` allocator — same layout
// contract, no bookkeeping that could alias or retain the pointers; the
// counter is a const-initialised thread-local `Cell` (no allocation, no
// destructor) with no effect on allocation itself. This file, the
// thermal alloc-discipline test and the mpt-obs journal are the
// workspace's three sanctioned `unsafe` sites (see ci.yml's unsafe
// gate).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; we
        // forward the same layout unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by the matching `alloc` above with
        // the same layout, as `GlobalAlloc::dealloc` requires.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling thread performs in 1,000 steps after a 20 s
/// warm-up.
fn steady_state_allocs(mut sim: Simulator) -> usize {
    sim.run_for(Seconds::new(20.0)).unwrap();
    let before = ALLOCS.with(Cell::get);
    for _ in 0..1_000 {
        sim.step().unwrap();
    }
    ALLOCS.with(Cell::get) - before
}

#[test]
fn nexus_step_wise_pass_does_not_allocate() {
    // The shipped throttled-game setup: a step-wise governor with trips
    // at 38 and 41 °C capping the GPU up to state 3 and the big cluster
    // up to state 5.
    let platform = platforms::snapdragon_810();
    let governed = vec![
        (platform.component(ComponentId::Gpu).unwrap().clone(), 3),
        (
            platform.component(ComponentId::BigCluster).unwrap().clone(),
            5,
        ),
    ];
    let trips = [38.0, 41.0]
        .map(|c| TripPoint::new(Celsius::new(c), Celsius::new(1.5)))
        .to_vec();
    let sim = SimBuilder::new(platform)
        .attach(
            Box::new(apps::paper_io(42)),
            ProcessClass::Foreground,
            ComponentId::BigCluster,
        )
        .initial_temperature(Celsius::new(35.0))
        .thermal_governor(Box::new(StepWiseGovernor::with_state_limits(
            trips, governed,
        )))
        .trip_reference(Celsius::new(38.0))
        .build()
        .unwrap();
    let allocs = steady_state_allocs(sim);
    assert!(
        allocs < 100,
        "1,000 Nexus passes made {allocs} allocations; only amortized growth may allocate"
    );
}

#[test]
fn odroid_ipa_pass_allocates_less_than_once() {
    // Allocations left here are the IPA governor's own per-poll maps
    // (one poll per ten passes), not the pass.
    let platform = platforms::exynos_5422();
    let actors = vec![
        (
            platform.component(ComponentId::BigCluster).unwrap().clone(),
            1.0,
        ),
        (platform.component(ComponentId::Gpu).unwrap().clone(), 1.0),
    ];
    let sim = SimBuilder::new(platform)
        .attach_realtime(
            Box::new(ThreeDMark::new()),
            ProcessClass::Foreground,
            ComponentId::BigCluster,
        )
        .initial_temperature(Celsius::new(50.0))
        .thermal_governor(Box::new(IpaGovernor::with_weights(
            IpaConfig {
                control_temp: Celsius::new(80.0),
                sustainable_power: Watts::new(2.5),
                ..IpaConfig::default()
            },
            actors,
        )))
        .trip_reference(Celsius::new(80.0))
        .build()
        .unwrap();
    let allocs = steady_state_allocs(sim);
    assert!(
        allocs < 1_000,
        "1,000 Odroid passes made {allocs} allocations; a pass must not allocate"
    );
}
