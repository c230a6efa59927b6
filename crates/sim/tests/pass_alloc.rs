//! Allocation discipline of the simulator pass, pinned by exact counts.
//!
//! A pass reuses one step context, reads each sensor temperature from
//! the zone slot the thermal stage stored, and maps powers onto nodes
//! once, so a steady-state pass allocates nothing of its own. A bounded
//! run (`run_for`, `run_until`) sizes the telemetry frame for every row
//! it can record before its first pass, and the event engine's trip
//! bisection probes into a buffer the core keeps against thresholds
//! fixed at build. A frame pipeline keeps one count per closed second
//! and a two-second window of deliveries, and a sysfs write looks its
//! path up without copying it. A thermal poll writes each cap through a
//! `scaling_max_freq` path built at build, its value formatted on the
//! stack. What is left:
//!
//! - a frame pipeline's per-second counts growing by doubling (one entry
//!   per simulated second): the one allocation the GT2 gate counts;
//! - a frequency first seen by the residency table, and the event log
//!   growing by doubling;
//! - the governor's returned action `Vec` on a thermal poll that changes
//!   a cap.
//!
//! Each test runs a simulator for 30 s (10 ms tick, 100 ms telemetry)
//! and counts the allocations of its last 1,000 passes. A counting
//! global allocator pins the counts; its counter is per thread, so each
//! test counts only its own allocations, not those of sibling tests
//! running beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mpt_kernel::{IpaConfig, IpaGovernor, StepWiseGovernor, TripPoint};
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
// destructor) with no effect on allocation itself. This file and the
// thermal alloc-discipline test are the workspace's two sanctioned
// `unsafe` sites (see ci.yml's unsafe gate).
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

/// Allocations the calling thread performs in the last 1,000 passes of
/// one 30 s run, after 2,000 passes (20 s) of warm-up. The run is one
/// `run_until` call, as a session is one `run_for` call, so the
/// telemetry frame is sized for the whole run before the count starts;
/// the predicate, called between passes, marks the count.
fn steady_state_allocs(mut sim: Simulator) -> usize {
    let mut before = None;
    sim.run_until(
        |s| {
            if s.clock().steps() == 2_000 {
                before = Some(ALLOCS.with(Cell::get));
            }
            false
        },
        Seconds::new(30.0),
    )
    .unwrap();
    assert_eq!(sim.clock().steps(), 3_000, "a 30 s run of 10 ms passes");
    ALLOCS.with(Cell::get) - before.expect("the count starts at pass 2,000")
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
        .attach(Box::new(apps::paper_io(42)), ComponentId::BigCluster)
        .initial_temperature(Celsius::new(35.0))
        .thermal_governor(Box::new(StepWiseGovernor::with_state_limits(
            trips, governed,
        )))
        .trip_reference(Celsius::new(38.0))
        .build()
        .unwrap();
    // Measured: 0.
    let allocs = steady_state_allocs(sim);
    assert!(
        allocs < 3,
        "1,000 Nexus passes made {allocs} allocations; only amortized growth may allocate"
    );
}

/// An Odroid run of `bench` from 50 °C under IPA over the big cluster
/// and the GPU, regulating toward `control_c`.
fn odroid_ipa(control_c: f64, bench: ThreeDMark) -> Simulator {
    let platform = platforms::exynos_5422();
    let actors = vec![
        (
            platform.component(ComponentId::BigCluster).unwrap().clone(),
            1.0,
        ),
        (platform.component(ComponentId::Gpu).unwrap().clone(), 1.0),
    ];
    SimBuilder::new(platform)
        .attach_realtime(Box::new(bench), ComponentId::BigCluster)
        .initial_temperature(Celsius::new(50.0))
        .thermal_governor(Box::new(IpaGovernor::with_weights(
            IpaConfig {
                control_temp: Celsius::new(control_c),
                sustainable_power: Watts::new(2.5),
                ..IpaConfig::default()
            },
            actors,
        )))
        .trip_reference(Celsius::new(control_c))
        .build()
        .unwrap()
}

#[test]
fn odroid_ipa_pass_allocates_less_than_once() {
    // Control at 80 °C: the run stays at 65-69 °C, so every poll takes
    // the headroom branch and finds no cap to release. Measured: 0.
    let allocs = steady_state_allocs(odroid_ipa(80.0, ThreeDMark::new()));
    assert!(
        allocs < 3,
        "1,000 Odroid passes made {allocs} allocations; a pass must not allocate"
    );
}

#[test]
fn odroid_gt2_pass_allocates_less_than_once() {
    // The same 80 °C setup with a 10 s GT1, so the counted passes
    // (20-30 s) run 3DMark's second graphics test, whose completion
    // the demand, schedule and events stages check on every pass.
    // Measured: 1, GT2's per-second counts doubling at its 17th second.
    // A check that rebuilt GT2's per-second FPS buckets made 3,016.
    let bench = ThreeDMark::with_durations(Seconds::new(10.0), Seconds::new(60.0));
    let allocs = steady_state_allocs(odroid_ipa(80.0, bench));
    assert!(
        allocs < 3,
        "1,000 Odroid GT2 passes made {allocs} allocations; a pass must not allocate"
    );
}

#[test]
fn sysfs_cap_write_does_not_allocate() {
    // A cap write looks its path up in the attribute table without
    // copying it, and the `scaling_max_freq` handler parses the value
    // into an atomic. Measured: 0; when a write copied its path into
    // components, 700.
    let sim = odroid_ipa(80.0, ThreeDMark::new());
    let path = mpt_kernel::paths::max_freq(ComponentId::BigCluster);
    let before = ALLOCS.with(Cell::get);
    for _ in 0..100 {
        sim.sysfs().write(&path, "1400000").unwrap();
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(sim.sysfs().read(&path).unwrap(), "1400000");
    assert_eq!(allocs, 0, "100 cap writes made {allocs} allocations");
}

#[test]
fn odroid_ipa_divvy_poll_allocates_only_for_cap_changes() {
    // Control at 45 °C, below the 50 °C start: the run sits at 46-48 °C,
    // so every one of the 100 polls runs the PID budget and `divvy`,
    // whose per-actor state lives in fixed arrays. The governor itself
    // allocates only the returned action `Vec`, on polls that change a
    // cap; applying a cap allocates nothing. Measured: 11, the window's
    // 9 action `Vec`s and 2 doublings of the event log (2 to 11
    // entries); 38 when each write formatted its path and value, 111
    // when a write also copied its path into components.
    let allocs = steady_state_allocs(odroid_ipa(45.0, ThreeDMark::new()));
    assert!(
        allocs < 14,
        "1,000 hot Odroid passes made {allocs} allocations; only cap changes may allocate"
    );
}
