//! Allocation discipline of the MPT6xx certifier, pinned by exact
//! counts: certifying a cell forms each constant-power span's interval
//! input once and steps the envelope through one pair of reused
//! buffers, so what it allocates does not grow with the horizon. Only
//! the envelope's own storage scales with the ticks, and it is sized
//! once up front.
//!
//! A counting global allocator pins the counts; its counter is per
//! thread, so the test counts only its own allocations, not those of
//! the harness beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mpt_core::scenario::ScenarioSpec;
use mpt_lint::verify::verify_cell;
use mpt_soc::FleetSpec;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: pure pass-through to the `System` allocator — same layout
// contract, no bookkeeping that could alias or retain the pointers; the
// counter is a const-initialised thread-local `Cell` (no allocation, no
// destructor) with no effect on allocation itself. `realloc` and
// `alloc_zeroed` keep their default bodies, which call `alloc`, so they
// count too. This file and the thermal and simulator-pass
// alloc-discipline tests are the workspace's three sanctioned `unsafe`
// sites (see ci.yml's unsafe gate).
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

/// A Nexus fleet cell of `duration_s` seconds in the shape of the
/// benchmark's fleet kinds: `nexus_fleet_launch`'s jitter box around a
/// Paper.io session with a crossed step-wise trip.
fn fleet_cell(duration_s: f64) -> (ScenarioSpec, FleetSpec) {
    let spec = serde_json::from_str(&format!(
        r#"{{ "platform": "snapdragon810", "duration_s": {duration_s},
              "initial_temperature_c": 33.5,
              "thermal": {{ "policy": "step_wise", "trips_c": [38.2, 41.2], "period_s": 1.0 }},
              "workloads": [ {{ "kind": "app", "name": "paper_io", "foreground": true,
                               "seed": 17 }} ] }}"#
    ))
    .expect("scenario parses");
    let fleet = serde_json::from_str(
        r#"{ "devices": 2000,
             "leakage_scale": { "dist": "normal", "mean": 1.0, "std": 0.07 },
             "ambient_c": { "dist": "uniform", "min": -3.0, "max": 8.0 },
             "phase_offset_s": { "dist": "uniform", "min": 0.0, "max": 2.0 },
             "workload_mix": { "dist": "uniform", "min": 0.9, "max": 1.1 },
             "trip_c": 38.2 }"#,
    )
    .expect("fleet parses");
    (spec, fleet)
}

/// Allocations the calling thread makes certifying the cell, the
/// verification's own storage included.
fn certify_allocs(spec: &ScenarioSpec, fleet: Option<&FleetSpec>) -> usize {
    let before = ALLOCS.with(Cell::get);
    let v = verify_cell(spec, fleet, "fleet").expect("verifies");
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(v.summary.verdict, "MPT602", "{}", v.report.render_text());
    allocs
}

#[test]
fn certifying_a_cell_allocates_the_same_at_any_horizon() {
    let (short, fleet) = fleet_cell(2.0);
    let (long, _) = fleet_cell(10.0);
    for fleet in [Some(&fleet), None] {
        // One certificate first, so nothing lazily set up is counted.
        certify_allocs(&short, fleet);
        let counts = [certify_allocs(&short, fleet), certify_allocs(&long, fleet)];
        assert_eq!(
            counts[0],
            counts[1],
            "2 s and 10 s cells (fleet: {}) allocate {counts:?}",
            fleet.is_some()
        );
    }
}
