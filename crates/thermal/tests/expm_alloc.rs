//! Allocation discipline of the thermal layer, pinned by exact counts.
//!
//! - `linalg::expm`: the scaling-and-squaring build allocates exactly
//!   four matrices up front (scaled input, result, Taylor term, scratch)
//!   and ping-pongs between them, so the Taylor loop and the squaring
//!   loop must not allocate, however many squarings the input norm
//!   demands.
//! - The app-aware governor's per-poll prediction: once a network has
//!   computed its constants, `reduce` + `stability` + `time_to_reach`
//!   allocate nothing.
//! - A change of step length: once both discretizations are cached, a
//!   network that alternates between two step lengths on a shared cache
//!   allocates nothing, since the cache key's dynamics fingerprint is
//!   computed once per network, not per lookup.
//!
//! A counting global allocator pins all three. Its counter is per
//! thread, so each test counts only its own allocations, not those of
//! sibling tests running beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use mpt_soc::platforms;
use mpt_thermal::linalg::{expm, Mat};
use mpt_thermal::{RcNetwork, TransitionCache};
use mpt_units::{Kelvin, Seconds, Watts};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: pure pass-through to the `System` allocator — same layout
// contract, no bookkeeping that could alias or retain the pointers; the
// counter is a const-initialised thread-local `Cell` (no allocation, no
// destructor) with no effect on allocation itself. This file and the
// simulator-pass alloc-discipline test are the workspace's two
// sanctioned `unsafe` sites (see ci.yml's unsafe gate).
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

/// Allocations the calling thread performs while running `f`, with its
/// result (dropped by the caller after counting).
fn allocs_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// A stable (diagonally dominant, negative-diagonal) test matrix whose
/// infinity norm is scaled to `norm`.
fn stable_matrix(n: usize, norm: f64) -> Mat {
    let mut m = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = if i == j { -1.0 } else { 0.25 / n as f64 };
        }
    }
    let row_norm: f64 = m.row(0).iter().map(|v| v.abs()).sum();
    let scale = norm / row_norm;
    for i in 0..n {
        for v in m.row_mut(i) {
            *v *= scale;
        }
    }
    m
}

#[test]
fn expm_allocates_no_intermediates() {
    // Zero squarings (norm ≤ 1/4) versus many (norm 64 ⇒ 8 squarings):
    // the allocation count must not depend on the squaring count, and
    // must be exactly the four up-front buffers.
    let calm = stable_matrix(6, 0.2);
    let hot = stable_matrix(6, 64.0);
    let (calm_allocs, _) = allocs_during(|| expm(&calm));
    let (hot_allocs, _) = allocs_during(|| expm(&hot));
    assert_eq!(
        calm_allocs, hot_allocs,
        "squaring loop must reuse its ping-pong buffers, not reallocate"
    );
    assert_eq!(calm_allocs, 4, "scaled + result + term + scratch only");
}

#[test]
fn lumped_prediction_allocates_nothing_after_warm_up() {
    // One app-aware poll on the Odroid network: reduce to the lumped
    // model seen from the big cluster, classify, and time the climb to
    // an 85 °C limit over the governor's 60 s horizon.
    let net = RcNetwork::from_spec(platforms::exynos_5422().thermal_spec()).unwrap();
    let big = net.node_index("big").unwrap();
    let mut powers = vec![Watts::ZERO; net.len()];
    powers[big] = Watts::new(2.2);
    powers[net.node_index("gpu").unwrap()] = Watts::new(0.9);
    let p_dyn = Watts::new(3.1);
    let poll = || {
        let lumped = net.reduce(&powers, big, 1700.0, 8000.0).unwrap();
        let stability = lumped.stability(p_dyn);
        let from = Kelvin::new(320.0);
        let limit = Kelvin::new(358.15);
        let eta = lumped.time_to_reach(from, limit, p_dyn, &stability, Seconds::new(60.0));
        (stability, eta)
    };
    let (_, warm) = allocs_during(poll);
    let (allocs, steady) = allocs_during(poll);
    assert_eq!(steady, warm, "constants read back, not recomputed");
    assert_eq!(allocs, 0, "a poll after the first must not allocate");
}

#[test]
fn alternating_step_lengths_allocate_nothing_after_warm_up() {
    // The event engine changes step length on every macro step and every
    // trip-bisection probe, and each change is a shared-cache lookup.
    let cache = Arc::new(TransitionCache::new());
    let platform = platforms::exynos_5422();
    let mut net = RcNetwork::with_cache(platform.thermal_spec(), Some(cache)).unwrap();
    let mut powers = vec![Watts::ZERO; net.len()];
    powers[net.node_index("big").unwrap()] = Watts::new(2.2);
    let alternate = |net: &mut RcNetwork, rounds: usize| {
        for _ in 0..rounds {
            for dt in [0.010, 0.037] {
                net.step(Seconds::new(dt), &powers).unwrap();
            }
        }
    };
    let (_, ()) = allocs_during(|| alternate(&mut net, 1));
    let (allocs, ()) = allocs_during(|| alternate(&mut net, 50));
    assert_eq!(allocs, 0, "a cache hit must not allocate");
}
