//! The traced run's counting allocator: a pass-through to the system
//! allocator that, while enabled, counts allocations (reallocations
//! included), bytes requested and the live-bytes high-water mark. The
//! untraced run leaves it disabled, so every call costs one relaxed
//! load on top of the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn on_alloc(size: usize) {
    if ENABLED.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
        let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn on_dealloc(size: usize) {
    if ENABLED.load(Relaxed) {
        LIVE.fetch_sub(size as i64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's pointer
// and layout unchanged and returns its result; the bookkeeping touches
// only relaxed atomic statistics and never the memory itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is forwarded as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        // SAFETY: `ptr` came from this allocator, which obtained it from
        // `System` with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` and `layout` describe a live `System` block, and
        // the caller upholds `realloc`'s contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Turns counting on or off for the whole process.
pub fn enable(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Cumulative allocation counts since the process started counting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub allocs: u64,
    pub bytes: u64,
}

impl Counts {
    pub fn now() -> Self {
        Counts {
            allocs: ALLOCS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
        }
    }

    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Restarts the high-water mark at the current live bytes and returns
/// that baseline.
pub fn reset_peak() -> i64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Largest growth of live bytes above `baseline` since [`reset_peak`].
pub fn peak_above(baseline: i64) -> u64 {
    u64::try_from(PEAK.load(Relaxed) - baseline).unwrap_or(0)
}
