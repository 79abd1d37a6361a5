//! A counting global allocator for the `*.allocs_per_*` metrics.
//!
//! Always installed, so both commits of a comparison pay the same
//! relaxed atomic add per allocation. The counters are process-wide: a
//! figure such as `transport.allocs_per_reply` counts the runtime's threads
//! and the generator together.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// `System` plus one statistics counter.
pub struct CountingAllocator;

// SAFETY: every operation is delegated to `System` unchanged; the only
// addition is a relaxed atomic add on a static, which neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the counter bump cannot allocate or unwind; the allocation
    // itself is `System`'s, under the caller's (valid) layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's obligation, forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: pure delegation; `ptr`/`layout` validity is the caller's
    // obligation, forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see the function-level note.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the counter bump cannot allocate or unwind; reallocation
    // itself is `System`'s, under the caller's (valid) pointer and layout.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout`/`new_size` are the caller's obligation,
        // forwarded verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (including reallocations) made by the whole process so
/// far. Relaxed: a statistic that publishes no other data.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
