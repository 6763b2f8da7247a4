//! A counting global allocator for allocation-regression harnesses.
//!
//! [`CountingAlloc`] wraps the system allocator and counts every
//! allocation that goes through it. Binaries that want the count install
//! it as their global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: claire_par::alloc_counter::CountingAlloc =
//!     claire_par::alloc_counter::CountingAlloc::new();
//! ```
//!
//! The counter is a process-global static, so [`allocation_count`] reads
//! zero unless the wrapper actually is the global allocator. The
//! zero-allocation tier-1 test (`tests/zero_alloc.rs`) uses it to sample
//! allocations at Gauss–Newton iteration boundaries and prove the solver
//! hot path is allocation-free at steady state.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// System-allocator wrapper that counts allocations. Install with
/// `#[global_allocator]`; construction alone does nothing.
pub struct CountingAlloc;

impl CountingAlloc {
    /// The (stateless) wrapper; counters live in statics.
    pub const fn new() -> CountingAlloc {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

// SAFETY: defers to `System` for every operation; the counters are
// lock-free atomics, so no allocation or reentrancy happens in the hooks.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing realloc acquires memory even when it extends in place;
        // count it like a fresh allocation.
        if new_size > layout.size() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocations observed since process start (0 if [`CountingAlloc`]
/// is not the global allocator).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
