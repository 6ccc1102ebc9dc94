//! A counting global allocator local to the benchmark.
//!
//! Counting is off except while a traced pass runs, so the untraced passes
//! pay one relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Wraps the system allocator, counting `alloc` and `realloc` calls while
/// counting is switched on. Frees are not counted.
pub struct CountingAllocator;

// SAFETY: every operation is deferred to `System` unchanged; the counters
// are atomics that never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Switches counting on or off for the whole process. Only a traced pass
/// with no other benchmark thread alive switches it on.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocation calls counted so far; subtract two readings to count a region.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
