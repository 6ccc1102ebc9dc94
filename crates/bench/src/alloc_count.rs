//! A counting global allocator for allocation-budget benchmarks.
//!
//! A binary that registers [`CountingAllocator`] as its global allocator
//! (`stream_throughput` and `extraction_throughput` do, under the
//! `alloc-count` feature) samples [`alloc_sample`] around steady-state
//! calls to count their allocations; the hot-path budget (DESIGN.md "Hot
//! path & allocation budget") is **zero** in steady state.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Wraps the system allocator, counting every `alloc`/`realloc` call.
/// Frees are not counted: the budget is about acquiring memory on the hot
/// path, and a free implies a matching earlier count.
pub struct CountingAllocator;

// SAFETY: defers every operation to `System`; the counter is a relaxed
// atomic with no allocation of its own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation calls since process start through [`CountingAllocator`];
/// a constant 0 without the `alloc-count` feature, so the default builds
/// time no counter reads. Subtract two samples to count the allocations a
/// code region performed.
pub fn alloc_sample() -> u64 {
    if cfg!(feature = "alloc-count") {
        ALLOCATIONS.load(Ordering::Relaxed)
    } else {
        0
    }
}
