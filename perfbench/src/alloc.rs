//! Counting global allocator with per-thread tallies.
//!
//! The traced run reads the calling thread's allocation count before and
//! after a layer call, so each layer is charged only for what it
//! allocated on that thread. Counting is off until
//! [`set_counting`] turns it on, so the untraced run pays one relaxed
//! load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Defers to [`System`], bumping the calling thread's tally while
/// counting is on.
pub struct CountingAlloc;

fn bump() {
    if COUNTING.load(Ordering::Relaxed) {
        // A const-initialized `Cell` has no destructor, so `try_with`
        // only fails during thread teardown; losing a count there is fine.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally is a thread-local
// `Cell` bump that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

/// Turn per-thread counting on or off (process-wide switch).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations made by the calling thread while counting was on.
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}
