//! A counting global allocator. It counts heap allocations only while a
//! traced span has counting switched on; otherwise each allocation costs
//! one relaxed load on top of the system allocator.
//!
//! Counting is process-wide, not per thread: work a traced call hands to
//! pool workers is counted too. Callers switch it on only while nothing
//! but the traced call runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Runs `f` with counting on and returns its result with the number of
/// allocations (reallocations included) made meanwhile by any thread.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, ALLOCS.load(Ordering::SeqCst) - before)
}

/// Switches counting on or off for a span that is not one closure (the
/// training loop's epochs, delimited by a hook).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Allocations counted so far.
pub fn total() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

/// Limits glibc's allocator to its one main arena; returns whether the
/// setting took. Call it before the process starts a second thread.
///
/// By default glibc gives threads arenas of their own, and which arena
/// the serving thread draws decides how often a heap that shrinks and
/// regrows every flush is trimmed and faulted back in: on the same
/// `onboard` work that swung between about 0.2 and 1.1 million minor
/// faults, at random from run to run. With one arena the faults repeat
/// run to run, at the common, higher count.
pub fn single_arena() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` only sets an allocator parameter, and it is
        // called while the process has a single thread.
        unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}
