//! A counting `GlobalAlloc` for the allocation-budget tests (this crate's,
//! and those of `encompass-storage` and `encompass`, which include this
//! file by path). A test
//! binary installs it with `#[global_allocator]` and measures a closure
//! with [`allocations_in`], or what a closure's result holds with
//! [`bytes_held_by`]. The counts are per thread, so the tests of one
//! binary can run in parallel without seeing each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct CountingAlloc;

thread_local! {
    // const-initialised and without a destructor: touching it from inside
    // the allocator neither allocates nor registers a thread-exit hook
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count() {
    // a thread that is tearing down has nothing left to measure
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn live(bytes: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches one thread-local `Cell`
// and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        live(layout.size() as i64);
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        live(layout.size() as i64);
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` and return how many heap allocations (reallocations included)
/// it made on this thread, with its result.
pub fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Run `f` and return how many bytes (as asked for, not as malloc rounds
/// them) stay allocated on this thread once it returns, with its result:
/// the heap its result holds, if `f` frees all else.
#[allow(
    dead_code,
    reason = "one test binary of those that include this file measures bytes"
)]
pub fn bytes_held_by<R>(f: impl FnOnce() -> R) -> (i64, R) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (LIVE.with(Cell::get) - before, out)
}
