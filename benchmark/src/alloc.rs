//! A counting `GlobalAlloc`: heap allocations and peak live bytes of one
//! repetition, switched on by a static flag so timed repetitions pay one
//! relaxed load per allocation and nothing else.
//!
//! The benchmark drives the simulator from a single thread, so the
//! counters publish no other data and `Relaxed` is enough.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

pub struct CountingAlloc;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Live bytes relative to the moment counting was switched on; frees of
/// older memory can take it below zero.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only atomics and never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Zero the counters and start counting.
pub fn start() {
    ALLOCS.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// Stop counting; the counters keep their values until the next `start`.
pub fn stop() {
    ON.store(false, Relaxed);
}

/// Allocations (including reallocations) since `start`.
pub fn allocations() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Highest live-byte level since `start`, relative to the level at `start`.
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed).max(0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not several: the flag and counters are process-global and
    // cargo runs tests on parallel threads.
    #[test]
    fn counts_only_while_switched_on() {
        stop();
        let before = allocations();
        drop(std::hint::black_box(vec![0u8; 4096]));
        assert_eq!(allocations(), before, "off: nothing is counted");

        start();
        let v = std::hint::black_box(vec![0u8; 1 << 20]);
        let counted = allocations();
        let peak = peak_bytes();
        drop(v);
        stop();
        assert!(counted >= 1, "on: the allocation is counted");
        assert!(peak >= 1 << 20, "on: peak covers the live megabyte");

        let at_stop = allocations();
        drop(std::hint::black_box(vec![0u8; 4096]));
        assert_eq!(allocations(), at_stop, "off again: nothing is counted");
    }
}
