//! A counting `#[global_allocator]`: bytes requested, allocation calls, live
//! bytes and the peak of live bytes, all process-wide.
//!
//! The counters are statistics (they publish no other data), so every access
//! is `Relaxed`. Each timed op runs one producer and one shard thread pinned
//! to one CPU, so the atomics are never contended.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static REQUESTED: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator with the four counters in front of it.
pub struct Counting;

fn grow(bytes: u64) {
    REQUESTED.fetch_add(bytes, Relaxed);
    CALLS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract the caller already upholds; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as u64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        grow(new_size as u64);
        System.realloc(ptr, layout, new_size)
    }
}

/// A reading of the counters.
#[derive(Debug, Clone, Copy)]
pub struct AllocStats {
    /// Bytes requested since process start (`realloc` counts its new size).
    pub requested: u64,
    /// Calls to `alloc`, `alloc_zeroed` and `realloc` since process start.
    pub calls: u64,
    /// Highest live-byte count seen since process start.
    pub peak: u64,
}

/// Read the counters.
pub fn stats() -> AllocStats {
    AllocStats {
        requested: REQUESTED.load(Relaxed),
        calls: CALLS.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}
