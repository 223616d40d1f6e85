//! A counting global allocator for the traced run.
//!
//! Install it in a binary with
//! `#[global_allocator] static A: CountingAlloc = CountingAlloc;`. It
//! forwards every call to [`System`]; while counting is switched on
//! ([`set_counting`]) it also bumps one process-wide counter per
//! allocation event (`alloc`, `alloc_zeroed` and `realloc` each count
//! once; `dealloc` is free). The counter is global rather than
//! per-thread on purpose: `Engine::serve_session_batch` fans out over
//! scoped threads, and their allocations belong to the backend call that
//! spawned them. Counts are therefore exact only while nothing else in
//! the process allocates — the traced replay runs with the server shut
//! down.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static EVENTS: AtomicU64 = AtomicU64::new(0);

/// The counting allocator (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

fn note() {
    // Relaxed: the counter publishes no other data.
    if COUNTING.load(Ordering::Relaxed) {
        EVENTS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the extra bookkeeping touches
// only two static atomics and never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout` (the caller's contract).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr`/`layout` came from `System` (see `dealloc`) and the
        // caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switch counting on or off (off by default: untraced runs pay one
/// relaxed load per allocation and nothing else).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Allocation events counted so far.
#[must_use]
pub fn events() -> u64 {
    EVENTS.load(Ordering::SeqCst)
}

/// Run `f` with counting on and return its result together with the
/// allocation events it caused. Counting is restored to off afterwards.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    set_counting(true);
    let before = events();
    let out = f();
    let after = events();
    set_counting(false);
    (out, after - before)
}
