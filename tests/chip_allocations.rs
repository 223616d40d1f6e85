//! An MEI chip's steady-state inference allocates exactly once: the
//! output vector it returns. Encode, both crossbar layers, the
//! comparators and decode all run in the serving thread's workspace.
//!
//! The binary installs a counting global allocator. It counts only on
//! the thread that switched counting on, so the test harness's other
//! threads cannot disturb a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mei::{MeiConfig, MeiRcs};
use neural::MlpBuilder;
use runtime::Chip;

/// Forwards every call to [`System`], counting allocation events
/// (`alloc`, `alloc_zeroed` and `realloc`; `dealloc` is free) on a
/// thread while its counting is on.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // Both locals are const-initialized without destructors, so reading
    // them never allocates; `try_with` covers a thread being torn down.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = EVENTS.try_with(|events| events.set(events.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches two
// thread-local cells and never allocates.
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

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `f`'s result and the allocation events it caused on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = EVENTS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, EVENTS.with(Cell::get) - before)
}

#[test]
fn an_mei_chip_allocates_only_its_output() {
    // The inversek2j chip's shape, (2·8) × 32 × (2·8); the weights need
    // no training to exercise every layer.
    let config = MeiConfig {
        hidden: 32,
        ..MeiConfig::default()
    };
    let mlp = MlpBuilder::new(&[16, 32, 16]).seed(1).build();
    let chip = MeiRcs::from_trained(mlp, &config, 2, 2).expect("an MEI chip");
    let inputs = [[0.3, 0.7], [0.0, 1.0], [0.55, 0.125], [0.999, 0.001]];
    // The warm-up call grows this thread's workspace.
    let _ = Chip::infer(&chip, &inputs[0]);
    for x in inputs {
        let (out, events) = allocations(|| Chip::infer(&chip, &x));
        assert_eq!(out, chip.infer(&x).expect("two inputs"), "{x:?}");
        assert_eq!(events, 1, "Chip::infer({x:?}) allocated {events} times");
    }
}
