//! Allocator attribution on a known allocation pattern.
//!
//! Runs without the test harness (`harness = false`): the counter is
//! process-wide, so no other thread may allocate while it counts.

use servebench::alloc::{self, CountingAlloc};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    // Off by default: nothing is counted outside `count`.
    let before = alloc::events();
    black_box(vec![1u8; 64]);
    assert_eq!(alloc::events(), before, "counting must be off by default");

    // Three boxes, the string inside one of them and one vector with its
    // capacity known up front: five allocation events, no reallocation.
    let (_, n) = alloc::count(|| {
        let a = black_box(Box::new(1u64));
        let b = black_box(Box::new([0u8; 32]));
        let c = black_box(Box::new(String::from("x")));
        let v: Vec<u32> = black_box(Vec::with_capacity(16));
        (a, b, c, v)
    });
    assert_eq!(n, 5, "known pattern: 5 allocation events");

    // A growing vector counts each reallocation: exact reservations make
    // the pattern 1 alloc + 2 reallocs.
    let (_, grow) = alloc::count(|| {
        let mut v: Vec<u64> = Vec::with_capacity(1);
        v.push(1);
        v.reserve_exact(1);
        v.push(2);
        v.reserve_exact(1);
        v.push(3);
        black_box(v)
    });
    assert_eq!(grow, 3, "growth pattern: 1 alloc + 2 reallocs");

    // Frees are not events; nothing allocated means zero.
    let owned = vec![7u8; 128];
    let (_, freed) = alloc::count(move || drop(black_box(owned)));
    assert_eq!(freed, 0, "deallocation is not an allocation event");

    // Allocations on a thread spawned inside the counted call belong to
    // it (the backend fans out over scoped threads).
    let (_, spawned) = alloc::count(|| {
        std::thread::scope(|s| {
            s.spawn(|| black_box(vec![0u8; 16]));
        });
    });
    assert!(spawned >= 1, "a spawned thread's allocation is counted");

    println!("alloc_count: ok");
}
