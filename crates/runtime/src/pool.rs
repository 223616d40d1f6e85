//! A deterministic scoped thread pool on `std::thread` + `std::sync`.
//!
//! [`ThreadPool::par_map`] runs its batch as one round of a
//! [`Crew`](crate::Crew) ([`ThreadPool::crew`]): the caller's thread and
//! up to `threads - 1` scoped workers claim task indices off one shared
//! cursor, so task closures may borrow from the caller's stack and an
//! uneven workload (one slow Monte-Carlo trial, one fast one) rebalances
//! automatically — whichever thread is free takes the next index.
//!
//! ## Determinism
//!
//! Results are written into their task's slot, so the output order is the
//! input order no matter which thread ran which task or in what
//! interleaving. Combined with the workspace's stream-splitting rule
//! (every task derives its RNG from `(root_seed, task_index)` via
//! [`prng::substream`]), a parallel map is bit-identical to the serial
//! one for every thread count and every run.
//!
//! ## Panic policy
//!
//! A panicking task must not poison the pool: the panic is caught at the
//! task boundary, **every remaining task still runs**, and after the
//! batch completes the payload of the lowest-indexed panicking task is
//! re-raised in the caller. (Lowest index, not first observed, so even
//! the failure mode is deterministic.)

use std::num::NonZeroUsize;
use std::sync::Mutex;

/// The number of workers a `threads` knob resolves to: the value itself,
/// or [`std::thread::available_parallelism`] when it is `0` ("auto").
#[must_use]
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
}

/// A deterministic scoped thread pool.
///
/// Cheap to construct (workers are spawned per batch, inside a scope);
/// hold one wherever a `threads: usize` knob lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool of `threads` workers; `0` means "auto"
    /// ([`std::thread::available_parallelism`]).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: resolve_threads(threads),
        }
    }

    /// A pool sized to the machine.
    #[must_use]
    pub fn auto() -> Self {
        Self::new(0)
    }

    /// The worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `f` over `items` in parallel; `f` receives `(task_index, item)`.
    ///
    /// The result vector is in input order, and — provided `f(i, x)` is a
    /// pure function of its arguments (derive any randomness from the task
    /// index, see [`prng::substream`]) — bit-identical to the serial
    /// `items.iter().enumerate().map(...)` for every thread count.
    ///
    /// The batch is one [`Crew::run`](crate::Crew::run) round on a crew of
    /// `min(threads, items.len())`: the calling thread runs tasks too, so
    /// a one-thread pool spawns no thread at all.
    ///
    /// # Panics
    ///
    /// If tasks panic, every *other* task still completes and then the
    /// payload of the lowest-indexed panicking task is re-raised here.
    /// Panics if `items` holds more than `2^32 - 1` tasks, the crew's
    /// claim-index bound.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let slots: Vec<Mutex<Option<R>>> = std::iter::repeat_with(|| Mutex::new(None))
            .take(items.len())
            .collect();
        let pool = ThreadPool {
            threads: self.threads.min(items.len()),
        };
        pool.crew(
            |_, i| {
                // Run `f` before locking, so a panicking task cannot
                // poison its slot.
                let value = f(i, &items[i]);
                *slots[i].lock().expect("result slot") = Some(value);
            },
            |crew| crew.run(0, items.len()),
        );
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("every task index executed")
            })
            .collect()
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        Self::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn resolve_threads_keeps_explicit_values() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn par_map_matches_serial_for_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| prng::substream(9, i as u64) ^ x)
            .collect();
        for threads in [1, 2, 3, 8, 64] {
            let pool = ThreadPool::new(threads);
            let parallel = pool.par_map(&items, |i, &x| prng::substream(9, i as u64) ^ x);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single_inputs() {
        let pool = ThreadPool::new(4);
        let empty: Vec<i32> = pool.par_map(&[], |_, x: &i32| *x);
        assert!(empty.is_empty());
        assert_eq!(pool.par_map(&[5], |i, x| i as i32 + x), vec![5]);
    }

    #[test]
    fn par_map_borrows_from_the_caller() {
        let data = vec![1.0f64, 2.0, 3.0];
        let scale = 2.5;
        let pool = ThreadPool::new(2);
        let out = pool.par_map(&data, |_, x| x * scale);
        assert_eq!(out, vec![2.5, 5.0, 7.5]);
        // `data` still usable: the borrow ended with the call.
        assert_eq!(data.len(), 3);
    }

    #[test]
    fn one_thread_runs_every_task_on_the_caller() {
        let caller = std::thread::current().id();
        let ran_on = ThreadPool::new(1).par_map(&[0u8; 8], |_, _| std::thread::current().id());
        assert!(ran_on.iter().all(|&id| id == caller), "{ran_on:?}");
    }

    #[test]
    fn panicking_task_does_not_stop_the_others() {
        let completed = AtomicUsize::new(0);
        let pool = ThreadPool::new(4);
        let items: Vec<usize> = (0..100).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&items, |i, _| {
                if i == 13 {
                    panic!("task 13 exploded");
                }
                completed.fetch_add(1, Ordering::SeqCst);
                i
            })
        }));
        let payload = result.expect_err("the panic must surface to the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or_default()
            .to_string();
        assert!(message.contains("task 13"), "got panic message {message:?}");
        assert_eq!(
            completed.load(Ordering::SeqCst),
            99,
            "remaining tasks must all complete"
        );
    }

    #[test]
    fn lowest_index_panic_wins_deterministically() {
        let pool = ThreadPool::new(8);
        let items: Vec<usize> = (0..64).collect();
        for _ in 0..5 {
            let payload = catch_unwind(AssertUnwindSafe(|| {
                pool.par_map(&items, |i, _| {
                    if i % 10 == 7 {
                        panic!("boom at {i}");
                    }
                    i
                })
            }))
            .expect_err("panics expected");
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(message, "boom at 7");
        }
    }

    #[test]
    fn pool_survives_a_panicking_batch() {
        // No poisoned state: the same pool value works fine afterwards.
        let pool = ThreadPool::new(3);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&[0usize; 4], |i, _| {
                if i == 0 {
                    panic!("first batch fails")
                }
            })
        }));
        let ok = pool.par_map(&[1, 2, 3], |_, x| x * 2);
        assert_eq!(ok, vec![2, 4, 6]);
    }

    #[test]
    fn work_stealing_drains_an_uneven_queue() {
        // One slow task among fast ones: with 4 threads over 8 items the
        // shared claim cursor hands the rest to whichever thread is free,
        // and every task must still complete.
        let pool = ThreadPool::new(4);
        let items: Vec<u64> = (0..8).collect();
        let out = pool.par_map(&items, |i, &x| {
            if i == 0 {
                // Slow task: spin a little real work.
                (0..20_000u64).fold(x, |a, b| a.wrapping_add(b * b))
            } else {
                x
            }
        });
        assert_eq!(out.len(), 8);
        assert_eq!(out[1..], items[1..]);
    }
}
