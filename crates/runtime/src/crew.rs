//! A persistent fork-join crew for hot loops.
//!
//! [`ThreadPool::par_map`] runs one round on a fresh crew, so it spawns
//! its workers per call. That is fine for coarse batches (Monte-Carlo
//! trials, per-sample scoring) but prohibitive for a hot loop: one
//! mini-batch of backprop, or one served frame of MEI chips, is tens of
//! microseconds of work — about the cost of a single thread spawn.
//! [`ThreadPool::crew`] spawns the workers **once**, then lets the caller
//! dispatch any number of rounds over the same task closure without
//! touching the OS again; between rounds the workers sleep on a condvar,
//! and a round wakes only as many as it has tasks for. The trainer runs
//! its mini-batches this way, and the event server's event thread runs
//! the frames it serves on a crew that lives as long as the thread.
//!
//! The design stays inside safe Rust (the crate forbids `unsafe`): the one
//! task closure is created *before* the workers are spawned, so they can
//! borrow it directly for the whole session. Anything that varies per
//! round travels either through the `usize` argument of [`Crew::run`] or
//! through shared state (`Mutex`/`RwLock`/atomics) the closure captures.
//!
//! ## Determinism
//!
//! `run(arg, tasks)` executes `task(arg, i)` for every `i in 0..tasks`
//! exactly once. Which worker runs which index is scheduling — invisible
//! to the result as long as each task writes only to per-index state, the
//! workspace's standing rule. With one thread no workers exist at all and
//! the caller runs the indices in order through the *same* claim loop, so
//! serial and parallel are the same code path.
//!
//! ## Panic policy
//!
//! A panicking task is caught at the task boundary, every other task of
//! the round still runs, and the payload of the lowest-indexed panicking
//! task is re-raised in the caller. A panic in the *body* closure still
//! shuts the workers down before re-raising, so the scope never
//! deadlocks.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use crate::pool::ThreadPool;

/// Width of the round tag in the claim word; rounds are tagged modulo
/// `2^32`, task indices live in the low 32 bits.
const INDEX_BITS: u32 = 32;
const INDEX_MASK: u64 = (1 << INDEX_BITS) - 1;

/// Coordination state shared by the caller and the crew workers.
struct Shared<'a> {
    /// The one round closure: `task(arg, index)`.
    task: &'a (dyn Fn(usize, usize) + Sync),
    /// Worker threads besides the caller.
    helpers: usize,
    state: Mutex<State>,
    /// Workers sleep here between rounds.
    go: Condvar,
    /// The caller sleeps here waiting for round stragglers.
    done: Condvar,
    /// Claim word, `round_tag << 32 | next_index`. Claims go through
    /// compare-exchange so a straggler still holding last round's tag can
    /// never claim (or disturb) an index of the current one.
    cursor: AtomicU64,
}

struct State {
    round: u64,
    arg: usize,
    tasks: usize,
    remaining: usize,
    shutdown: bool,
    /// Lowest-indexed panic of the round in flight, if any.
    panic: Option<(usize, Box<dyn std::any::Any + Send + 'static>)>,
}

/// Handle for dispatching rounds onto a running crew; created by
/// [`ThreadPool::crew`] and passed to its body closure.
pub struct Crew<'a> {
    shared: &'a Shared<'a>,
}

impl Crew<'_> {
    /// Dispatch one round: execute `task(arg, i)` for every `i` in
    /// `0..tasks`, each exactly once, and return when all have completed.
    /// The calling thread participates as a full crew member, and at most
    /// `tasks - 1` sleeping workers are woken: a one-task round runs on
    /// the caller without waking anyone.
    ///
    /// # Panics
    ///
    /// After the round completes, re-raises the payload of the
    /// lowest-indexed panicking task, if any. Panics if `tasks` does not
    /// fit the 32-bit claim index.
    pub fn run(&self, arg: usize, tasks: usize) {
        if tasks == 0 {
            return;
        }
        assert!(
            (tasks as u64) <= INDEX_MASK,
            "crew round of {tasks} tasks exceeds the claim-index width"
        );
        let round;
        {
            let mut st = self.shared.state.lock().expect("crew state");
            st.round += 1;
            round = st.round;
            st.arg = arg;
            st.tasks = tasks;
            st.remaining = tasks;
            // Publish the claim word before waking anyone. A straggler
            // from a previous round compare-exchanges against the old tag
            // and fails harmlessly.
            self.shared
                .cursor
                .store((round & INDEX_MASK) << INDEX_BITS, Ordering::SeqCst);
        }
        // One wake per worker the round can use. A worker that is awake
        // (say, a straggler of the last round) checks the round number
        // before it sleeps again, so it joins without a wake of its own.
        for _ in 0..self.shared.helpers.min(tasks - 1) {
            self.shared.go.notify_one();
        }
        execute_round(self.shared, round, arg, tasks);
        let mut st = self.shared.state.lock().expect("crew state");
        while st.remaining > 0 {
            st = self.shared.done.wait(st).expect("crew state");
        }
        if let Some((_, payload)) = st.panic.take() {
            drop(st);
            resume_unwind(payload);
        }
    }
}

impl ThreadPool {
    /// Run `body` with a crew of this pool's workers standing by: `body`
    /// receives a [`Crew`] handle and may call [`Crew::run`] any number of
    /// times, each round executing the **same** `task` closure over fresh
    /// `(arg, index)` pairs. Workers are spawned once, before `body`
    /// starts, and joined after it returns — per-round dispatch costs a
    /// mutex round-trip and one condvar wake per worker the round needs,
    /// not a thread spawn.
    ///
    /// With one thread the crew has no workers and `run` executes every
    /// task inline on the caller, through the same claim loop.
    ///
    /// # Panics
    ///
    /// Propagates panics from `body` (after shutting the workers down) and
    /// from tasks (see [`Crew::run`]).
    pub fn crew<T, B, R>(&self, task: T, body: B) -> R
    where
        T: Fn(usize, usize) + Sync,
        B: FnOnce(&Crew<'_>) -> R,
    {
        let workers = self.threads().max(1);
        let shared = Shared {
            task: &task,
            helpers: workers - 1,
            state: Mutex::new(State {
                round: 0,
                arg: 0,
                tasks: 0,
                remaining: 0,
                shutdown: false,
                panic: None,
            }),
            go: Condvar::new(),
            done: Condvar::new(),
            cursor: AtomicU64::new(0),
        };
        std::thread::scope(|scope| {
            let shared = &shared;
            for _ in 0..shared.helpers {
                scope.spawn(move || worker_loop(shared));
            }
            let crew = Crew { shared };
            let out = catch_unwind(AssertUnwindSafe(|| body(&crew)));
            {
                let mut st = shared.state.lock().expect("crew state");
                st.shutdown = true;
            }
            shared.go.notify_all();
            match out {
                Ok(value) => value,
                Err(payload) => resume_unwind(payload),
            }
        })
    }
}

/// A worker: sleep until a round newer than the last one seen (or
/// shutdown), then help execute it.
fn worker_loop(shared: &Shared<'_>) {
    let mut seen = 0u64;
    loop {
        let (round, arg, tasks) = {
            let mut st = shared.state.lock().expect("crew state");
            loop {
                if st.shutdown {
                    return;
                }
                if st.round != seen {
                    break;
                }
                st = shared.go.wait(st).expect("crew state");
            }
            seen = st.round;
            (st.round, st.arg, st.tasks)
        };
        execute_round(shared, round, arg, tasks);
    }
}

/// Claim and execute tasks of `round` until none remain (or the claim word
/// has moved on to a later round).
fn execute_round(shared: &Shared<'_>, round: u64, arg: usize, tasks: usize) {
    let tag = round & INDEX_MASK;
    loop {
        let mut cur = shared.cursor.load(Ordering::SeqCst);
        let index = loop {
            if cur >> INDEX_BITS != tag {
                return; // The round moved on without us; nothing to undo.
            }
            let index = (cur & INDEX_MASK) as usize;
            if index >= tasks {
                return;
            }
            match shared.cursor.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break index,
                Err(actual) => cur = actual,
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| (shared.task)(arg, index)));
        let mut st = shared.state.lock().expect("crew state");
        if let Err(payload) = outcome {
            if st.panic.as_ref().is_none_or(|(j, _)| index < *j) {
                st.panic = Some((index, payload));
            }
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            drop(st);
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn every_task_of_every_round_runs_exactly_once() {
        let pool = ThreadPool::new(4);
        let counts: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        pool.crew(
            |round, i| {
                counts[i].fetch_add(round + 1, Ordering::SeqCst);
            },
            |crew| {
                crew.run(0, 50); // adds 1 to every slot
                crew.run(1, 20); // adds 2 to the first 20
                crew.run(2, 0); // no-op round
            },
        );
        for (i, c) in counts.iter().enumerate() {
            let expect = if i < 20 { 3 } else { 1 };
            assert_eq!(c.load(Ordering::SeqCst), expect, "slot {i}");
        }
    }

    #[test]
    fn crew_results_are_bit_identical_across_thread_counts() {
        // Per-index slots + an ordered fold on the caller keep a
        // non-associative f64 sum bit-identical at every thread count.
        let reduce = |threads: usize| -> f64 {
            let pool = ThreadPool::new(threads);
            let slots: Vec<Mutex<f64>> = (0..300).map(|_| Mutex::new(0.0)).collect();
            pool.crew(
                |arg, i| {
                    let v = 1.0 / (1.0 + prng::substream(arg as u64, i as u64) as f64);
                    *slots[i].lock().unwrap() = v;
                },
                |crew| {
                    crew.run(7, 300);
                    slots.iter().map(|s| *s.lock().unwrap()).sum()
                },
            )
        };
        let serial = reduce(1);
        for threads in [2, 3, 8] {
            assert_eq!(
                serial.to_bits(),
                reduce(threads).to_bits(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn single_thread_crew_runs_inline_in_index_order() {
        let pool = ThreadPool::new(1);
        let seen = Mutex::new(Vec::new());
        pool.crew(
            |_, i| seen.lock().unwrap().push(i),
            |crew| {
                crew.run(0, 10);
            },
        );
        assert_eq!(*seen.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn lowest_index_panic_wins_and_siblings_complete() {
        let pool = ThreadPool::new(4);
        let completed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.crew(
                |_, i| {
                    if i % 11 == 5 {
                        panic!("boom at {i}");
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                },
                |crew| crew.run(0, 64),
            );
        }));
        let payload = result.expect_err("task panic must surface");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(message, "boom at 5");
        // 64 tasks, indices 5,16,27,38,49,60 panic: 58 complete.
        assert_eq!(completed.load(Ordering::SeqCst), 58);
    }

    #[test]
    fn crew_survives_a_panicking_round() {
        let pool = ThreadPool::new(3);
        let ok = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.crew(
                |arg, i| {
                    if arg == 0 && i == 0 {
                        panic!("first round fails");
                    }
                    ok.fetch_add(1, Ordering::SeqCst);
                },
                |crew| {
                    let first = catch_unwind(AssertUnwindSafe(|| crew.run(0, 8)));
                    assert!(first.is_err(), "round 0 must re-raise");
                    crew.run(1, 8); // the crew still works
                },
            );
        }));
        assert!(result.is_ok());
        assert_eq!(ok.load(Ordering::SeqCst), 7 + 8);
    }

    #[test]
    fn body_panic_shuts_workers_down() {
        // Must not deadlock on scope join.
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.crew(|_, _| {}, |_crew| panic!("body exploded"));
        }));
        let payload = result.expect_err("body panic must surface");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"body exploded"));
    }

    #[test]
    fn partial_rounds_leave_every_helper_for_a_full_round() {
        // A one-task round wakes no helper; the full round after it must
        // still find all three, so its four tasks can meet inside the task.
        let pool = ThreadPool::new(4);
        let meeting = (Mutex::new(0usize), Condvar::new());
        pool.crew(
            |full, _| {
                if full == 0 {
                    return;
                }
                let (inside, arrived) = &meeting;
                let mut count = inside.lock().unwrap();
                *count += 1;
                let target = count.next_multiple_of(4);
                arrived.notify_all();
                let (_count, wait) = arrived
                    .wait_timeout_while(count, std::time::Duration::from_secs(5), |n| *n < target)
                    .unwrap();
                assert!(!wait.timed_out(), "a full round's tasks never met");
            },
            |crew| {
                for _ in 0..100 {
                    crew.run(0, 1);
                    crew.run(1, 4);
                }
            },
        );
        assert_eq!(*meeting.0.lock().unwrap(), 400);
    }

    #[test]
    fn shared_state_varies_between_rounds() {
        // The per-round pattern the trainer uses: the closure reads state
        // the body rewrites between rounds.
        let pool = ThreadPool::new(2);
        let input = Mutex::new(vec![0u64; 16]);
        let out: Vec<AtomicU64> = (0..16).map(|_| AtomicU64::new(0)).collect();
        let total = pool.crew(
            |_, i| {
                let v = input.lock().unwrap()[i];
                out[i].store(v * v, Ordering::SeqCst);
            },
            |crew| {
                let mut total = 0u64;
                for round in 0..4u64 {
                    {
                        let mut inp = input.lock().unwrap();
                        for (i, v) in inp.iter_mut().enumerate() {
                            *v = round * 100 + i as u64;
                        }
                    }
                    crew.run(0, 16);
                    total += out.iter().map(|a| a.load(Ordering::SeqCst)).sum::<u64>();
                }
                total
            },
        );
        let expect: u64 = (0..4u64)
            .flat_map(|r| (0..16u64).map(move |i| (r * 100 + i) * (r * 100 + i)))
            .sum();
        assert_eq!(total, expect);
    }
}
