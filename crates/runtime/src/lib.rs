//! # `runtime` — deterministic parallel inference runtime
//!
//! The serial reproduction binaries leave every core but one idle; a
//! production RRAM accelerator deployment is the opposite shape — many
//! chips, many threads, heavy request traffic. This crate provides the
//! parallel substrate for both, with one hard rule: **parallelism never
//! changes results**.
//!
//! * [`ThreadPool`] — a scoped thread pool on `std::thread` +
//!   `std::sync` whose [`par_map`](ThreadPool::par_map) primitive runs
//!   as one [`Crew`] round. Task closures may borrow from the caller; a
//!   panicking task is caught at the task boundary, the rest of the batch
//!   completes, and the lowest-indexed panic is re-raised in the caller.
//! * [`Crew`] — the runtime's one scheduler, a persistent fork-join crew
//!   ([`ThreadPool::crew`]): workers spawn once and then execute any
//!   number of dispatched rounds of the same borrowed task closure, so a
//!   hot loop (the trainer's per-mini-batch shards, an event-server
//!   worker's frames) pays a condvar wake per round instead of a thread
//!   spawn.
//! * [`ChipPool`] — N independently manufactured [`Chip`] instances, each
//!   with its own `(root_seed, chip_index)`-derived write-noise draw.
//! * [`Engine`] — the serving stack over one pool: a [`PlacementPolicy`]
//!   ([`RoundRobin`], [`LeastLoaded`], [`SizeAware`], [`WearAware`]) over
//!   a [`CostModel`] (unit input-length proxy, or
//!   [`CostModel::calibrate`]d from measured per-chip inference times).
//!   Every serving call is one pure `Engine::plan` — the placement and
//!   admission fold over a [`Session`] — followed by one executor round
//!   per frame (a [`Crew`] round, a thread per busy chip) that owns the
//!   per-chip queues, coalescing, arrival waits and the `catch_unwind`
//!   around `Chip::infer`. An event-server worker runs every frame on
//!   one crew that lives as long as the worker; in-process calls use a
//!   crew per call.
//! * [`net`] — a hermetic `std::net` TCP front-end: the event-driven
//!   [`net::EventServer`] speaks pipelined binary frames (v2, via
//!   [`net::ClientV2`]) and falls back to text lines (v1, via
//!   [`net::Client`]) per connection, one routing session per connection
//!   and workload.
//! * [`DriftingChip`] + [`Engine::recalibrate_window`] — deterministic
//!   retention-drift injection (per-window, `rram::retention` power law)
//!   and versioned online cost refresh, so placement re-routes around
//!   chips that slow down or break while each window stays
//!   bit-deterministic.
//! * [`admission`] — virtual-time admission control above the engine:
//!   knee-calibrated [`AdmissionConfig`] + per-session [`Gate`] shed
//!   requests (`err overloaded` on the wire) instead of queueing past
//!   the throughput knee.
//! * [`fleet`] — fleet-scale serving above many engines: deterministic
//!   rendezvous routing over healthy pools, R-way replication with
//!   deterministic replica rotation, recalibration-driven failover
//!   ([`fleet::health`]) and SLA-point capacity planning
//!   ([`Fleet::pools_for`]).
//! * [`accounting`] — the physical accounting layer: per-chip
//!   [`ChipCostSheet`]s (Eq (6)/(7) area, leakage, dynamic energy per
//!   inference), measured-window energy integration on [`ServeStats`],
//!   pool/fleet rollups ([`Fleet::accounting`]) and the budgeted
//!   capacity search in [`fleet::dse`].
//!
//! ## The determinism rule
//!
//! Every parallel task derives its randomness from the root seed and its
//! *task index* via [`prng::substream`] — never from a generator threaded
//! through the loop. Placement is a pure function of the request sequence
//! ([`policy`]), decided before execution. Results are then a pure
//! function of the seed: serial, 2-thread and 64-thread runs — and
//! in-process vs. loopback-TCP serving — produce bit-identical output
//! (`tests/parallel_determinism.rs` and `tests/serving_engine.rs` at the
//! workspace root hold the end-to-end proof).
//!
//! Like the rest of the workspace the crate is hermetic: `std` only, no
//! external dependencies (see DESIGN.md, "Hermetic build").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod admission;
pub mod chip;
pub mod crew;
pub mod engine;
pub mod fleet;
pub mod net;
pub mod policy;
pub mod pool;
pub mod stats;

pub use accounting::{ChipCostSheet, EnergyStats, FleetAccounting, PoolAccounting};
pub use admission::{AdmissionConfig, AdmittedOutcome, Decision, Gate, GateStats};
pub use chip::{Chip, ChipPool, DriftProfile, DriftingChip, ServeOutcome};
pub use crew::Crew;
pub use engine::{BatchItem, Engine, Offer, Served, Session, MODEL_HISTORY_CAP};
pub use fleet::{
    EjectReason, Fleet, FleetConfig, FleetSession, HealthPolicy, PoolHealth, SlaPoint, Transition,
};
pub use policy::{
    CostModel, LeastLoaded, PlacementPolicy, PoolState, RoundRobin, SizeAware, WearAware,
    QUARANTINE_COST,
};
pub use pool::{resolve_threads, ThreadPool};
pub use stats::{json_escape, json_num, percentile, ChipStats, ServeStats};
