//! # `servebench` — the wire-level serving benchmark's measurement kit
//!
//! The benchmark binary (`src/main.rs`) serves a trained system from an
//! in-process `EventServer` over a 2-pool × 2-chip `Fleet` and drives it
//! over loopback. This library holds the pieces that are tested on their
//! own (`tests/`):
//!
//! * [`latency`] — percentile summaries with their sample count, and the
//!   open-loop arithmetic (latency from the due time, generator lag);
//! * [`trace`] — in-memory spans recorded into per-thread buffers, the
//!   self-time rule (a span minus the *union* of its children), and the
//!   timing wrappers injected through the public `Chip` and
//!   `PlacementPolicy` traits;
//! * [`alloc`] — a counting global allocator, active only when tracing.
//!
//! See `README.md` next to this crate for the workloads and every metric.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod latency;
pub mod trace;
