//! # `mei-repro` — umbrella crate
//!
//! Reproduction of *"Merging the Interface: Power, Area and Accuracy
//! Co-optimization for RRAM Crossbar-based Mixed-Signal Computing System"*
//! (Li et al., DAC 2015).
//!
//! This crate re-exports the workspace libraries for the runnable examples
//! under `examples/` and the cross-crate integration tests under `tests/`:
//!
//! * [`mei`] — MEI, SAAB and the design space exploration (the paper's
//!   contribution);
//! * [`rram`] / [`crossbar`] — the device and array substrates;
//! * [`neural`] — the from-scratch MLP and trainer;
//! * [`interface`] — bit codecs and the Eq (6)/(7)/(9) cost models;
//! * [`workloads`] — the six benchmark kernels.
//!
//! See `README.md` for a guided tour and `DESIGN.md` for the experiment
//! index.

#![forbid(unsafe_code)]

pub use crossbar;
pub use interface;
pub use mei;
pub use neural;
pub use rram;
pub use workloads;
