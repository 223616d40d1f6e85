//! # `crossbar` — RRAM crossbar array simulation
//!
//! The analog matrix-vector-multiply substrate of the MEI/SAAB reproduction.
//! An RRAM crossbar applies an input voltage vector to its rows and produces,
//! per column, a current (or divided voltage) that is a weighted sum of the
//! inputs — the weights being the programmed cell conductances
//! (paper Eq (1)–(2)).
//!
//! The crate models the full path from a *signed weight matrix* to an
//! *analog dot product under non-ideal conditions*:
//!
//! * [`array::CrossbarArray`] — a grid of [`rram::RramDevice`] cells with
//!   ideal column-current readout and the Eq (2) resistive-divider readout.
//! * [`mapping`] — converting signed weight matrices to conductances, either
//!   as a **differential pair** (positive/negative crossbars, the scheme the
//!   paper doubles its RRAM area for) or via the closed-form divider solve.
//! * [`pair::DifferentialPair`] — the two-array tile that computes `W·x` in
//!   analog, with process variation applied at program time and signal
//!   fluctuation at evaluation time.
//! * The private `kernel` module — the one matvec body behind the array's
//!   column currents and the pair's matvec. It runs over a cached flat
//!   conductance plane, takes its input as a plain `&[f64]` (MEI's
//!   interface bits are `0.0`/`1.0` values of it) and is bit-identical to
//!   the cell walk it replaced.
//! * [`ir_drop`] — an iterative nodal-analysis solver for the wire-resistance
//!   grid, for studying IR drop (the paper picks 90 nm interconnect exactly
//!   to suppress this effect; we make it measurable): line-based red-black
//!   Gauss–Seidel, tested against a conjugate-gradient reference.
//! * [`sense`] — load resistors, transimpedance sensing and the 1-bit
//!   comparators MEI uses instead of full ADCs.
//! * [`noise`] — lognormal signal fluctuation on input vectors.
//!
//! ## Example: analog dot product
//!
//! ```
//! use crossbar::{DifferentialPair, MappingConfig};
//! use rram::DeviceParams;
//!
//! # fn main() -> Result<(), crossbar::MapWeightsError> {
//! let weights = vec![vec![0.5, -1.0], vec![-0.25, 2.0]]; // 2 outputs × 2 inputs
//! let pair = DifferentialPair::from_weights(&weights, DeviceParams::hfox(), &MappingConfig::default())?;
//! let y = pair.matvec(&[1.0, 0.5]);
//! assert!((y[0] - 0.0).abs() < 1e-6);   // 0.5·1 − 1.0·0.5
//! assert!((y[1] - 0.75).abs() < 1e-6);  // −0.25·1 + 2·0.5
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod conv;
pub mod divider;
pub mod ir_drop;
mod kernel;
pub mod mapping;
pub mod noise;
pub mod pair;
pub mod sense;

pub use array::CrossbarArray;
pub use conv::{direct_conv, tile_ranges, ConvError, ConvShape, ConvWorkspace, TiledConv};
pub use divider::{DividerLayer, SignedDividerLayer};
pub use ir_drop::IrDropConfig;
pub use mapping::{MapWeightsError, MappingConfig};
pub use noise::SignalFluctuation;
pub use pair::DifferentialPair;
pub use sense::{Comparator, TransimpedanceAmp};

// Re-export the σ-vector so downstream crates need only one import path.
pub use rram::NonIdealFactors;
