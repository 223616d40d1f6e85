//! # `mei` — MErging the Interface, SAAB, and design space exploration
//!
//! The core library of the reproduction of *"Merging the Interface: Power,
//! Area and Accuracy Co-optimization for RRAM Crossbar-based Mixed-Signal
//! Computing System"* (Li, Xia, Gu, Wang, Yang — DAC 2015).
//!
//! An RRAM crossbar-based computing system (RCS) executes a neural network
//! in analog; the AD/DA converters at its boundary dominate area and power.
//! This crate implements the paper's three contributions on top of the
//! `rram`/`crossbar`/`neural`/`interface` substrates:
//!
//! * [`MeiRcs`] — **MEI**: the RCS learns the mapping between the *binary
//!   bit arrays* at the digital interface directly, one crossbar port per
//!   bit, trained with the MSB-weighted loss of Eq (5) and read out by 1-bit
//!   comparators. No AD/DAs at all. [`AddaRcs`] is the traditional
//!   architecture it replaces, and [`DigitalAnn`] the floating-point
//!   baseline.
//! * [`Saab`] — **SAAB**: Serial Array Adaptive Boosting (Algorithm 1), an
//!   AdaBoost variant that relaxes the error comparison to the top `B_C`
//!   bits and injects non-ideal factors while scoring learners.
//! * [`dse::explore`] — the **design space exploration** of Algorithm 2:
//!   hidden-layer sizing by error change rate, the Eq (9) ensemble budget
//!   `K_max`, SAAB-vs-wider-network selection, and LSB pruning.
//!
//! Each trained system ([`MeiRcs`], [`AddaRcs`], [`Saab`], [`CnnRcs`],
//! [`DigitalAnn`]) states its whole inference in its own module: the
//! inherent `infer*` methods, its [`runtime::Chip`] impl and its [`Rcs`]
//! impl. `Rcs` extends `Chip`, so the noise-free prediction *is*
//! `Chip::infer`, run by the same body as the inherent `infer`.
//!
//! ## Quickstart
//!
//! ```
//! use mei::{MeiConfig, MeiRcs};
//! use neural::Dataset;
//! use prng::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Approximate f(x) = exp(-x²) with a merged-interface RCS.
//! let mut rng = StdRng::seed_from_u64(1);
//! let data = Dataset::generate(400, &mut rng, |r| {
//!     let x: f64 = prng::Rng::gen(r);
//!     (vec![x], vec![(-x * x).exp()])
//! })?;
//! let config = MeiConfig::quick_test(); // small budgets for doc tests
//! let rcs = MeiRcs::train(&data, &config)?;
//! let y = rcs.infer(&[0.5])?;
//! assert!((y[0] - (-0.25f64).exp()).abs() < 0.25);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adda;
pub mod analog;
pub mod bitweights;
pub mod cnn;
pub mod diagnostics;
pub mod digital;
pub mod dse;
pub mod error;
pub mod eval;
pub mod mei_arch;
pub mod persist;
pub mod prune;
pub mod report;
pub mod saab;
pub mod serve;

pub use adda::{AddaConfig, AddaRcs};
pub use analog::{AnalogMlp, AnalogWorkspace};
pub use bitweights::exponential_bit_weights;
pub use cnn::{argmax, tile_significance, CnnConfig, CnnRcs, CnnWorkspace};
pub use diagnostics::{analog_fidelity, comparator_margins, FidelityReport, MarginReport};
pub use digital::DigitalAnn;
pub use dse::{DseConfig, DseDesign, DseResult, HiddenGrowth};
pub use error::{InferError, TrainRcsError};
pub use eval::{
    evaluate_metric, evaluate_mse, mse_scorer, robustness, robustness_par, sweep_robustness,
    sweep_robustness_par, Rcs, RobustnessReport, SweepPoint,
};
pub use mei_arch::{MeiConfig, MeiRcs};
pub use persist::ParseRcsError;
pub use report::{system_report, ReportConfig};
pub use saab::{Saab, SaabConfig, SaabTrainer};
pub use serve::{
    manufacture_boxed_engine, manufacture_boxed_fleet, manufacture_chips,
    manufacture_drifting_engine, manufacture_engine, manufacture_fleet,
};

// The σ-vector shared by every noisy evaluation path.
pub use rram::NonIdealFactors;
