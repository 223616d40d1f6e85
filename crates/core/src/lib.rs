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
//! Every score under non-ideal factors comes from one Monte-Carlo
//! protocol, [`robustness`] (§5.3): each trial disturbs its own clone of
//! the system from its own substream, so the DSE's robustness
//! requirement, the system report and the reproduction binaries all
//! draw alike, bit-identically at every thread count.
//!
//! Each trained system ([`MeiRcs`], [`AddaRcs`], [`Saab`], [`CnnRcs`],
//! [`DigitalAnn`]) builds one [`Network`] of layers, and its inherent
//! `infer*` methods, its [`runtime::Chip`] impl, its [`Rcs`] impl and its
//! device walks all run that network. `Rcs` extends `Chip`, so the
//! noise-free prediction *is* `Chip::infer` — the network under
//! [`Drive::Ideal`] — and `Rcs::predict_noisy` is the same network under
//! [`Drive::Fluctuating`].
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
pub mod network;
pub mod persist;
pub mod prune;
pub mod report;
pub mod saab;
pub mod serve;

pub use adda::{AddaConfig, AddaRcs};
pub use analog::{AnalogMlp, AnalogWorkspace, Drive};
pub use bitweights::exponential_bit_weights;
pub use cnn::{tile_significance, CnnConfig, CnnRcs, CnnWorkspace};
pub use diagnostics::{analog_fidelity, comparator_margins, FidelityReport, MarginReport};
pub use digital::DigitalAnn;
pub use dse::{DseConfig, DseDesign, DseResult, HiddenGrowth};
pub use error::{InferError, TrainRcsError};
pub use eval::{evaluate_metric, evaluate_mse, mse_scorer, robustness, Rcs, RobustnessReport};
pub use mei_arch::{MeiConfig, MeiRcs};
pub use network::Network;
pub use persist::ParseRcsError;
pub use report::{system_report, ReportConfig};
pub use saab::{Saab, SaabConfig, SaabTrainer};
pub use serve::{manufacture_chips, manufacture_drifting_engine, manufacture_fleet};

// The σ-vector shared by every noisy evaluation path.
pub use rram::NonIdealFactors;

// The CNN's class decision, kept at the crate root for the serving code
// that imports it from here.
pub use neural::argmax;
