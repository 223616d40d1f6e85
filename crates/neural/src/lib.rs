//! # `neural` — from-scratch feedforward neural networks
//!
//! The ANN substrate of the MEI/SAAB reproduction. An RRAM crossbar-based
//! computing system (RCS) "realizes different tasks by realizing an
//! RRAM-based ANN" (paper §2.1, Eq (3)): dense layers with sigmoid
//! activations, trained by backprop against the (optionally per-port
//! weighted) squared-error loss of paper Eq (4)/(5).
//!
//! Everything is implemented here without external ML/numeric crates:
//!
//! * [`matrix::Matrix`] — a dense row-major `f64` matrix with the handful of
//!   operations backprop needs.
//! * [`activation::Activation`] — sigmoid / tanh / ReLU / identity.
//! * [`mlp::Mlp`] — a multilayer perceptron built via [`mlp::MlpBuilder`].
//! * [`loss::WeightedMse`] — `Σ_p (w_p·(t_p − o_p))²`, the loss MEI modifies
//!   to prioritize most-significant bits (Eq (5)).
//! * [`train::Trainer`] — seeded mini-batch SGD with momentum; sharded
//!   data-parallel backprop that is bit-identical at every
//!   [`train::TrainConfig::threads`] setting.
//! * [`data::Dataset`] — sample storage, splitting, and the *weighted
//!   resampling* SAAB uses to focus new learners on hard examples
//!   (Algorithm 1, line 4).
//! * [`conv::BinConv`] — the CNN workload's binarized conv layer, trained
//!   with the straight-through estimator on the crossbar crate's conv
//!   geometry and direct-convolution oracle.
//!
//! ## Example: fit XOR
//!
//! ```
//! use neural::{Activation, Dataset, MlpBuilder, TrainConfig, Trainer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = Dataset::new(
//!     vec![vec![0., 0.], vec![0., 1.], vec![1., 0.], vec![1., 1.]],
//!     vec![vec![0.], vec![1.], vec![1.], vec![0.]],
//! )?;
//! let mut net = MlpBuilder::new(&[2, 4, 1])
//!     .hidden_activation(Activation::Tanh)
//!     .seed(7)
//!     .build();
//! let report = Trainer::new(TrainConfig {
//!     epochs: 2000,
//!     learning_rate: 0.5,
//!     ..TrainConfig::default()
//! })
//! .train(&mut net, &data);
//! assert!(report.final_loss < 0.01);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod conv;
pub mod data;
pub mod gradcheck;
pub mod io;
pub mod loss;
pub mod matrix;
pub mod metrics;
pub mod mlp;
pub mod train;

pub use activation::Activation;
pub use conv::{binarize, ternarize, train_ste, BinConv, ConvTrainError, SteConfig, SteReport};
pub use data::{Dataset, DatasetError};
pub use gradcheck::{check_gradients, GradCheckReport};
pub use io::{read_mlp, write_mlp, ParseMlpError};
pub use loss::WeightedMse;
pub use matrix::Matrix;
pub use metrics::{argmax, dataset_mse, mlp_mse};
pub use mlp::{Layer, Mlp, MlpBuilder};
pub use train::{sharded_mean_gradients, TrainConfig, TrainReport, Trainer};
