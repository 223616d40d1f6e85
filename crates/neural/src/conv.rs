//! Binarized conv layers trained with the straight-through estimator.
//!
//! The digital half of the CNN workload: a conv layer whose *served*
//! weights are ternary (`−1, 0, +1`) and whose *served* activations are
//! binary (`0/1`), trained the way the RRAM-BNN literature trains such
//! layers (arXiv:1811.02187) — full-precision **shadow weights** carry the
//! gradient, the forward pass sees only their ternarized projection, and
//! the non-differentiable quantizers are crossed with the straight-through
//! estimator (STE) under a hard-clip window.
//!
//! Training is joint with a throwaway **linear probe**: probe logits give
//! the classification error, the error flows straight-through the
//! binarized activations into the shadow conv weights, and the probe is
//! discarded afterwards — downstream the learned ternary filters feed a
//! separately-trained interface-bit head.
//!
//! The layer runs on the crossbar crate's conv geometry
//! ([`ConvShape`]) and its direct-convolution oracle ([`direct_conv`]),
//! so the trained layer and the crossbar tiles that serve it walk one
//! im2col layout. The crossbar deployment shards the conv's patch
//! dimension over analog tiles with per-tile digital sense interfaces of
//! differing bit widths; [`SteConfig::significance`]-weighted training
//! follows that: each patch *column* carries a gradient significance
//! weight (derived upstream from its tile's interface bits), so shadow
//! weights behind wider — more significant — tile interfaces receive
//! proportionally larger updates, the conv-layer analogue of the MEI
//! bit-significance loss (Eq (5)).

use std::fmt;

use crossbar::conv::{direct_conv, ConvShape};
use prng::rngs::StdRng;
use prng::{Rng, SeedableRng};

use crate::data::Dataset;
use crate::metrics::argmax;

/// Project a shadow weight onto `{−1, 0, +1}`: zero inside the dead zone
/// `|w| < threshold`, sign outside it.
#[must_use]
pub fn ternarize(w: f64, threshold: f64) -> f64 {
    if w.abs() < threshold {
        0.0
    } else if w > 0.0 {
        1.0
    } else {
        -1.0
    }
}

/// The served binary activation: `1` for strictly positive
/// pre-activations, else `0`.
#[must_use]
pub fn binarize(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Errors from binarized-conv construction or training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConvTrainError {
    /// A shape dimension is zero or the kernel does not fit the image.
    BadSpec,
    /// Shadow weights are not `filters × patch_len`.
    ShadowShape,
    /// The dataset's input/target dims don't match the shape/classes.
    DatasetShape {
        /// Expected input length.
        expected_input: usize,
        /// Expected target length (classes).
        expected_target: usize,
    },
    /// The significance slice is not `patch_len` long or has a
    /// non-finite/negative entry.
    BadSignificance,
    /// A non-positive hyperparameter (epochs, rates, clip, threshold).
    BadHyper(&'static str),
}

impl fmt::Display for ConvTrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvTrainError::BadSpec => write!(f, "invalid conv shape"),
            ConvTrainError::ShadowShape => write!(f, "shadow weights must be filters × patch_len"),
            ConvTrainError::DatasetShape {
                expected_input,
                expected_target,
            } => write!(
                f,
                "dataset must be {expected_input}-dim inputs with {expected_target}-dim one-hot targets"
            ),
            ConvTrainError::BadSignificance => {
                write!(f, "significance must be patch_len finite non-negative weights")
            }
            ConvTrainError::BadHyper(name) => write!(f, "hyperparameter {name} must be positive"),
        }
    }
}

impl std::error::Error for ConvTrainError {}

/// A binarized conv layer: full-precision shadow weights plus the ternary
/// projection that is actually served.
#[derive(Debug, Clone, PartialEq)]
pub struct BinConv {
    shape: ConvShape,
    shadow: Vec<Vec<f64>>,
    threshold: f64,
}

impl BinConv {
    /// Wrap existing shadow weights (`filters × patch_len`).
    ///
    /// # Errors
    ///
    /// Returns [`ConvTrainError`] on a bad shape, mis-shaped shadow, or
    /// non-positive threshold.
    pub fn from_shadow(
        shape: ConvShape,
        shadow: Vec<Vec<f64>>,
        threshold: f64,
    ) -> Result<Self, ConvTrainError> {
        let shape = shape.validated().map_err(|_| ConvTrainError::BadSpec)?;
        if shadow.len() != shape.filters || shadow.iter().any(|r| r.len() != shape.patch_len()) {
            return Err(ConvTrainError::ShadowShape);
        }
        if threshold <= 0.0 || threshold.is_nan() {
            return Err(ConvTrainError::BadHyper("threshold"));
        }
        Ok(Self {
            shape,
            shadow,
            threshold,
        })
    }

    /// The conv geometry.
    #[must_use]
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// The full-precision shadow weights (training state).
    #[must_use]
    pub fn shadow(&self) -> &[Vec<f64>] {
        &self.shadow
    }

    /// The served ternary projection of the shadow weights.
    #[must_use]
    pub fn ternary_weights(&self) -> Vec<Vec<f64>> {
        self.shadow
            .iter()
            .map(|row| row.iter().map(|&w| ternarize(w, self.threshold)).collect())
            .collect()
    }

    /// Integer pre-activations of the ternary conv, filter-major
    /// (`[f][oy][ox]`), computed by [`direct_conv`]. For binary inputs
    /// every entry is an exact small integer in `f64`.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != shape.input_len()`.
    #[must_use]
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        direct_conv(&self.shape, &self.ternary_weights(), input)
    }

    /// Served binary feature map: [`binarize`] applied to
    /// [`forward`](Self::forward).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != shape.input_len()`.
    #[must_use]
    pub fn features(&self, input: &[f64]) -> Vec<f64> {
        self.forward(input).iter().map(|&v| binarize(v)).collect()
    }
}

/// Hyperparameters for [`train_ste`].
#[derive(Debug, Clone, PartialEq)]
pub struct SteConfig {
    /// Full-batch gradient epochs.
    pub epochs: usize,
    /// Learning rate on the shadow conv weights.
    pub lr: f64,
    /// Learning rate on the throwaway linear probe.
    pub probe_lr: f64,
    /// STE hard-clip window: activation gradients pass only where the
    /// integer pre-activation satisfies `|pre| ≤ clip`.
    pub clip: f64,
    /// Ternarization dead-zone threshold on the shadow weights.
    pub threshold: f64,
    /// Per-patch-column gradient significance weights (length
    /// `patch_len`), derived upstream from each column's tile interface
    /// bits; `None` trains all columns uniformly.
    pub significance: Option<Vec<f64>>,
    /// Seed for shadow/probe initialization.
    pub seed: u64,
}

impl Default for SteConfig {
    fn default() -> Self {
        Self {
            epochs: 60,
            lr: 0.05,
            probe_lr: 0.1,
            clip: 4.0,
            threshold: 0.3,
            significance: None,
            seed: 0,
        }
    }
}

/// Outcome of an STE training run.
#[derive(Debug, Clone, PartialEq)]
pub struct SteReport {
    /// Probe MSE before the first update.
    pub initial_loss: f64,
    /// Probe MSE after the last epoch.
    pub final_loss: f64,
    /// Training-set argmax accuracy of probe-on-binary-features after
    /// training.
    pub probe_accuracy: f64,
}

/// Train a [`BinConv`] on a classification dataset (one-hot targets,
/// `classes` wide) jointly with a throwaway linear probe, using
/// full-batch straight-through SGD. Deterministic: a pure function of
/// `(shape, classes, data, cfg)` — no thread-count or iteration-order
/// dependence.
///
/// # Errors
///
/// Returns [`ConvTrainError`] on shape or hyperparameter problems.
pub fn train_ste(
    shape: ConvShape,
    classes: usize,
    data: &Dataset,
    cfg: &SteConfig,
) -> Result<(BinConv, SteReport), ConvTrainError> {
    let shape = shape.validated().map_err(|_| ConvTrainError::BadSpec)?;
    if classes == 0 || data.input_dim() != shape.input_len() || data.output_dim() != classes {
        return Err(ConvTrainError::DatasetShape {
            expected_input: shape.input_len(),
            expected_target: classes,
        });
    }
    if cfg.epochs == 0 {
        return Err(ConvTrainError::BadHyper("epochs"));
    }
    for (name, v) in [
        ("lr", cfg.lr),
        ("probe_lr", cfg.probe_lr),
        ("clip", cfg.clip),
        ("threshold", cfg.threshold),
    ] {
        if v <= 0.0 || !v.is_finite() {
            return Err(ConvTrainError::BadHyper(name));
        }
    }
    let patch_len = shape.patch_len();
    let significance = match &cfg.significance {
        Some(s) => {
            if s.len() != patch_len || s.iter().any(|&w| !w.is_finite() || w < 0.0) {
                return Err(ConvTrainError::BadSignificance);
            }
            s.clone()
        }
        None => vec![1.0; patch_len],
    };

    let feature_len = shape.output_len();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Shadow init straddles the dead zone so early ternary filters are
    // sparse but not empty.
    let mut shadow: Vec<Vec<f64>> = (0..shape.filters)
        .map(|_| {
            (0..patch_len)
                .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * 2.0 * cfg.threshold)
                .collect()
        })
        .collect();
    let probe_scale = 1.0 / (feature_len as f64).sqrt();
    let mut probe: Vec<Vec<f64>> = (0..classes)
        .map(|_| {
            (0..feature_len)
                .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * probe_scale)
                .collect()
        })
        .collect();
    let mut probe_bias = vec![0.0; classes];

    let n = data.len() as f64;
    let (out_h, out_w) = (shape.out_h(), shape.out_w());
    let mut initial_loss = 0.0;
    let mut final_loss = 0.0;
    let mut patch = vec![0.0; patch_len];

    for epoch in 0..cfg.epochs {
        let ternary: Vec<Vec<f64>> = shadow
            .iter()
            .map(|row| row.iter().map(|&w| ternarize(w, cfg.threshold)).collect())
            .collect();
        let mut grad_w = vec![vec![0.0; patch_len]; shape.filters];
        let mut grad_p = vec![vec![0.0; feature_len]; classes];
        let mut grad_b = vec![0.0; classes];
        let mut loss = 0.0;
        for (x, target) in data.iter() {
            let pre = direct_conv(&shape, &ternary, x);
            let act: Vec<f64> = pre.iter().map(|&v| binarize(v)).collect();
            let mut dpre = vec![0.0; feature_len];
            for (k, (pk, bk)) in probe.iter().zip(&probe_bias).enumerate() {
                let logit = pk.iter().zip(&act).map(|(a, b)| a * b).sum::<f64>() + bk;
                let err = logit - target[k];
                loss += err * err;
                let dlogit = 2.0 * err / n;
                grad_b[k] += dlogit;
                for (g, &a) in grad_p[k].iter_mut().zip(&act) {
                    *g += dlogit * a;
                }
                // Straight-through through the binarizer: gradient passes
                // only inside the hard-clip window.
                for ((d, &p), &pw) in dpre.iter_mut().zip(&pre).zip(pk) {
                    if p.abs() <= cfg.clip {
                        *d += dlogit * pw;
                    }
                }
            }
            for (j, &d) in dpre.iter().enumerate() {
                if d == 0.0 {
                    continue;
                }
                let f = j / (out_h * out_w);
                let pixel = j % (out_h * out_w);
                shape.patch_into(x, pixel % out_w, pixel / out_w, &mut patch);
                for ((gw, &xv), &sig) in grad_w[f].iter_mut().zip(&patch).zip(&significance) {
                    *gw += d * xv * sig;
                }
            }
        }
        loss /= n;
        if epoch == 0 {
            initial_loss = loss;
        }
        final_loss = loss;
        for (row, grow) in shadow.iter_mut().zip(&grad_w) {
            for (w, g) in row.iter_mut().zip(grow) {
                *w -= cfg.lr * g;
                // Keep shadows in the STE trust region around the
                // quantizer so dead weights can come back.
                *w = w.clamp(-2.0 * cfg.threshold - 1.0, 2.0 * cfg.threshold + 1.0);
            }
        }
        for (row, grow) in probe.iter_mut().zip(&grad_p) {
            for (w, g) in row.iter_mut().zip(grow) {
                *w -= cfg.probe_lr * g;
            }
        }
        for (b, g) in probe_bias.iter_mut().zip(&grad_b) {
            *b -= cfg.probe_lr * g;
        }
    }

    let conv = BinConv::from_shadow(shape, shadow, cfg.threshold)?;
    let mut correct = 0usize;
    for (x, target) in data.iter() {
        let act = conv.features(x);
        let logits: Vec<f64> = probe
            .iter()
            .zip(&probe_bias)
            .map(|(pk, bk)| pk.iter().zip(&act).map(|(a, b)| a * b).sum::<f64>() + bk)
            .collect();
        correct += usize::from(argmax(&logits) == argmax(target));
    }
    let report = SteReport {
        initial_loss,
        final_loss,
        probe_accuracy: correct as f64 / n,
    };
    Ok((conv, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ConvShape {
        ConvShape {
            in_channels: 1,
            in_h: 6,
            in_w: 6,
            filters: 2,
            kernel: 3,
            stride: 1,
        }
    }

    fn toy_dataset(shape: &ConvShape, classes: usize, n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(3);
        let mut inputs = Vec::new();
        let mut targets = Vec::new();
        for i in 0..n {
            let class = i % classes;
            let img: Vec<f64> = (0..shape.input_len())
                .map(|j| {
                    // Class-dependent stripes plus noise bits.
                    let stripe = (j / shape.in_w + class).is_multiple_of(2);
                    let flip = rng.gen::<u64>() % 8 == 0;
                    f64::from(u8::from(stripe != flip))
                })
                .collect();
            let mut t = vec![0.0; classes];
            t[class] = 1.0;
            inputs.push(img);
            targets.push(t);
        }
        Dataset::new(inputs, targets).unwrap()
    }

    #[test]
    fn ternarize_and_binarize_contracts() {
        assert_eq!(ternarize(0.1, 0.3), 0.0);
        assert_eq!(ternarize(0.5, 0.3), 1.0);
        assert_eq!(ternarize(-0.5, 0.3), -1.0);
        assert_eq!(binarize(0.0), 0.0);
        assert_eq!(binarize(2.0), 1.0);
        assert_eq!(binarize(-1.0), 0.0);
    }

    #[test]
    fn training_reduces_probe_loss_and_is_deterministic() {
        let s = shape();
        let data = toy_dataset(&s, 2, 24);
        let cfg = SteConfig::default();
        let (conv_a, rep_a) = train_ste(s, 2, &data, &cfg).unwrap();
        let (conv_b, rep_b) = train_ste(s, 2, &data, &cfg).unwrap();
        assert_eq!(conv_a, conv_b, "bitwise deterministic");
        assert_eq!(rep_a, rep_b);
        assert!(
            rep_a.final_loss < rep_a.initial_loss,
            "loss {} → {}",
            rep_a.initial_loss,
            rep_a.final_loss
        );
        assert!(rep_a.probe_accuracy > 0.5, "acc {}", rep_a.probe_accuracy);
    }

    #[test]
    fn served_weights_are_ternary_and_features_binary() {
        let s = shape();
        let data = toy_dataset(&s, 2, 12);
        let (conv, _) = train_ste(s, 2, &data, &SteConfig::default()).unwrap();
        for row in conv.ternary_weights() {
            assert!(row.iter().all(|&w| w == -1.0 || w == 0.0 || w == 1.0));
        }
        let (x, _) = data.iter().next().unwrap();
        for v in conv.features(x) {
            assert!(v == 0.0 || v == 1.0);
        }
        for v in conv.forward(x) {
            assert_eq!(v, v.round(), "integer pre-activations");
        }
    }

    #[test]
    fn zero_significance_freezes_columns() {
        let s = shape();
        let data = toy_dataset(&s, 2, 12);
        let mut sig = vec![1.0; s.patch_len()];
        sig[0] = 0.0;
        sig[4] = 0.0;
        let cfg = SteConfig {
            significance: Some(sig),
            ..SteConfig::default()
        };
        let (conv, _) = train_ste(s, 2, &data, &cfg).unwrap();
        let init = train_ste(
            s,
            2,
            &data,
            &SteConfig {
                epochs: 1,
                lr: 1e-12,
                probe_lr: 1e-12,
                ..cfg.clone()
            },
        )
        .unwrap()
        .0;
        // Frozen columns never left their initialization; a live column did.
        for (row, init_row) in conv.shadow().iter().zip(init.shadow()) {
            assert_eq!(row[0], init_row[0]);
            assert_eq!(row[4], init_row[4]);
        }
        assert!(
            conv.shadow()
                .iter()
                .zip(init.shadow())
                .any(|(row, init_row)| row[1] != init_row[1]),
            "unweighted columns should move"
        );
    }

    #[test]
    fn shape_and_hyper_validation() {
        let s = shape();
        let data = toy_dataset(&s, 2, 8);
        assert!(matches!(
            train_ste(
                ConvShape { kernel: 0, ..s },
                2,
                &data,
                &SteConfig::default()
            ),
            Err(ConvTrainError::BadSpec)
        ));
        assert!(matches!(
            train_ste(s, 3, &data, &SteConfig::default()),
            Err(ConvTrainError::DatasetShape { .. })
        ));
        assert!(matches!(
            train_ste(
                s,
                2,
                &data,
                &SteConfig {
                    lr: 0.0,
                    ..SteConfig::default()
                }
            ),
            Err(ConvTrainError::BadHyper("lr"))
        ));
        assert!(matches!(
            train_ste(
                s,
                2,
                &data,
                &SteConfig {
                    significance: Some(vec![1.0; 3]),
                    ..SteConfig::default()
                }
            ),
            Err(ConvTrainError::BadSignificance)
        ));
        assert!(matches!(
            BinConv::from_shadow(s, vec![vec![0.0; 2]; 2], 0.3),
            Err(ConvTrainError::ShadowShape)
        ));
    }

    #[test]
    fn forward_matches_hand_computation() {
        let s = ConvShape {
            in_channels: 1,
            in_h: 3,
            in_w: 3,
            filters: 1,
            kernel: 2,
            stride: 1,
        };
        // Input 0..8 row-major; kernel all ones → 2×2 sums.
        let x: Vec<f64> = (0..9).map(f64::from).collect();
        let conv = BinConv::from_shadow(s, vec![vec![1.0; 4]], 0.3).unwrap();
        assert_eq!(conv.forward(&x), vec![8.0, 12.0, 20.0, 24.0]);
    }
}
