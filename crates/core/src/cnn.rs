//! The CNN workload: a binarized conv layer tiled over crossbars feeding
//! a merged-interface classification head.
//!
//! The serving stack has three stages:
//!
//! 1. **Tiled analog conv** ([`crossbar::TiledConv`]) — the ternary conv
//!    layer sharded across differential-pair tiles, each tile sensing its
//!    integer partial sums digitally so the fold is bit-identical at any
//!    tile count (and equal to the digital twin).
//! 2. **Binarization** — the `>0` activation turns the integer feature
//!    map into interface bits.
//! 3. **MEI head** — an [`AnalogMlp`] whose input ports *are* the feature
//!    bits and whose output is a [`InterfaceSpec`]-coded class vector
//!    thresholded by comparators, exactly the [`MeiRcs`] pattern.
//!
//! Training mirrors the split. The conv layer is learned with
//! straight-through SGD ([`neural::conv::train_ste`]); each patch column
//! carries a gradient **significance weight derived from its tile's
//! sense-interface bits** ([`tile_significance`]) — the conv-layer
//! analogue of MEI's Eq (5) bit-significance loss, applied per tile. The
//! head is then trained on the frozen binary features through the
//! existing data-parallel [`Trainer`] with the MSB-weighted loss over the
//! output interface.
//!
//! [`MeiRcs`]: crate::MeiRcs

use std::cell::RefCell;
use std::fmt;

use crossbar::conv::{tile_ranges, ConvShape, ConvWorkspace, TiledConv};
use crossbar::{Comparator, MappingConfig, SignalFluctuation};
use interface::cost::MeiTopology;
use interface::{BitCoding, InterfaceSpec};
use neural::conv::{binarize, train_ste, BinConv, ConvSpec, SteConfig, SteReport};
use neural::{Dataset, Mlp, MlpBuilder, TrainConfig, Trainer};
use prng::{Rng, RngCore};
use rram::{DeviceParams, RetentionModel, VariationModel};
use runtime::{Chip, ChipCostSheet};

use crate::analog::{AnalogMlp, AnalogWorkspace};
use crate::bitweights::msb_weighted_loss;
use crate::error::{InferError, TrainRcsError};
use crate::eval::Rcs;

/// Configuration of a CNN RCS.
#[derive(Debug, Clone, PartialEq)]
pub struct CnnConfig {
    /// Input channels.
    pub in_channels: usize,
    /// Input image height.
    pub in_h: usize,
    /// Input image width.
    pub in_w: usize,
    /// Conv filters (output channels).
    pub filters: usize,
    /// Square kernel edge length.
    pub kernel: usize,
    /// Conv stride.
    pub stride: usize,
    /// Crossbar tiles the conv's patch dimension is sharded over
    /// (clamped to the patch length).
    pub tiles: usize,
    /// Hidden-layer size of the classification head.
    pub hidden: usize,
    /// Interface bits per class score on the head output.
    pub out_bits: usize,
    /// Use the Eq (5) MSB-weighted loss on the head (`true`, the MEI
    /// proposal) or the plain loss (`false`).
    pub weighted_loss: bool,
    /// Wire coding of the output interface.
    pub coding: BitCoding,
    /// Straight-through hyperparameters for the conv stage. When its
    /// `significance` field is `None`, training derives it from the
    /// tiling via [`tile_significance`]; an explicit value wins.
    pub ste: SteConfig,
    /// Backprop hyperparameters for the head.
    pub train: TrainConfig,
    /// RRAM cell parameters.
    pub device: DeviceParams,
    /// Weight-to-conductance mapping options.
    pub mapping: MappingConfig,
    /// Weight-initialization seed (conv and head).
    pub seed: u64,
}

impl Default for CnnConfig {
    fn default() -> Self {
        Self {
            in_channels: 1,
            in_h: 8,
            in_w: 8,
            filters: 6,
            kernel: 3,
            stride: 1,
            tiles: 3,
            hidden: 32,
            out_bits: 6,
            weighted_loss: true,
            coding: BitCoding::Binary,
            ste: SteConfig::default(),
            train: TrainConfig::default(),
            device: DeviceParams::hfox(),
            mapping: MappingConfig::default(),
            seed: 0,
        }
    }
}

impl CnnConfig {
    /// A small, fast configuration for doc tests and smoke tests: 8×8
    /// inputs, 4 filters, 2 tiles, a short training budget.
    #[must_use]
    pub fn quick_test() -> Self {
        Self {
            filters: 4,
            tiles: 2,
            hidden: 20,
            out_bits: 4,
            ste: SteConfig {
                epochs: 40,
                ..SteConfig::default()
            },
            train: TrainConfig {
                epochs: 80,
                learning_rate: 0.5,
                ..TrainConfig::default()
            },
            ..Self::default()
        }
    }

    /// The crossbar-side conv geometry.
    #[must_use]
    pub fn shape(&self) -> ConvShape {
        ConvShape {
            in_channels: self.in_channels,
            in_h: self.in_h,
            in_w: self.in_w,
            filters: self.filters,
            kernel: self.kernel,
            stride: self.stride,
        }
    }

    /// The digital-twin conv geometry (same numbers, dependency-free
    /// mirror type).
    #[must_use]
    pub fn spec(&self) -> ConvSpec {
        ConvSpec {
            in_channels: self.in_channels,
            in_h: self.in_h,
            in_w: self.in_w,
            filters: self.filters,
            kernel: self.kernel,
            stride: self.stride,
        }
    }
}

/// Per-patch-column STE gradient significance under the planned tiling:
/// a column in a tile whose sense interface spans `b` bits weighs
/// `2^(b − b_max)` — columns behind wider (more significant) tile
/// interfaces get proportionally larger gradient, the per-tile analogue
/// of the Eq (5) bit-significance weights.
///
/// # Panics
///
/// Panics if `patch_len` or `tiles` is zero.
#[must_use]
pub fn tile_significance(patch_len: usize, tiles: usize) -> Vec<f64> {
    let ranges = tile_ranges(patch_len, tiles);
    let bits: Vec<i32> = ranges
        .iter()
        .map(|&(_, len)| (usize::BITS - (2 * len).leading_zeros()) as i32)
        .collect();
    let max_bits = bits.iter().copied().max().expect("at least one tile");
    let mut sig = vec![0.0; patch_len];
    for (&(start, len), &b) in ranges.iter().zip(&bits) {
        let w = f64::exp2(f64::from(b - max_bits));
        for s in &mut sig[start..start + len] {
            *s = w;
        }
    }
    sig
}

/// Reusable scratch for [`CnnRcs::infer_with`]: conv tiling buffers plus
/// the head's analog workspace.
#[derive(Debug, Clone, Default)]
pub struct CnnWorkspace {
    conv: ConvWorkspace,
    head: AnalogWorkspace,
    features: Vec<f64>,
}

impl CnnWorkspace {
    /// An empty workspace; buffers grow to the largest model they serve.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` on this thread's workspace, the scratch `Chip::infer`
    /// serves from.
    ///
    /// # Panics
    ///
    /// Panics on a nested call: borrow only at the outermost entry point.
    fn with_thread<R>(f: impl FnOnce(&mut Self) -> R) -> R {
        thread_local! {
            static WORKSPACE: RefCell<CnnWorkspace> = RefCell::new(CnnWorkspace::new());
        }
        WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
    }
}

/// A served CNN: tiled analog conv → binarize → merged-interface head.
#[derive(Debug, Clone)]
pub struct CnnRcs {
    conv: TiledConv,
    twin: BinConv,
    head_mlp: Mlp,
    head: AnalogMlp,
    output_spec: InterfaceSpec,
    comparator: Comparator,
    config: CnnConfig,
    classes: usize,
    ste_report: SteReport,
}

impl CnnRcs {
    /// Train a CNN RCS on a binary-image classification dataset: inputs
    /// are `{0,1}` pixel vectors of `in_channels × in_h × in_w`, targets
    /// one-hot class vectors (their width sets the class count).
    ///
    /// # Errors
    ///
    /// Returns [`TrainRcsError`] on an invalid configuration, a
    /// mis-shaped dataset, or an unmappable trained network.
    pub fn train(data: &Dataset, config: &CnnConfig) -> Result<Self, TrainRcsError> {
        let shape = config
            .shape()
            .validated()
            .map_err(|e| TrainRcsError::InvalidConfig(e.to_string()))?;
        if config.hidden == 0 {
            return Err(TrainRcsError::InvalidConfig(
                "hidden size must be nonzero".into(),
            ));
        }
        let max = interface::quantize::MAX_BITS;
        if config.out_bits == 0 || config.out_bits > max {
            return Err(TrainRcsError::InvalidConfig(format!(
                "out_bits must be in 1..={max}: {}",
                config.out_bits
            )));
        }
        if config.tiles == 0 {
            return Err(TrainRcsError::InvalidConfig("tiles must be nonzero".into()));
        }
        if data.input_dim() != shape.input_len() {
            return Err(TrainRcsError::DimensionMismatch {
                expected: format!("{}-pixel inputs", shape.input_len()),
                found: format!("{}", data.input_dim()),
            });
        }
        let classes = data.output_dim();

        // Stage 1: straight-through conv training, with each patch
        // column's gradient weighted by its tile's interface bits (an
        // explicit config override wins — e.g. uniform weights to make
        // the twin invariant to the serving tile count).
        let significance = config
            .ste
            .significance
            .clone()
            .unwrap_or_else(|| tile_significance(shape.patch_len(), config.tiles));
        let ste = SteConfig {
            significance: Some(significance),
            seed: config.seed,
            ..config.ste.clone()
        };
        let (twin, ste_report) = train_ste(config.spec(), classes, data, &ste)
            .map_err(|e| TrainRcsError::InvalidConfig(e.to_string()))?;

        // Stage 2: shard the learned ternary filters across the tiles.
        let conv = TiledConv::new(
            shape,
            &twin.ternary_weights(),
            config.tiles,
            config.device,
            &config.mapping,
        )
        .map_err(|e| match e {
            crossbar::ConvError::Mapping(m) => TrainRcsError::Mapping(m),
            other => TrainRcsError::InvalidConfig(other.to_string()),
        })?;

        // Stage 3: the head sees the frozen binary features; its targets
        // are the interface-coded one-hot class vectors. Trained through
        // the existing data-parallel Trainer, MSB-weighted as in MEI.
        let output_spec = InterfaceSpec::new(classes, config.out_bits).with_coding(config.coding);
        let encoded = data
            .map_inputs(|x| twin.features(x))?
            .map_targets(|_, y| output_spec.encode(y))?;
        let mut head_mlp = MlpBuilder::new(&[
            config.spec().feature_len(),
            config.hidden,
            output_spec.ports(),
        ])
        .seed(config.seed)
        .build();
        let trainer = if config.weighted_loss {
            Trainer::with_loss(config.train, msb_weighted_loss(&output_spec))
        } else {
            Trainer::new(config.train)
        };
        trainer.train(&mut head_mlp, &encoded);
        let head = AnalogMlp::from_mlp(&head_mlp, config.device, &config.mapping)?;

        Ok(Self {
            conv,
            twin,
            head_mlp,
            head,
            output_spec,
            comparator: Comparator::default(),
            config: config.clone(),
            classes,
            ste_report,
        })
    }

    /// The analog conv stage.
    #[must_use]
    pub fn conv(&self) -> &TiledConv {
        &self.conv
    }

    /// The digital twin of the conv stage (shadow + ternary weights).
    #[must_use]
    pub fn twin(&self) -> &BinConv {
        &self.twin
    }

    /// The analog head.
    #[must_use]
    pub fn head(&self) -> &AnalogMlp {
        &self.head
    }

    /// The digitally-trained head network.
    #[must_use]
    pub fn head_mlp(&self) -> &Mlp {
        &self.head_mlp
    }

    /// The class-score output interface.
    #[must_use]
    pub fn output_spec(&self) -> InterfaceSpec {
        self.output_spec
    }

    /// Number of classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The configuration this RCS was trained with.
    #[must_use]
    pub fn config(&self) -> &CnnConfig {
        &self.config
    }

    /// The conv-stage training report.
    #[must_use]
    pub fn ste_report(&self) -> &SteReport {
        &self.ste_report
    }

    /// Expected input length (`in_channels × in_h × in_w`).
    #[must_use]
    pub fn input_len(&self) -> usize {
        self.conv.shape().input_len()
    }

    /// Total RRAM devices (conv tiles + head).
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.conv.device_count() + self.head.device_count()
    }

    /// Total digital interface bits of the conv tile boundary (per-tile
    /// ADC width × filters, summed over tiles).
    #[must_use]
    pub fn tile_interface_bits(&self) -> usize {
        self.conv.interface_bits()
    }

    /// The head's architecture descriptor for cost estimation: input
    /// ports are the 1-bit feature lines, output the coded class scores.
    #[must_use]
    pub fn head_topology(&self) -> MeiTopology {
        MeiTopology::new(
            self.config.spec().feature_len(),
            1,
            self.config.hidden,
            self.classes,
            self.config.out_bits,
        )
    }

    /// Per-tile architecture descriptors: tile `t` is a `len(t)`-port
    /// 1-bit-input stage driving `filters` columns sensed at
    /// [`TiledConv::tile_bits`] bits each.
    #[must_use]
    pub fn tile_topologies(&self) -> Vec<MeiTopology> {
        (0..self.conv.tile_count())
            .map(|t| {
                let (_, len) = self.conv.tile_range(t);
                MeiTopology::new(
                    len,
                    1,
                    self.conv.shape().filters,
                    self.conv.shape().filters,
                    self.conv.tile_bits(t),
                )
            })
            .collect()
    }

    fn check_input(&self, x: &[f64]) -> Result<(), InferError> {
        if x.len() != self.input_len() {
            return Err(InferError::InputLength {
                expected: self.input_len(),
                found: x.len(),
            });
        }
        Ok(())
    }

    fn decode_head(&self, analog_out: &[f64]) -> Vec<f64> {
        self.output_spec.decode(&self.comparator.bits(analog_out))
    }

    /// Analog inference: tiled conv, binarize, head, comparator, decode.
    /// Returns the `classes` decoded scores in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::InputLength`] on a wrong-sized input.
    pub fn infer(&self, x: &[f64]) -> Result<Vec<f64>, InferError> {
        self.infer_with(x, &mut CnnWorkspace::new())
    }

    /// [`infer`](Self::infer) against a caller-owned workspace — the
    /// allocation-light body [`Chip::infer`] runs on its thread's
    /// workspace.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::InputLength`] on a wrong-sized input.
    pub fn infer_with(&self, x: &[f64], ws: &mut CnnWorkspace) -> Result<Vec<f64>, InferError> {
        self.check_input(x)?;
        ws.features = self.conv.forward_with(x, &mut ws.conv);
        for v in &mut ws.features {
            *v = binarize(*v);
        }
        let out = self.head.forward_with(&ws.features, &mut ws.head);
        Ok(self.decode_head(&out))
    }

    /// Analog inference with signal fluctuation on the head's analog
    /// voltages. The conv tile boundary is digital (integer-sensed), so
    /// fluctuation is modeled on the head stage where signals are
    /// continuous.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::InputLength`] on a wrong-sized input.
    pub fn infer_noisy<R: Rng + ?Sized>(
        &self,
        x: &[f64],
        fluctuation: &SignalFluctuation,
        rng: &mut R,
    ) -> Result<Vec<f64>, InferError> {
        self.check_input(x)?;
        let features: Vec<f64> = self.conv.forward(x).iter().map(|&v| binarize(v)).collect();
        let out = self.head.forward_noisy(&features, fluctuation, rng);
        Ok(self.decode_head(&out))
    }

    /// The all-digital twin path: ternary conv + FP head, same comparator
    /// and decode. On clean (undisturbed) arrays this matches
    /// [`infer`](Self::infer) bitwise — the conv stages agree exactly by
    /// integer sensing, and the head's analog error is far below the
    /// comparator threshold.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::InputLength`] on a wrong-sized input.
    pub fn infer_digital(&self, x: &[f64]) -> Result<Vec<f64>, InferError> {
        self.check_input(x)?;
        let features = self.twin.features(x);
        let out = self.head_mlp.forward(&features);
        Ok(self.decode_head(&out))
    }

    /// Argmax class of [`infer`](Self::infer) (ties to the lowest index).
    ///
    /// # Errors
    ///
    /// Returns [`InferError::InputLength`] on a wrong-sized input.
    pub fn classify(&self, x: &[f64]) -> Result<usize, InferError> {
        Ok(argmax(&self.infer(x)?))
    }

    /// Fraction of `data` classified into its one-hot argmax class.
    #[must_use]
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        let correct = data
            .iter()
            .filter(|(x, t)| argmax(&Chip::infer(self, x)) == argmax(t))
            .count();
        correct as f64 / data.len() as f64
    }

    /// Total write pulses across conv tiles and head — the chip's
    /// endurance wear.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.conv.total_writes() + self.head.total_writes()
    }

    /// The worst-worn cell's write count across conv tiles and head.
    #[must_use]
    pub fn max_write_count(&self) -> u64 {
        self.conv.max_write_count().max(self.head.max_write_count())
    }

    /// Age all devices by `seconds` under a retention model.
    pub fn age(&mut self, retention: &RetentionModel, seconds: f64) {
        self.conv.age(retention, seconds);
        self.head.age(retention, seconds);
    }
}

/// Index of the largest value (ties to the lowest index).
#[must_use]
pub fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

impl fmt::Display for CnnRcs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CNN RCS {} → head {}", self.conv, self.head_topology())
    }
}

impl Chip for CnnRcs {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        CnnWorkspace::with_thread(|ws| self.infer_with(input, ws)).expect("dataset-validated input")
    }

    // The CNN chip is its conv tiles plus its head side by side: each
    // tile is costed as a 1-bit-input stage with a `tile_bits`-wide sense
    // interface (the Eq (6)/(7) machinery applied per tile), the head as
    // a regular MEI stack. One inference evaluates all of them.
    fn cost_sheet(&self) -> Option<ChipCostSheet> {
        let mut stages = self.tile_topologies();
        stages.push(self.head_topology());
        Some(crate::serve::mei_sheet(stages))
    }

    fn wear(&self) -> Option<u64> {
        Some(self.total_writes())
    }
}

impl Rcs for CnnRcs {
    fn predict_noisy(
        &self,
        x: &[f64],
        fluctuation: &SignalFluctuation,
        rng: &mut dyn RngCore,
    ) -> Vec<f64> {
        self.infer_noisy(x, fluctuation, rng)
            .expect("dataset-validated input")
    }

    // Conv tiles first, then the head: a fixed draw order keeps this
    // deterministic.
    fn disturb(&mut self, variation: &VariationModel, rng: &mut dyn RngCore) {
        self.conv.disturb(variation, rng);
        self.head.disturb(variation, rng);
    }

    fn restore(&mut self) {
        self.conv.restore();
        self.head.restore();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prng::rngs::StdRng;
    use prng::SeedableRng;
    use workloads::cnn_dataset;

    fn quick_data() -> Dataset {
        cnn_dataset(8, 8, 20, 7)
    }

    fn quick_rcs() -> CnnRcs {
        CnnRcs::train(&quick_data(), &CnnConfig::quick_test()).unwrap()
    }

    #[test]
    fn trains_and_classifies_above_chance() {
        let rcs = quick_rcs();
        let test = cnn_dataset(8, 8, 15, 99);
        let acc = rcs.accuracy(&test);
        assert!(acc > 0.6, "CNN accuracy {acc}");
    }

    #[test]
    fn analog_matches_digital_twin_on_clean_arrays() {
        let rcs = quick_rcs();
        let data = cnn_dataset(8, 8, 5, 3);
        for (x, _) in data.iter() {
            assert_eq!(rcs.infer(x).unwrap(), rcs.infer_digital(x).unwrap());
        }
    }

    #[test]
    fn tile_count_is_a_pure_perf_knob() {
        let data = quick_data();
        let base = CnnConfig::quick_test();
        let outputs = |tiles: usize| {
            let rcs = CnnRcs::train(
                &data,
                &CnnConfig {
                    tiles,
                    // The tiling also shapes the STE significance; pin it
                    // uniform so only the serving shard count varies.
                    ste: SteConfig {
                        significance: Some(vec![1.0; base.spec().patch_len()]),
                        ..base.ste.clone()
                    },
                    ..base.clone()
                },
            )
            .unwrap();
            let test = cnn_dataset(8, 8, 4, 11);
            test.iter()
                .map(|(x, _)| rcs.infer(x).unwrap())
                .collect::<Vec<_>>()
        };
        // Different tile counts train the same twin only when the
        // significance is pinned; with it pinned, serving is bit-identical.
        let one = outputs(1);
        assert_eq!(one, outputs(2));
        assert_eq!(one, outputs(9));
    }

    #[test]
    fn tile_significance_tracks_interface_bits() {
        // 9 columns over 2 tiles: (5, 4) columns → 4 bits each → all 1.0.
        assert_eq!(tile_significance(9, 2), vec![1.0; 9]);
        // 10 columns over 3 tiles: (4, 3, 3) → bits (4, 3, 3) → the wide
        // tile dominates.
        let sig = tile_significance(10, 3);
        assert_eq!(&sig[..4], &[1.0; 4]);
        assert_eq!(&sig[4..], &[0.5; 6]);
    }

    #[test]
    fn wear_accounting_rolls_up_conv_and_head() {
        let mut rcs = quick_rcs();
        assert_eq!(rcs.total_writes(), rcs.device_count() as u64);
        assert_eq!(rcs.max_write_count(), 1);
        let mut rng = StdRng::seed_from_u64(5);
        rcs.disturb(&VariationModel::process_variation(0.05), &mut rng);
        assert_eq!(rcs.total_writes(), 2 * rcs.device_count() as u64);
        rcs.restore();
        assert_eq!(rcs.total_writes(), 2 * rcs.device_count() as u64);
    }

    #[test]
    fn rcs_trait_plumbs_through() {
        let mut rcs = quick_rcs();
        let data = cnn_dataset(8, 8, 2, 13);
        let (x, _) = data.iter().next().unwrap();
        let clean = Chip::infer(&rcs, x);
        assert_eq!(clean.len(), 3);
        let mut rng = StdRng::seed_from_u64(1);
        let noisy = Rcs::predict_noisy(&rcs, x, &SignalFluctuation::new(0.01), &mut rng);
        assert_eq!(noisy.len(), 3);
        Rcs::disturb(
            &mut rcs,
            &VariationModel::process_variation(0.02),
            &mut StdRng::seed_from_u64(2),
        );
        Rcs::restore(&mut rcs);
        assert_eq!(Chip::infer(&rcs, x), clean);
    }

    #[test]
    fn topologies_expose_per_tile_interface_bits() {
        let rcs = quick_rcs();
        assert_eq!(rcs.tile_topologies().len(), 2);
        assert!(rcs.tile_interface_bits() > 0);
        let head = rcs.head_topology();
        assert_eq!(head.layer_sizes()[0], rcs.config().spec().feature_len());
    }

    #[test]
    fn invalid_configs_rejected() {
        let data = quick_data();
        for cfg in [
            CnnConfig {
                hidden: 0,
                ..CnnConfig::quick_test()
            },
            CnnConfig {
                out_bits: 0,
                ..CnnConfig::quick_test()
            },
            CnnConfig {
                tiles: 0,
                ..CnnConfig::quick_test()
            },
            CnnConfig {
                kernel: 19,
                ..CnnConfig::quick_test()
            },
            CnnConfig {
                in_w: 5,
                ..CnnConfig::quick_test()
            },
        ] {
            assert!(CnnRcs::train(&data, &cfg).is_err(), "{cfg:?}");
        }
    }

    #[test]
    fn infer_errors_on_wrong_lengths() {
        let rcs = quick_rcs();
        assert!(matches!(
            rcs.infer(&[0.0; 3]),
            Err(InferError::InputLength {
                expected: 64,
                found: 3
            })
        ));
        assert!(rcs.infer_digital(&[1.0; 2]).is_err());
        assert!(rcs.classify(&[1.0; 65]).is_err());
    }

    #[test]
    fn argmax_ties_to_lowest_index() {
        assert_eq!(argmax(&[0.3, 0.7, 0.7]), 1);
        assert_eq!(argmax(&[1.0]), 0);
    }

    #[test]
    fn display_mentions_both_stages() {
        let s = quick_rcs().to_string();
        assert!(s.contains("CNN RCS"), "{s}");
        assert!(s.contains("head"), "{s}");
    }
}
