//! MEI: the merged-interface architecture (paper §3.1).
//!
//! Instead of approximating the function between DAC-converted analog
//! values, the RCS "directly learns the relationship between the binary
//! 0/1 arrays which represent the input and output digital data". Each bit
//! of the B-bit interface becomes its own crossbar port; outputs are
//! binarized by comparators working as 1-bit ADCs; and the training loss
//! weights each port by its bit significance (Eq (5)).

use std::fmt;

use crossbar::{Comparator, MappingConfig, SignalFluctuation};
use interface::cost::MeiTopology;
use interface::{BitCoding, InterfaceSpec};
use neural::{Dataset, Mlp, MlpBuilder, TrainConfig, Trainer};
use prng::{Rng, RngCore};
use rram::{DeviceParams, VariationModel};
use runtime::{Chip, ChipCostSheet};

use crate::analog::{AnalogMlp, AnalogWorkspace};
use crate::bitweights::msb_weighted_loss;
use crate::error::{InferError, TrainRcsError};
use crate::eval::Rcs;

/// Configuration of a merged-interface RCS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeiConfig {
    /// Bits per input group (`B_r` on the input side; the paper uses 8).
    pub in_bits: usize,
    /// Bits per output group.
    pub out_bits: usize,
    /// Hidden-layer size (MEI typically needs a larger hidden layer than
    /// the AD/DA design; see Fig 3).
    pub hidden: usize,
    /// Use the Eq (5) MSB-weighted loss (`true`, the paper's proposal) or
    /// the plain Eq (4) loss (`false`, the "MEI unweighted" ablation).
    pub weighted_loss: bool,
    /// Wire coding of both interfaces. [`BitCoding::Binary`] is the paper's
    /// format; [`BitCoding::Gray`] is the Hamming-cliff-free extension
    /// studied by `ablation_encoding`.
    pub coding: BitCoding,
    /// Backprop hyperparameters.
    pub train: TrainConfig,
    /// RRAM cell parameters.
    pub device: DeviceParams,
    /// Weight-to-conductance mapping options.
    pub mapping: MappingConfig,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl Default for MeiConfig {
    fn default() -> Self {
        Self {
            in_bits: 8,
            out_bits: 8,
            hidden: 32,
            weighted_loss: true,
            coding: BitCoding::Binary,
            train: TrainConfig::default(),
            device: DeviceParams::hfox(),
            mapping: MappingConfig::default(),
            seed: 0,
        }
    }
}

impl MeiConfig {
    /// A small, fast configuration for doc tests and smoke tests:
    /// 6-bit interfaces, 16 hidden nodes, a short training budget.
    #[must_use]
    pub fn quick_test() -> Self {
        Self {
            in_bits: 6,
            out_bits: 6,
            hidden: 16,
            train: TrainConfig {
                epochs: 120,
                learning_rate: 1.0,
                ..TrainConfig::default()
            },
            ..Self::default()
        }
    }
}

/// A merged-interface RCS.
///
/// The network's ports are the interface bits themselves:
/// `(I'·B_in) × H × (O'·B_out)` where `I'`/`O'` are the analog
/// dimensionalities of the application.
#[derive(Debug, Clone)]
pub struct MeiRcs {
    mlp: Mlp,
    analog: AnalogMlp,
    input_spec: InterfaceSpec,
    output_spec: InterfaceSpec,
    comparator: Comparator,
    config: MeiConfig,
}

impl MeiRcs {
    /// Train a merged-interface RCS on an analog-valued dataset (all values
    /// in `[0, 1]`); the encoder derives the binary dataset internally.
    ///
    /// # Errors
    ///
    /// Returns [`TrainRcsError`] on invalid configuration, a malformed
    /// dataset, or an unmappable trained network.
    pub fn train(data: &Dataset, config: &MeiConfig) -> Result<Self, TrainRcsError> {
        check_config(config, data.input_dim(), data.output_dim())?;
        let input_spec =
            InterfaceSpec::new(data.input_dim(), config.in_bits).with_coding(config.coding);
        let output_spec =
            InterfaceSpec::new(data.output_dim(), config.out_bits).with_coding(config.coding);

        // The binary view of the dataset: every analog value becomes its
        // bit array.
        let encoded = data
            .map_inputs(|x| input_spec.encode(x))?
            .map_targets(|_, y| output_spec.encode(y))?;

        let mut mlp = MlpBuilder::new(&[input_spec.ports(), config.hidden, output_spec.ports()])
            .seed(config.seed)
            .build();

        let trainer = if config.weighted_loss {
            Trainer::with_loss(config.train, msb_weighted_loss(&output_spec))
        } else {
            Trainer::new(config.train)
        };
        trainer.train(&mut mlp, &encoded);

        Self::from_trained(mlp, config, data.input_dim(), data.output_dim())
    }

    /// Build a system around an already-trained network: the constructor
    /// training, pruning and deserialization share, public so externally
    /// trained weights can be deployed onto crossbars too.
    ///
    /// # Errors
    ///
    /// Returns [`TrainRcsError::InvalidConfig`] on a bit width outside
    /// `1..=MAX_BITS` or a zero size, [`TrainRcsError::DimensionMismatch`]
    /// unless the network is exactly `(in_groups·in_bits) × hidden ×
    /// (out_groups·out_bits)`, or a mapping error.
    pub fn from_trained(
        mlp: Mlp,
        config: &MeiConfig,
        in_groups: usize,
        out_groups: usize,
    ) -> Result<Self, TrainRcsError> {
        check_config(config, in_groups, out_groups)?;
        let input_spec = InterfaceSpec::new(in_groups, config.in_bits).with_coding(config.coding);
        let output_spec =
            InterfaceSpec::new(out_groups, config.out_bits).with_coding(config.coding);
        let expected = [input_spec.ports(), config.hidden, output_spec.ports()];
        if mlp.layer_sizes() != expected {
            return Err(TrainRcsError::DimensionMismatch {
                expected: format!("{expected:?} layer sizes"),
                found: format!("{:?}", mlp.layer_sizes()),
            });
        }
        let analog = AnalogMlp::from_mlp(&mlp, config.device, &config.mapping)?;
        Ok(Self {
            mlp,
            analog,
            input_spec,
            output_spec,
            comparator: Comparator::default(),
            config: *config,
        })
    }

    /// The input interface (`(I'·B_in)`).
    #[must_use]
    pub fn input_spec(&self) -> InterfaceSpec {
        self.input_spec
    }

    /// The output interface (`(O'·B_out)`).
    #[must_use]
    pub fn output_spec(&self) -> InterfaceSpec {
        self.output_spec
    }

    /// Hidden-layer size.
    #[must_use]
    pub fn hidden(&self) -> usize {
        self.config.hidden
    }

    /// The configuration this RCS was trained with.
    #[must_use]
    pub fn config(&self) -> &MeiConfig {
        &self.config
    }

    /// The architecture descriptor for cost estimation.
    #[must_use]
    pub fn topology(&self) -> MeiTopology {
        MeiTopology::new(
            self.input_spec.groups(),
            self.input_spec.bits(),
            self.config.hidden,
            self.output_spec.groups(),
            self.output_spec.bits(),
        )
    }

    /// The digitally-trained network.
    #[must_use]
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// The crossbar realization.
    #[must_use]
    pub fn analog(&self) -> &AnalogMlp {
        &self.analog
    }

    /// Binary-domain inference: 0/1 input ports to 0/1 output ports
    /// (comparator-thresholded).
    ///
    /// # Errors
    ///
    /// Returns [`InferError::InputLength`] if `bits.len()` differs from the
    /// input port count.
    pub fn infer_bits(&self, bits: &[f64]) -> Result<Vec<f64>, InferError> {
        self.infer_bits_with(bits, &mut AnalogWorkspace::new())
    }

    /// [`infer_bits`](Self::infer_bits) against a caller-owned workspace:
    /// the allocation-free serving hot path (the 0/1 input rides the
    /// bit-packed crossbar kernel; scratch lives in `ws`).
    ///
    /// # Errors
    ///
    /// Returns [`InferError::InputLength`] if `bits.len()` differs from the
    /// input port count.
    pub fn infer_bits_with(
        &self,
        bits: &[f64],
        ws: &mut AnalogWorkspace,
    ) -> Result<Vec<f64>, InferError> {
        self.check_bits(bits)?;
        Ok(self.comparator.bits(&self.analog.forward_with(bits, ws)))
    }

    /// Binary-domain inference under signal fluctuation on every analog
    /// voltage (the 0/1 drive levels included — they are physical signals).
    ///
    /// # Errors
    ///
    /// Returns [`InferError::InputLength`] on a wrong-sized input.
    pub fn infer_bits_noisy<R: Rng + ?Sized>(
        &self,
        bits: &[f64],
        fluctuation: &SignalFluctuation,
        rng: &mut R,
    ) -> Result<Vec<f64>, InferError> {
        self.check_bits(bits)?;
        Ok(self
            .comparator
            .bits(&self.analog.forward_noisy(bits, fluctuation, rng)))
    }

    /// Analog-domain convenience: encode the input, infer, decode the output.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::InputLength`] on a wrong-sized input.
    pub fn infer(&self, x: &[f64]) -> Result<Vec<f64>, InferError> {
        self.infer_with(x, &mut AnalogWorkspace::new())
    }

    /// [`infer`](Self::infer) against a caller-owned workspace (see
    /// [`infer_bits_with`](Self::infer_bits_with)) — the body
    /// [`Chip::infer`] runs on its thread's workspace.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::InputLength`] on a wrong-sized input.
    pub fn infer_with(&self, x: &[f64], ws: &mut AnalogWorkspace) -> Result<Vec<f64>, InferError> {
        through_interface(self.input_spec, self.output_spec, x, |bits| {
            self.infer_bits_with(bits, ws)
        })
    }

    /// Analog-domain inference under signal fluctuation.
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
        through_interface(self.input_spec, self.output_spec, x, |bits| {
            self.infer_bits_noisy(bits, fluctuation, rng)
        })
    }

    /// Analog-domain inference through the wire-resistance (IR-drop) model —
    /// the degradation the paper's 90 nm choice avoids, exposed for the
    /// `ablation_irdrop` study.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::InputLength`] on a wrong-sized input.
    pub fn infer_ir(
        &self,
        x: &[f64],
        config: &crossbar::IrDropConfig,
    ) -> Result<Vec<f64>, InferError> {
        through_interface(self.input_spec, self.output_spec, x, |bits| {
            Ok(self.comparator.bits(&self.analog.forward_ir(bits, config)))
        })
    }

    /// Age all devices by `seconds` under a retention model (drift; see
    /// `rram::retention`). `restore` refreshes the arrays.
    pub fn age(&mut self, retention: &rram::RetentionModel, seconds: f64) {
        self.analog.age(retention, seconds);
    }

    /// A physically-smaller RCS with `in_prune` LSB ports removed from every
    /// input group and `out_prune` from every output group (Algorithm 2,
    /// line 22).
    ///
    /// No retraining is needed: a pruned *input* port always carried bit 0
    /// of a truncated encoding, and a zero-voltage row contributes nothing,
    /// so deleting it (and its column of first-layer weights) computes
    /// exactly the same function the full array computes on truncated
    /// inputs. A pruned *output* port just drops its comparator and devices;
    /// the decode treats the missing LSBs as zero.
    ///
    /// # Errors
    ///
    /// Returns [`TrainRcsError::InvalidConfig`] if pruning would remove all
    /// bits of a group, or [`TrainRcsError::Mapping`] if remapping fails.
    pub fn pruned(&self, in_prune: usize, out_prune: usize) -> Result<MeiRcs, TrainRcsError> {
        if in_prune >= self.input_spec.bits() || out_prune >= self.output_spec.bits() {
            return Err(TrainRcsError::InvalidConfig(format!(
                "cannot prune {in_prune}/{out_prune} bits from a {}/{}-bit interface",
                self.input_spec.bits(),
                self.output_spec.bits()
            )));
        }
        if in_prune == 0 && out_prune == 0 {
            return Ok(self.clone());
        }
        let new_in = self.input_spec.prune_lsbs(in_prune);
        let new_out = self.output_spec.prune_lsbs(out_prune);

        // Rebuild the first layer without the pruned input columns and the
        // last layer without the pruned output rows.
        let layers = self.mlp.layers();
        let keep_in: Vec<usize> = (0..self.input_spec.groups())
            .flat_map(|g| {
                let base = g * self.input_spec.bits();
                (0..new_in.bits()).map(move |b| base + b)
            })
            .collect();
        let first = &layers[0];
        let first_rows: Vec<Vec<f64>> = first
            .weights
            .to_rows()
            .into_iter()
            .map(|row| keep_in.iter().map(|&c| row[c]).collect())
            .collect();
        let mut new_first = neural::Layer::zeros(keep_in.len(), first.outputs(), first.activation);
        new_first.weights = neural::Matrix::from_rows(&first_rows);
        new_first.biases = first.biases.clone();

        let keep_out: Vec<usize> = (0..self.output_spec.groups())
            .flat_map(|g| {
                let base = g * self.output_spec.bits();
                (0..new_out.bits()).map(move |b| base + b)
            })
            .collect();
        let last = layers.last().expect("non-empty MLP");
        let last_rows: Vec<Vec<f64>> = keep_out
            .iter()
            .map(|&r| last.weights.row(r).to_vec())
            .collect();
        let mut new_last = neural::Layer::zeros(last.inputs(), keep_out.len(), last.activation);
        new_last.weights = neural::Matrix::from_rows(&last_rows);
        new_last.biases = keep_out.iter().map(|&r| last.biases[r]).collect();

        // The constructor admits exactly one hidden layer.
        let config = MeiConfig {
            in_bits: new_in.bits(),
            out_bits: new_out.bits(),
            ..self.config
        };
        let mlp = Mlp::from_layers(vec![new_first, new_last]);
        MeiRcs::from_trained(mlp, &config, new_in.groups(), new_out.groups())
    }

    fn check_bits(&self, bits: &[f64]) -> Result<(), InferError> {
        if bits.len() != self.input_spec.ports() {
            return Err(InferError::InputLength {
                expected: self.input_spec.ports(),
                found: bits.len(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for MeiRcs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MEI RCS {}", self.topology())
    }
}

impl Chip for MeiRcs {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        AnalogWorkspace::with_thread(|ws| self.infer_with(input, ws))
            .expect("dataset-validated input")
    }

    fn cost_sheet(&self) -> Option<ChipCostSheet> {
        Some(crate::serve::mei_sheet([self.topology()]))
    }

    fn wear(&self) -> Option<u64> {
        Some(self.analog.total_writes())
    }
}

impl Rcs for MeiRcs {
    fn predict_noisy(
        &self,
        x: &[f64],
        fluctuation: &SignalFluctuation,
        rng: &mut dyn RngCore,
    ) -> Vec<f64> {
        self.infer_noisy(x, fluctuation, rng)
            .expect("dataset-validated input")
    }

    fn disturb(&mut self, variation: &VariationModel, rng: &mut dyn RngCore) {
        self.analog.disturb(variation, rng);
    }

    fn restore(&mut self) {
        self.analog.restore();
    }
}

/// The check every constructor shares ([`MeiRcs::train`] runs it before
/// training): bit widths in `1..=MAX_BITS` and nonzero sizes.
fn check_config(
    config: &MeiConfig,
    in_groups: usize,
    out_groups: usize,
) -> Result<(), TrainRcsError> {
    let bits = 1..=interface::quantize::MAX_BITS;
    let sizes = [config.hidden, in_groups, out_groups];
    if !bits.contains(&config.in_bits) || !bits.contains(&config.out_bits) || sizes.contains(&0) {
        return Err(TrainRcsError::InvalidConfig(format!(
            "need bit widths in {bits:?} and nonzero sizes: ({in_groups}·{})×{}×({out_groups}·{})",
            config.in_bits, config.hidden, config.out_bits
        )));
    }
    Ok(())
}

/// The analog-domain wrap of every merged-interface entry point: check
/// `x` against the input groups, encode it, run the binary-domain
/// `infer_bits`, and decode the output bits.
pub(crate) fn through_interface(
    input_spec: InterfaceSpec,
    output_spec: InterfaceSpec,
    x: &[f64],
    infer_bits: impl FnOnce(&[f64]) -> Result<Vec<f64>, InferError>,
) -> Result<Vec<f64>, InferError> {
    if x.len() != input_spec.groups() {
        return Err(InferError::InputLength {
            expected: input_spec.groups(),
            found: x.len(),
        });
    }
    let bits = infer_bits(&input_spec.encode(x))?;
    Ok(output_spec.decode(&bits))
}

// Index loops in the tests mirror the bit-position subscripts.
#[allow(clippy::needless_range_loop)]
#[cfg(test)]
mod tests {
    use super::*;
    use prng::rngs::StdRng;
    use prng::SeedableRng;

    fn expfit_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::generate(n, &mut rng, |r| {
            let x: f64 = r.gen();
            (vec![x], vec![(-x * x).exp()])
        })
        .unwrap()
    }

    fn quick_rcs(seed: u64) -> MeiRcs {
        let data = expfit_data(500, seed);
        MeiRcs::train(&data, &MeiConfig::quick_test()).unwrap()
    }

    #[test]
    fn trains_and_approximates_expfit() {
        let rcs = quick_rcs(1);
        let test = expfit_data(200, 99);
        let mut total = 0.0;
        for (x, t) in test.iter() {
            let y = rcs.infer(x).unwrap();
            total += (y[0] - t[0]).powi(2);
        }
        let mse = total / 200.0;
        assert!(mse < 0.02, "MEI MSE {mse}");
    }

    #[test]
    fn binary_outputs_are_binary() {
        let rcs = quick_rcs(2);
        let bits = rcs.infer_bits(&rcs.input_spec().encode(&[0.4])).unwrap();
        assert_eq!(bits.len(), 6);
        assert!(bits.iter().all(|&b| b == 0.0 || b == 1.0));
    }

    #[test]
    fn topology_matches_config() {
        let rcs = quick_rcs(3);
        let t = rcs.topology();
        assert_eq!(t.layer_sizes(), [6, 16, 6]);
        assert_eq!(format!("{t}"), "(1·6)×16×(1·6)");
    }

    #[test]
    fn weighted_loss_reduces_msb_errors() {
        // Train weighted and unweighted MEI on the same data/seed; the
        // weighted variant should make fewer MSB mistakes on a test set.
        let data = expfit_data(600, 4);
        let test = expfit_data(300, 5);
        let msb_errors = |rcs: &MeiRcs| -> usize {
            test.iter()
                .map(|(x, t)| {
                    let out = rcs.infer_bits(&rcs.input_spec().encode(x)).unwrap();
                    let want = rcs.output_spec().encode(t);
                    usize::from(out[0] != want[0])
                })
                .sum()
        };
        let weighted = MeiRcs::train(&data, &MeiConfig::quick_test()).unwrap();
        let unweighted = MeiRcs::train(
            &data,
            &MeiConfig {
                weighted_loss: false,
                ..MeiConfig::quick_test()
            },
        )
        .unwrap();
        assert!(
            msb_errors(&weighted) <= msb_errors(&unweighted),
            "weighted {} vs unweighted {}",
            msb_errors(&weighted),
            msb_errors(&unweighted)
        );
    }

    #[test]
    fn infer_errors_on_wrong_lengths() {
        let rcs = quick_rcs(6);
        assert!(rcs.infer(&[0.1, 0.2]).is_err());
        assert!(rcs.infer_bits(&[0.0; 3]).is_err());
    }

    #[test]
    fn pruned_input_matches_truncated_full_network() {
        let rcs = quick_rcs(7);
        let pruned = rcs.pruned(2, 0).unwrap();
        assert_eq!(pruned.input_spec().bits(), 4);
        // Feeding the full network a truncated encoding (pruned bits zeroed)
        // must equal the pruned network on the short encoding.
        for &x in &[0.13, 0.5, 0.86] {
            let mut full_bits = rcs.input_spec().encode(&[x]);
            for b in 4..6 {
                full_bits[b] = 0.0;
            }
            let full_out = rcs.infer_bits(&full_bits).unwrap();
            let short = pruned.input_spec().encode(&[x]);
            // The 4-bit direct encoding *rounds*, the truncation floors;
            // compare on the floored bits.
            let floored: Vec<f64> = full_bits[..4].to_vec();
            assert_eq!(short.len(), 4);
            let pruned_out = pruned.infer_bits(&floored).unwrap();
            assert_eq!(full_out, pruned_out, "x={x}");
        }
    }

    #[test]
    fn pruned_output_drops_lsb_ports() {
        let rcs = quick_rcs(8);
        let pruned = rcs.pruned(0, 3).unwrap();
        assert_eq!(pruned.output_spec().bits(), 3);
        let bits_in = rcs.input_spec().encode(&[0.3]);
        let full = rcs.infer_bits(&bits_in).unwrap();
        let short = pruned.infer_bits(&bits_in).unwrap();
        assert_eq!(&full[..3], &short[..]);
    }

    #[test]
    fn pruning_everything_rejected() {
        let rcs = quick_rcs(9);
        assert!(rcs.pruned(6, 0).is_err());
        assert!(rcs.pruned(0, 6).is_err());
    }

    #[test]
    fn zero_pruning_is_identity() {
        let rcs = quick_rcs(10);
        let same = rcs.pruned(0, 0).unwrap();
        let x = [0.42];
        assert_eq!(rcs.infer(&x).unwrap(), same.infer(&x).unwrap());
    }

    #[test]
    fn noisy_binary_inference_is_reasonably_stable() {
        // MEI's claim: binary signals tolerate fluctuation well. At a mild
        // noise level most outputs should match the clean ones.
        let rcs = quick_rcs(11);
        let bits_in = rcs.input_spec().encode(&[0.6]);
        let clean = rcs.infer_bits(&bits_in).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let mut matches = 0;
        let trials = 50;
        for _ in 0..trials {
            let noisy = rcs
                .infer_bits_noisy(&bits_in, &SignalFluctuation::new(0.05), &mut rng)
                .unwrap();
            if noisy == clean {
                matches += 1;
            }
        }
        assert!(matches > trials / 2, "only {matches}/{trials} stable");
    }

    #[test]
    fn invalid_configs_rejected() {
        let data = expfit_data(20, 13);
        for cfg in [
            MeiConfig {
                hidden: 0,
                ..MeiConfig::quick_test()
            },
            MeiConfig {
                in_bits: 0,
                ..MeiConfig::quick_test()
            },
            MeiConfig {
                out_bits: 99,
                ..MeiConfig::quick_test()
            },
        ] {
            assert!(MeiRcs::train(&data, &cfg).is_err());
        }
    }

    #[test]
    fn display_mentions_topology() {
        assert!(quick_rcs(14).to_string().contains("MEI RCS"));
    }

    #[test]
    fn gray_coded_mei_trains_and_outperforms_binary_on_smooth_task() {
        // The Hamming-cliff effect: a smooth function's binary code targets
        // flip many bits at code boundaries, a Gray code's exactly one.
        let data = expfit_data(500, 15);
        let test = expfit_data(200, 16);
        let binary = MeiRcs::train(&data, &MeiConfig::quick_test()).unwrap();
        let gray = MeiRcs::train(
            &data,
            &MeiConfig {
                coding: interface::BitCoding::Gray,
                ..MeiConfig::quick_test()
            },
        )
        .unwrap();
        assert_eq!(gray.input_spec().coding(), interface::BitCoding::Gray);
        let mse = |rcs: &MeiRcs| {
            test.iter()
                .map(|(x, t)| (rcs.infer(x).unwrap()[0] - t[0]).powi(2))
                .sum::<f64>()
                / test.len() as f64
        };
        assert!(
            mse(&gray) <= mse(&binary),
            "gray {} vs binary {}",
            mse(&gray),
            mse(&binary)
        );
    }

    #[test]
    fn gray_coded_outputs_decode_to_representable_values() {
        let data = expfit_data(300, 17);
        let cfg = MeiConfig {
            coding: interface::BitCoding::Gray,
            ..MeiConfig::quick_test()
        };
        let rcs = MeiRcs::train(&data, &cfg).unwrap();
        let y = rcs.infer(&[0.4]).unwrap()[0];
        let levels = 64.0; // 6-bit quick config
        assert!((y * levels - (y * levels).round()).abs() < 1e-9);
    }

    #[test]
    fn gray_pruning_preserves_coding() {
        let data = expfit_data(300, 18);
        let cfg = MeiConfig {
            coding: interface::BitCoding::Gray,
            ..MeiConfig::quick_test()
        };
        let rcs = MeiRcs::train(&data, &cfg).unwrap();
        let pruned = rcs.pruned(1, 1).unwrap();
        assert_eq!(pruned.input_spec().coding(), interface::BitCoding::Gray);
        assert_eq!(pruned.output_spec().coding(), interface::BitCoding::Gray);
    }
}
