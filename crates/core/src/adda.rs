//! The traditional RCS: analog crossbar network behind B-bit AD/DAs.

use std::fmt;

use crossbar::{MappingConfig, SignalFluctuation};
use interface::cost::AddaTopology;
use interface::{quantize_fraction, CostModel, Throughput};
use neural::{Dataset, Mlp, MlpBuilder, TrainConfig, Trainer};
use prng::{Rng, RngCore};
use rram::{DeviceParams, VariationModel};
use runtime::{Chip, ChipCostSheet};

use crate::analog::{AnalogMlp, AnalogWorkspace};
use crate::error::{InferError, TrainRcsError};
use crate::eval::Rcs;

/// Configuration of a traditional AD/DA-interfaced RCS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AddaConfig {
    /// Hidden-layer size.
    pub hidden: usize,
    /// AD/DA resolution in bits (the paper uses 8).
    pub bits: usize,
    /// Backprop hyperparameters.
    pub train: TrainConfig,
    /// RRAM cell parameters.
    pub device: DeviceParams,
    /// Weight-to-conductance mapping options.
    pub mapping: MappingConfig,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl Default for AddaConfig {
    fn default() -> Self {
        Self {
            hidden: 8,
            bits: 8,
            train: TrainConfig::default(),
            device: DeviceParams::hfox(),
            mapping: MappingConfig::default(),
            seed: 0,
        }
    }
}

/// A traditional RCS: `I×H×O` analog neural network with B-bit DACs on the
/// inputs and B-bit ADCs on the outputs.
///
/// Training happens on the values the converters actually deliver: inputs
/// and targets are quantized to B bits before backprop, exactly as the
/// physical system would observe them.
#[derive(Debug, Clone)]
pub struct AddaRcs {
    mlp: Mlp,
    analog: AnalogMlp,
    bits: usize,
    hidden: usize,
}

impl AddaRcs {
    /// Train a traditional RCS on an analog-valued dataset (all values in
    /// `[0, 1]`).
    ///
    /// # Errors
    ///
    /// Returns [`TrainRcsError`] if the configuration is invalid, the
    /// dataset is malformed, or the trained weights cannot be mapped onto
    /// crossbars.
    pub fn train(data: &Dataset, config: &AddaConfig) -> Result<Self, TrainRcsError> {
        if config.hidden == 0 {
            return Err(TrainRcsError::InvalidConfig(
                "hidden size must be nonzero".into(),
            ));
        }
        if config.bits == 0 || config.bits > interface::quantize::MAX_BITS {
            return Err(TrainRcsError::InvalidConfig(format!(
                "AD/DA resolution must be in 1..={}, got {}",
                interface::quantize::MAX_BITS,
                config.bits
            )));
        }
        // What the DACs/ADCs deliver: B-bit quantized values.
        let quantized = data
            .map_inputs(|x| {
                x.iter()
                    .map(|&v| quantize_fraction(v, config.bits))
                    .collect()
            })?
            .map_targets(|_, y| {
                y.iter()
                    .map(|&v| quantize_fraction(v, config.bits))
                    .collect()
            })?;

        let mut mlp =
            MlpBuilder::new(&[quantized.input_dim(), config.hidden, quantized.output_dim()])
                .seed(config.seed)
                .build();
        Trainer::new(config.train).train(&mut mlp, &quantized);
        let analog = AnalogMlp::from_mlp(&mlp, config.device, &config.mapping)?;
        Ok(Self {
            mlp,
            analog,
            bits: config.bits,
            hidden: config.hidden,
        })
    }

    /// AD/DA resolution in bits.
    #[must_use]
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// The architecture descriptor for cost estimation.
    #[must_use]
    pub fn topology(&self) -> AddaTopology {
        AddaTopology::new(
            self.mlp.input_dim(),
            self.hidden,
            self.mlp.output_dim(),
            self.bits,
        )
    }

    /// The digitally-trained network (before crossbar mapping).
    #[must_use]
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// The crossbar realization.
    #[must_use]
    pub fn analog(&self) -> &AnalogMlp {
        &self.analog
    }

    /// Full-system inference: DAC-quantize the input, run the analog
    /// network, ADC-quantize the output.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::InputLength`] on a wrong-sized input.
    pub fn infer(&self, x: &[f64]) -> Result<Vec<f64>, InferError> {
        self.infer_with(x, &mut AnalogWorkspace::new())
    }

    /// [`infer`](Self::infer) against a caller-owned workspace — the body
    /// [`Chip::infer`] runs on its thread's workspace.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::InputLength`] on a wrong-sized input.
    pub fn infer_with(&self, x: &[f64], ws: &mut AnalogWorkspace) -> Result<Vec<f64>, InferError> {
        self.through_converters(x, |dac| self.analog.forward_with(dac, ws))
    }

    /// Inference with signal fluctuation on every analog voltage (the DAC
    /// outputs and all inter-layer signals). Process variation is a device
    /// state change — apply it with [`disturb`](Self::disturb) first.
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
        self.through_converters(x, |dac| self.analog.forward_noisy(dac, fluctuation, rng))
    }

    /// The converter wrap of every entry point: check `x`, DAC-quantize
    /// it, run `forward` on the analog network, ADC-quantize the output.
    fn through_converters(
        &self,
        x: &[f64],
        forward: impl FnOnce(&[f64]) -> Vec<f64>,
    ) -> Result<Vec<f64>, InferError> {
        if x.len() != self.mlp.input_dim() {
            return Err(InferError::InputLength {
                expected: self.mlp.input_dim(),
                found: x.len(),
            });
        }
        let dac: Vec<f64> = x.iter().map(|&v| quantize_fraction(v, self.bits)).collect();
        let mut out = forward(&dac);
        for v in &mut out {
            *v = quantize_fraction(*v, self.bits);
        }
        Ok(out)
    }
}

impl fmt::Display for AddaRcs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AD/DA RCS {}", self.topology())
    }
}

impl Chip for AddaRcs {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        AnalogWorkspace::with_thread(|ws| self.infer_with(input, ws))
            .expect("dataset-validated input")
    }

    fn cost_sheet(&self) -> Option<ChipCostSheet> {
        let sheet =
            CostModel::dac2015().sheet_adda(&self.topology(), &Throughput::default_mixed_signal());
        Some(crate::serve::to_runtime_sheet([sheet]))
    }
}

impl Rcs for AddaRcs {
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

    fn quick_config() -> AddaConfig {
        AddaConfig {
            hidden: 8,
            train: TrainConfig {
                epochs: 150,
                learning_rate: 1.0,
                ..TrainConfig::default()
            },
            ..AddaConfig::default()
        }
    }

    #[test]
    fn trains_and_approximates_expfit() {
        let data = expfit_data(400, 1);
        let rcs = AddaRcs::train(&data, &quick_config()).unwrap();
        let mut total = 0.0;
        let test = expfit_data(100, 2);
        for (x, t) in test.iter() {
            let y = rcs.infer(x).unwrap();
            total += (y[0] - t[0]).powi(2);
        }
        let mse = total / 100.0;
        assert!(mse < 0.01, "AD/DA RCS MSE {mse}");
    }

    #[test]
    fn outputs_are_quantized_to_bits() {
        let data = expfit_data(100, 3);
        let rcs = AddaRcs::train(&data, &quick_config()).unwrap();
        let y = rcs.infer(&[0.37]).unwrap()[0];
        let levels = 256.0;
        assert!(
            (y * levels - (y * levels).round()).abs() < 1e-9,
            "output {y} not 8-bit"
        );
    }

    #[test]
    fn topology_reflects_config() {
        let data = expfit_data(50, 4);
        let rcs = AddaRcs::train(&data, &quick_config()).unwrap();
        let t = rcs.topology();
        assert_eq!((t.inputs, t.hidden, t.outputs, t.bits), (1, 8, 1, 8));
    }

    #[test]
    fn invalid_configs_rejected() {
        let data = expfit_data(10, 5);
        let bad_hidden = AddaConfig {
            hidden: 0,
            ..quick_config()
        };
        assert!(AddaRcs::train(&data, &bad_hidden).is_err());
        let bad_bits = AddaConfig {
            bits: 0,
            ..quick_config()
        };
        assert!(AddaRcs::train(&data, &bad_bits).is_err());
    }

    #[test]
    fn wrong_input_length_is_an_error() {
        let data = expfit_data(20, 6);
        let cfg = AddaConfig {
            train: TrainConfig {
                epochs: 2,
                ..TrainConfig::default()
            },
            ..AddaConfig::default()
        };
        let rcs = AddaRcs::train(&data, &cfg).unwrap();
        assert_eq!(
            rcs.infer(&[0.1, 0.2]).unwrap_err(),
            InferError::InputLength {
                expected: 1,
                found: 2
            }
        );
    }

    #[test]
    fn disturb_restore_roundtrip() {
        let data = expfit_data(50, 7);
        let mut rcs = AddaRcs::train(&data, &quick_config()).unwrap();
        let clean = rcs.infer(&[0.5]).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        rcs.disturb(&VariationModel::process_variation(0.6), &mut rng);
        // (The disturbed output may or may not requantize identically; check
        // the analog path directly.)
        let disturbed_analog = rcs.analog().forward(&[0.5]);
        rcs.restore();
        assert_eq!(rcs.infer(&[0.5]).unwrap(), clean);
        let clean_analog = rcs.analog().forward(&[0.5]);
        assert_ne!(disturbed_analog, clean_analog);
    }

    #[test]
    fn noisy_inference_stays_bounded() {
        let data = expfit_data(50, 8);
        let rcs = AddaRcs::train(&data, &quick_config()).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..20 {
            let y = rcs
                .infer_noisy(&[0.5], &SignalFluctuation::new(0.3), &mut rng)
                .unwrap();
            assert!((0.0..=1.0).contains(&y[0]));
        }
    }
}
