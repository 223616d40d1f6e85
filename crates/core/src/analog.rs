//! Executing a trained MLP on RRAM crossbar hardware.
//!
//! [`AnalogMlp`] is the physical realization of a [`neural::Mlp`]: every
//! dense layer becomes a differential crossbar pair (with the bias folded in
//! as a constant-`1` input row, as real RCS designs do), and the activation
//! is applied by the analog peripheral circuit. Process variation disturbs
//! the programmed devices; signal fluctuation perturbs the voltages entering
//! each layer.
//!
//! One loop, [`AnalogMlp::forward_driven`], runs every forward pass. The
//! pass's analog condition — ideal, fluctuating signals or resistive
//! wires — is its [`Drive`] argument, so serving, the §5.3 noise protocol
//! and the IR-drop ablation cannot drift apart.

use std::fmt;

use crossbar::conv::ConvWorkspace;
use crossbar::{
    BitInput, DifferentialPair, IrDropConfig, MapWeightsError, MappingConfig, SignalFluctuation,
};
use neural::{Activation, Mlp};
use prng::{Rng, RngCore};
use rram::{DeviceParams, VariationModel};

/// Reusable scratch for a [`Network`](crate::Network) pass: the two
/// value buffers its layers pass between them, the packed-bit lanes of
/// [`AnalogMlp::forward_driven`] and the conv tiles' scratch. On a
/// thread that reuses its workspace, an MEI or AD/DA pass allocates only
/// the output it returns.
#[derive(Debug, Clone, Default)]
pub struct AnalogWorkspace {
    /// The current layer's values: a pass's input, then each layer's
    /// output in turn.
    pub(crate) a: Vec<f64>,
    /// The buffer the next layer writes before the two swap.
    pub(crate) z: Vec<f64>,
    bits: BitInput,
    pub(crate) conv: ConvWorkspace,
}

impl AnalogWorkspace {
    /// An empty workspace; buffers grow to the largest layer they serve.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The analog condition a forward pass runs under — the argument of
/// every [`Network`](crate::Network) pass, so serving, the §5.3 noise
/// protocol and the IR-drop ablation all run one loop.
pub enum Drive<'a> {
    /// Noiseless signals on ideal wires: the serving condition.
    Ideal,
    /// Lognormal signal fluctuation on the voltages entering every layer
    /// (the bias port included — it is a physical signal too), drawn from
    /// the generator in layer order. An ideal fluctuation draws nothing.
    Fluctuating(&'a SignalFluctuation, &'a mut dyn RngCore),
    /// Every layer read through the wire-resistance (IR-drop) model — the
    /// effect the paper defers to future work, made measurable.
    IrDrop(&'a IrDropConfig),
}

/// One crossbar-mapped layer: a differential pair over the augmented
/// `[W | b]` matrix plus the peripheral activation.
#[derive(Debug, Clone)]
struct AnalogLayer {
    pair: DifferentialPair,
    activation: Activation,
}

/// A trained MLP programmed onto differential crossbar pairs.
///
/// ```
/// use mei::AnalogMlp;
/// use crossbar::MappingConfig;
/// use neural::MlpBuilder;
/// use rram::DeviceParams;
///
/// # fn main() -> Result<(), crossbar::MapWeightsError> {
/// let net = MlpBuilder::new(&[2, 4, 1]).seed(1).build();
/// let analog = AnalogMlp::from_mlp(&net, DeviceParams::hfox(), &MappingConfig::default())?;
/// let x = [0.3, 0.7];
/// let digital = net.forward(&x);
/// let physical = analog.forward(&x);
/// assert!((digital[0] - physical[0]).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AnalogMlp {
    layers: Vec<AnalogLayer>,
    input_dim: usize,
    output_dim: usize,
}

impl AnalogMlp {
    /// Program an MLP onto crossbar hardware.
    ///
    /// Each layer's weight matrix is augmented with its bias column (driven
    /// by a constant-1 input port) and mapped as a differential pair.
    ///
    /// # Errors
    ///
    /// Returns [`MapWeightsError`] if any layer's weights cannot be mapped
    /// (non-finite values; shape problems are impossible for a valid `Mlp`).
    pub fn from_mlp(
        mlp: &Mlp,
        params: DeviceParams,
        config: &MappingConfig,
    ) -> Result<Self, MapWeightsError> {
        let mut layers = Vec::with_capacity(mlp.layers().len());
        for layer in mlp.layers() {
            // Augment: out × (in + 1), last column is the bias.
            let mut augmented = layer.weights.to_rows();
            for (row, &b) in augmented.iter_mut().zip(&layer.biases) {
                row.push(b);
            }
            let pair = DifferentialPair::from_weights(&augmented, params, config)?;
            layers.push(AnalogLayer {
                pair,
                activation: layer.activation,
            });
        }
        Ok(Self {
            layers,
            input_dim: mlp.input_dim(),
            output_dim: mlp.output_dim(),
        })
    }

    /// Input dimensionality (excluding the internal bias port).
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output dimensionality.
    #[must_use]
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// Total RRAM device count across all layers (both arrays of each pair).
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.layers.iter().map(|l| l.pair.device_count()).sum()
    }

    /// Total write pulses across every layer's devices — the stack's
    /// endurance wear (see `rram::RramDevice::write_count`).
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.layers.iter().map(|l| l.pair.total_writes()).sum()
    }

    /// The worst-worn cell's write count across all layers.
    #[must_use]
    pub fn max_write_count(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.pair.max_write_count())
            .max()
            .unwrap_or(0)
    }

    /// Ideal forward pass (no noise, current device state).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != input_dim()`.
    #[must_use]
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        self.forward_with(x, &mut AnalogWorkspace::new())
    }

    /// [`forward`](Self::forward) against a caller-owned workspace: the
    /// serving hot path, [`forward_driven`](Self::forward_driven) under
    /// [`Drive::Ideal`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != input_dim()`.
    #[must_use]
    pub fn forward_with(&self, x: &[f64], ws: &mut AnalogWorkspace) -> Vec<f64> {
        self.forward_driven(x, &mut Drive::Ideal, ws)
    }

    /// The forward pass: every layer under the analog condition `drive`.
    ///
    /// The activations and the packed-bit lanes live in `ws`, so a thread
    /// reusing its workspace allocates only the returned vector. A layer
    /// whose input is an exact interface-bit vector (MEI's whole first
    /// layer, bias included, is 0/1) rides the bit-packed kernel,
    /// bit-identical to the scalar one either way.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != input_dim()`.
    #[must_use]
    pub fn forward_driven(
        &self,
        x: &[f64],
        drive: &mut Drive<'_>,
        ws: &mut AnalogWorkspace,
    ) -> Vec<f64> {
        ws.a.clear();
        ws.a.extend_from_slice(x);
        self.forward_in(drive, ws);
        ws.a.clone()
    }

    /// The body of [`forward_driven`](Self::forward_driven): the pass from
    /// the workspace's current values to its outputs, left in their place.
    ///
    /// # Panics
    ///
    /// Panics unless the workspace holds `input_dim()` values.
    pub(crate) fn forward_in(&self, drive: &mut Drive<'_>, ws: &mut AnalogWorkspace) {
        assert_eq!(ws.a.len(), self.input_dim, "analog input length");
        for layer in &self.layers {
            ws.a.push(1.0); // bias port
            ws.z.resize(layer.pair.outputs(), 0.0);
            if let Drive::Fluctuating(fluctuation, rng) = drive {
                fluctuation.apply_in_place(&mut ws.a, &mut **rng);
            }
            if let Drive::IrDrop(config) = drive {
                ws.z = layer.pair.matvec_ir(&ws.a, config);
            } else if ws.bits.try_pack(&ws.a) {
                layer.pair.matvec_binary_into(&ws.bits, &mut ws.z);
            } else {
                layer.pair.matvec_into(&ws.a, &mut ws.z);
            }
            layer.activation.apply_in_place(&mut ws.z);
            std::mem::swap(&mut ws.a, &mut ws.z);
        }
    }

    /// Disturb every device with a variation model (process variation).
    pub fn disturb<R: Rng + ?Sized>(&mut self, variation: &VariationModel, rng: &mut R) {
        for layer in &mut self.layers {
            layer.pair.disturb(variation, rng);
        }
    }

    /// Restore every device to its programmed target.
    pub fn restore(&mut self) {
        for layer in &mut self.layers {
            layer.pair.restore();
        }
    }

    /// Age every device by `seconds` under a retention model.
    pub fn age(&mut self, retention: &rram::RetentionModel, seconds: f64) {
        for layer in &mut self.layers {
            layer.pair.age(retention, seconds);
        }
    }
}

impl fmt::Display for AnalogMlp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "analog MLP {}→{} ({} layers, {} RRAM devices)",
            self.input_dim,
            self.output_dim,
            self.layers.len(),
            self.device_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::MlpBuilder;
    use prng::rngs::StdRng;
    use prng::SeedableRng;

    fn net() -> Mlp {
        MlpBuilder::new(&[3, 5, 2]).seed(7).build()
    }

    fn analog() -> AnalogMlp {
        AnalogMlp::from_mlp(&net(), DeviceParams::hfox(), &MappingConfig::default()).unwrap()
    }

    #[test]
    fn analog_forward_matches_digital_forward() {
        let digital = net();
        let physical = analog();
        for &x in &[[0.1, 0.5, 0.9], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]] {
            let d = digital.forward(&x);
            let p = physical.forward(&x);
            for (a, b) in d.iter().zip(&p) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn biases_are_realized() {
        // A zero-input forward pass still produces the bias response, which
        // differs across outputs for a random network.
        let p = analog();
        let y = p.forward(&[0.0, 0.0, 0.0]);
        let digital = net().forward(&[0.0, 0.0, 0.0]);
        for (a, b) in y.iter().zip(&digital) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn device_count_includes_bias_ports() {
        let p = analog();
        // Layer 1: 2·(3+1)·5 = 40; layer 2: 2·(5+1)·2 = 24.
        assert_eq!(p.device_count(), 64);
    }

    #[test]
    fn disturb_changes_output_restore_reverts() {
        let mut p = analog();
        let x = [0.2, 0.4, 0.6];
        let clean = p.forward(&x);
        let mut rng = StdRng::seed_from_u64(3);
        p.disturb(&VariationModel::process_variation(0.5), &mut rng);
        let noisy = p.forward(&x);
        assert_ne!(clean, noisy);
        p.restore();
        assert_eq!(p.forward(&x), clean);
    }

    #[test]
    fn signal_fluctuation_perturbs_output() {
        let p = analog();
        let x = [0.2, 0.4, 0.6];
        let mut ws = AnalogWorkspace::new();
        let mut rng = StdRng::seed_from_u64(4);
        let untouched = rng.clone();
        let ideal = SignalFluctuation::ideal();
        let clean = p.forward_driven(&x, &mut Drive::Fluctuating(&ideal, &mut rng), &mut ws);
        assert_eq!(clean, p.forward(&x));
        // An ideal fluctuation draws nothing from the generator.
        assert_eq!(rng, untouched);
        let sf = SignalFluctuation::new(0.2);
        let noisy = p.forward_driven(&x, &mut Drive::Fluctuating(&sf, &mut rng), &mut ws);
        assert_ne!(noisy, clean);
        // Sigmoid outputs remain bounded even under noise.
        assert!(noisy.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn deep_network_maps_correctly() {
        let deep = MlpBuilder::new(&[2, 6, 6, 3]).seed(11).build();
        let p =
            AnalogMlp::from_mlp(&deep, DeviceParams::hfox(), &MappingConfig::default()).unwrap();
        let x = [0.25, 0.75];
        let d = deep.forward(&x);
        let a = p.forward(&x);
        for (u, v) in d.iter().zip(&a) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "analog input length")]
    fn wrong_input_length_panics() {
        let _ = analog().forward(&[0.0, 0.0]);
    }

    #[test]
    fn ideal_wires_match_plain_forward() {
        let p = analog();
        let x = [0.2, 0.5, 0.8];
        let ideal = IrDropConfig::ideal();
        let mut ws = AnalogWorkspace::new();
        assert_eq!(
            p.forward_driven(&x, &mut Drive::IrDrop(&ideal), &mut ws),
            p.forward(&x)
        );
    }

    #[test]
    fn resistive_wires_perturb_the_output() {
        let p = analog();
        let x = [0.2, 0.5, 0.8];
        let clean = p.forward(&x);
        let wires = IrDropConfig::with_wire_resistance(50.0);
        let mut ws = AnalogWorkspace::new();
        let dropped = p.forward_driven(&x, &mut Drive::IrDrop(&wires), &mut ws);
        assert_ne!(clean, dropped);
        // Sigmoid keeps even the degraded outputs bounded.
        assert!(dropped.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn display_mentions_devices() {
        assert!(analog().to_string().contains("RRAM devices"));
    }

    #[test]
    fn forward_with_reused_workspace_is_bit_identical() {
        let p = analog();
        let mut ws = AnalogWorkspace::new();
        // Binary inputs hit the packed path; fractional ones the scalar
        // path; a reused (dirty) workspace must never change the bits.
        for x in [[1.0, 0.0, 1.0], [0.1, 0.5, 0.9], [0.0, 0.0, 0.0]] {
            assert_eq!(p.forward_with(&x, &mut ws), p.forward(&x));
        }
        // The workspace also serves a differently-shaped network.
        let deep = MlpBuilder::new(&[2, 6, 6, 3]).seed(11).build();
        let q =
            AnalogMlp::from_mlp(&deep, DeviceParams::hfox(), &MappingConfig::default()).unwrap();
        assert_eq!(q.forward_with(&[1.0, 0.0], &mut ws), q.forward(&[1.0, 0.0]));
    }
}
