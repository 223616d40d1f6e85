//! One network of layers runs every trained system: the paper's
//! architectures are one crossbar network inside different interfaces.
//! Each system builds its [`Network`] once; its inference, its `Chip` and
//! `Rcs` impls and its device walks all call into it.
//!
//! [`Network::forward`] is the one forward loop and makes the one
//! input-length check. The pass's [`Drive`] reaches every dense crossbar
//! layer in layer order (SAAB: learner order); the conv tile boundary is
//! digital (integer-sensed), so the conv layer ignores it.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;

use crossbar::{Comparator, TiledConv};
use interface::{quantize_fraction, InterfaceSpec};
use neural::conv::binarize;
use neural::Mlp;
use prng::RngCore;
use rram::{RetentionModel, VariationModel};

use crate::analog::{AnalogMlp, AnalogWorkspace, Drive};
use crate::error::InferError;
use crate::mei_arch::MeiRcs;

/// One stage of a [`Network`].
#[derive(Debug, Clone)]
pub(crate) enum Layer {
    /// The input interface: every analog value becomes its bit array.
    Encode(InterfaceSpec),
    /// B-bit AD/DA conversion of every value.
    Quantize(usize),
    /// A dense crossbar MLP, run under the pass's [`Drive`].
    Crossbar(AnalogMlp),
    /// The tiled analog conv, its feature map binarized (`> 0`).
    Conv(TiledConv),
    /// Comparators working as 1-bit ADCs.
    Sense(Comparator),
    /// The output interface: every bit array becomes its analog value.
    Decode(InterfaceSpec),
    /// A floating-point MLP.
    Digital(Mlp),
    /// SAAB's vote (Algorithm 1, line 10) over its learners' bit-domain
    /// networks, run in learner order.
    Vote(Vec<(MeiRcs, f64)>),
}

/// A trained system's inference: an input length and the layers that
/// run in order.
#[derive(Debug, Clone)]
pub struct Network {
    input_len: usize,
    layers: Vec<Layer>,
}

/// Run `$op` on every device array (`$array`: a dense crossbar, a conv
/// or a SAAB learner's network) in layer order.
macro_rules! each_array {
    ($layers:expr, |$array:ident| $op:expr) => {
        for layer in $layers {
            match layer {
                Layer::Crossbar($array) => $op,
                Layer::Conv($array) => $op,
                Layer::Vote(learners) => {
                    for (learner, _) in learners {
                        let MeiRcs {
                            network: $array, ..
                        } = learner;
                        $op
                    }
                }
                _ => {}
            }
        }
    };
}

impl Network {
    /// A network taking `input_len` values through `layers` in order.
    #[must_use]
    pub(crate) fn new(input_len: usize, layers: Vec<Layer>) -> Self {
        Self { input_len, layers }
    }

    /// The layers, in order.
    #[must_use]
    pub(crate) fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The encoder's and decoder's interfaces.
    ///
    /// # Panics
    ///
    /// Panics unless the network starts with an encoder and ends with a
    /// decoder.
    #[must_use]
    pub(crate) fn interfaces(&self) -> (InterfaceSpec, InterfaceSpec) {
        let [Layer::Encode(input), .., Layer::Decode(output)] = &self.layers[..] else {
            panic!("not a merged-interface network");
        };
        (*input, *output)
    }

    /// The forward pass: every layer in order under `drive`.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::InputLength`] on a wrong-sized input.
    pub fn forward(
        &self,
        x: &[f64],
        drive: &mut Drive<'_>,
        ws: &mut AnalogWorkspace,
    ) -> Result<Vec<f64>, InferError> {
        run(&self.layers, self.input_len, x, drive, ws)
    }

    /// The bit-domain pass: the layers between the encoder and the
    /// decoder, from input bits to output bits.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::InputLength`] on a wrong-sized input.
    ///
    /// # Panics
    ///
    /// Panics unless the network starts with an encoder and ends with a
    /// decoder.
    pub fn forward_bits(
        &self,
        bits: &[f64],
        drive: &mut Drive<'_>,
        ws: &mut AnalogWorkspace,
    ) -> Result<Vec<f64>, InferError> {
        let [Layer::Encode(input), inner @ .., Layer::Decode(_)] = &self.layers[..] else {
            panic!("not a merged-interface network");
        };
        run(inner, input.ports(), bits, drive, ws)
    }

    /// [`forward`](Self::forward) under [`Drive::Ideal`] on a fresh
    /// workspace.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::InputLength`] on a wrong-sized input.
    pub fn infer(&self, x: &[f64]) -> Result<Vec<f64>, InferError> {
        self.forward(x, &mut Drive::Ideal, &mut AnalogWorkspace::new())
    }

    /// [`forward`](Self::forward) on this thread's workspace: the body of
    /// every `Chip::infer` and `Rcs::predict_noisy`.
    ///
    /// # Panics
    ///
    /// Panics on a wrong-sized input: chips serve validated inputs.
    pub(crate) fn serve(&self, x: &[f64], drive: &mut Drive<'_>) -> Vec<f64> {
        with_workspace(|ws| self.forward(x, drive, ws)).expect("dataset-validated input")
    }

    /// RRAM devices across every array.
    #[must_use]
    pub fn device_count(&self) -> usize {
        let mut devices = 0;
        each_array!(&self.layers, |array| devices += array.device_count());
        devices
    }

    /// Total write pulses across every device (endurance wear).
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        let mut writes = 0;
        each_array!(&self.layers, |array| writes += array.total_writes());
        writes
    }

    /// The worst-worn cell's write count.
    #[must_use]
    pub fn max_write_count(&self) -> u64 {
        let mut worst = 0;
        each_array!(&self.layers, |array| worst =
            array.max_write_count().max(worst));
        worst
    }

    /// `Chip::wear`: the total writes, or `None` for a network without
    /// devices (no endurance counters).
    #[must_use]
    pub(crate) fn wear(&self) -> Option<u64> {
        (self.device_count() > 0).then(|| self.total_writes())
    }

    /// Disturb every device with a variation model, drawing in layer
    /// order.
    pub(crate) fn disturb(&mut self, variation: &VariationModel, rng: &mut dyn RngCore) {
        each_array!(&mut self.layers, |array| array.disturb(variation, rng));
    }

    /// Restore every device to its programmed target.
    pub(crate) fn restore(&mut self) {
        each_array!(&mut self.layers, |array| array.restore());
    }

    /// Age every device by `seconds` under a retention model.
    pub(crate) fn age(&mut self, retention: &RetentionModel, seconds: f64) {
        each_array!(&mut self.layers, |array| array.age(retention, seconds));
    }
}

/// The `Chip` and `Rcs` impls of a system whose inference is its
/// `network` field: every method but the cost sheet (`|system| sheet`)
/// delegates to the network.
macro_rules! network_system {
    ($system:ty, |$this:ident| $sheet:expr) => {
        impl runtime::Chip for $system {
            fn infer(&self, input: &[f64]) -> Vec<f64> {
                self.network.serve(input, &mut crate::Drive::Ideal)
            }

            fn cost_sheet(&self) -> Option<runtime::ChipCostSheet> {
                let $this = self;
                $sheet
            }

            fn wear(&self) -> Option<u64> {
                self.network.wear()
            }
        }

        impl crate::Rcs for $system {
            fn predict_noisy(
                &self,
                x: &[f64],
                fluctuation: &crossbar::SignalFluctuation,
                rng: &mut dyn prng::RngCore,
            ) -> Vec<f64> {
                let mut drive = crate::Drive::Fluctuating(fluctuation, rng);
                self.network.serve(x, &mut drive)
            }

            fn disturb(&mut self, variation: &rram::VariationModel, rng: &mut dyn prng::RngCore) {
                self.network.disturb(variation, rng);
            }

            fn restore(&mut self) {
                self.network.restore();
            }
        }
    };
}
pub(crate) use network_system;

/// Run `f` on this thread's workspace (chips are shared `&self` across
/// serving threads).
///
/// # Panics
///
/// Panics on a nested call: borrow only at the outermost entry point.
pub(crate) fn with_workspace<R>(f: impl FnOnce(&mut AnalogWorkspace) -> R) -> R {
    thread_local! {
        static WORKSPACE: RefCell<AnalogWorkspace> = RefCell::new(AnalogWorkspace::new());
    }
    WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

/// The one input-length check.
pub(crate) fn check_len(x: &[f64], expected: usize) -> Result<(), InferError> {
    match x.len() {
        found if found == expected => Ok(()),
        found => Err(InferError::InputLength { expected, found }),
    }
}

/// The forward loop: check `x`, then run `layers` in order.
fn run(
    layers: &[Layer],
    input_len: usize,
    x: &[f64],
    drive: &mut Drive<'_>,
    ws: &mut AnalogWorkspace,
) -> Result<Vec<f64>, InferError> {
    check_len(x, input_len)?;
    let mut values = Cow::Borrowed(x);
    for layer in layers {
        values = Cow::Owned(match layer {
            Layer::Encode(spec) => spec.encode(&values),
            Layer::Quantize(bits) => {
                let mut values = values.into_owned();
                values
                    .iter_mut()
                    .for_each(|v| *v = quantize_fraction(*v, *bits));
                values
            }
            Layer::Crossbar(mlp) => mlp.forward_driven(&values, drive, ws),
            Layer::Conv(conv) => {
                let mut features = conv.forward_with(&values, &mut ws.conv);
                features.iter_mut().for_each(|v| *v = binarize(*v));
                features
            }
            Layer::Sense(comparator) => comparator.bits(&values),
            Layer::Decode(spec) => spec.decode(&values),
            Layer::Digital(mlp) => mlp.forward(&values),
            Layer::Vote(learners) => {
                let mut outputs = Vec::with_capacity(learners.len());
                for (learner, alpha) in learners {
                    let bits = learner.network.forward_bits(&values, drive, ws)?;
                    outputs.push((bits, *alpha));
                }
                tally(&outputs, learners[0].0.output_spec().bits())
            }
        });
    }
    Ok(values.into_owned())
}

/// `argmax_y Σ_k α_k·[R_k(x) = y]` over every `bits`-wide output group
/// on its own, ties broken deterministically by the larger bit pattern.
/// Each output number is its own digital word, so the voting hardware
/// tallies each word separately (for single-group outputs this is
/// exactly the paper's line 10).
fn tally(outputs: &[(Vec<f64>, f64)], bits: usize) -> Vec<f64> {
    let ports = outputs[0].0.len();
    let mut result = Vec::with_capacity(ports);
    for base in (0..ports).step_by(bits) {
        let mut votes: HashMap<Vec<u8>, f64> = HashMap::new();
        for (out, alpha) in outputs {
            let key = out[base..base + bits].iter().map(|&b| u8::from(b >= 0.5));
            *votes.entry(key.collect()).or_insert(0.0) += alpha;
        }
        let (winner, _) = votes
            .into_iter()
            .max_by(|(ka, wa), (kb, wb)| {
                wa.partial_cmp(wb)
                    .expect("finite weights")
                    .then_with(|| ka.cmp(kb))
            })
            .expect("at least one learner");
        result.extend(winner.into_iter().map(f64::from));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbar::MappingConfig;
    use neural::MlpBuilder;
    use prng::SeedableRng;
    use rram::DeviceParams;

    fn mei_network() -> Network {
        let spec = InterfaceSpec::new(1, 4);
        let mlp = MlpBuilder::new(&[4, 6, 4]).seed(3).build();
        let analog =
            AnalogMlp::from_mlp(&mlp, DeviceParams::hfox(), &MappingConfig::default()).unwrap();
        Network::new(
            1,
            vec![
                Layer::Encode(spec),
                Layer::Crossbar(analog),
                Layer::Sense(Comparator::default()),
                Layer::Decode(spec),
            ],
        )
    }

    #[test]
    fn forward_is_the_bit_domain_between_the_interfaces() {
        let net = mei_network();
        let (input, output) = net.interfaces();
        let mut ws = AnalogWorkspace::new();
        for x in [0.0, 0.3, 0.9] {
            let bits = net
                .forward_bits(&input.encode(&[x]), &mut Drive::Ideal, &mut ws)
                .unwrap();
            assert!(bits.iter().all(|&b| b == 0.0 || b == 1.0));
            assert_eq!(net.infer(&[x]).unwrap(), output.decode(&bits));
            assert_eq!(net.serve(&[x], &mut Drive::Ideal), output.decode(&bits));
        }
    }

    #[test]
    fn the_one_check_guards_both_entry_points() {
        let net = mei_network();
        let mut ws = AnalogWorkspace::new();
        assert_eq!(
            net.infer(&[0.1, 0.2]).unwrap_err(),
            InferError::InputLength {
                expected: 1,
                found: 2
            }
        );
        assert!(net
            .forward_bits(&[0.0; 3], &mut Drive::Ideal, &mut ws)
            .is_err());
    }

    #[test]
    fn walks_count_every_device_and_write() {
        let mut net = mei_network();
        // 2·(4+1)·6 + 2·(6+1)·4 devices, each written once when programmed.
        assert_eq!(net.device_count(), 116);
        assert_eq!(net.wear(), Some(116));
        assert_eq!(net.max_write_count(), 1);
        let clean = net.infer(&[0.4]).unwrap();
        let mut rng = prng::rngs::StdRng::seed_from_u64(5);
        net.disturb(&VariationModel::process_variation(0.05), &mut rng);
        assert_eq!(net.total_writes(), 232);
        net.restore();
        assert_eq!(net.infer(&[0.4]).unwrap(), clean);
        let digital = Network::new(4, vec![Layer::Digital(MlpBuilder::new(&[4, 2]).build())]);
        assert_eq!(digital.wear(), None);
    }

    #[test]
    fn voting_follows_alpha_weights() {
        // Two-learner scenario: outputs differ, and the tally must pick the
        // heavier learner's bits.
        let a = (vec![1.0, 0.0], 2.0);
        let b = (vec![0.0, 1.0], 0.5);
        assert_eq!(tally(&[a.clone(), b.clone()], 2), vec![1.0, 0.0]);
        // Two light learners agreeing outvote one heavy learner.
        let c = (vec![0.0, 1.0], 1.6);
        assert_eq!(tally(&[a, b, c], 2), vec![0.0, 1.0]);
    }

    #[test]
    fn tally_tie_break_is_deterministic() {
        let tied = [(vec![1.0, 0.0], 1.0), (vec![0.0, 1.0], 1.0)];
        let first = tally(&tied, 2);
        for _ in 0..5 {
            assert_eq!(tally(&tied, 2), first);
        }
    }

    #[test]
    fn tally_votes_each_group_on_its_own() {
        // Learner A wins group 0 by weight, learner B wins group 1 because
        // C agrees with it there.
        let outputs = vec![
            (vec![1.0, 1.0, 0.0, 0.0], 2.0),
            (vec![0.0, 0.0, 1.0, 1.0], 1.5),
            (vec![0.0, 1.0, 1.0, 1.0], 1.0),
        ];
        assert_eq!(tally(&outputs, 2), vec![1.0, 1.0, 1.0, 1.0]);
    }
}
