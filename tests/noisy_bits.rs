//! Pinned output bits of the noisy and IR-drop inference paths.
//!
//! `tests/determinism.rs` compares two runs of the same build; this suite
//! compares every build against recorded constants, so a change to a
//! forward pass cannot move a noisy or IR-drop output bit unnoticed. Each
//! case folds the `to_bits()` of its outputs into one FNV-1a hash.
//!
//! The systems are the quick configurations of the serving tests. Each
//! noisy case disturbs its system with seeded σ = 0.05 process variation,
//! then runs `Rcs::predict_noisy` on 16 inputs under σ = 0.05 signal
//! fluctuation from one fixed generator. The IR-drop case runs the MEI
//! system through 2.5 Ω wires.
//!
//! The lognormal draws go through the platform's `exp`, `ln` and `cos`,
//! so the constants hold where they were recorded: x86_64 Linux, as in
//! CI. Another libm may move them without any change to this code.

use crossbar::{IrDropConfig, SignalFluctuation};
use mei::{
    AddaConfig, AddaRcs, AnalogWorkspace, CnnConfig, CnnRcs, Drive, MeiConfig, MeiRcs, Rcs, Saab,
    SaabConfig,
};
use neural::{Dataset, TrainConfig};
use prng::rngs::StdRng;
use prng::{Rng, SeedableRng};
use rram::VariationModel;

const SIGMA: f64 = 0.05;

fn expfit(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::generate(n, &mut rng, |r| {
        let x: f64 = r.gen();
        (vec![x], vec![(-x * x).exp()])
    })
    .unwrap()
}

fn points() -> Vec<Vec<f64>> {
    (0..16).map(|i| vec![f64::from(i) / 16.0]).collect()
}

fn fnv1a(outputs: &[Vec<f64>]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in outputs
        .iter()
        .flatten()
        .flat_map(|v| v.to_bits().to_le_bytes())
    {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Disturb `rcs` with seeded process variation, then hash its noisy
/// predictions on `inputs`.
fn noisy_hash(mut rcs: impl Rcs, inputs: &[Vec<f64>]) -> u64 {
    let variation = VariationModel::process_variation(SIGMA);
    rcs.disturb(&variation, &mut StdRng::seed_from_u64(21));
    let fluctuation = SignalFluctuation::new(SIGMA);
    let mut rng = StdRng::seed_from_u64(22);
    let outputs: Vec<Vec<f64>> = inputs
        .iter()
        .map(|x| rcs.predict_noisy(x, &fluctuation, &mut rng))
        .collect();
    fnv1a(&outputs)
}

#[test]
fn mei_noisy_bits_are_pinned() {
    let mei = MeiRcs::train(&expfit(200, 1), &MeiConfig::quick_test()).unwrap();
    assert_eq!(noisy_hash(mei, &points()), 11_682_906_487_768_988_061);
}

#[test]
fn adda_noisy_bits_are_pinned() {
    let config = AddaConfig {
        train: TrainConfig {
            epochs: 20,
            learning_rate: 1.0,
            ..TrainConfig::default()
        },
        ..AddaConfig::default()
    };
    let adda = AddaRcs::train(&expfit(200, 1), &config).unwrap();
    assert_eq!(noisy_hash(adda, &points()), 12_822_804_867_354_279_973);
}

#[test]
fn saab_noisy_bits_are_pinned() {
    let config = SaabConfig {
        rounds: 2,
        compare_bits: 4,
        ..SaabConfig::default()
    };
    let saab = Saab::train(&expfit(200, 1), &MeiConfig::quick_test(), &config).unwrap();
    assert_eq!(noisy_hash(saab, &points()), 6_136_635_321_093_167_648);
}

#[test]
fn cnn_noisy_bits_are_pinned() {
    let images = workloads::cnn_dataset(8, 8, 12, 5);
    let cnn = CnnRcs::train(&images, &CnnConfig::quick_test()).unwrap();
    assert_eq!(
        noisy_hash(cnn, &images.inputs()[..16]),
        4_111_028_510_894_361_573
    );
}

#[test]
fn mei_ir_drop_bits_are_pinned() {
    let mei = MeiRcs::train(&expfit(200, 1), &MeiConfig::quick_test()).unwrap();
    let wires = IrDropConfig::with_wire_resistance(2.5);
    let mut ws = AnalogWorkspace::new();
    let outputs: Vec<Vec<f64>> = points()
        .iter()
        .map(|x| {
            let bits = mei.input_spec().encode(x);
            let mut drive = Drive::IrDrop(&wires);
            let out = mei.infer_bits_driven(&bits, &mut drive, &mut ws).unwrap();
            mei.output_spec().decode(&out)
        })
        .collect();
    assert_eq!(fnv1a(&outputs), 8_131_931_387_564_284_801);
}

#[test]
fn raw_crossbar_bits_are_pinned() {
    // The comparators can absorb a small perturbation; the crossbar
    // outputs before them cannot.
    let mei = MeiRcs::train(&expfit(200, 1), &MeiConfig::quick_test()).unwrap();
    let bits: Vec<Vec<f64>> = points()
        .iter()
        .map(|x| mei.input_spec().encode(x))
        .collect();
    let fluctuation = SignalFluctuation::new(SIGMA);
    let mut rng = StdRng::seed_from_u64(23);
    let mut ws = AnalogWorkspace::new();
    let noisy: Vec<Vec<f64>> = bits
        .iter()
        .map(|b| {
            let mut drive = Drive::Fluctuating(&fluctuation, &mut rng);
            mei.analog().forward_driven(b, &mut drive, &mut ws)
        })
        .collect();
    let wires = IrDropConfig::with_wire_resistance(2.5);
    let dropped: Vec<Vec<f64>> = bits
        .iter()
        .map(|b| {
            mei.analog()
                .forward_driven(b, &mut Drive::IrDrop(&wires), &mut ws)
        })
        .collect();
    assert_eq!(fnv1a(&noisy), 3_201_119_189_082_665_355);
    assert_eq!(fnv1a(&dropped), 18_420_418_629_840_846_849);
}
