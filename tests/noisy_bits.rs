//! Pinned output bits of the noisy and IR-drop inference paths.
//!
//! `tests/determinism.rs` compares two runs of the same build; this suite
//! compares every build against recorded constants, so a change to a
//! forward pass cannot move an ideal, noisy or IR-drop output bit
//! unnoticed. Each case folds the `to_bits()` of its outputs into one
//! FNV-1a hash.
//!
//! The systems are the quick configurations of the serving tests. The
//! ideal cases run every system undisturbed through `Chip::infer` and the
//! inherent inference entry points, and hash every cost-sheet field. Each
//! noisy case disturbs its system with seeded σ = 0.05 process variation,
//! then runs `Rcs::predict_noisy` on 16 inputs under σ = 0.05 signal
//! fluctuation from one fixed generator. The IR-drop case runs the MEI
//! system through 2.5 Ω wires. The Monte-Carlo cases hash the `mean`,
//! `std_dev`, `min` and `max` of a robustness report: three trials on a
//! two-thread pool, each trial on its own substream of one seed.
//!
//! The lognormal draws go through the platform's `exp`, `ln` and `cos`,
//! so the constants hold where they were recorded: x86_64 Linux, as in
//! CI. Another libm may move them without any change to this code.

use crossbar::{IrDropConfig, SignalFluctuation};
use mei::{
    mse_scorer, robustness, AddaConfig, AddaRcs, AnalogWorkspace, CnnConfig, CnnRcs, CnnWorkspace,
    DigitalAnn, Drive, MeiConfig, MeiRcs, NonIdealFactors, Rcs, Saab, SaabConfig,
};
use neural::{Dataset, TrainConfig};
use prng::rngs::StdRng;
use prng::{Rng, SeedableRng};
use rram::VariationModel;
use runtime::{Chip, ThreadPool};

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

fn mei() -> MeiRcs {
    MeiRcs::train(&expfit(200, 1), &MeiConfig::quick_test()).unwrap()
}

fn adda() -> AddaRcs {
    let config = AddaConfig {
        train: TrainConfig {
            epochs: 20,
            learning_rate: 1.0,
            ..TrainConfig::default()
        },
        ..AddaConfig::default()
    };
    AddaRcs::train(&expfit(200, 1), &config).unwrap()
}

fn saab() -> Saab {
    let config = SaabConfig {
        rounds: 2,
        compare_bits: 4,
        ..SaabConfig::default()
    };
    Saab::train(&expfit(200, 1), &MeiConfig::quick_test(), &config).unwrap()
}

fn digital() -> DigitalAnn {
    let config = TrainConfig {
        epochs: 20,
        learning_rate: 1.0,
        ..TrainConfig::default()
    };
    DigitalAnn::train(&expfit(200, 1), 8, &config, 1).unwrap()
}

fn cnn() -> (CnnRcs, Dataset) {
    let images = workloads::cnn_dataset(8, 8, 12, 5);
    let cnn = CnnRcs::train(&images, &CnnConfig::quick_test()).unwrap();
    (cnn, images)
}

/// Hash the undisturbed `Chip::infer` outputs of `chip` on `inputs`.
fn ideal_hash(chip: &impl Chip, inputs: &[Vec<f64>]) -> u64 {
    let outputs: Vec<Vec<f64>> = inputs.iter().map(|x| chip.infer(x)).collect();
    fnv1a(&outputs)
}

/// Hash every field of `chip`'s cost sheet.
fn sheet_hash(chip: &impl Chip) -> u64 {
    let sheet = chip
        .cost_sheet()
        .expect("every trained system bills a sheet");
    fnv1a(&[vec![
        sheet.area_um2,
        sheet.leakage_uw,
        sheet.dynamic_j_per_inference,
        sheet.ops_per_inference,
    ]])
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

/// Hash the statistics of a three-trial Monte-Carlo robustness report
/// of `rcs` over `data` under `factors`, run on a two-thread pool.
fn robustness_hash<T: Rcs + Clone + Send + Sync>(
    rcs: &T,
    data: &Dataset,
    factors: &NonIdealFactors,
) -> u64 {
    let pool = ThreadPool::new(2);
    let report = robustness(&pool, rcs, data, factors, 3, 31, mse_scorer);
    fnv1a(&[vec![report.mean, report.std_dev, report.min, report.max]])
}

#[test]
fn ideal_chip_bits_are_pinned() {
    let (cnn, images) = cnn();
    assert_eq!(ideal_hash(&mei(), &points()), 8_131_931_387_564_284_801);
    assert_eq!(ideal_hash(&adda(), &points()), 13_339_151_693_385_328_549);
    assert_eq!(ideal_hash(&saab(), &points()), 17_503_232_607_283_707_311);
    assert_eq!(
        ideal_hash(&cnn, &images.inputs()[..16]),
        4_111_028_510_894_361_573
    );
    assert_eq!(ideal_hash(&digital(), &points()), 2_347_520_522_178_882_341);
}

#[test]
fn ideal_bit_domain_bits_are_pinned() {
    let mei = mei();
    let saab = saab();
    let bits: Vec<Vec<f64>> = points()
        .iter()
        .map(|x| mei.input_spec().encode(x))
        .collect();
    let mut ws = AnalogWorkspace::new();
    let mei_out: Vec<Vec<f64>> = bits
        .iter()
        .map(|b| mei.infer_bits_with(b, &mut ws).unwrap())
        .collect();
    let saab_out: Vec<Vec<f64>> = bits.iter().map(|b| saab.infer_bits(b).unwrap()).collect();
    assert_eq!(fnv1a(&mei_out), 2_908_242_483_151_517_912);
    assert_eq!(fnv1a(&saab_out), 5_559_923_257_325_003_365);
}

#[test]
fn ideal_cnn_bits_are_pinned() {
    let (cnn, images) = cnn();
    let inputs = &images.inputs()[..16];
    let mut ws = CnnWorkspace::new();
    let analog: Vec<Vec<f64>> = inputs
        .iter()
        .map(|x| cnn.infer_with(x, &mut ws).unwrap())
        .collect();
    let digital: Vec<Vec<f64>> = inputs
        .iter()
        .map(|x| cnn.infer_digital(x).unwrap())
        .collect();
    assert_eq!(fnv1a(&analog), 4_111_028_510_894_361_573);
    assert_eq!(fnv1a(&digital), 4_111_028_510_894_361_573);
}

#[test]
fn cost_sheet_bits_are_pinned() {
    let (cnn, _) = cnn();
    assert_eq!(sheet_hash(&mei()), 14_939_552_213_241_793_037);
    assert_eq!(sheet_hash(&adda()), 13_341_329_485_251_528_333);
    assert_eq!(sheet_hash(&saab()), 3_468_273_117_263_571_373);
    assert_eq!(sheet_hash(&cnn), 11_394_177_132_137_747_607);
    assert_eq!(sheet_hash(&digital()), 901_300_984_310_592_933);
}

#[test]
fn mei_noisy_bits_are_pinned() {
    assert_eq!(noisy_hash(mei(), &points()), 11_682_906_487_768_988_061);
}

#[test]
fn adda_noisy_bits_are_pinned() {
    assert_eq!(noisy_hash(adda(), &points()), 12_822_804_867_354_279_973);
}

#[test]
fn saab_noisy_bits_are_pinned() {
    assert_eq!(noisy_hash(saab(), &points()), 6_136_635_321_093_167_648);
}

#[test]
fn cnn_noisy_bits_are_pinned() {
    let (cnn, images) = cnn();
    assert_eq!(
        noisy_hash(cnn, &images.inputs()[..16]),
        4_111_028_510_894_361_573
    );
}

#[test]
fn robustness_bits_are_pinned() {
    let sigma = NonIdealFactors::new(SIGMA, SIGMA);
    let test = expfit(64, 2);
    let (cnn, images) = cnn();
    assert_eq!(
        robustness_hash(&mei(), &test, &sigma),
        7_787_005_328_974_223_130
    );
    assert_eq!(
        robustness_hash(&adda(), &test, &sigma),
        10_351_047_137_402_826_788
    );
    assert_eq!(
        robustness_hash(&saab(), &test, &sigma),
        5_070_416_264_230_506_831
    );
    assert_eq!(
        robustness_hash(&cnn, &images, &sigma),
        17_224_699_009_466_341_741
    );
}

#[test]
fn write_draw_bits_are_pinned() {
    // The condition of the bench binaries' write-draw means: lognormal
    // write noise only, no signal fluctuation.
    let write = NonIdealFactors::process_only(0.02);
    let test = expfit(64, 2);
    assert_eq!(
        robustness_hash(&mei(), &test, &write),
        13_171_875_391_274_947_404
    );
    assert_eq!(
        robustness_hash(&adda(), &test, &write),
        5_191_123_370_839_174_347
    );
}

#[test]
fn mei_ir_drop_bits_are_pinned() {
    let mei = mei();
    let wires = IrDropConfig::with_wire_resistance(2.5);
    let mut ws = AnalogWorkspace::new();
    let outputs: Vec<Vec<f64>> = points()
        .iter()
        .map(|x| {
            let bits = mei.input_spec().encode(x);
            let mut drive = Drive::IrDrop(&wires);
            let out = mei
                .network()
                .forward_bits(&bits, &mut drive, &mut ws)
                .unwrap();
            mei.output_spec().decode(&out)
        })
        .collect();
    assert_eq!(fnv1a(&outputs), 8_131_931_387_564_284_801);
}

#[test]
fn raw_crossbar_bits_are_pinned() {
    // The comparators can absorb a small perturbation; the crossbar
    // outputs before them cannot.
    let mei = mei();
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
