//! Integration: SAAB boosting gains and the Fig 5 robustness orderings.

use crossbar::SignalFluctuation;
use mei::{
    evaluate_mse, mse_scorer, robustness, AddaConfig, AddaRcs, AnalogWorkspace, Drive, MeiConfig,
    MeiRcs, NonIdealFactors, Saab, SaabConfig,
};
use neural::{Dataset, TrainConfig};
use prng::rngs::StdRng;
use prng::{Rng, SeedableRng};
use rram::DeviceParams;
use runtime::ThreadPool;

fn budget() -> TrainConfig {
    TrainConfig {
        epochs: 80,
        learning_rate: 0.8,
        ..TrainConfig::default()
    }
}

fn device() -> DeviceParams {
    DeviceParams::hfox()
}

fn expfit(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::generate(n, &mut rng, |r| {
        let x: f64 = r.gen();
        (vec![x], vec![(-x * x).exp()])
    })
    .unwrap()
}

#[test]
fn saab_improves_on_a_single_learner() {
    let train = expfit(2_000, 1);
    let test = expfit(600, 2);
    let mei_cfg = MeiConfig {
        in_bits: 6,
        out_bits: 6,
        hidden: 16,
        device: device(),
        train: budget(),
        ..MeiConfig::default()
    };
    let single = MeiRcs::train(&train, &mei_cfg).unwrap();
    let saab = Saab::train(
        &train,
        &mei_cfg,
        &SaabConfig {
            rounds: 3,
            compare_bits: 4,
            ..SaabConfig::default()
        },
    )
    .unwrap();

    let single_mse = evaluate_mse(&single, &test);
    let saab_mse = evaluate_mse(&saab, &test);
    // Boosting must not lose accuracy, and typically gains (paper: +5.76%
    // accuracy on average).
    assert!(
        saab_mse <= single_mse * 1.10 + 1e-6,
        "SAAB {saab_mse} vs single {single_mse}"
    );
}

#[test]
fn mei_is_more_robust_to_signal_fluctuation_than_adda() {
    // The paper's §5.3 headline: "as MEI only requires discrete inputs of
    // 0/1 signals, the proposed architecture demonstrates much better
    // robustness to the signal fluctuation than the traditional method".
    //
    // On the behavioural substrate the claim must be read *relative to each
    // system's clean error*: the noiseless analog path is exact, so the
    // AD/DA baseline's clean MSE is quantization-limited (~1e-5 here) and
    // tiny absolute degradations still swamp MEI's, whose clean MSE carries
    // real approximation error. What the architecture controls is the
    // blow-up factor under fluctuation — AD/DA inflates ~25× at σ = 0.08
    // while MEI's comparator-restored bits hold it near 1× (margin > 10×
    // across seeds; see EXPERIMENTS.md "Expected divergences").
    let train = expfit(2_500, 3);
    let test = expfit(400, 4);

    let adda = AddaRcs::train(
        &train,
        &AddaConfig {
            hidden: 8,
            device: device(),
            train: budget(),
            ..AddaConfig::default()
        },
    )
    .unwrap();
    let mei = MeiRcs::train(
        &train,
        &MeiConfig {
            hidden: 16,
            device: device(),
            train: budget(),
            ..MeiConfig::default()
        },
    )
    .unwrap();

    let clean_adda = evaluate_mse(&adda, &test);
    let clean_mei = evaluate_mse(&mei, &test);

    let sigma = NonIdealFactors::signal_only(0.08);
    let pool = ThreadPool::new(2);
    let noisy_adda = robustness(&pool, &adda, &test, &sigma, 25, 7, mse_scorer).mean;
    let noisy_mei = robustness(&pool, &mei, &test, &sigma, 25, 7, mse_scorer).mean;

    let blowup_adda = noisy_adda / clean_adda;
    let blowup_mei = noisy_mei / clean_mei;
    assert!(
        blowup_mei * 4.0 < blowup_adda,
        "MEI error blow-up {blowup_mei:.2}x should be well below AD/DA {blowup_adda:.2}x"
    );
}

#[test]
fn process_variation_degrades_both_architectures_monotonically() {
    let train = expfit(1_500, 5);
    let test = expfit(300, 6);
    let mei = MeiRcs::train(
        &train,
        &MeiConfig {
            hidden: 16,
            device: device(),
            train: budget(),
            ..MeiConfig::default()
        },
    )
    .unwrap();
    let clean = evaluate_mse(&mei, &test);
    let pool = ThreadPool::new(2);
    let at = |sigma: f64| {
        let factors = NonIdealFactors::process_only(sigma);
        robustness(&pool, &mei, &test, &factors, 12, 9, mse_scorer).mean
    };
    let low = at(0.05);
    let high = at(0.4);
    assert!(clean <= low + 1e-9, "clean {clean} vs σ=0.05 {low}");
    assert!(low < high, "σ=0.05 {low} vs σ=0.4 {high}");
}

#[test]
fn saab_with_noisy_scoring_is_robust_under_noise() {
    // Training SAAB with the σ it will face (line 6 of Algorithm 1) should
    // hold up at least as well as a single learner under that σ.
    let train = expfit(1_500, 8);
    let test = expfit(300, 9);
    let sigma = NonIdealFactors::new(0.15, 0.05);
    let mei_cfg = MeiConfig {
        in_bits: 6,
        out_bits: 6,
        hidden: 16,
        device: device(),
        train: budget(),
        ..MeiConfig::default()
    };
    let single = MeiRcs::train(&train, &mei_cfg).unwrap();
    let saab = Saab::train(
        &train,
        &mei_cfg,
        &SaabConfig {
            rounds: 3,
            compare_bits: 4,
            factors: sigma,
            ..SaabConfig::default()
        },
    )
    .unwrap();
    let pool = ThreadPool::new(2);
    let noisy_single = robustness(&pool, &single, &test, &sigma, 12, 11, mse_scorer).mean;
    let noisy_saab = robustness(&pool, &saab, &test, &sigma, 12, 11, mse_scorer).mean;
    assert!(
        noisy_saab <= noisy_single * 1.15 + 1e-6,
        "noisy SAAB {noisy_saab} vs noisy single {noisy_single}"
    );
}

#[test]
fn binary_interface_survives_moderate_fluctuation_per_bit() {
    // Bit-level view of the robustness claim: most binary outputs are
    // unchanged under moderate multiplicative input noise.
    let train = expfit(1_200, 10);
    let mei = MeiRcs::train(
        &train,
        &MeiConfig {
            hidden: 16,
            device: device(),
            train: budget(),
            ..MeiConfig::default()
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(13);
    let sf = SignalFluctuation::new(0.05);
    let mut ws = AnalogWorkspace::new();
    let mut stable = 0usize;
    let mut total = 0usize;
    for i in 0..40 {
        let x = [i as f64 / 40.0];
        let bits = mei.input_spec().encode(&x);
        let clean = mei.infer_bits(&bits).unwrap();
        for _ in 0..5 {
            let mut drive = Drive::Fluctuating(&sf, &mut rng);
            let noisy = mei
                .network()
                .forward_bits(&bits, &mut drive, &mut ws)
                .unwrap();
            stable += clean.iter().zip(&noisy).filter(|(a, b)| a == b).count();
            total += clean.len();
        }
    }
    let rate = stable as f64 / total as f64;
    assert!(
        rate > 0.9,
        "only {:.1}% of output bits stable",
        rate * 100.0
    );
}
