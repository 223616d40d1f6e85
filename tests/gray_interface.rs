//! Integration: Gray-coded merged interfaces end to end (the repository's
//! Hamming-cliff extension) on a real benchmark.

use interface::BitCoding;
use mei::{evaluate_mse, mse_scorer, robustness, MeiConfig, MeiRcs, NonIdealFactors};
use neural::TrainConfig;
use runtime::ThreadPool;
use workloads::{kmeans::KMeans, Workload};

fn config(coding: BitCoding) -> MeiConfig {
    MeiConfig {
        in_bits: 6,
        out_bits: 6,
        hidden: 24,
        coding,
        train: TrainConfig {
            epochs: 80,
            learning_rate: 0.8,
            ..TrainConfig::default()
        },
        ..MeiConfig::default()
    }
}

#[test]
fn gray_coding_is_at_least_as_accurate_on_kmeans() {
    let w = KMeans::new();
    let train = w.dataset(3_000, 1).unwrap();
    let test = w.dataset(800, 2).unwrap();
    let binary = MeiRcs::train(&train, &config(BitCoding::Binary)).unwrap();
    let gray = MeiRcs::train(&train, &config(BitCoding::Gray)).unwrap();
    let b = evaluate_mse(&binary, &test);
    let g = evaluate_mse(&gray, &test);
    assert!(g <= b * 1.05, "gray {g} vs binary {b}");
}

#[test]
fn gray_coding_survives_noise_and_persistence() {
    let w = KMeans::new();
    let train = w.dataset(2_000, 3).unwrap();
    let test = w.dataset(400, 4).unwrap();
    let gray = MeiRcs::train(&train, &config(BitCoding::Gray)).unwrap();

    // Robust under moderate noise.
    let clean = evaluate_mse(&gray, &test);
    let noisy = robustness(
        &ThreadPool::new(2),
        &gray,
        &test,
        &NonIdealFactors::new(0.1, 0.05),
        10,
        7,
        mse_scorer,
    )
    .mean;
    assert!(
        noisy < clean * 5.0 + 0.01,
        "gray noisy {noisy} vs clean {clean}"
    );

    // Round-trips through the persistence format with identical behaviour.
    let reloaded = MeiRcs::from_text(&gray.to_text()).unwrap();
    assert_eq!(reloaded.input_spec().coding(), BitCoding::Gray);
    for (x, _) in test.iter().take(20) {
        assert_eq!(gray.infer(x).unwrap(), reloaded.infer(x).unwrap());
    }
}
