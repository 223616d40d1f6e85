//! Ablation: retention drift over deployment time.
//!
//! The paper's robustness study covers programming-time variation and
//! signal noise; a deployed RCS additionally suffers conductance *drift*.
//! This sweep ages a trained MEI system with the power-law retention model
//! and reports the accuracy decay — and how a refresh (reprogramming)
//! cycle restores it.
//!
//! Run with: `cargo run --release -p mei-bench --bin ablation_retention`

use mei::{evaluate_mse, MeiConfig, MeiRcs, Rcs};
use mei_bench::{format_table, ExperimentConfig};
use rram::RetentionModel;
use workloads::{sobel::Sobel, Workload};

fn main() {
    let cfg = ExperimentConfig::from_env();
    let w = Sobel::new();
    let train = w
        .dataset(cfg.train_samples.min(3000), cfg.seed)
        .expect("train data");
    let test = w
        .dataset(cfg.test_samples.min(400), cfg.seed + 1)
        .expect("test data");
    let mut rcs = MeiRcs::train(
        &train,
        &MeiConfig {
            in_bits: 6,
            out_bits: 6,
            hidden: 16,
            device: cfg.device(),
            train: cfg.mei_train(false),
            seed: cfg.seed,
            ..MeiConfig::default()
        },
    )
    .expect("MEI training");

    println!("== Ablation: retention drift of a trained MEI Sobel system ==\n");
    let retention = RetentionModel::hfox_room_temperature();
    println!("model: {retention}\n");

    let fresh = evaluate_mse(&rcs, &test);
    let mut rows = vec![vec!["fresh".to_string(), format!("{fresh:.5}")]];
    for &(label, seconds) in &[
        ("1 hour", 3.6e3),
        ("1 day", 8.64e4),
        ("1 month", 2.63e6),
        ("1 year", 3.15e7),
    ] {
        rcs.restore();
        rcs.age(&retention, seconds);
        rows.push(vec![
            label.to_string(),
            format!("{:.5}", evaluate_mse(&rcs, &test)),
        ]);
    }
    rcs.restore();
    rows.push(vec![
        "after refresh".to_string(),
        format!("{:.5}", evaluate_mse(&rcs, &test)),
    ]);
    println!("{}", format_table(&["age", "test MSE"], &rows));
    println!("drift degrades gradually; a reprogramming refresh restores the fresh MSE");
    println!("exactly — the digital weight store makes refresh lossless.");
}
