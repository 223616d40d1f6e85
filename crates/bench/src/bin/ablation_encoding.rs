//! Ablation (extension): binary vs Gray-coded interfaces.
//!
//! The paper's future work proposes "higher bit-level or even floating-point
//! format" interfaces; this ablation explores a different axis of the same
//! question — the *wire coding*. Binary fixed point has Hamming cliffs
//! (`0.5 − ε` and `0.5` differ in every bit), so a tiny analog uncertainty
//! at a code boundary can flip the MSB pattern wholesale. A Gray code makes
//! adjacent levels differ in exactly one bit, trading that cliff for a
//! non-positional significance structure.
//!
//! Run with: `cargo run --release -p mei-bench --bin ablation_encoding`

use interface::BitCoding;
use mei::{evaluate_mse, mse_scorer, robustness, MeiConfig, MeiRcs, NonIdealFactors};
use mei_bench::{format_table, ExperimentConfig};
use neural::Dataset;
use workloads::expfit::ExpFit;
use workloads::{kmeans::KMeans, Workload};

fn main() {
    let cfg = ExperimentConfig::from_env();
    let pool = cfg.pool();
    println!("== Ablation: interface wire coding (binary vs Gray) ==\n");

    // Two tasks: the smooth Fig 3 function and the boundary-rich K-means
    // distance kernel.
    let kmeans = KMeans::new();
    let tasks: Vec<(&str, Dataset, Dataset, usize)> = vec![
        (
            "expfit",
            ExpFit::new()
                .dataset(cfg.train_samples.min(4000), 1)
                .expect("data"),
            ExpFit::new().dataset(cfg.test_samples, 2).expect("data"),
            16,
        ),
        (
            "kmeans",
            kmeans
                .dataset(cfg.train_samples.min(4000), 3)
                .expect("data"),
            kmeans.dataset(cfg.test_samples, 4).expect("data"),
            32,
        ),
    ];

    let mut rows = Vec::new();
    for (name, train, test, hidden) in &tasks {
        let train_with = |coding: BitCoding| {
            MeiRcs::train(
                train,
                &MeiConfig {
                    hidden: *hidden,
                    coding,
                    device: cfg.device(),
                    train: cfg.mei_train(false),
                    seed: cfg.seed,
                    ..MeiConfig::default()
                },
            )
            .expect("MEI training")
        };
        for coding in [BitCoding::Binary, BitCoding::Gray] {
            let rcs = train_with(coding);
            let clean = evaluate_mse(&rcs, test);
            let noisy = robustness(
                &pool,
                &rcs,
                test,
                &NonIdealFactors::new(0.1, 0.05),
                cfg.noise_trials.min(30),
                7,
                mse_scorer,
            )
            .mean;
            rows.push(vec![
                (*name).to_string(),
                coding.to_string(),
                format!("{clean:.5}"),
                format!("{noisy:.5}"),
            ]);
        }
    }
    println!(
        "{}",
        format_table(
            &["task", "coding", "clean MSE", "noisy MSE (σ=0.1/0.05)"],
            &rows
        )
    );
    println!("(Gray trades the binary Hamming cliffs for uniform single-bit transitions;");
    println!("whether that wins depends on how much of the task's mass sits near code");
    println!("boundaries — exactly the effect that makes MEI benchmark-dependent.)");
}
