//! Ablation: the `B_C` error-relaxation of SAAB (Algorithm 1, line 6).
//!
//! The paper argues for comparing only "the first 4–6 bits in an 8-bit
//! array": without the relaxation "most of the training samples will be
//! either sensitive or hard ... and the performance of SAAB may
//! significantly decrease". This sweep trains SAAB on the `exp(−x²)` task at
//! every `B_C` and reports the ensemble MSE and how many learners survived.
//!
//! Run with: `cargo run --release -p mei-bench --bin ablation_bc`

use mei::{evaluate_mse, MeiConfig, Saab, SaabConfig};
use mei_bench::{format_table, ExperimentConfig};
use workloads::expfit::ExpFit;
use workloads::Workload;

fn main() {
    let cfg = ExperimentConfig::from_env();
    let train = ExpFit::new()
        .dataset(cfg.train_samples.min(4000), 1)
        .expect("data");
    let test = ExpFit::new().dataset(cfg.test_samples, 2).expect("data");
    println!("== Ablation: SAAB compare-bits B_C (8-bit output, K = 3) ==\n");

    let mei_cfg = MeiConfig {
        hidden: 16,
        device: cfg.device(),
        train: cfg.mei_train(false),
        seed: cfg.seed,
        ..MeiConfig::default()
    };

    let mut rows = Vec::new();
    let mut best = (0usize, f64::INFINITY);
    for bc in 1..=8usize {
        let saab_cfg = SaabConfig {
            rounds: 3,
            compare_bits: bc,
            ..SaabConfig::default()
        };
        match Saab::train(&train, &mei_cfg, &saab_cfg) {
            Ok(saab) => {
                let mse = evaluate_mse(&saab, &test);
                if mse < best.1 {
                    best = (bc, mse);
                }
                rows.push(vec![
                    bc.to_string(),
                    saab.len().to_string(),
                    format!("{mse:.5}"),
                ]);
            }
            Err(_) => rows.push(vec![bc.to_string(), "0".into(), "all discarded".into()]),
        }
    }
    println!(
        "{}",
        format_table(&["B_C", "learners kept", "ensemble MSE"], &rows)
    );
    println!(
        "best B_C = {} (paper recommends 4–6 of 8; too-strict comparisons discard \
         learners, too-lax ones stop separating hard samples)",
        best.0
    );
}
