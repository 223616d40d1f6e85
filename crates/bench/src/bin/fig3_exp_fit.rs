//! Fig 3 reproduction: MSE of approximating `f(x) = exp(−x²)` as the hidden
//! layer grows, for the traditional AD/DA architecture and MEI with and
//! without the bit-weighted loss.
//!
//! Paper's observations: the weighted loss clearly beats the unweighted
//! variant; MEI needs a larger hidden layer; accuracy stalls beyond a
//! certain size (motivating the Eq (8) change-rate stop in Algorithm 2).
//!
//! Run with: `cargo run --release -p mei-bench --bin fig3_exp_fit`

use mei::{mse_scorer, robustness, AddaConfig, AddaRcs, MeiConfig, MeiRcs, NonIdealFactors};
use mei_bench::{format_table, ExperimentConfig, EXPERIMENT_WRITE_SIGMA};
use neural::Dataset;
use prng::rngs::StdRng;
use prng::{Rng, SeedableRng};

fn expfit(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::generate(n, &mut rng, |r| {
        let x: f64 = r.gen();
        (vec![x], vec![(-x * x).exp()])
    })
    .expect("valid dataset")
}

fn main() {
    let cfg = ExperimentConfig::from_env();
    let pool = cfg.pool();
    let noise = NonIdealFactors::process_only(EXPERIMENT_WRITE_SIGMA);
    // Paper: 10 000 training samples in (0, 1), 1 000 test samples.
    let train = expfit(cfg.train_samples.max(4000), 1);
    let test = expfit(cfg.test_samples, 2);
    println!(
        "== Fig 3: fitting exp(-x²) with a 1×N×1 RCS ({} train / {} test samples) ==\n",
        train.len(),
        test.len()
    );

    let sizes = [2usize, 4, 8, 16, 32];
    let mut rows = Vec::new();
    for &n in &sizes {
        let adda = AddaRcs::train(
            &train,
            &AddaConfig {
                hidden: n,
                device: cfg.device(),
                train: cfg.adda_train(),
                seed: cfg.seed,
                ..AddaConfig::default()
            },
        )
        .expect("adda");
        let mei = |weighted: bool| {
            MeiRcs::train(
                &train,
                &MeiConfig {
                    hidden: n,
                    weighted_loss: weighted,
                    device: cfg.device(),
                    train: cfg.mei_train(false),
                    seed: cfg.seed,
                    ..MeiConfig::default()
                },
            )
            .expect("mei")
        };
        let mei_w = mei(true);
        let mei_u = mei(false);
        let draws = cfg.write_draws;
        let adda_mse = robustness(&pool, &adda, &test, &noise, draws, 11, mse_scorer).mean;
        let mei_u_mse = robustness(&pool, &mei_u, &test, &noise, draws, 12, mse_scorer).mean;
        let mei_w_mse = robustness(&pool, &mei_w, &test, &noise, draws, 13, mse_scorer).mean;
        rows.push(vec![
            format!("1×{n}×1"),
            format!("{adda_mse:.5}"),
            format!("{mei_u_mse:.5}"),
            format!("{mei_w_mse:.5}"),
        ]);
    }
    println!(
        "{}",
        format_table(
            &["topology", "AD/DA MSE", "MEI unweighted", "MEI weighted"],
            &rows
        )
    );

    // Shape checks against the paper's qualitative claims.
    let parse = |s: &String| s.parse::<f64>().unwrap();
    let weighted_last = parse(&rows[rows.len() - 1][3]);
    let unweighted_last = parse(&rows[rows.len() - 1][2]);
    let weighted_first = parse(&rows[0][3]);
    println!("shape checks vs paper:");
    println!(
        "  weighted loss beats unweighted at the largest size: {}",
        if weighted_last <= unweighted_last {
            "PASS"
        } else {
            "FAIL"
        }
    );
    println!(
        "  MEI improves with hidden size: {}",
        if weighted_last < weighted_first {
            "PASS"
        } else {
            "FAIL"
        }
    );
    let tail_change = (parse(&rows[4][3]) - parse(&rows[3][3])).abs() / parse(&rows[3][3]);
    println!(
        "  accuracy stalls at large sizes (|Δ|/MSE = {:.2} at 16→32): {}",
        tail_change,
        if tail_change < 0.5 { "PASS" } else { "FAIL" }
    );
}
