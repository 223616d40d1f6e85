//! Serving quickstart: manufacture a pool of MEI chips and serve a batch
//! through the policy-driven engine.
//!
//! A deployment doesn't run one crossbar — it runs N manufactured chips,
//! each programmed from the same trained weights but carrying its own
//! write-accuracy noise draw. This example trains a small MEI system,
//! manufactures a 4-chip serving [`runtime::Engine`], serves a closed
//! batch and an open-loop load through it, then swaps in the calibrated
//! size-aware policy to show how placement is a pluggable strategy.
//!
//! Everything is deterministic: chip `i` is the same physical device on
//! every run (its noise stream derives from `(root_seed, i)`), placement
//! is a pure function of the request sequence, and serve outputs depend
//! only on the request and its chip, never on timing.
//!
//! Run with: `cargo run --release --example serve_throughput`

use std::time::Duration;

use mei::{manufacture_chips, MeiConfig, MeiRcs};
use neural::{Dataset, TrainConfig};
use prng::rngs::StdRng;
use prng::{Rng, SeedableRng};
use runtime::{Engine, SizeAware};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Train a small MEI system on exp(−x²).
    let mut rng = StdRng::seed_from_u64(1);
    let train = Dataset::generate(2_000, &mut rng, |r| {
        let x: f64 = r.gen();
        (vec![x], vec![(-x * x).exp()])
    })?;
    let mei = MeiRcs::train(
        &train,
        &MeiConfig {
            hidden: 8,
            seed: 1,
            train: TrainConfig {
                epochs: 60,
                learning_rate: 0.8,
                ..TrainConfig::default()
            },
            ..MeiConfig::default()
        },
    )?;

    // Manufacture 4 chips with 2% lognormal write noise, wrapped in a
    // serving engine (default policy: least-loaded).
    let engine = Engine::new(manufacture_chips(&mei, 4, 0.02, 42));
    println!(
        "manufactured a {}-chip pool behind the '{}' policy\n",
        engine.pool().len(),
        engine.policy().name()
    );

    // Closed batch: 4096 requests.
    let inputs: Vec<Vec<f64>> = (0..4096).map(|i| vec![i as f64 / 4096.0]).collect();
    let closed = engine.serve(&inputs);
    println!("closed batch : {}", closed.stats);

    // Open loop: uniform arrivals at ~70% of the closed-phase rate, so the
    // latency numbers include realistic queueing.
    let rate = closed.stats.requests_per_sec * 0.7;
    let spacing = Duration::from_secs_f64(1.0 / rate.max(1.0));
    let arrivals: Vec<Duration> = (0..inputs.len()).map(|i| spacing * i as u32).collect();
    let open = engine.serve_open_loop(&inputs, &arrivals);
    println!("open loop    : {}", open.stats);

    println!("\nper-chip utilization (open loop):");
    for (i, chip) in open.stats.per_chip.iter().enumerate() {
        println!(
            "  chip {i}: {} requests in {} batches, {:.1}% busy",
            chip.served,
            chip.batches,
            100.0 * chip.utilization
        );
    }

    // Swap the policy: calibrate a per-chip cost model from measured
    // inference times and place size-aware (earliest finish time). The
    // coefficients are frozen at calibration, so placement stays a pure
    // function of the request sequence — the same engine serves the same
    // bits every time, even though the model came from wall-clock timing.
    let engine = engine.with_policy(SizeAware).calibrated(&inputs[..8], 3);
    println!("\ncalibrated cost model: {}", engine.cost_model().to_json());
    let sized = engine.serve_open_loop(&inputs, &arrivals);
    println!("size-aware   : {}", sized.stats);
    assert_eq!(
        sized.outputs,
        engine.serve_open_loop(&inputs, &arrivals).outputs,
        "frozen cost model ⇒ reproducible placement and bits"
    );

    // Spot-check: outputs arrive in request order and track f(x).
    let x = inputs[2048][0];
    println!(
        "\npool(exp(-{x:.3}²)) = {:.4}   (exact {:.4})",
        open.outputs[2048][0],
        (-x * x).exp()
    );
    Ok(())
}
