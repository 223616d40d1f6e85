//! Parallel ≡ serial: every parallel evaluation path must produce
//! bit-identical results for every thread count.
//!
//! The workspace rule (see `runtime`): a task's randomness derives only
//! from `(root_seed, task_index)` substreams, placement is decided before
//! execution, and reductions fold in task order — so thread count is a
//! pure performance knob, never an experimental variable. These tests pin
//! that contract end-to-end through the `mei` crate's Monte-Carlo
//! robustness and SAAB training paths.

use mei::{
    manufacture_chips, mse_scorer, robustness, MeiConfig, MeiRcs, NonIdealFactors, Saab, SaabConfig,
};
use neural::{Dataset, MlpBuilder, TrainConfig, TrainReport, Trainer, WeightedMse};
use prng::rngs::StdRng;
use prng::{Rng, SeedableRng};
use runtime::{Chip, Engine, RoundRobin, ThreadPool};

fn expfit(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::generate(n, &mut rng, |r| {
        let x: f64 = r.gen();
        (vec![x], vec![(-x * x).exp()])
    })
    .unwrap()
}

fn mei_config() -> MeiConfig {
    MeiConfig {
        in_bits: 6,
        out_bits: 6,
        hidden: 12,
        seed: 99,
        train: TrainConfig {
            epochs: 30,
            learning_rate: 0.8,
            ..TrainConfig::default()
        },
        ..MeiConfig::default()
    }
}

/// Monte-Carlo robustness over the pool: serial (1 thread) vs 2 vs 8
/// threads agree bit-for-bit on mean, worst and best trial scores.
#[test]
fn parallel_robustness_matches_serial_bitwise() {
    let data = expfit(300, 41);
    let rcs = MeiRcs::train(&data, &mei_config()).unwrap();
    let factors = NonIdealFactors::new(0.2, 0.1);

    let report = |threads: usize| {
        let pool = ThreadPool::new(threads);
        robustness(&pool, &rcs, &data, &factors, 24, 7, mse_scorer)
    };
    let serial = report(1);
    for threads in [2, 8] {
        let parallel = report(threads);
        assert_eq!(
            serial.mean.to_bits(),
            parallel.mean.to_bits(),
            "mean diverged at {threads} threads"
        );
        assert_eq!(serial.min.to_bits(), parallel.min.to_bits());
        assert_eq!(serial.max.to_bits(), parallel.max.to_bits());
        assert_eq!(serial.std_dev.to_bits(), parallel.std_dev.to_bits());
    }
}

/// SAAB training with parallel per-sample scoring: the whole trained
/// ensemble (weights, learner networks, inference) is identical whether
/// scored on 1, 2 or 8 threads.
#[test]
fn saab_training_is_bit_identical_across_thread_counts() {
    let data = expfit(300, 42);
    let train = |threads: usize| {
        let saab = Saab::train(
            &data,
            &MeiConfig::quick_test(),
            &SaabConfig {
                rounds: 2,
                compare_bits: 4,
                factors: NonIdealFactors::new(0.1, 0.05),
                threads,
                ..SaabConfig::default()
            },
        )
        .unwrap();
        let alphas: Vec<u64> = saab.alphas().iter().map(|a| a.to_bits()).collect();
        let learners: Vec<String> = saab.learners().iter().map(|l| l.to_text()).collect();
        let probe: Vec<u64> = [0.1, 0.5, 0.9]
            .iter()
            .flat_map(|&x| saab.infer(&[x]).unwrap())
            .map(f64::to_bits)
            .collect();
        (alphas, learners, probe)
    };
    let serial = train(1);
    assert_eq!(serial, train(2), "2-thread SAAB differs from serial");
    assert_eq!(serial, train(8), "8-thread SAAB differs from serial");
}

/// One full `Trainer::train` run at a given thread count, over a batch
/// size (10) that does not divide the dataset (157 samples) or the thread
/// counts under test — exercising the tail chunk and the tail shard.
fn trainer_outcome(threads: usize, weighted: bool) -> (neural::Mlp, TrainReport) {
    let mut rng = StdRng::seed_from_u64(21);
    let data = Dataset::generate(157, &mut rng, |r| {
        let x: f64 = r.gen();
        let y: f64 = r.gen();
        (vec![x, y], vec![x * y, 1.0 - x, (x + y) / 2.0])
    })
    .unwrap();
    let mut net = MlpBuilder::new(&[2, 10, 3]).seed(5).build();
    let config = TrainConfig {
        epochs: 12,
        batch_size: 10,
        learning_rate: 0.7,
        threads,
        ..TrainConfig::default()
    };
    let trainer = if weighted {
        Trainer::with_loss(
            config,
            WeightedMse::new(vec![1.0, std::f64::consts::FRAC_1_SQRT_2, 0.5]),
        )
    } else {
        Trainer::new(config)
    };
    let report = trainer.train(&mut net, &data);
    (net, report)
}

/// Sharded data-parallel backprop: the full training outcome — weights,
/// epochs run and every per-epoch loss — is bit-identical whether the
/// gradients are computed on 1, 2 or 8 threads, with either loss.
#[test]
fn trainer_is_bit_identical_across_thread_counts() {
    for weighted in [false, true] {
        let (serial_net, serial_report) = trainer_outcome(1, weighted);
        let serial_bits: Vec<u64> = serial_report
            .loss_history
            .iter()
            .map(|l| l.to_bits())
            .collect();
        for threads in [2, 8] {
            let (net, report) = trainer_outcome(threads, weighted);
            assert_eq!(
                serial_net, net,
                "weights diverged at {threads} threads (weighted={weighted})"
            );
            assert_eq!(
                serial_report, report,
                "report diverged at {threads} threads (weighted={weighted})"
            );
            assert_eq!(serial_report.epochs_run, report.epochs_run);
            let bits: Vec<u64> = report.loss_history.iter().map(|l| l.to_bits()).collect();
            assert_eq!(
                serial_bits, bits,
                "loss history bits diverged at {threads} threads (weighted={weighted})"
            );
        }
    }
}

/// End-to-end through the `mei` crate: an MEI RCS trained with parallel
/// backprop is the identical system the serial trainer produces.
#[test]
fn mei_training_with_parallel_backprop_matches_serial() {
    let data = expfit(300, 44);
    let train = |threads: usize| {
        let mut cfg = mei_config();
        cfg.train.threads = threads;
        MeiRcs::train(&data, &cfg).unwrap()
    };
    let serial = train(1);
    let parallel = train(4);
    assert_eq!(
        serial.mlp(),
        parallel.mlp(),
        "4-thread MEI backprop differs from serial"
    );
    for &x in &[0.05, 0.45, 0.95] {
        assert_eq!(serial.infer(&[x]).unwrap(), parallel.infer(&[x]).unwrap());
    }
}

/// Chip manufacturing and batched serving: chip `i` is the same device at
/// every pool size, and serve outputs don't depend on placement-irrelevant
/// details like the number of other requests in flight.
#[test]
fn manufactured_pool_outputs_are_reproducible() {
    let data = expfit(300, 43);
    let rcs = MeiRcs::train(&data, &mei_config()).unwrap();
    let inputs: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64 / 16.0]).collect();

    let serve = || {
        let engine = Engine::new(manufacture_chips(&rcs, 3, 0.05, 11)).with_policy(RoundRobin);
        engine.serve(&inputs).outputs
    };
    assert_eq!(serve(), serve(), "two serve runs over the same pool differ");

    // Chip i is the same physical device regardless of pool size.
    let small = manufacture_chips(&rcs, 2, 0.05, 11);
    let large = manufacture_chips(&rcs, 5, 0.05, 11);
    for (a, b) in small.chips().iter().zip(large.chips()) {
        assert_eq!(Chip::infer(a, &[0.4]), Chip::infer(b, &[0.4]));
    }
}
