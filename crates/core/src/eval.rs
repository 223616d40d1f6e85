//! Uniform evaluation across architectures: the [`Rcs`] trait and the
//! Monte-Carlo robustness protocol of paper §5.3.
//!
//! The protocol evaluates the *same* network that serves: every system
//! runs its [`Network`](crate::Network) under the pass's
//! [`Drive`](crate::Drive), and `predict_noisy` is that network under
//! signal fluctuation.

use std::fmt;

use crossbar::SignalFluctuation;
use neural::Dataset;
use prng::rngs::StdRng;
use prng::{RngCore, SeedableRng};
use rram::{NonIdealFactors, VariationModel};
use runtime::{Chip, ThreadPool};

/// Anything that can be evaluated like an RCS: the digital baseline, the
/// AD/DA architecture, MEI, SAAB ensembles and the CNN.
///
/// An `Rcs` is first a serving [`Chip`]: its noise-free prediction *is*
/// [`Chip::infer`], in the *analog* domain (`[0, 1]` application values).
/// This trait adds what the robustness protocol needs on top. Every
/// system's `Chip` and `Rcs` impls delegate to its
/// [`Network`](crate::Network): `Chip::infer` runs it under
/// `Drive::Ideal`, [`predict_noisy`](Rcs::predict_noisy) under
/// `Drive::Fluctuating`.
///
/// Implementations panic on wrong input lengths: they are driven by
/// datasets that were validated up front.
pub trait Rcs: Chip {
    /// Prediction with signal fluctuation on the analog/binary drive
    /// signals. Digital systems ignore the fluctuation.
    fn predict_noisy(
        &self,
        x: &[f64],
        fluctuation: &SignalFluctuation,
        rng: &mut dyn RngCore,
    ) -> Vec<f64>;

    /// Apply process variation to the device state (no-op for digital).
    fn disturb(&mut self, variation: &VariationModel, rng: &mut dyn RngCore);

    /// Restore the ideal device state (no-op for digital).
    fn restore(&mut self);
}

/// Mean per-port squared error of an RCS over a dataset (the "MSE" columns
/// of Table 1).
#[must_use]
pub fn evaluate_mse(rcs: &dyn Rcs, data: &Dataset) -> f64 {
    neural::dataset_mse(|x| rcs.infer(x), data)
}

/// Evaluate an arbitrary scorer (e.g. a `workloads::ErrorMetric`) over the
/// RCS's predictions on a dataset.
///
/// The scorer receives `(predictions, targets)`.
pub fn evaluate_metric<F>(rcs: &dyn Rcs, data: &Dataset, scorer: F) -> f64
where
    F: FnOnce(&[Vec<f64>], &[Vec<f64>]) -> f64,
{
    let predictions: Vec<Vec<f64>> = data.iter().map(|(x, _)| rcs.infer(x)).collect();
    let targets: Vec<Vec<f64>> = data.targets().to_vec();
    scorer(&predictions, &targets)
}

/// Statistics over the Monte-Carlo robustness trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessReport {
    /// Mean score across trials.
    pub mean: f64,
    /// Standard deviation across trials.
    pub std_dev: f64,
    /// Lowest trial score (the best, for an error scorer).
    pub min: f64,
    /// Highest trial score (the worst, for an error scorer).
    pub max: f64,
    /// Number of trials.
    pub trials: usize,
}

impl fmt::Display for RobustnessReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.4} ± {:.4} over {} trials (min {:.4}, max {:.4})",
            self.mean, self.std_dev, self.trials, self.min, self.max
        )
    }
}

/// The paper's robustness protocol (§5.3): under a fixed non-ideal-factor
/// level, every trial disturbs its own clone of the system with freshly
/// sampled process variation, scores the whole test set with per-sample
/// signal fluctuation, and the report aggregates `trials` repetitions.
///
/// Trial `i` draws all its randomness from the stream
/// `prng::substream(seed, i)`, so the report is **bit-identical for every
/// thread count** (including 1) and across runs, per the workspace's
/// deterministic-parallelism rule (DESIGN.md, "Parallel execution"). An
/// ideal level draws nothing from its stream, and `rcs` itself is never
/// disturbed.
///
/// The scorer receives `(predictions, targets)` and returns the trial's
/// score; with `NonIdealFactors::ideal()` every trial is identical.
///
/// # Panics
///
/// Panics if `trials` is zero.
pub fn robustness<T, S>(
    pool: &ThreadPool,
    rcs: &T,
    data: &Dataset,
    factors: &NonIdealFactors,
    trials: usize,
    seed: u64,
    scorer: S,
) -> RobustnessReport
where
    T: Rcs + Clone + Send + Sync,
    S: Fn(&[Vec<f64>], &[Vec<f64>]) -> f64 + Sync,
{
    assert!(trials > 0, "robustness needs at least one trial");
    let variation = VariationModel::process_variation(factors.process_variation);
    let fluctuation = SignalFluctuation::new(factors.signal_fluctuation);
    let targets: Vec<Vec<f64>> = data.targets().to_vec();

    let trial_slots = vec![(); trials];
    let scores = pool.par_map(&trial_slots, |trial, ()| {
        let mut rng = StdRng::seed_from_u64(prng::substream(seed, trial as u64));
        let mut chip = rcs.clone();
        if !variation.is_ideal() {
            chip.disturb(&variation, &mut rng);
        }
        let predictions: Vec<Vec<f64>> = data
            .iter()
            .map(|(x, _)| chip.predict_noisy(x, &fluctuation, &mut rng))
            .collect();
        scorer(&predictions, &targets)
    });

    let mean = scores.iter().sum::<f64>() / trials as f64;
    let var = scores.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / trials as f64;
    RobustnessReport {
        mean,
        std_dev: var.sqrt(),
        min: scores.iter().cloned().fold(f64::INFINITY, f64::min),
        max: scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        trials,
    }
}

/// Mean-squared-error scorer for [`robustness`] — the default when no
/// application metric applies. It does the arithmetic of
/// [`evaluate_mse`], sample by sample in the same order.
#[must_use]
pub fn mse_scorer(predictions: &[Vec<f64>], targets: &[Vec<f64>]) -> f64 {
    let mut total = 0.0;
    for (p, t) in predictions.iter().zip(targets) {
        let se: f64 = p.iter().zip(t).map(|(a, b)| (a - b) * (a - b)).sum();
        total += se / t.len() as f64;
    }
    total / predictions.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adda::{AddaConfig, AddaRcs};
    use crate::digital::DigitalAnn;
    use crate::mei_arch::{MeiConfig, MeiRcs};
    use neural::TrainConfig;
    use prng::Rng;

    fn expfit_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::generate(n, &mut rng, |r| {
            let x: f64 = r.gen();
            (vec![x], vec![(-x * x).exp()])
        })
        .unwrap()
    }

    fn quick_train() -> TrainConfig {
        TrainConfig {
            epochs: 100,
            learning_rate: 1.0,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn digital_ann_is_noise_immune() {
        let data = expfit_data(200, 1);
        let ann = DigitalAnn::train(&data, 6, &quick_train(), 0).unwrap();
        let clean = evaluate_mse(&ann, &data);
        let report = robustness(
            &ThreadPool::new(2),
            &ann,
            &data,
            &NonIdealFactors::new(0.5, 0.5),
            5,
            7,
            mse_scorer,
        );
        assert!((report.mean - clean).abs() < 1e-12);
        // Identical trials up to variance-accumulation rounding.
        assert!(report.std_dev < 1e-15);
    }

    #[test]
    fn noisy_trials_degrade_analog_rcs() {
        let data = expfit_data(200, 2);
        let rcs = AddaRcs::train(
            &data,
            &AddaConfig {
                train: quick_train(),
                ..AddaConfig::default()
            },
        )
        .unwrap();
        let clean = evaluate_mse(&rcs, &data);
        let noisy = robustness(
            &ThreadPool::new(2),
            &rcs,
            &data,
            &NonIdealFactors::new(0.3, 0.2),
            10,
            3,
            mse_scorer,
        );
        assert!(
            noisy.mean > clean,
            "noise must hurt: {clean} vs {}",
            noisy.mean
        );
        assert!(noisy.std_dev > 0.0);
        assert!(noisy.min <= noisy.mean && noisy.mean <= noisy.max);
        // The system itself is untouched: every trial disturbed a clone.
        assert_eq!(evaluate_mse(&rcs, &data).to_bits(), clean.to_bits());
    }

    #[test]
    fn robustness_is_seeded() {
        let data = expfit_data(100, 3);
        let rcs = MeiRcs::train(&data, &MeiConfig::quick_test()).unwrap();
        let sigma = NonIdealFactors::new(0.2, 0.1);
        let pool = ThreadPool::new(2);
        let a = robustness(&pool, &rcs, &data, &sigma, 4, 11, mse_scorer);
        let b = robustness(&pool, &rcs, &data, &sigma, 4, 11, mse_scorer);
        assert_eq!(a, b);
    }

    #[test]
    fn evaluate_metric_passes_predictions_through() {
        let data = expfit_data(50, 4);
        let ann = DigitalAnn::train(&data, 4, &quick_train(), 1).unwrap();
        let count = evaluate_metric(&ann, &data, |p, t| {
            assert_eq!(p.len(), t.len());
            p.len() as f64
        });
        assert_eq!(count, 50.0);
    }

    #[test]
    fn ideal_factors_give_zero_variance() {
        let data = expfit_data(80, 5);
        let rcs = MeiRcs::train(&data, &MeiConfig::quick_test()).unwrap();
        let ideal = NonIdealFactors::ideal();
        let report = robustness(&ThreadPool::new(2), &rcs, &data, &ideal, 3, 0, mse_scorer);
        assert_eq!(report.std_dev, 0.0);
        assert_eq!(report.min, report.max);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let data = expfit_data(10, 6);
        let ann = DigitalAnn::train(&data, 2, &quick_train(), 0).unwrap();
        let ideal = NonIdealFactors::ideal();
        let _ = robustness(&ThreadPool::new(2), &ann, &data, &ideal, 0, 0, mse_scorer);
    }

    #[test]
    fn robustness_grows_with_process_variation() {
        let data = expfit_data(120, 7);
        let rcs = MeiRcs::train(&data, &MeiConfig::quick_test()).unwrap();
        let pool = ThreadPool::new(2);
        let mean_at = |sigma| {
            let factors = NonIdealFactors::process_only(sigma);
            robustness(&pool, &rcs, &data, &factors, 8, 3, mse_scorer).mean
        };
        assert!(mean_at(0.0) <= mean_at(0.4));
    }

    #[test]
    fn robustness_is_thread_count_invariant() {
        let data = expfit_data(80, 9);
        let rcs = MeiRcs::train(&data, &MeiConfig::quick_test()).unwrap();
        let sigma = NonIdealFactors::new(0.2, 0.1);
        let serial = robustness(&ThreadPool::new(1), &rcs, &data, &sigma, 6, 17, mse_scorer);
        for threads in [2, 4, 8] {
            let parallel = robustness(
                &ThreadPool::new(threads),
                &rcs,
                &data,
                &sigma,
                6,
                17,
                mse_scorer,
            );
            assert_eq!(serial.mean.to_bits(), parallel.mean.to_bits());
            assert_eq!(serial.std_dev.to_bits(), parallel.std_dev.to_bits());
            assert_eq!(serial.min.to_bits(), parallel.min.to_bits());
            assert_eq!(serial.max.to_bits(), parallel.max.to_bits());
        }
    }

    #[test]
    fn report_display_has_stats() {
        let r = RobustnessReport {
            mean: 0.1,
            std_dev: 0.01,
            min: 0.08,
            max: 0.12,
            trials: 9,
        };
        let s = r.to_string();
        assert!(s.contains("0.1") && s.contains('9'));
    }
}
