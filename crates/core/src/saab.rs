//! SAAB: Serial Array Adaptive Boosting (paper Algorithm 1).
//!
//! An AdaBoost variant customized for merged-interface RCS:
//!
//! * the per-learner error `ε_k` compares only the most significant `B_C`
//!   bits of each output group (relaxed error, line 6);
//! * the evaluation injects the non-ideal factors `σ` so "sensitive"
//!   samples count as hard ones (line 6);
//! * training samples for each new learner are drawn from the boosted
//!   distribution `p_n` (line 4);
//! * the ensemble answers by `α`-weighted voting over the learners' output
//!   bit patterns (line 10).
//!
//! The ensemble is a [`Network`] built once: the encoder, a vote layer
//! over the learners' bit-domain networks and the decoder. The pass's [`Drive`] reaches every learner in learner order.
//! The line-6 scoring runs a learner's same bit-domain network
//! ([`Network::forward_bits`]) under the injected factors.

use std::fmt;

use crossbar::SignalFluctuation;
use interface::InterfaceSpec;
use neural::Dataset;
use prng::rngs::StdRng;
use prng::{RngCore, SeedableRng};
use rram::{NonIdealFactors, VariationModel};
use runtime::ThreadPool;

use crate::analog::{AnalogWorkspace, Drive};
use crate::error::{InferError, TrainRcsError};
use crate::eval::Rcs;
use crate::mei_arch::{MeiConfig, MeiRcs};
use crate::network::{network_system, with_workspace, Layer, Network};

/// Error floor preventing `α → ∞` when a learner is perfect on the
/// weighted sample.
const EPSILON_FLOOR: f64 = 1e-6;

/// Configuration of a SAAB run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaabConfig {
    /// Number of boosting rounds `K` (learners trained).
    pub rounds: usize,
    /// `B_C`: most significant bits per output group compared when scoring
    /// a learner (the paper suggests 4–6 of 8).
    pub compare_bits: usize,
    /// Non-ideal factors injected while scoring learners (line 6).
    pub factors: NonIdealFactors,
    /// Training samples drawn per round (`None` = the dataset size).
    pub samples_per_round: Option<usize>,
    /// Fraction of output *groups* allowed to miss their top `B_C` bits
    /// while the sample still counts as correct. `0.0` (the default) is the
    /// paper's strict rule; wide-output benchmarks (e.g. JPEG's 64 groups)
    /// need a nonzero tolerance for any learner to beat chance — the same
    /// relaxation motivation the paper gives for `B_C` itself.
    pub group_error_tolerance: f64,
    /// RNG seed for resampling and noisy evaluation.
    pub seed: u64,
    /// Worker threads for per-sample learner scoring (line 6's noisy
    /// evaluation over the whole dataset) and for each learner's sharded
    /// backprop ([`neural::TrainConfig::threads`]); `0` means "auto"
    /// ([`std::thread::available_parallelism`], the default). Per the
    /// deterministic-parallelism rule every sample derives its stream from
    /// `(round_seed, sample_index)`, so the trained ensemble is
    /// bit-identical for every thread count.
    pub threads: usize,
}

impl Default for SaabConfig {
    fn default() -> Self {
        Self {
            rounds: 3,
            compare_bits: 5,
            factors: NonIdealFactors::ideal(),
            samples_per_round: None,
            group_error_tolerance: 0.0,
            seed: 0,
            threads: 0,
        }
    }
}

/// What one boosting round produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoostOutcome {
    /// A learner was added with the given weighted error and vote weight.
    Added {
        /// Weighted error `ε_k` under the non-ideal factors.
        error: f64,
        /// Vote weight `α_k = ½·ln((1−ε)/ε)`.
        alpha: f64,
    },
    /// The learner's weighted error reached 0.5 and it was discarded; the
    /// sample distribution was reset to uniform (AdaBoost.M1 handling).
    Discarded {
        /// The offending weighted error.
        error: f64,
    },
}

/// Incremental SAAB state: owns the boosted sample distribution so the
/// design space exploration can add one learner at a time (Algorithm 2,
/// lines 13–17).
#[derive(Debug)]
pub struct SaabTrainer {
    data: Dataset,
    encoded_targets: Vec<Vec<f64>>,
    mei_config: MeiConfig,
    config: SaabConfig,
    sample_weights: Vec<f64>,
    learners: Vec<(MeiRcs, f64)>,
    rng: StdRng,
    rounds_attempted: usize,
}

impl SaabTrainer {
    /// Start a SAAB run over an analog-valued dataset.
    ///
    /// # Errors
    ///
    /// Returns [`TrainRcsError::InvalidConfig`] if `compare_bits` is zero or
    /// exceeds the output bit width, or `rounds` is zero.
    pub fn new(
        data: &Dataset,
        mei_config: &MeiConfig,
        config: &SaabConfig,
    ) -> Result<Self, TrainRcsError> {
        if config.rounds == 0 {
            return Err(TrainRcsError::InvalidConfig(
                "SAAB needs at least one round".into(),
            ));
        }
        if config.compare_bits == 0 || config.compare_bits > mei_config.out_bits {
            return Err(TrainRcsError::InvalidConfig(format!(
                "compare_bits must be in 1..={}, got {}",
                mei_config.out_bits, config.compare_bits
            )));
        }
        if !(0.0..1.0).contains(&config.group_error_tolerance) {
            return Err(TrainRcsError::InvalidConfig(format!(
                "group error tolerance must be in [0, 1), got {}",
                config.group_error_tolerance
            )));
        }
        let output_spec = InterfaceSpec::new(data.output_dim(), mei_config.out_bits);
        let encoded_targets: Vec<Vec<f64>> = data
            .targets()
            .iter()
            .map(|y| output_spec.encode(y))
            .collect();
        Ok(Self {
            data: data.clone(),
            encoded_targets,
            mei_config: *mei_config,
            config: *config,
            sample_weights: vec![1.0 / data.len() as f64; data.len()],
            learners: Vec::new(),
            rng: StdRng::seed_from_u64(config.seed),
            rounds_attempted: 0,
        })
    }

    /// Learners accepted so far.
    #[must_use]
    pub fn learner_count(&self) -> usize {
        self.learners.len()
    }

    /// The current (unnormalized) sample weights `w_n`.
    #[must_use]
    pub fn sample_weights(&self) -> &[f64] {
        &self.sample_weights
    }

    /// Run one boosting round (Algorithm 1, lines 3–8).
    ///
    /// # Errors
    ///
    /// Propagates training errors from the underlying [`MeiRcs::train`].
    pub fn boost(&mut self) -> Result<BoostOutcome, TrainRcsError> {
        self.rounds_attempted += 1;
        // Line 3–4: normalize the distribution and draw this round's sample.
        // The first round's distribution is uniform, whose expectation is the
        // original dataset itself — train on it directly rather than on a
        // bootstrap draw, so the anchor learner sees every sample once.
        let n = self.config.samples_per_round.unwrap_or(self.data.len());
        let uniform = self.sample_weights.windows(2).all(|w| w[0] == w[1]);
        let round_data = if uniform && n >= self.data.len() {
            self.data.clone()
        } else {
            self.data
                .resample_weighted(&self.sample_weights, n, &mut self.rng)
        };

        // Line 5: train the new learner (fresh init per round).
        let mut cfg = self.mei_config;
        cfg.seed = self
            .mei_config
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(self.rounds_attempted as u64));
        cfg.train.seed = cfg.seed;
        cfg.train.threads = self.config.threads;
        let mut learner = MeiRcs::train(&round_data, &cfg)?;

        // Line 6: weighted error under the non-ideal factors, comparing the
        // top B_C bits of every output group.
        let correct = self.evaluate_correctness(&mut learner);
        let total_weight: f64 = self.sample_weights.iter().sum();
        let mut epsilon = 0.0;
        for (w, ok) in self.sample_weights.iter().zip(&correct) {
            if !ok {
                epsilon += w / total_weight;
            }
        }

        if epsilon >= 0.5 {
            // A learner no better than chance would get a non-positive vote;
            // discard it and restart from the uniform distribution.
            let uniform = 1.0 / self.data.len() as f64;
            self.sample_weights.fill(uniform);
            return Ok(BoostOutcome::Discarded { error: epsilon });
        }
        let epsilon_safe = epsilon.max(EPSILON_FLOOR);

        // Line 7: the learner's vote weight.
        let alpha = 0.5 * ((1.0 - epsilon_safe) / epsilon_safe).ln();

        // Line 8: re-weight the samples.
        for (w, ok) in self.sample_weights.iter_mut().zip(&correct) {
            *w *= if *ok { (-alpha).exp() } else { alpha.exp() };
        }

        self.learners.push((learner, alpha));
        Ok(BoostOutcome::Added {
            error: epsilon,
            alpha,
        })
    }

    /// The ensemble built from the accepted learners.
    ///
    /// # Panics
    ///
    /// Panics if no learner has been accepted yet.
    #[must_use]
    pub fn ensemble(&self) -> Saab {
        assert!(!self.learners.is_empty(), "no accepted learners yet");
        Saab::from_learners(self.learners.clone())
    }

    /// Per-sample correctness of a learner on the top `B_C` bits of every
    /// output group, evaluated under the configured non-ideal factors.
    ///
    /// Scoring is embarrassingly parallel over samples and runs on
    /// [`SaabConfig::threads`] workers: the trainer's stream contributes
    /// one draw (the round's evaluation seed), and sample `i` derives its
    /// own generator from `(eval_seed, i)` — so the correctness vector,
    /// and with it the whole boosted ensemble, is bit-identical for every
    /// thread count.
    fn evaluate_correctness(&mut self, learner: &mut MeiRcs) -> Vec<bool> {
        let factors = self.config.factors;
        let variation = VariationModel::process_variation(factors.process_variation);
        let fluctuation = SignalFluctuation::new(factors.signal_fluctuation);
        if !variation.is_ideal() {
            learner.disturb(&variation, &mut self.rng);
        }
        let eval_seed = self.rng.next_u64();
        let out_bits = learner.output_spec().bits();
        let groups = learner.output_spec().groups();
        let bc = self.config.compare_bits.min(out_bits);
        let allowed_wrong = (self.config.group_error_tolerance * groups as f64).floor() as usize;
        let in_spec = learner.input_spec();
        let pool = ThreadPool::new(self.config.threads);
        let encoded_targets = &self.encoded_targets;
        let scored: &MeiRcs = learner;
        let correct: Vec<bool> = pool.par_map(self.data.inputs(), |i, x| {
            let target_bits = &encoded_targets[i];
            let mut rng: StdRng = prng::substream_rng(eval_seed, i as u64);
            let bits_in = in_spec.encode(x);
            let mut drive = Drive::Fluctuating(&fluctuation, &mut rng);
            let out = with_workspace(|ws| scored.network().forward_bits(&bits_in, &mut drive, ws))
                .expect("validated input");
            let wrong_groups = (0..groups)
                .filter(|g| {
                    let base = g * out_bits;
                    (0..bc).any(|b| out[base + b] != target_bits[base + b])
                })
                .count();
            wrong_groups <= allowed_wrong
        });
        if !variation.is_ideal() {
            learner.restore();
        }
        correct
    }
}

/// A trained SAAB ensemble: `K` merged-interface RCSs voting with weights
/// `α_k` (Algorithm 1, line 10).
#[derive(Debug, Clone)]
pub struct Saab {
    network: Network,
}

impl Saab {
    /// Encode, vote, decode (every learner shares both interfaces).
    fn from_learners(learners: Vec<(MeiRcs, f64)>) -> Saab {
        let (input, output) = learners[0].0.network().interfaces();
        let layers = vec![
            Layer::Encode(input),
            Layer::Vote(learners),
            Layer::Decode(output),
        ];
        Saab {
            network: Network::new(input.groups(), layers),
        }
    }

    /// The learners and their vote weights, in learner order.
    fn votes(&self) -> &[(MeiRcs, f64)] {
        let [_, Layer::Vote(learners), _] = self.network.layers() else {
            unreachable!("a SAAB network is encode, vote, decode");
        };
        learners
    }

    /// Train a complete ensemble by running `config.rounds` boosting rounds.
    ///
    /// Discarded rounds (learners at chance level) do not add learners; the
    /// final ensemble holds only accepted ones.
    ///
    /// # Errors
    ///
    /// Returns [`TrainRcsError`] if configuration or training fails, or if
    /// *no* round produced an acceptable learner.
    pub fn train(
        data: &Dataset,
        mei_config: &MeiConfig,
        config: &SaabConfig,
    ) -> Result<Self, TrainRcsError> {
        let mut trainer = SaabTrainer::new(data, mei_config, config)?;
        for _ in 0..config.rounds {
            let _ = trainer.boost()?;
        }
        if trainer.learner_count() == 0 {
            return Err(TrainRcsError::InvalidConfig(
                "every SAAB round was discarded (learners at chance level)".into(),
            ));
        }
        Ok(trainer.ensemble())
    }

    /// Number of learners.
    #[must_use]
    pub fn len(&self) -> usize {
        self.votes().len()
    }

    /// Whether the ensemble is empty (never true for a trained ensemble).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.votes().is_empty()
    }

    /// The vote weights `α_k`.
    #[must_use]
    pub fn alphas(&self) -> Vec<f64> {
        self.votes().iter().map(|(_, a)| *a).collect()
    }

    /// The individual learners.
    #[must_use]
    pub fn learners(&self) -> Vec<&MeiRcs> {
        self.votes().iter().map(|(l, _)| l).collect()
    }

    /// The shared input interface.
    #[must_use]
    pub fn input_spec(&self) -> InterfaceSpec {
        self.network.interfaces().0
    }

    /// The shared output interface.
    #[must_use]
    pub fn output_spec(&self) -> InterfaceSpec {
        self.network.interfaces().1
    }

    /// Binary-domain ensemble inference: every learner predicts in parallel
    /// (physically), then the digital side tallies the `α`-weighted vote
    /// over complete output bit patterns.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::InputLength`] on a wrong-sized input.
    pub fn infer_bits(&self, bits: &[f64]) -> Result<Vec<f64>, InferError> {
        self.network
            .forward_bits(bits, &mut Drive::Ideal, &mut AnalogWorkspace::new())
    }

    /// Analog-domain convenience: encode, vote, decode.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::InputLength`] on a wrong-sized input.
    pub fn infer(&self, x: &[f64]) -> Result<Vec<f64>, InferError> {
        self.network.infer(x)
    }

    /// A uniformly-pruned ensemble: every learner loses the same LSB ports
    /// (see [`MeiRcs::pruned`]).
    ///
    /// # Errors
    ///
    /// Propagates the per-learner pruning errors.
    pub fn pruned(&self, in_prune: usize, out_prune: usize) -> Result<Saab, TrainRcsError> {
        let learners = self
            .votes()
            .iter()
            .map(|(l, a)| Ok((l.pruned(in_prune, out_prune)?, *a)))
            .collect::<Result<Vec<_>, TrainRcsError>>()?;
        Ok(Saab::from_learners(learners))
    }
}

impl fmt::Display for Saab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SAAB ensemble of {} MEI RCSs", self.len())
    }
}

// A SAAB chip is its learners side by side: one inference evaluates
// every (non-pruned) learner, so the sheets sum in learner order.
network_system!(Saab, |saab| Some(crate::serve::mei_sheet(
    saab.votes().iter().map(|(learner, _)| learner.topology())
)));

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_mse;
    use prng::Rng;

    fn expfit_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::generate(n, &mut rng, |r| {
            let x: f64 = r.gen();
            (vec![x], vec![(-x * x).exp()])
        })
        .unwrap()
    }

    fn quick_saab(rounds: usize) -> SaabConfig {
        SaabConfig {
            rounds,
            compare_bits: 4,
            ..SaabConfig::default()
        }
    }

    #[test]
    fn trainer_validates_config() {
        let data = expfit_data(50, 1);
        let mei = MeiConfig::quick_test();
        assert!(SaabTrainer::new(&data, &mei, &quick_saab(0)).is_err());
        assert!(SaabTrainer::new(
            &data,
            &mei,
            &SaabConfig {
                compare_bits: 0,
                ..quick_saab(1)
            }
        )
        .is_err());
        assert!(SaabTrainer::new(
            &data,
            &mei,
            &SaabConfig {
                compare_bits: 7,
                ..quick_saab(1)
            } // out_bits = 6
        )
        .is_err());
    }

    #[test]
    fn boosting_adds_learners_and_reweights() {
        let data = expfit_data(300, 2);
        let mut trainer =
            SaabTrainer::new(&data, &MeiConfig::quick_test(), &quick_saab(2)).unwrap();
        let before: Vec<f64> = trainer.sample_weights().to_vec();
        match trainer.boost().unwrap() {
            BoostOutcome::Added { error, alpha } => {
                assert!(error < 0.5);
                assert!(alpha > 0.0);
            }
            BoostOutcome::Discarded { error } => panic!("first learner discarded at ε={error}"),
        }
        assert_eq!(trainer.learner_count(), 1);
        assert_ne!(trainer.sample_weights(), before.as_slice());
    }

    #[test]
    fn misclassified_samples_gain_weight() {
        let data = expfit_data(300, 3);
        let mut trainer =
            SaabTrainer::new(&data, &MeiConfig::quick_test(), &quick_saab(1)).unwrap();
        let uniform = trainer.sample_weights()[0];
        trainer.boost().unwrap();
        let weights = trainer.sample_weights();
        // Weights split into exactly two levels: e^{-α}·u (correct) and
        // e^{α}·u (wrong), with wrong > uniform > correct.
        let min = weights.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = weights.iter().cloned().fold(0.0, f64::max);
        assert!(min < uniform, "correct samples should lose weight");
        assert!(max > uniform, "hard samples should gain weight");
    }

    #[test]
    fn ensemble_votes_and_matches_reasonable_accuracy() {
        let data = expfit_data(500, 4);
        let saab = Saab::train(&data, &MeiConfig::quick_test(), &quick_saab(3)).unwrap();
        assert!(!saab.is_empty());
        assert!(saab.alphas().iter().all(|&a| a > 0.0));
        let test = expfit_data(150, 5);
        let mse = evaluate_mse(&saab, &test);
        assert!(mse < 0.05, "ensemble MSE {mse}");
    }

    #[test]
    fn ensemble_is_at_least_as_good_as_worst_learner() {
        let data = expfit_data(500, 6);
        let test = expfit_data(150, 7);
        let saab = Saab::train(&data, &MeiConfig::quick_test(), &quick_saab(3)).unwrap();
        let ensemble_mse = evaluate_mse(&saab, &test);
        let worst = saab
            .learners()
            .iter()
            .map(|l| evaluate_mse(*l, &test))
            .fold(0.0f64, f64::max);
        assert!(
            ensemble_mse <= worst * 1.5 + 1e-6,
            "ensemble {ensemble_mse} much worse than worst learner {worst}"
        );
    }

    #[test]
    fn groups_vote_independently() {
        // Learner A is right on group 0, learner B on group 1; per-group
        // voting should combine the best of both when weights tie toward
        // each (here equal α, tie-break favours the larger pattern per
        // group — so each group resolves independently of the other).
        let data = expfit_data(300, 20);
        let saab = Saab::train(
            &data,
            &MeiConfig::quick_test(),
            &SaabConfig {
                rounds: 2,
                compare_bits: 4,
                ..SaabConfig::default()
            },
        )
        .unwrap();
        // Single-group output here; just confirm ensemble output decodes to
        // the same width as a learner's.
        let bits = saab.infer_bits(&saab.input_spec().encode(&[0.5])).unwrap();
        assert_eq!(bits.len(), saab.output_spec().ports());
    }

    #[test]
    fn noisy_factors_in_scoring_change_weights() {
        let data = expfit_data(200, 8);
        let mei = MeiConfig::quick_test();
        let clean = SaabConfig {
            rounds: 1,
            compare_bits: 4,
            ..SaabConfig::default()
        };
        let noisy = SaabConfig {
            factors: NonIdealFactors::new(0.3, 0.2),
            ..clean
        };
        let mut t1 = SaabTrainer::new(&data, &mei, &clean).unwrap();
        let mut t2 = SaabTrainer::new(&data, &mei, &noisy).unwrap();
        let o1 = t1.boost().unwrap();
        let o2 = t2.boost().unwrap();
        let e1 = match o1 {
            BoostOutcome::Added { error, .. } | BoostOutcome::Discarded { error } => error,
        };
        let e2 = match o2 {
            BoostOutcome::Added { error, .. } | BoostOutcome::Discarded { error } => error,
        };
        assert!(
            e2 >= e1,
            "noisy scoring should not reduce error: {e1} vs {e2}"
        );
    }

    #[test]
    fn training_is_bit_identical_for_every_thread_count() {
        let data = expfit_data(250, 30);
        let train_at = |threads: usize| {
            let saab = Saab::train(
                &data,
                &MeiConfig::quick_test(),
                &SaabConfig {
                    threads,
                    factors: NonIdealFactors::new(0.2, 0.1),
                    ..quick_saab(2)
                },
            )
            .unwrap();
            let alphas: Vec<u64> = saab.alphas().iter().map(|a| a.to_bits()).collect();
            let probe: Vec<u64> = saab
                .infer(&[0.4])
                .unwrap()
                .iter()
                .map(|y| y.to_bits())
                .collect();
            (alphas, probe)
        };
        let serial = train_at(1);
        for threads in [2, 8] {
            assert_eq!(train_at(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn saab_implements_rcs_with_restore() {
        let data = expfit_data(200, 9);
        let mut saab = Saab::train(&data, &MeiConfig::quick_test(), &quick_saab(2)).unwrap();
        let clean = evaluate_mse(&saab, &data);
        let mut rng = StdRng::seed_from_u64(10);
        Rcs::disturb(&mut saab, &VariationModel::process_variation(0.4), &mut rng);
        Rcs::restore(&mut saab);
        assert!((evaluate_mse(&saab, &data) - clean).abs() < 1e-12);
    }

    #[test]
    fn pruned_ensemble_shrinks_every_learner() {
        let data = expfit_data(200, 11);
        let saab = Saab::train(&data, &MeiConfig::quick_test(), &quick_saab(2)).unwrap();
        let pruned = saab.pruned(1, 2).unwrap();
        assert_eq!(pruned.input_spec().bits(), 5);
        assert_eq!(pruned.output_spec().bits(), 4);
        assert_eq!(pruned.len(), saab.len());
    }

    #[test]
    fn display_mentions_size() {
        let data = expfit_data(150, 12);
        let saab = Saab::train(&data, &MeiConfig::quick_test(), &quick_saab(1)).unwrap();
        assert!(saab.to_string().contains("SAAB ensemble of 1"));
    }
}
