//! Design space exploration (paper Algorithm 2 and §4).
//!
//! Converts a traditional AD/DA RCS into a merged-interface design under
//! accuracy *and* robustness requirements, trading the saved area/power
//! for SAAB learners or a wider hidden layer:
//!
//! 1. search a proper hidden-layer size by the error change rate (Eq 8);
//! 2. bound the ensemble size by the original architecture's area/power
//!    budget (Eq 9, `K_max`);
//! 3. grow a SAAB ensemble learner by learner, each round also training a
//!    single RCS with the equivalent `H·K` hidden layer and keeping the
//!    better of the two (lines 13–19);
//! 4. prune interface LSBs within the quality guarantee (line 22).

use std::fmt;

use interface::cost::{AddaTopology, CostModel};
use neural::Dataset;
use rram::NonIdealFactors;
use runtime::ThreadPool;

use crate::error::TrainRcsError;
use crate::eval::{evaluate_mse, mse_scorer, robustness, Rcs};
use crate::mei_arch::{MeiConfig, MeiRcs};
use crate::prune::prune_to_requirement;
use crate::saab::{Saab, SaabConfig, SaabTrainer};

/// How the hidden-layer search grows the candidate size (Algorithm 2,
/// line 1: "linear or exponential searching steps").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HiddenGrowth {
    /// Add a fixed number of nodes per step.
    Linear(usize),
    /// Double the size per step.
    Exponential,
}

impl HiddenGrowth {
    fn next(&self, hidden: usize) -> usize {
        match self {
            HiddenGrowth::Linear(step) => hidden + step.max(&1),
            HiddenGrowth::Exponential => hidden * 2,
        }
    }
}

/// Configuration of the exploration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DseConfig {
    /// Starting hidden size `H_i`.
    pub initial_hidden: usize,
    /// Growth schedule of the hidden search.
    pub growth: HiddenGrowth,
    /// Upper bound on the hidden size of the line-1 search. The
    /// equivalent single network of line 18 has `H·K` hidden nodes, as in
    /// the paper, whatever this bound.
    pub max_hidden: usize,
    /// Change-rate threshold `η` stopping the hidden search (Eq 8; the paper
    /// suggests 5%).
    pub change_rate_threshold: f64,
    /// Accuracy requirement `ε`: maximum clean test MSE.
    pub max_error: f64,
    /// Robustness requirement (the paper's `γ` recast as an error bound):
    /// maximum mean test MSE under the non-ideal factors.
    pub max_noisy_error: f64,
    /// The non-ideal factor levels `σ`.
    pub factors: NonIdealFactors,
    /// Monte-Carlo trials per robustness evaluation.
    pub robustness_trials: usize,
    /// `B_C` for the SAAB error relaxation.
    pub compare_bits: usize,
    /// Prune interface LSBs after selection (line 22).
    pub prune: bool,
    /// Seed for every stochastic step.
    pub seed: u64,
    /// Worker threads for robustness trials, SAAB learner scoring and
    /// sharded backprop inside the exploration; `0` means "auto". Results
    /// are bit-identical for any value.
    pub threads: usize,
}

impl Default for DseConfig {
    fn default() -> Self {
        Self {
            initial_hidden: 8,
            growth: HiddenGrowth::Exponential,
            max_hidden: 256,
            change_rate_threshold: 0.05,
            max_error: 0.01,
            max_noisy_error: 0.02,
            factors: NonIdealFactors::ideal(),
            robustness_trials: 10,
            compare_bits: 5,
            prune: true,
            seed: 0,
            threads: 0,
        }
    }
}

/// The design the exploration selected.
///
/// (The variants intentionally hold the full systems by value — the result
/// is created once per exploration, so the size difference is irrelevant.)
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum DseDesign {
    /// A single merged-interface RCS.
    Single(MeiRcs),
    /// A SAAB ensemble.
    Ensemble(Saab),
}

impl DseDesign {
    /// Number of RCS arrays in the design.
    #[must_use]
    pub fn learner_count(&self) -> usize {
        match self {
            DseDesign::Single(_) => 1,
            DseDesign::Ensemble(s) => s.len(),
        }
    }

    /// A shared reference to the design as an evaluable [`Rcs`].
    #[must_use]
    pub fn as_rcs(&self) -> &dyn Rcs {
        match self {
            DseDesign::Single(r) => r,
            DseDesign::Ensemble(s) => s,
        }
    }
}

/// The exploration outcome.
#[derive(Debug, Clone)]
pub struct DseResult {
    /// The selected design (the best found, even when infeasible).
    pub design: DseDesign,
    /// Whether both requirements were met ("Mission Impossible" otherwise).
    pub feasible: bool,
    /// Clean test MSE of the selected design.
    pub error: f64,
    /// Mean test MSE under the non-ideal factors.
    pub noisy_error: f64,
    /// Hidden size selected by the Eq (8) search.
    pub hidden: usize,
    /// Ensemble budget from Eq (9).
    pub k_max: usize,
    /// Fractional area saved relative to the AD/DA architecture (accounting
    /// for all learners).
    pub area_saving: f64,
    /// Fractional power saved.
    pub power_saving: f64,
    /// Human-readable trace of every decision.
    pub log: Vec<String>,
}

impl fmt::Display for DseResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} design: {} learner(s), hidden {}, MSE {:.5} (noisy {:.5}), area saved {:.1}%, power saved {:.1}%",
            if self.feasible { "feasible" } else { "INFEASIBLE" },
            self.design.learner_count(),
            self.hidden,
            self.error,
            self.noisy_error,
            100.0 * self.area_saving,
            100.0 * self.power_saving,
        )
    }
}

/// The robustness requirement's measure: the mean test MSE of `rcs` over
/// the configured Monte-Carlo trials.
fn noisy_mse<T: Rcs + Clone + Send + Sync>(rcs: &T, test: &Dataset, config: &DseConfig) -> f64 {
    robustness(
        &ThreadPool::new(config.threads),
        rcs,
        test,
        &config.factors,
        config.robustness_trials,
        config.seed,
        mse_scorer,
    )
    .mean
}

/// Run the Algorithm 2 exploration.
///
/// `adda` describes the traditional architecture being replaced (its cost is
/// the budget); `mei_base` carries the training hyperparameters, device and
/// bit-width choices (its `hidden` field is overridden by the search).
///
/// # Errors
///
/// Propagates training and configuration errors.
pub fn explore(
    train: &Dataset,
    test: &Dataset,
    adda: &AddaTopology,
    mei_base: &MeiConfig,
    config: &DseConfig,
    cost: &CostModel,
) -> Result<DseResult, TrainRcsError> {
    if config.initial_hidden == 0 || config.max_hidden < config.initial_hidden {
        return Err(TrainRcsError::InvalidConfig(
            "hidden search bounds must satisfy 0 < initial ≤ max".into(),
        ));
    }
    let mut log = Vec::new();

    // ---- Line 1: hidden-layer search by error change rate (Eq 8). ----
    let train_at = |hidden: usize, seed: u64| -> Result<MeiRcs, TrainRcsError> {
        let mut cfg = *mei_base;
        cfg.hidden = hidden;
        cfg.seed = seed;
        cfg.train.seed = seed;
        cfg.train.threads = config.threads;
        MeiRcs::train(train, &cfg)
    };
    let mut hidden = config.initial_hidden;
    let mut rcs = train_at(hidden, config.seed)?;
    let mut mse = evaluate_mse(&rcs, test);
    log.push(format!("hidden search: H={hidden} → MSE {mse:.6}"));
    loop {
        let next = config.growth.next(hidden);
        if next > config.max_hidden {
            log.push(format!(
                "hidden search stopped at cap {}",
                config.max_hidden
            ));
            break;
        }
        let candidate = train_at(next, config.seed)?;
        let next_mse = evaluate_mse(&candidate, test);
        let eta = ((next_mse - mse) / mse).abs();
        log.push(format!(
            "hidden search: H={next} → MSE {next_mse:.6} (η={eta:.3})"
        ));
        if next_mse < mse {
            rcs = candidate;
            mse = next_mse;
            hidden = next;
        }
        if eta < config.change_rate_threshold {
            log.push(format!(
                "change rate below {} — H={hidden} selected",
                config.change_rate_threshold
            ));
            break;
        }
        if next_mse >= mse && next != hidden {
            // Growing stopped helping; keep the smaller design.
            log.push(format!("no improvement at H={next} — H={hidden} selected"));
            break;
        }
    }

    // ---- Line 2: the Eq (9) ensemble budget. ----
    let mei_topology = rcs.topology();
    let k_max = cost.k_max(adda, &mei_topology);
    log.push(format!("K_max = {k_max} (area/power budget of {adda})"));

    // ---- Lines 3–6: does a single RCS already satisfy both requirements?
    let mut noisy_error = noisy_mse(&rcs, test, config);
    log.push(format!("single RCS: MSE {mse:.6}, noisy {noisy_error:.6}"));

    let mut design = DseDesign::Single(rcs.clone());
    let mut error = mse;
    let mut feasible = mse <= config.max_error && noisy_error <= config.max_noisy_error;

    // ---- Lines 9–20: grow SAAB vs a wider single network. ----
    if !feasible && k_max >= 2 {
        let saab_cfg = SaabConfig {
            rounds: k_max,
            compare_bits: config.compare_bits.min(mei_base.out_bits),
            factors: config.factors,
            samples_per_round: None,
            group_error_tolerance: 0.0,
            seed: config.seed,
            threads: config.threads,
        };
        let mut trainer = SaabTrainer::new(
            train,
            &{
                let mut cfg = *mei_base;
                cfg.hidden = hidden;
                cfg
            },
            &saab_cfg,
        )?;

        for k in 2..=k_max {
            let _ = trainer.boost()?;
            if trainer.learner_count() == 0 {
                continue;
            }
            let ensemble = trainer.ensemble();
            let ens_error = evaluate_mse(&ensemble, test);
            let ens_noisy = noisy_mse(&ensemble, test, config);
            log.push(format!(
                "K={k}: SAAB({}) MSE {ens_error:.6}, noisy {ens_noisy:.6}",
                trainer.learner_count()
            ));

            // Line 18: the equivalent single RCS with hidden H·K.
            let wide_hidden = hidden * k;
            let wide = train_at(wide_hidden, config.seed.wrapping_add(k as u64))?;
            let wide_error = evaluate_mse(&wide, test);
            let wide_noisy = noisy_mse(&wide, test, config);
            log.push(format!(
                "K={k}: wide single (H={wide_hidden}) MSE {wide_error:.6}, noisy {wide_noisy:.6}"
            ));

            // Line 19: keep the better candidate; prefer the single network
            // when performance is similar (it saves output-side hardware).
            let saab_score = ens_error + ens_noisy;
            let wide_score = wide_error + wide_noisy;
            let (cand, cand_err, cand_noisy): (DseDesign, f64, f64) =
                if wide_score <= saab_score * 1.05 {
                    (DseDesign::Single(wide), wide_error, wide_noisy)
                } else {
                    (DseDesign::Ensemble(ensemble), ens_error, ens_noisy)
                };
            if cand_err + cand_noisy < error + noisy_error {
                design = cand;
                error = cand_err;
                noisy_error = cand_noisy;
            }
            if error <= config.max_error && noisy_error <= config.max_noisy_error {
                feasible = true;
                log.push(format!("requirements met at K={k}"));
                break;
            }
        }
        if !feasible {
            log.push("Mission Impossible: requirements unmet within K_max".into());
        }
    } else if !feasible {
        log.push("Mission Impossible: no ensemble budget (K_max < 2)".into());
    }

    // ---- Line 22: prune interface LSBs within the quality guarantee. ----
    if config.prune {
        let budget = if feasible {
            config.max_error
        } else {
            error.max(config.max_error)
        };
        match &design {
            DseDesign::Single(r) => {
                let report = prune_to_requirement(r, test, budget)?;
                if report.inputs_pruned + report.outputs_pruned > 0 {
                    log.push(format!(
                        "pruned {} input / {} output LSBs → {}",
                        report.inputs_pruned,
                        report.outputs_pruned,
                        report.rcs.topology()
                    ));
                    error = report.mse;
                    design = DseDesign::Single(report.rcs);
                }
            }
            DseDesign::Ensemble(s) => {
                // Uniform pruning across learners, verified at ensemble level.
                let mut best: Option<(Saab, usize, f64)> = None;
                for p in 1..s.output_spec().bits() {
                    let candidate = s.pruned(0, p)?;
                    let m = evaluate_mse(&candidate, test);
                    if m <= budget {
                        best = Some((candidate, p, m));
                    } else {
                        break;
                    }
                }
                if let Some((pruned, p, m)) = best {
                    log.push(format!("pruned {p} output LSBs from every learner"));
                    error = m;
                    design = DseDesign::Ensemble(pruned);
                }
            }
        }
    }

    let (final_topology, learners) = match &design {
        DseDesign::Single(r) => (r.topology(), 1),
        DseDesign::Ensemble(s) => (s.learners()[0].topology(), s.len()),
    };
    let area_saving = 1.0 - learners as f64 * cost.area_mei(&final_topology) / cost.area_adda(adda);
    let power_saving =
        1.0 - learners as f64 * cost.power_mei(&final_topology) / cost.power_adda(adda);

    Ok(DseResult {
        design,
        feasible,
        error,
        noisy_error,
        hidden,
        k_max,
        area_saving,
        power_saving,
        log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prng::rngs::StdRng;
    use prng::{Rng, SeedableRng};

    fn expfit_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::generate(n, &mut rng, |r| {
            let x: f64 = r.gen();
            (vec![x], vec![(-x * x).exp()])
        })
        .unwrap()
    }

    fn quick_mei() -> MeiConfig {
        MeiConfig::quick_test()
    }

    fn quick_dse() -> DseConfig {
        DseConfig {
            initial_hidden: 8,
            max_hidden: 32,
            max_error: 0.02,
            max_noisy_error: 0.05,
            robustness_trials: 2,
            compare_bits: 4,
            ..DseConfig::default()
        }
    }

    #[test]
    fn growth_schedules() {
        assert_eq!(HiddenGrowth::Linear(4).next(8), 12);
        assert_eq!(HiddenGrowth::Exponential.next(8), 16);
        assert_eq!(
            HiddenGrowth::Linear(0).next(8),
            9,
            "zero step still advances"
        );
    }

    #[test]
    fn explore_finds_feasible_expfit_design() {
        let train = expfit_data(500, 1);
        let test = expfit_data(200, 2);
        let adda = AddaTopology::new(1, 8, 1, 8);
        let result = explore(
            &train,
            &test,
            &adda,
            &quick_mei(),
            &quick_dse(),
            &CostModel::dac2015(),
        )
        .unwrap();
        assert!(result.feasible, "log: {:?}", result.log);
        assert!(result.error <= 0.02);
        assert!(result.area_saving > 0.0, "MEI should save area");
        assert!(!result.log.is_empty());
    }

    #[test]
    fn impossible_requirements_are_reported() {
        let train = expfit_data(300, 3);
        let test = expfit_data(100, 4);
        let adda = AddaTopology::new(1, 8, 1, 8);
        let cfg = DseConfig {
            max_error: 1e-12, // unreachable
            max_noisy_error: 1e-12,
            ..quick_dse()
        };
        let result = explore(
            &train,
            &test,
            &adda,
            &quick_mei(),
            &cfg,
            &CostModel::dac2015(),
        )
        .unwrap();
        assert!(!result.feasible);
        assert!(result.log.iter().any(|l| l.contains("Mission Impossible")));
    }

    #[test]
    fn invalid_bounds_rejected() {
        let train = expfit_data(50, 5);
        let test = expfit_data(20, 6);
        let adda = AddaTopology::new(1, 8, 1, 8);
        let cfg = DseConfig {
            initial_hidden: 16,
            max_hidden: 8,
            ..quick_dse()
        };
        assert!(explore(
            &train,
            &test,
            &adda,
            &quick_mei(),
            &cfg,
            &CostModel::dac2015()
        )
        .is_err());
    }

    #[test]
    fn result_display_is_informative() {
        let train = expfit_data(300, 7);
        let test = expfit_data(100, 8);
        let adda = AddaTopology::new(1, 8, 1, 8);
        let result = explore(
            &train,
            &test,
            &adda,
            &quick_mei(),
            &quick_dse(),
            &CostModel::dac2015(),
        )
        .unwrap();
        let s = result.to_string();
        assert!(s.contains("MSE") && s.contains("saved"));
    }

    #[test]
    fn design_accessors() {
        let train = expfit_data(300, 9);
        let test = expfit_data(100, 10);
        let adda = AddaTopology::new(1, 8, 1, 8);
        let result = explore(
            &train,
            &test,
            &adda,
            &quick_mei(),
            &quick_dse(),
            &CostModel::dac2015(),
        )
        .unwrap();
        assert!(result.design.learner_count() >= 1);
        let y = result.design.as_rcs().infer(&[0.5]);
        assert_eq!(y.len(), 1);
    }
}
