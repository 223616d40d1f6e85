//! Markdown report generation for a trained system.
//!
//! Downstream users evaluating a candidate MEI deployment want one artifact
//! that captures accuracy, cost, and physical diagnostics together;
//! [`system_report`] renders exactly that, suitable for dropping into a PR
//! or design review.

use std::fmt::Write as _;

use interface::cost::{AddaTopology, CostModel};
use neural::Dataset;
use runtime::ThreadPool;

use crate::diagnostics::{analog_fidelity, comparator_margins};
use crate::eval::{evaluate_mse, mse_scorer, robustness};
use crate::mei_arch::MeiRcs;
use crate::NonIdealFactors;

/// Options controlling the report's evaluations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportConfig {
    /// The traditional architecture the design replaces (for the cost
    /// comparison).
    pub baseline: AddaTopology,
    /// Non-ideal factor level for the robustness row.
    pub factors: NonIdealFactors,
    /// Monte-Carlo trials for the robustness row.
    pub trials: usize,
    /// Probe count for the analog-fidelity row.
    pub fidelity_probes: usize,
    /// Seed for every stochastic evaluation.
    pub seed: u64,
}

impl Default for ReportConfig {
    fn default() -> Self {
        Self {
            baseline: AddaTopology::new(1, 8, 1, 8),
            factors: NonIdealFactors::new(0.1, 0.05),
            trials: 20,
            fidelity_probes: 50,
            seed: 0,
        }
    }
}

/// Render a markdown report for a trained merged-interface system over a
/// held-out test set.
///
/// # Panics
///
/// Panics if the test set's dimensions don't match the system.
#[must_use]
pub fn system_report(rcs: &MeiRcs, test: &Dataset, config: &ReportConfig) -> String {
    let cost = CostModel::dac2015();
    let topology = rcs.topology();
    let mse = evaluate_mse(rcs, test);
    // Any pool gives the same bits; the trials only spread over it.
    let noisy = robustness(
        &ThreadPool::auto(),
        rcs,
        test,
        &config.factors,
        config.trials,
        config.seed,
        mse_scorer,
    );
    let fidelity = analog_fidelity(rcs, config.fidelity_probes, config.seed);
    let margins = comparator_margins(rcs, test);

    let mut out = String::new();
    let _ = writeln!(out, "# MEI system report: {topology}");
    let _ = writeln!(out);
    let _ = writeln!(out, "| metric | value |");
    let _ = writeln!(out, "|---|---|");
    let _ = writeln!(
        out,
        "| topology | `{topology}` ({} coding) |",
        rcs.input_spec().coding()
    );
    let _ = writeln!(out, "| RRAM devices | {} |", rcs.analog().device_count());
    let _ = writeln!(out, "| test MSE (clean) | {mse:.6} |");
    let _ = writeln!(
        out,
        "| test MSE under σ = ({:.2}, {:.2}) | {:.6} ± {:.6} ({} trials) |",
        config.factors.process_variation,
        config.factors.signal_fluctuation,
        noisy.mean,
        noisy.std_dev,
        noisy.trials
    );
    let _ = writeln!(
        out,
        "| area vs `{}` | {:.0} µm² ({:.1}% saved) |",
        config.baseline,
        cost.area_mei(&topology),
        100.0 * cost.area_saving(&config.baseline, &topology)
    );
    let _ = writeln!(
        out,
        "| power vs `{}` | {:.0} µW ({:.1}% saved) |",
        config.baseline,
        cost.power_mei(&topology),
        100.0 * cost.power_saving(&config.baseline, &topology)
    );
    let _ = writeln!(
        out,
        "| Eq (9) ensemble budget | K_max = {} |",
        cost.k_max(&config.baseline, &topology)
    );
    let _ = writeln!(
        out,
        "| analog fidelity | max \\|Δ\\| = {:.2e} over {} probes |",
        fidelity.max_deviation, fidelity.probes
    );
    let _ = writeln!(
        out,
        "| comparator margins | min {:.4}, mean {:.4}, {:.1}% fragile |",
        margins.min,
        margins.mean,
        100.0 * margins.fragile_fraction
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mei_arch::MeiConfig;
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

    #[test]
    fn report_contains_every_section() {
        let data = expfit_data(200, 1);
        let mut cfg = MeiConfig::quick_test();
        cfg.train.epochs = 30;
        let rcs = MeiRcs::train(&data, &cfg).unwrap();
        let report = system_report(
            &rcs,
            &expfit_data(80, 2),
            &ReportConfig {
                trials: 3,
                fidelity_probes: 10,
                ..ReportConfig::default()
            },
        );
        for needle in [
            "# MEI system report",
            "RRAM devices",
            "test MSE (clean)",
            "area vs",
            "power vs",
            "K_max",
            "analog fidelity",
            "comparator margins",
        ] {
            assert!(report.contains(needle), "missing `{needle}` in:\n{report}");
        }
        // It is a valid markdown table body.
        assert!(report.lines().filter(|l| l.starts_with('|')).count() >= 9);
    }

    #[test]
    fn report_is_deterministic() {
        let data = expfit_data(150, 3);
        let mut cfg = MeiConfig::quick_test();
        cfg.train.epochs = 20;
        let rcs = MeiRcs::train(&data, &cfg).unwrap();
        let test = expfit_data(50, 4);
        let rc = ReportConfig {
            trials: 2,
            fidelity_probes: 5,
            ..ReportConfig::default()
        };
        assert_eq!(
            system_report(&rcs, &test, &rc),
            system_report(&rcs, &test, &rc)
        );
    }
}
