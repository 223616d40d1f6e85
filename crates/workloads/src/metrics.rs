//! Application-level error metrics (Table 1's "Error Metric" column).

use std::fmt;

use neural::argmax;

/// Which application error metric a benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorMetric {
    /// Mean of `|pred − actual| / max(|actual|, ε)` over all outputs —
    /// used by FFT and inversek2j.
    AverageRelativeError,
    /// Fraction of samples whose predicted class (argmax over output ports)
    /// differs from the true class — used by jmeint.
    MissRate,
    /// Mean absolute difference between the produced and reference outputs
    /// (pixels in `[0, 1]`) — used by JPEG, K-means and Sobel.
    ImageDiff,
}

/// Floor applied to `|actual|` in the relative-error denominator so samples
/// near zero don't blow the average up.
const RELATIVE_ERROR_FLOOR: f64 = 0.05;

impl ErrorMetric {
    /// Evaluate the metric over paired prediction/target batches.
    ///
    /// # Panics
    ///
    /// Panics if the batches are empty or their shapes differ.
    #[must_use]
    pub fn evaluate(&self, predictions: &[Vec<f64>], targets: &[Vec<f64>]) -> f64 {
        assert!(!predictions.is_empty(), "metric over an empty batch");
        assert_eq!(predictions.len(), targets.len(), "batch lengths differ");
        match self {
            ErrorMetric::AverageRelativeError => {
                let mut total = 0.0;
                let mut count = 0usize;
                for (p, t) in predictions.iter().zip(targets) {
                    assert_eq!(p.len(), t.len(), "sample widths differ");
                    for (a, b) in p.iter().zip(t) {
                        total += (a - b).abs() / b.abs().max(RELATIVE_ERROR_FLOOR);
                        count += 1;
                    }
                }
                total / count as f64
            }
            ErrorMetric::MissRate => {
                let misses = predictions
                    .iter()
                    .zip(targets)
                    .filter(|(p, t)| argmax(p) != argmax(t))
                    .count();
                misses as f64 / predictions.len() as f64
            }
            ErrorMetric::ImageDiff => {
                let mut total = 0.0;
                let mut count = 0usize;
                for (p, t) in predictions.iter().zip(targets) {
                    assert_eq!(p.len(), t.len(), "sample widths differ");
                    for (a, b) in p.iter().zip(t) {
                        total += (a - b).abs();
                        count += 1;
                    }
                }
                total / count as f64
            }
        }
    }
}

impl fmt::Display for ErrorMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorMetric::AverageRelativeError => "average relative error",
            ErrorMetric::MissRate => "miss rate",
            ErrorMetric::ImageDiff => "image diff",
        };
        f.write_str(name)
    }
}

/// Peak signal-to-noise ratio between two images/batches of unit-range
/// values, in dB: `10·log₁₀(1 / MSE)`. Returns infinity for identical
/// inputs. The conventional companion to the "image diff" metric for the
/// JPEG benchmark.
///
/// # Panics
///
/// Panics if the batches are empty or shaped differently.
#[must_use]
pub fn psnr(predictions: &[Vec<f64>], targets: &[Vec<f64>]) -> f64 {
    assert!(!predictions.is_empty(), "PSNR over an empty batch");
    assert_eq!(predictions.len(), targets.len(), "batch lengths differ");
    let mut se = 0.0;
    let mut count = 0usize;
    for (p, t) in predictions.iter().zip(targets) {
        assert_eq!(p.len(), t.len(), "sample widths differ");
        for (a, b) in p.iter().zip(t) {
            se += (a - b) * (a - b);
            count += 1;
        }
    }
    let mse = se / count as f64;
    if mse == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (1.0 / mse).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions_give_zero_for_all_metrics() {
        let batch = vec![vec![0.5, 0.25], vec![0.75, 0.1]];
        for m in [
            ErrorMetric::AverageRelativeError,
            ErrorMetric::MissRate,
            ErrorMetric::ImageDiff,
        ] {
            assert_eq!(m.evaluate(&batch, &batch), 0.0, "{m}");
        }
    }

    #[test]
    fn relative_error_scales_with_target_magnitude() {
        let pred = vec![vec![0.9]];
        let tgt = vec![vec![1.0]];
        let e = ErrorMetric::AverageRelativeError.evaluate(&pred, &tgt);
        assert!((e - 0.1).abs() < 1e-12);
    }

    #[test]
    fn relative_error_floors_small_denominators() {
        // actual = 0 would divide by zero without the floor.
        let e = ErrorMetric::AverageRelativeError.evaluate(&[vec![0.01]], &[vec![0.0]]);
        assert!((e - 0.01 / 0.05).abs() < 1e-12);
    }

    #[test]
    fn miss_rate_counts_argmax_disagreements() {
        let pred = vec![vec![0.9, 0.1], vec![0.2, 0.8], vec![0.6, 0.4]];
        let tgt = vec![vec![1.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]];
        let e = ErrorMetric::MissRate.evaluate(&pred, &tgt);
        assert!((e - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn image_diff_is_mean_absolute_error() {
        let pred = vec![vec![0.0, 1.0]];
        let tgt = vec![vec![0.5, 0.5]];
        assert!((ErrorMetric::ImageDiff.evaluate(&pred, &tgt) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn psnr_known_values() {
        // Identical → ∞; uniform error of 0.1 → MSE 0.01 → 20 dB.
        let a = vec![vec![0.5, 0.5]];
        assert_eq!(psnr(&a, &a), f64::INFINITY);
        let b = vec![vec![0.6, 0.4]];
        assert!((psnr(&a, &b) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn psnr_decreases_with_error() {
        let t = vec![vec![0.5; 8]];
        let small = vec![vec![0.52; 8]];
        let large = vec![vec![0.7; 8]];
        assert!(psnr(&small, &t) > psnr(&large, &t));
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_rejected() {
        let _ = ErrorMetric::ImageDiff.evaluate(&[], &[]);
    }

    #[test]
    fn display_names() {
        assert_eq!(ErrorMetric::MissRate.to_string(), "miss rate");
        assert_eq!(ErrorMetric::ImageDiff.to_string(), "image diff");
    }
}
