//! Weight-matrix → conductance mapping.
//!
//! Neural-network weights are signed reals; RRAM conductances are positive
//! and bounded. Two mapping schemes are provided:
//!
//! * [`map_differential`] — the scheme the paper assumes when it doubles the
//!   RRAM device count ("two crossbars are required to represent a matrix
//!   with both positive and negative parameters"): weight `w` is split into
//!   `w⁺ = max(w, 0)` and `w⁻ = max(−w, 0)`, each mapped linearly onto
//!   `[g_off, g_on]` of its own array. With virtual-ground sensing the
//!   difference of column currents is exactly proportional to `W·x`.
//! * [`solve_divider_column`] — the closed-form inverse of the Eq (2)
//!   resistive-divider readout for a column of non-negative coefficients,
//!   used when a single array with a load resistor must realize a target
//!   coefficient matrix directly.

use std::error::Error;
use std::fmt;

use rram::DeviceParams;

/// Configuration of the differential mapping ([`map_differential`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MappingConfig {
    /// Optional clip applied to `|w|` before scaling. Weights beyond the
    /// clip saturate; a tight clip improves the conductance resolution used
    /// by typical weights at the cost of distorting outliers. `None` scales
    /// by the true maximum magnitude.
    pub weight_limit: Option<f64>,
}

impl MappingConfig {
    /// Default configuration: no clipping.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: set a weight clip.
    #[must_use]
    pub fn with_weight_limit(mut self, limit: f64) -> Self {
        self.weight_limit = Some(limit);
        self
    }
}

/// Error mapping a weight matrix onto crossbar conductances.
#[derive(Debug, Clone, PartialEq)]
pub enum MapWeightsError {
    /// The weight matrix has no rows or no columns.
    EmptyMatrix,
    /// Row `row` has a different length than row 0.
    RaggedMatrix {
        /// Index of the offending row.
        row: usize,
    },
    /// A weight is NaN or infinite.
    NonFiniteWeight {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
    },
    /// A divider column cannot be realized: its coefficient sum reaches or
    /// exceeds 1, or a solved conductance falls outside the device window.
    InfeasibleColumn {
        /// Index of the offending column.
        col: usize,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for MapWeightsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapWeightsError::EmptyMatrix => write!(f, "weight matrix is empty"),
            MapWeightsError::RaggedMatrix { row } => {
                write!(f, "weight matrix row {row} has inconsistent length")
            }
            MapWeightsError::NonFiniteWeight { row, col } => {
                write!(f, "weight at ({row}, {col}) is not finite")
            }
            MapWeightsError::InfeasibleColumn { col, reason } => {
                write!(f, "column {col} cannot be mapped: {reason}")
            }
        }
    }
}

impl Error for MapWeightsError {}

/// Validate a weight matrix: non-empty, rectangular, all entries finite.
///
/// Returns `(rows, cols)` of the matrix.
///
/// # Errors
///
/// See [`MapWeightsError`].
pub fn validate_weights(weights: &[Vec<f64>]) -> Result<(usize, usize), MapWeightsError> {
    if weights.is_empty() || weights[0].is_empty() {
        return Err(MapWeightsError::EmptyMatrix);
    }
    let cols = weights[0].len();
    for (r, row) in weights.iter().enumerate() {
        if row.len() != cols {
            return Err(MapWeightsError::RaggedMatrix { row: r });
        }
        for (c, w) in row.iter().enumerate() {
            if !w.is_finite() {
                return Err(MapWeightsError::NonFiniteWeight { row: r, col: c });
            }
        }
    }
    Ok((weights.len(), cols))
}

/// Result of a differential mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct DifferentialMapping {
    /// Conductance matrix of the positive array, `inputs × outputs`
    /// (crossbar orientation: row = input port).
    pub g_plus: Vec<Vec<f64>>,
    /// Conductance matrix of the negative array, same shape.
    pub g_minus: Vec<Vec<f64>>,
    /// Multiply the differential column current `(I⁺_j − I⁻_j)` by this
    /// factor to recover `Σ_k w_jk·x_k` exactly (zero when the weight matrix
    /// is all-zero).
    pub current_scale: f64,
}

/// Map a signed weight matrix (`outputs × inputs`, the orientation neural
/// layers use) onto a differential pair of conductance matrices
/// (`inputs × outputs`, the orientation crossbars use).
///
/// Linear coding: `g⁺ = g_off + (w⁺ / w_max)·(g_on − g_off)` and likewise for
/// `g⁻`. The common `g_off` baseline cancels in the current difference, so
/// with ideal sensing the mapping is exact:
/// `(I⁺_j − I⁻_j) · current_scale = Σ_k w_jk x_k`.
///
/// # Errors
///
/// Returns [`MapWeightsError`] if the matrix is empty, ragged, or contains
/// non-finite entries.
pub fn map_differential(
    weights: &[Vec<f64>],
    params: &DeviceParams,
    config: &MappingConfig,
) -> Result<DifferentialMapping, MapWeightsError> {
    let (outputs, inputs) = validate_weights(weights)?;
    let observed_max = weights
        .iter()
        .flatten()
        .fold(0.0_f64, |m, &w| m.max(w.abs()));
    let w_max = match config.weight_limit {
        Some(limit) if limit > 0.0 => limit,
        _ => observed_max,
    };
    let range = params.range();
    let mut g_plus = vec![vec![params.g_off; outputs]; inputs];
    let mut g_minus = vec![vec![params.g_off; outputs]; inputs];
    if w_max == 0.0 {
        // All-zero matrix: both arrays fully RESET, output identically zero.
        return Ok(DifferentialMapping {
            g_plus,
            g_minus,
            current_scale: 0.0,
        });
    }
    for (j, row) in weights.iter().enumerate() {
        for (k, &w) in row.iter().enumerate() {
            let w = w.clamp(-w_max, w_max);
            if w >= 0.0 {
                g_plus[k][j] = params.g_off + w / w_max * range;
            } else {
                g_minus[k][j] = params.g_off - w / w_max * range;
            }
        }
    }
    Ok(DifferentialMapping {
        g_plus,
        g_minus,
        current_scale: w_max / range,
    })
}

/// Closed-form solve of the Eq (2) divider for one column.
///
/// Given target coefficients `c_k ≥ 0` with `Σ c_k < 1`, find conductances
/// `g_k` such that `g_k / (g_s + Σ_l g_l) = c_k`:
///
/// ```text
/// S = g_s · T / (1 − T)  with  T = Σ_k c_k,   then   g_k = c_k · (g_s + S).
/// ```
///
/// # Errors
///
/// [`MapWeightsError::InfeasibleColumn`] if any coefficient is negative or
/// non-finite, if `T ≥ 1` (the divider cannot produce a combined weight of
/// one), or if a solved conductance falls outside `[g_off, g_on]`.
pub fn solve_divider_column(
    coefficients: &[f64],
    g_s: f64,
    params: &DeviceParams,
) -> Result<Vec<f64>, MapWeightsError> {
    let col = 0;
    if coefficients.iter().any(|c| !c.is_finite() || *c < 0.0) {
        return Err(MapWeightsError::InfeasibleColumn {
            col,
            reason: "coefficients must be finite and non-negative".into(),
        });
    }
    let total: f64 = coefficients.iter().sum();
    if total >= 1.0 {
        return Err(MapWeightsError::InfeasibleColumn {
            col,
            reason: format!("coefficient sum {total:.4} ≥ 1"),
        });
    }
    let s = g_s * total / (1.0 - total);
    let scale = g_s + s;
    let solved: Vec<f64> = coefficients.iter().map(|c| c * scale).collect();
    for (k, &g) in solved.iter().enumerate() {
        // A zero coefficient requires g = 0, below g_off; callers that need
        // exact zeros should use the differential mapping instead.
        if g < params.g_off || g > params.g_on {
            return Err(MapWeightsError::InfeasibleColumn {
                col,
                reason: format!(
                    "solved conductance {g:.3e} S for row {k} outside window [{:.3e}, {:.3e}]",
                    params.g_off, params.g_on
                ),
            });
        }
    }
    Ok(solved)
}

// Index loops in the tests mirror the (k, j) subscripts of Eq (2).
#[allow(clippy::needless_range_loop)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_rectangular_finite() {
        let w = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        assert_eq!(validate_weights(&w), Ok((3, 2)));
    }

    #[test]
    fn validate_rejects_empty_and_ragged_and_nan() {
        assert_eq!(validate_weights(&[]), Err(MapWeightsError::EmptyMatrix));
        assert_eq!(
            validate_weights(&[vec![]]),
            Err(MapWeightsError::EmptyMatrix)
        );
        assert_eq!(
            validate_weights(&[vec![1.0], vec![1.0, 2.0]]),
            Err(MapWeightsError::RaggedMatrix { row: 1 })
        );
        assert_eq!(
            validate_weights(&[vec![1.0, f64::NAN]]),
            Err(MapWeightsError::NonFiniteWeight { row: 0, col: 1 })
        );
    }

    #[test]
    fn differential_mapping_reconstructs_weights() {
        let p = DeviceParams::ideal();
        let w = vec![vec![0.5, -1.0, 0.0], vec![2.0, 0.25, -0.75]]; // 2 out × 3 in
        let m = map_differential(&w, &p, &MappingConfig::default()).unwrap();
        for j in 0..2 {
            for k in 0..3 {
                let recon = (m.g_plus[k][j] - m.g_minus[k][j]) * m.current_scale;
                assert!(
                    (recon - w[j][k]).abs() < 1e-12,
                    "({j},{k}): {recon} vs {}",
                    w[j][k]
                );
            }
        }
    }

    #[test]
    fn differential_mapping_stays_in_window() {
        let p = DeviceParams::hfox();
        let w = vec![vec![3.0, -7.0], vec![0.001, 0.0]];
        let m = map_differential(&w, &p, &MappingConfig::default()).unwrap();
        for g in m.g_plus.iter().chain(&m.g_minus).flatten() {
            assert!(*g >= p.g_off && *g <= p.g_on);
        }
    }

    #[test]
    fn all_zero_weights_map_to_reset_arrays() {
        let p = DeviceParams::ideal();
        let m = map_differential(&[vec![0.0, 0.0]], &p, &MappingConfig::default()).unwrap();
        assert_eq!(m.current_scale, 0.0);
        assert!(m.g_plus.iter().flatten().all(|&g| g == p.g_off));
        assert!(m.g_minus.iter().flatten().all(|&g| g == p.g_off));
    }

    #[test]
    fn weight_limit_clips_outliers() {
        let p = DeviceParams::ideal();
        let cfg = MappingConfig::new().with_weight_limit(1.0);
        let m = map_differential(&[vec![5.0, 0.5]], &p, &cfg).unwrap();
        // The outlier saturates at g_on; the 0.5 weight keeps full resolution.
        assert_eq!(m.g_plus[0][0], p.g_on);
        let recon = (m.g_plus[1][0] - m.g_minus[1][0]) * m.current_scale;
        assert!((recon - 0.5).abs() < 1e-12);
    }

    #[test]
    fn divider_solve_roundtrips_through_formula() {
        let p = DeviceParams::ideal();
        let g_s = 1e-3;
        let c = vec![0.2, 0.1, 0.05];
        let g = solve_divider_column(&c, g_s, &p).unwrap();
        let col_sum: f64 = g.iter().sum();
        for (k, &ck) in c.iter().enumerate() {
            let achieved = g[k] / (g_s + col_sum);
            assert!((achieved - ck).abs() < 1e-12);
        }
    }

    #[test]
    fn divider_solve_rejects_sum_at_least_one() {
        let p = DeviceParams::ideal();
        let err = solve_divider_column(&[0.6, 0.5], 1e-3, &p).unwrap_err();
        assert!(matches!(err, MapWeightsError::InfeasibleColumn { .. }));
        assert!(err.to_string().contains("≥ 1"));
    }

    #[test]
    fn divider_solve_rejects_negative_coefficient() {
        let p = DeviceParams::ideal();
        assert!(solve_divider_column(&[-0.1], 1e-3, &p).is_err());
    }

    #[test]
    fn divider_solve_rejects_out_of_window_conductance() {
        // Tiny load: solved conductances collapse below g_off.
        let p = DeviceParams::hfox();
        let err = solve_divider_column(&[0.001], 1e-9, &p).unwrap_err();
        assert!(err.to_string().contains("outside window"));
    }

    #[test]
    fn error_display_is_informative() {
        let e = MapWeightsError::NonFiniteWeight { row: 1, col: 2 };
        assert!(e.to_string().contains("(1, 2)"));
    }
}
