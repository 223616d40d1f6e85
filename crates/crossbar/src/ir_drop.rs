//! IR-drop: solving the crossbar with resistive interconnect.
//!
//! The paper chooses 90 nm interconnect precisely to "reduce the impact of IR
//! drop" (§5.1) and lists IR-drop mitigation as future work. This module
//! makes the effect measurable: the crossbar is expanded into its full
//! resistive network — word-line segments, cell conductances, bit-line
//! segments — and solved by Gauss–Seidel nodal relaxation.
//!
//! Model (per column-pitch segment):
//!
//! ```text
//!   V_k ──r_w── (row k, col 0) ──r_w── (row k, col 1) ── …
//!                    │ g_k0                 │ g_k1
//!               (col node) ──r_w── … ──r_w── TIA virtual ground (0 V)
//! ```
//!
//! With `r_w = 0` the solver reduces exactly to the ideal
//! `I_j = Σ_k g_kj·V_k` readout (verified by test).

use std::fmt;

use crate::array::CrossbarArray;

/// Configuration of the wire-resistance grid solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IrDropConfig {
    /// Resistance of one wire segment (row or column pitch), in ohms.
    /// ITRS-class 90 nm metal gives a few ohms per cell pitch; `0` disables
    /// IR-drop entirely.
    pub wire_resistance: f64,
    /// Maximum solver sweeps/iterations before giving up.
    pub max_iterations: usize,
    /// Convergence threshold on the largest node-voltage change per sweep,
    /// relative to the largest input magnitude (for the reference CG
    /// solver: on the residual norm relative to the source norm).
    pub tolerance: f64,
}

impl Default for IrDropConfig {
    fn default() -> Self {
        Self {
            wire_resistance: 2.5,
            max_iterations: 20_000,
            tolerance: 1e-12,
        }
    }
}

impl IrDropConfig {
    /// IR drop disabled (ideal wires).
    #[must_use]
    pub fn ideal() -> Self {
        Self {
            wire_resistance: 0.0,
            ..Self::default()
        }
    }

    /// A given wire resistance with default solver settings.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is negative or non-finite.
    #[must_use]
    pub fn with_wire_resistance(ohms: f64) -> Self {
        assert!(
            ohms >= 0.0 && ohms.is_finite(),
            "wire resistance must be finite and non-negative, got {ohms}"
        );
        Self {
            wire_resistance: ohms,
            ..Self::default()
        }
    }
}

impl fmt::Display for IrDropConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IR drop: r_wire={:.2} Ω, ≤{} iters, tol {:.1e}",
            self.wire_resistance, self.max_iterations, self.tolerance
        )
    }
}

/// Solve the resistive grid and return the per-column currents flowing into
/// the virtual-ground sense amplifiers.
///
/// The nodal system `A·v = b` (with `A` the symmetric positive-definite
/// conductance Laplacian over the `2·n·m` row/column wire nodes) is solved
/// by red-black Gauss–Seidel over grid *lines*: one sweep solves every word
/// line exactly (a tridiagonal system along its `m` row nodes, with the
/// column-node voltages frozen), then every bit line exactly (tridiagonal
/// along its `n` column nodes, row voltages frozen). Word lines only couple
/// to bit lines and vice versa — a bipartite red/black split at line
/// granularity — so each half-sweep uses fully updated values from the
/// other color, and because the device/wire conductance contrast is tiny
/// (`g·r_w ~ 1e-4`) the iteration contracts by roughly `(g·r_w)²` per
/// sweep: a handful of sweeps where conjugate gradient needs hundreds of
/// matrix applications. [`solve_grid_cg`] is the reference it is tested
/// against.
///
/// # Panics
///
/// Panics if `inputs.len() != array.rows()`.
#[must_use]
pub fn solve_grid(array: &CrossbarArray, inputs: &[f64], config: &IrDropConfig) -> Vec<f64> {
    let n = array.rows();
    let m = array.cols();
    assert_eq!(inputs.len(), n, "input vector length");
    if config.wire_resistance == 0.0 {
        return array.column_currents(inputs);
    }
    let g_w = 1.0 / config.wire_resistance;
    let g = array.plane(); // g[k * m + j]
    let vmax = inputs.iter().fold(0.0_f64, |acc, &v| acc.max(v.abs()));
    if vmax == 0.0 {
        return vec![0.0; m];
    }
    let tol = (config.tolerance * vmax).max(f64::MIN_POSITIVE);

    // Node voltages: vr = row-wire nodes, vc = column-wire nodes.
    let mut vr = vec![0.0_f64; n * m];
    let mut vc = vec![0.0_f64; n * m];
    // Thomas-algorithm scratch (shared by both line directions).
    let lanes = n.max(m);
    let mut cp = vec![0.0_f64; lanes];
    let mut dp = vec![0.0_f64; lanes];

    for _sweep in 0..config.max_iterations {
        let mut delta = 0.0_f64;

        // Red: every word line k. Equation at row node (k, j):
        //   (g_kj + g_w + [j+1<m] g_w)·r_j − g_w·r_{j−1} − g_w·r_{j+1}
        //     = g_kj·c_kj + [j=0] g_w·V_k
        for k in 0..n {
            let row_g = &g[k * m..(k + 1) * m];
            let row_vc = &vc[k * m..(k + 1) * m];
            let d0 = row_g[0] + g_w + if m > 1 { g_w } else { 0.0 };
            cp[0] = -g_w / d0;
            dp[0] = (row_g[0] * row_vc[0] + g_w * inputs[k]) / d0;
            for j in 1..m {
                let diag = row_g[j] + g_w + if j + 1 < m { g_w } else { 0.0 };
                let denom = diag + g_w * cp[j - 1];
                cp[j] = -g_w / denom;
                dp[j] = (row_g[j] * row_vc[j] + g_w * dp[j - 1]) / denom;
            }
            let row_vr = &mut vr[k * m..(k + 1) * m];
            let mut next = dp[m - 1];
            delta = delta.max((next - row_vr[m - 1]).abs());
            row_vr[m - 1] = next;
            for j in (0..m - 1).rev() {
                let value = dp[j] - cp[j] * next;
                delta = delta.max((value - row_vr[j]).abs());
                row_vr[j] = value;
                next = value;
            }
        }

        // Black: every bit line j. Equation at column node (k, j):
        //   (g_kj + g_w + [k>0] g_w)·c_k − g_w·c_{k−1} − g_w·c_{k+1}
        //     = g_kj·r_kj
        // (the k = n−1 "down" segment reaches the TIA virtual ground).
        for j in 0..m {
            let d0 = g[j] + g_w; // k = 0: device + down segment only
            cp[0] = -g_w / d0;
            dp[0] = g[j] * vr[j] / d0;
            for k in 1..n {
                let idx = k * m + j;
                let diag = g[idx] + 2.0 * g_w;
                let denom = diag + g_w * cp[k - 1];
                cp[k] = -g_w / denom;
                dp[k] = (g[idx] * vr[idx] + g_w * dp[k - 1]) / denom;
            }
            let mut next = dp[n - 1];
            delta = delta.max((next - vc[(n - 1) * m + j]).abs());
            vc[(n - 1) * m + j] = next;
            for k in (0..n - 1).rev() {
                let value = dp[k] - cp[k] * next;
                delta = delta.max((value - vc[k * m + j]).abs());
                vc[k * m + j] = value;
                next = value;
            }
        }

        if delta <= tol {
            break;
        }
    }

    // Current into each TIA: through the last column segment.
    (0..m).map(|j| g_w * vc[(n - 1) * m + j]).collect()
}

/// Jacobi-preconditioned conjugate gradient over the full nodal system —
/// the reference [`solve_grid`] is tested and benchmarked against, robust
/// across any wire/device conductance contrast because it only relies on
/// `A` being symmetric positive definite.
///
/// # Panics
///
/// Panics if `inputs.len() != array.rows()`.
#[must_use]
#[allow(clippy::needless_range_loop)] // nodal assembly addresses a 2-D grid; indices are the physics
pub fn solve_grid_cg(array: &CrossbarArray, inputs: &[f64], config: &IrDropConfig) -> Vec<f64> {
    let n = array.rows();
    let m = array.cols();
    assert_eq!(inputs.len(), n, "input vector length");
    if config.wire_resistance == 0.0 {
        return array.column_currents(inputs);
    }
    let g_w = 1.0 / config.wire_resistance;
    let g = array.plane(); // g[k * m + j]
    let nm = n * m;
    let dim = 2 * nm;

    // Unknowns: v[0..nm] = row-wire nodes, v[nm..2nm] = column-wire nodes.
    // A is assembled implicitly in `apply`; diag(A) is kept for the Jacobi
    // preconditioner.
    let mut diag = vec![0.0_f64; dim];
    for k in 0..n {
        for j in 0..m {
            let idx = k * m + j;
            let mut d = g[idx] + g_w; // device + (source or left) segment
            if j + 1 < m {
                d += g_w;
            }
            diag[idx] = d;
            let mut d = g[idx] + g_w; // device + (down or ground) segment
            if k > 0 {
                d += g_w;
            }
            diag[nm + idx] = d;
        }
    }

    let apply = |x: &[f64], y: &mut [f64]| {
        for k in 0..n {
            for j in 0..m {
                let idx = k * m + j;
                // Row node.
                let mut acc = diag[idx] * x[idx] - g[idx] * x[nm + idx];
                if j > 0 {
                    acc -= g_w * x[idx - 1];
                }
                if j + 1 < m {
                    acc -= g_w * x[idx + 1];
                }
                y[idx] = acc;
                // Column node.
                let mut acc = diag[nm + idx] * x[nm + idx] - g[idx] * x[idx];
                if k > 0 {
                    acc -= g_w * x[nm + idx - m];
                }
                if k + 1 < n {
                    acc -= g_w * x[nm + idx + m];
                }
                y[nm + idx] = acc;
            }
        }
    };

    // Right-hand side: the source drives row node (k, 0) through one segment.
    let mut b = vec![0.0_f64; dim];
    for k in 0..n {
        b[k * m] = g_w * inputs[k];
    }
    let b_norm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    if b_norm == 0.0 {
        return vec![0.0; m];
    }

    // Preconditioned conjugate gradient.
    let mut v = vec![0.0_f64; dim];
    let mut r = b.clone(); // r = b - A·0
    let mut z: Vec<f64> = r.iter().zip(&diag).map(|(ri, di)| ri / di).collect();
    let mut p = z.clone();
    let mut rz: f64 = r.iter().zip(&z).map(|(a, c)| a * c).sum();
    let mut ap = vec![0.0_f64; dim];
    let tol = (config.tolerance * b_norm).max(f64::MIN_POSITIVE);

    for _ in 0..config.max_iterations {
        apply(&p, &mut ap);
        let pap: f64 = p.iter().zip(&ap).map(|(a, c)| a * c).sum();
        if pap <= 0.0 {
            break; // numerically exhausted
        }
        let alpha = rz / pap;
        for i in 0..dim {
            v[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let r_norm = r.iter().map(|x| x * x).sum::<f64>().sqrt();
        if r_norm < tol {
            break;
        }
        for i in 0..dim {
            z[i] = r[i] / diag[i];
        }
        let rz_new: f64 = r.iter().zip(&z).map(|(a, c)| a * c).sum();
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..dim {
            p[i] = z[i] + beta * p[i];
        }
    }

    // Current into each TIA: through the last column segment.
    (0..m).map(|j| g_w * v[nm + (n - 1) * m + j]).collect()
}

/// Relative attenuation of each column current caused by IR drop:
/// `1 − I_ir / I_ideal` (zero for ideal wires; `None` where the ideal
/// current is zero).
#[must_use]
pub fn attenuation(
    array: &CrossbarArray,
    inputs: &[f64],
    config: &IrDropConfig,
) -> Vec<Option<f64>> {
    let ideal = array.column_currents(inputs);
    let real = solve_grid(array, inputs, config);
    ideal
        .iter()
        .zip(&real)
        .map(|(&i0, &i1)| {
            if i0.abs() < 1e-30 {
                None
            } else {
                Some(1.0 - i1 / i0)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rram::DeviceParams;

    fn uniform_array(n: usize, m: usize, g: f64) -> CrossbarArray {
        let mut x = CrossbarArray::new(n, m, DeviceParams::ideal());
        x.program_clamped(&vec![vec![g; m]; n]);
        x
    }

    #[test]
    fn zero_wire_resistance_matches_ideal_currents() {
        let x = uniform_array(4, 3, 5e-4);
        let cfg = IrDropConfig::ideal();
        let inputs = [1.0, 0.5, -0.25, 0.8];
        assert_eq!(solve_grid(&x, &inputs, &cfg), x.column_currents(&inputs));
    }

    #[test]
    fn tiny_wire_resistance_converges_to_ideal() {
        let x = uniform_array(3, 3, 1e-4);
        let cfg = IrDropConfig::with_wire_resistance(1e-3);
        let inputs = [1.0, 1.0, 1.0];
        let ideal = x.column_currents(&inputs);
        let real = solve_grid(&x, &inputs, &cfg);
        for (a, b) in ideal.iter().zip(&real) {
            assert!((a - b).abs() / a.abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn ir_drop_attenuates_currents() {
        // Strong wires relative to cells: noticeable but bounded attenuation.
        let x = uniform_array(16, 16, 5e-4);
        let inputs = vec![1.0; 16];
        let cfg = IrDropConfig::with_wire_resistance(10.0);
        let ideal = x.column_currents(&inputs);
        let real = solve_grid(&x, &inputs, &cfg);
        for (a, b) in ideal.iter().zip(&real) {
            assert!(
                *b > 0.0 && *b < *a,
                "IR drop must strictly attenuate: {a} vs {b}"
            );
        }
    }

    #[test]
    fn attenuation_grows_with_wire_resistance() {
        let x = uniform_array(8, 8, 5e-4);
        let inputs = vec![1.0; 8];
        let att = |r: f64| {
            attenuation(&x, &inputs, &IrDropConfig::with_wire_resistance(r))[0]
                .expect("nonzero ideal current")
        };
        let a1 = att(1.0);
        let a10 = att(10.0);
        let a100 = att(100.0);
        assert!(a1 < a10 && a10 < a100, "{a1} {a10} {a100}");
        assert!(a1 > 0.0 && a100 < 1.0);
    }

    #[test]
    fn far_columns_attenuate_more() {
        // Column m-1 is farthest from the row drivers.
        let x = uniform_array(8, 8, 5e-4);
        let inputs = vec![1.0; 8];
        let att = attenuation(&x, &inputs, &IrDropConfig::with_wire_resistance(20.0));
        let first = att[0].unwrap();
        let last = att[7].unwrap();
        assert!(
            last > first,
            "far column should attenuate more: {first} vs {last}"
        );
    }

    #[test]
    fn attenuation_reports_none_for_zero_current_columns() {
        let x = uniform_array(2, 2, 5e-4);
        let att = attenuation(&x, &[0.0, 0.0], &IrDropConfig::with_wire_resistance(5.0));
        assert!(att.iter().all(Option::is_none));
    }

    #[test]
    #[should_panic(expected = "wire resistance")]
    fn negative_wire_resistance_rejected() {
        let _ = IrDropConfig::with_wire_resistance(-1.0);
    }

    #[test]
    fn display_mentions_resistance() {
        let cfg = IrDropConfig::with_wire_resistance(3.0);
        assert!(format!("{cfg}").contains("3.00"));
    }

    fn varied_array(n: usize, m: usize) -> CrossbarArray {
        let mut x = CrossbarArray::new(n, m, DeviceParams::ideal());
        let g: Vec<Vec<f64>> = (0..n)
            .map(|k| {
                (0..m)
                    .map(|j| 1e-6 + 5e-5 * (1.0 + ((k * m + j) as f64).sin()))
                    .collect()
            })
            .collect();
        x.program_clamped(&g);
        x
    }

    #[test]
    fn gauss_seidel_agrees_with_conjugate_gradient() {
        let x = varied_array(9, 7);
        let inputs: Vec<f64> = (0..9).map(|k| 0.1 + 0.1 * k as f64).collect();
        for r in [0.5, 2.5, 25.0] {
            let cfg = IrDropConfig::with_wire_resistance(r);
            let gs = solve_grid(&x, &inputs, &cfg);
            let cg = solve_grid_cg(&x, &inputs, &cfg);
            let scale = cg.iter().fold(0.0_f64, |a, &v| a.max(v.abs()));
            // Each solver stops on its own criterion (max voltage change vs
            // residual norm); agreement to 1e-7 of the largest current means
            // both converged far past physical meaning.
            for (a, b) in gs.iter().zip(&cg) {
                assert!(
                    (a - b).abs() <= 1e-7 * scale,
                    "solvers disagree at r={r}: {a} vs {b}"
                );
            }
        }
    }
}
