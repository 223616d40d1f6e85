//! Register-blocked matvec kernels over flat conductance planes.
//!
//! The crossbar's cells are an array-of-structs grid ([`rram::RramDevice`]
//! per cell); walking it in the hot loop chases struct fields and wastes
//! bandwidth on the `target`/`params` payload. [`crate::CrossbarArray`]
//! therefore caches a *plane*: the conductances alone, as one flat row-major
//! `Vec<f64>` (`plane[k * cols + j]` = `g_kj`), rebuilt lazily after any
//! device mutation. The kernel runs over such planes.
//!
//! [`matvec`] reads `P` planes of one shape in the same loop: one for an
//! array's column currents, two for a differential pair's plus and minus
//! arrays. It walks the output in blocks of [`BLOCK`] columns and keeps a
//! block of accumulators per plane in registers while every driven input
//! row streams past; the last `cols % BLOCK` columns take one narrower
//! block. Blocking reorders nothing *within* a column: each accumulator
//! starts at `0.0` and adds `g_kj · v_k` in ascending row order `k`,
//! skipping zero inputs, which is the exact floating-point sequence of the
//! cell walk. The kernel is therefore bit-identical to the unblocked
//! reference path.
//!
//! The input kind is a [`Rows`] source: a scalar slice, or a packed
//! [`BitInput`] whose set bits drive `1.0` (so `g · 1.0 == g` and the
//! multiply folds away).

use crate::bitvec::BitInput;

/// Output columns per register block: 8 accumulators per plane, 16 for a
/// differential pair.
const BLOCK: usize = 8;

/// An input vector as the rows it drives: `(k, v_k)` for every nonzero
/// `v_k`, in ascending row order.
pub(crate) trait Rows: Copy {
    /// Visit every driven row.
    fn each(self, visit: impl FnMut(usize, f64));
}

impl Rows for &[f64] {
    #[inline(always)]
    fn each(self, mut visit: impl FnMut(usize, f64)) {
        for (k, &v) in self.iter().enumerate() {
            // `-0.0` is skipped too; NaN is driven, as in the cell walk.
            if v != 0.0 {
                visit(k, v);
            }
        }
    }
}

impl Rows for &BitInput {
    #[inline(always)]
    fn each(self, mut visit: impl FnMut(usize, f64)) {
        for (w, &lane) in self.words().iter().enumerate() {
            let mut lane = lane;
            while lane != 0 {
                visit(w * 64 + lane.trailing_zeros() as usize, 1.0);
                lane &= lane - 1;
            }
        }
    }
}

/// `out[j] = combine([Σ_k planes[p][k·cols + j] · v_k for each plane p])`
/// over the rows `rows` drives.
///
/// # Panics
///
/// Panics if a driven row lies outside a plane; debug-asserts the shapes
/// agree (callers validate at the public API).
pub(crate) fn matvec<const P: usize>(
    planes: [&[f64]; P],
    cols: usize,
    rows: impl Rows,
    out: &mut [f64],
    combine: impl Fn([f64; P]) -> f64,
) {
    debug_assert!(planes.iter().all(|plane| plane.len() % cols == 0));
    debug_assert_eq!(out.len(), cols);
    let mut blocks = out.chunks_exact_mut(BLOCK);
    for (b, chunk) in blocks.by_ref().enumerate() {
        let sums = block(&planes, cols, b * BLOCK, BLOCK, rows);
        emit(&sums, chunk, &combine);
    }
    let rest = blocks.into_remainder();
    if !rest.is_empty() {
        let sums = block(&planes, cols, cols - rest.len(), rest.len(), rows);
        emit(&sums, rest, &combine);
    }
}

/// The column sums of columns `j0..j0 + width` (`width ≤ BLOCK`), one
/// block per plane. Inlined so the full-block call sees a constant
/// `width` and keeps every accumulator in a register.
#[inline(always)]
fn block<const P: usize>(
    planes: &[&[f64]; P],
    cols: usize,
    j0: usize,
    width: usize,
    rows: impl Rows,
) -> [[f64; BLOCK]; P] {
    let mut sums = [[0.0; BLOCK]; P];
    rows.each(|k, v| {
        let at = k * cols + j0;
        for (sums, plane) in sums.iter_mut().zip(planes) {
            for (sum, &g) in sums.iter_mut().zip(&plane[at..at + width]) {
                *sum += g * v;
            }
        }
    });
    sums
}

/// `out[c] = combine` of column `c`'s sums, one per plane.
#[inline(always)]
fn emit<const P: usize>(
    sums: &[[f64; BLOCK]; P],
    out: &mut [f64],
    combine: impl Fn([f64; P]) -> f64,
) {
    for (c, o) in out.iter_mut().enumerate() {
        *o = combine(std::array::from_fn(|p| sums[p][c]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(plane: &[f64], cols: usize, inputs: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; cols];
        for (k, &v) in inputs.iter().enumerate() {
            if v == 0.0 {
                continue;
            }
            for (j, o) in out.iter_mut().enumerate() {
                *o += plane[k * cols + j] * v;
            }
        }
        out
    }

    fn single(plane: &[f64], cols: usize, rows: impl Rows) -> Vec<f64> {
        let mut out = vec![f64::NAN; cols];
        matvec([plane], cols, rows, &mut out, |[sum]| sum);
        out
    }

    #[test]
    fn scalar_kernel_matches_reference_past_the_block_width() {
        // Two whole blocks and a remainder of 5.
        let cols = 2 * BLOCK + 5;
        let rows = 5;
        let plane: Vec<f64> = (0..rows * cols).map(|i| (i as f64).sin() * 1e-4).collect();
        let inputs = [0.25, 0.0, -1.5, -0.0, 0.75];
        assert_eq!(
            single(&plane, cols, &inputs[..]),
            reference(&plane, cols, &inputs)
        );
    }

    #[test]
    fn binary_kernel_matches_scalar_bits() {
        let cols = BLOCK * 2 + 5;
        let rows = 70; // crosses a u64 lane boundary
        let plane: Vec<f64> = (0..rows * cols).map(|i| (i as f64).cos() * 1e-4).collect();
        let mask: Vec<bool> = (0..rows).map(|k| k % 3 != 1).collect();
        let values: Vec<f64> = mask.iter().map(|&b| f64::from(u8::from(b))).collect();
        let bits = BitInput::from_bools(&mask);
        assert_eq!(
            single(&plane, cols, &bits),
            single(&plane, cols, &values[..]),
            "packed and scalar paths must agree in bits"
        );
    }

    #[test]
    fn two_planes_combine_per_column() {
        let cols = BLOCK + 3;
        let plus: Vec<f64> = (0..4 * cols).map(|i| (i as f64).sin() * 1e-4).collect();
        let minus: Vec<f64> = (0..4 * cols).map(|i| (i as f64).cos() * 1e-4).collect();
        let inputs = [1.0, 0.5, 0.0, -2.0];
        let mut out = vec![f64::NAN; cols];
        matvec([&plus, &minus], cols, &inputs[..], &mut out, |[p, m]| {
            (p - m) * 3.0
        });
        let (p, m) = (
            reference(&plus, cols, &inputs),
            reference(&minus, cols, &inputs),
        );
        let expect: Vec<f64> = p.iter().zip(&m).map(|(a, b)| (a - b) * 3.0).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn all_zero_bits_give_zero_output() {
        let bits = BitInput::from_bools(&[false; 9]);
        let plane = vec![1e-4; 9 * 4];
        assert_eq!(single(&plane, 4, &bits), vec![0.0; 4]);
    }
}
