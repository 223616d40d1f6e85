//! The crossbar array: a grid of RRAM cells with analog readout.

use std::fmt;
use std::sync::OnceLock;

use prng::Rng;
use rram::{DeviceParams, RramDevice, VariationModel};

use crate::bitvec::BitInput;
use crate::ir_drop::IrDropConfig;
use crate::kernel;

/// An `rows × cols` crossbar of RRAM cells.
///
/// Rows are input ports (word lines), columns are output ports (bit lines).
/// Cell `(k, j)` sits at the crossing of row `k` and column `j`; its
/// conductance `g_kj` weights the contribution of input `k` to output `j`.
///
/// Two readout models are provided:
///
/// * [`column_currents`](Self::column_currents) — ideal virtual-ground
///   (transimpedance) sensing: `I_j = Σ_k g_kj · V_k`. This is exact analog
///   MVM and is the default execution path of the system.
/// * [`output_voltages_divider`](Self::output_voltages_divider) — the
///   resistive-load divider of paper Eq (1)–(2):
///   `V_oj = Σ_k c_kj V_ik`, `c_kj = g_kj / (g_s + Σ_l g_lj)`.
///
/// ```
/// use crossbar::CrossbarArray;
/// use rram::DeviceParams;
///
/// let mut xbar = CrossbarArray::new(2, 2, DeviceParams::ideal());
/// xbar.program_clamped(&[vec![1e-4, 2e-4], vec![3e-4, 4e-4]]);
/// let i = xbar.column_currents(&[1.0, 1.0]);
/// assert!((i[0] - 4e-4).abs() < 1e-12);
/// assert!((i[1] - 6e-4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct CrossbarArray {
    rows: usize,
    cols: usize,
    params: DeviceParams,
    /// Row-major: `cells[k * cols + j]` is the device at row `k`, column `j`.
    cells: Vec<RramDevice>,
    /// Lazily-built flat conductance plane (`plane[k * cols + j] = g_kj`)
    /// the readout kernels run over; invalidated by every device mutation
    /// (`program_clamped`, `cell_mut`, `disturb_all`, `restore_all`,
    /// `age_all`). `OnceLock` so shared readers can build it concurrently.
    plane: OnceLock<Vec<f64>>,
}

// The plane is derived state: two arrays are equal iff their devices are.
impl PartialEq for CrossbarArray {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.params == other.params
            && self.cells == other.cells
    }
}

impl CrossbarArray {
    /// Create an array with all cells fully RESET (at `g_off`).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(rows: usize, cols: usize, params: DeviceParams) -> Self {
        assert!(
            rows > 0 && cols > 0,
            "crossbar dimensions must be nonzero: {rows}×{cols}"
        );
        Self {
            rows,
            cols,
            params,
            cells: vec![RramDevice::new(params); rows * cols],
            plane: OnceLock::new(),
        }
    }

    /// The cached flat conductance plane, building it on first use.
    pub(crate) fn plane(&self) -> &[f64] {
        self.plane
            .get_or_init(|| self.cells.iter().map(RramDevice::conductance).collect())
    }

    /// Drop the cached plane; every `&mut self` device mutation calls this.
    fn invalidate_plane(&mut self) {
        self.plane.take();
    }

    /// Number of input rows (word lines).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of output columns (bit lines).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of RRAM cells (`rows × cols`).
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.cells.len()
    }

    /// Device parameter set shared by every cell.
    #[must_use]
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    /// The cell at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[must_use]
    pub fn cell(&self, row: usize, col: usize) -> &RramDevice {
        assert!(
            row < self.rows && col < self.cols,
            "cell ({row},{col}) out of bounds"
        );
        &self.cells[row * self.cols + col]
    }

    /// Mutable access to the cell at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn cell_mut(&mut self, row: usize, col: usize) -> &mut RramDevice {
        assert!(
            row < self.rows && col < self.cols,
            "cell ({row},{col}) out of bounds"
        );
        self.invalidate_plane();
        &mut self.cells[row * self.cols + col]
    }

    /// Program every cell from a `rows × cols` conductance matrix, saturating
    /// values at the device window (the weight-mapping layer is responsible
    /// for producing in-window targets; saturation here is a guard).
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape does not match the array.
    pub fn program_clamped(&mut self, conductances: &[Vec<f64>]) {
        assert_eq!(
            conductances.len(),
            self.rows,
            "conductance matrix row count"
        );
        self.invalidate_plane();
        for (k, row) in conductances.iter().enumerate() {
            assert_eq!(
                row.len(),
                self.cols,
                "conductance matrix column count in row {k}"
            );
            for (j, &g) in row.iter().enumerate() {
                self.cells[k * self.cols + j].program_clamped(g);
            }
        }
    }

    /// Snapshot of the current (post-variation) conductances, row-major.
    #[must_use]
    pub fn conductances(&self) -> Vec<Vec<f64>> {
        (0..self.rows)
            .map(|k| {
                (0..self.cols)
                    .map(|j| self.cells[k * self.cols + j].conductance())
                    .collect()
            })
            .collect()
    }

    /// Apply a variation model to every cell (re-sampling each actual
    /// conductance from its programmed target).
    pub fn disturb_all<R: Rng + ?Sized>(&mut self, variation: &VariationModel, rng: &mut R) {
        self.invalidate_plane();
        for cell in &mut self.cells {
            cell.disturb(variation, rng);
        }
    }

    /// Restore every cell to its programmed target (undo all disturbances).
    pub fn restore_all(&mut self) {
        self.invalidate_plane();
        for cell in &mut self.cells {
            cell.restore();
        }
    }

    /// Age every cell by `seconds` under a retention model (conductances
    /// drift; targets stay, so [`restore_all`](Self::restore_all) models a
    /// refresh cycle).
    pub fn age_all(&mut self, retention: &rram::RetentionModel, seconds: f64) {
        self.invalidate_plane();
        for cell in &mut self.cells {
            retention.age(cell, seconds);
        }
    }

    /// Total write pulses across all cells (see
    /// [`RramDevice::write_count`]): programming, re-programming under a
    /// variation model. Endurance wear for the wear-aware placement layer.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.cells.iter().map(RramDevice::write_count).sum()
    }

    /// The worst-worn cell's write count — the array's endurance
    /// bottleneck (a crossbar dies at its most-cycled filament, not at
    /// the average one).
    #[must_use]
    pub fn max_write_count(&self) -> u64 {
        self.cells
            .iter()
            .map(RramDevice::write_count)
            .max()
            .unwrap_or(0)
    }

    /// Mean relative programming error over all cells (nonzero only after
    /// [`disturb_all`](Self::disturb_all)).
    #[must_use]
    pub fn mean_programming_error(&self) -> f64 {
        let sum: f64 = self.cells.iter().map(RramDevice::programming_error).sum();
        sum / self.cells.len() as f64
    }

    /// Ideal virtual-ground readout: `I_j = Σ_k g_kj · V_k` for every column.
    ///
    /// Runs over the cached conductance plane; bit-identical to
    /// [`column_currents_uncached`](Self::column_currents_uncached).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != rows`.
    #[must_use]
    pub fn column_currents(&self, inputs: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.column_currents_into(inputs, &mut out);
        out
    }

    /// [`column_currents`](Self::column_currents) into a caller-provided
    /// buffer (overwritten), for allocation-free serving loops.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != rows` or `out.len() != cols`.
    pub fn column_currents_into(&self, inputs: &[f64], out: &mut [f64]) {
        assert_eq!(inputs.len(), self.rows, "input vector length");
        assert_eq!(out.len(), self.cols, "output buffer length");
        kernel::matvec([self.plane()], self.cols, inputs, out, |[i]| i);
    }

    /// Masked-column-sum readout for exact-binary inputs: bit-identical to
    /// [`column_currents`](Self::column_currents) on the unpacked vector,
    /// but multiply-free and skipping 64 zero rows per word.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != rows`.
    #[must_use]
    pub fn column_currents_binary(&self, bits: &BitInput) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.column_currents_binary_into(bits, &mut out);
        out
    }

    /// [`column_currents_binary`](Self::column_currents_binary) into a
    /// caller-provided buffer (overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != rows` or `out.len() != cols`.
    pub fn column_currents_binary_into(&self, bits: &BitInput, out: &mut [f64]) {
        assert_eq!(bits.len(), self.rows, "input vector length");
        assert_eq!(out.len(), self.cols, "output buffer length");
        kernel::matvec([self.plane()], self.cols, bits, out, |[i]| i);
    }

    /// The original cell-walk readout, kept as the bit-exact reference the
    /// plane-cached kernels are pinned against (property-tested after every
    /// invalidation event; also the honest baseline in the kernels bench).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != rows`.
    #[must_use]
    pub fn column_currents_uncached(&self, inputs: &[f64]) -> Vec<f64> {
        assert_eq!(inputs.len(), self.rows, "input vector length");
        let mut out = vec![0.0; self.cols];
        for (k, &v) in inputs.iter().enumerate() {
            if v == 0.0 {
                continue;
            }
            let row = &self.cells[k * self.cols..(k + 1) * self.cols];
            for (j, cell) in row.iter().enumerate() {
                out[j] += cell.conductance() * v;
            }
        }
        out
    }

    /// Virtual-ground readout through the wire-resistance grid.
    ///
    /// With `config.wire_resistance == 0` this equals
    /// [`column_currents`](Self::column_currents); otherwise the voltage drop
    /// along word/bit lines attenuates far cells (IR drop).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != rows`.
    #[must_use]
    pub fn column_currents_ir(&self, inputs: &[f64], config: &IrDropConfig) -> Vec<f64> {
        if config.wire_resistance == 0.0 {
            return self.column_currents(inputs);
        }
        crate::ir_drop::solve_grid(self, inputs, config)
    }

    /// Resistive-divider readout of paper Eq (1)–(2) with load conductance
    /// `g_s` on every column:
    ///
    /// ```text
    /// V_oj = Σ_k c_kj · V_ik,   c_kj = g_kj / (g_s + Σ_l g_lj)
    /// ```
    ///
    /// (The normalization sums the conductances of column `j`, which is the
    /// physical voltage divider formed by the column's cells against the
    /// load; see Hu et al., DAC 2012.)
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != rows` or `g_s <= 0`.
    #[must_use]
    pub fn output_voltages_divider(&self, inputs: &[f64], g_s: f64) -> Vec<f64> {
        assert_eq!(inputs.len(), self.rows, "input vector length");
        assert!(g_s > 0.0, "load conductance must be positive, got {g_s}");
        let currents = self.column_currents(inputs);
        (0..self.cols)
            .map(|j| {
                let col_sum: f64 = (0..self.rows)
                    .map(|k| self.cells[k * self.cols + j].conductance())
                    .sum();
                currents[j] / (g_s + col_sum)
            })
            .collect()
    }

    /// The effective coefficient matrix `c_kj` of the divider readout, useful
    /// for verifying a mapping (`cols × rows`, i.e. `result[j][k]`).
    #[must_use]
    pub fn divider_coefficients(&self, g_s: f64) -> Vec<Vec<f64>> {
        assert!(g_s > 0.0, "load conductance must be positive, got {g_s}");
        (0..self.cols)
            .map(|j| {
                let col_sum: f64 = (0..self.rows)
                    .map(|k| self.cells[k * self.cols + j].conductance())
                    .sum();
                (0..self.rows)
                    .map(|k| self.cells[k * self.cols + j].conductance() / (g_s + col_sum))
                    .collect()
            })
            .collect()
    }

    /// Static read power at the given inputs: `P = Σ_kj g_kj · V_k²`.
    ///
    /// This is the instantaneous ohmic dissipation in the cells themselves
    /// (the cost model in the `interface` crate uses per-cell averages; this
    /// method supports cross-checking them).
    #[must_use]
    pub fn read_power(&self, inputs: &[f64]) -> f64 {
        assert_eq!(inputs.len(), self.rows, "input vector length");
        let mut p = 0.0;
        for (k, &v) in inputs.iter().enumerate() {
            let row = &self.cells[k * self.cols..(k + 1) * self.cols];
            let row_g: f64 = row.iter().map(RramDevice::conductance).sum();
            p += row_g * v * v;
        }
        p
    }
}

impl fmt::Display for CrossbarArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}×{} RRAM crossbar ({} cells)",
            self.rows,
            self.cols,
            self.device_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prng::rngs::StdRng;
    use prng::SeedableRng;

    fn two_by_two() -> CrossbarArray {
        let mut x = CrossbarArray::new(2, 2, DeviceParams::ideal());
        x.program_clamped(&[vec![1e-4, 2e-4], vec![3e-4, 4e-4]]);
        x
    }

    #[test]
    fn new_array_is_fully_reset() {
        let p = DeviceParams::ideal();
        let x = CrossbarArray::new(3, 4, p);
        assert_eq!(x.rows(), 3);
        assert_eq!(x.cols(), 4);
        assert_eq!(x.device_count(), 12);
        assert!(x.conductances().iter().flatten().all(|&g| g == p.g_off));
    }

    #[test]
    #[should_panic(expected = "dimensions must be nonzero")]
    fn zero_dimension_rejected() {
        let _ = CrossbarArray::new(0, 4, DeviceParams::ideal());
    }

    #[test]
    fn program_and_read_back() {
        let x = two_by_two();
        assert_eq!(x.cell(0, 1).conductance(), 2e-4);
        assert_eq!(x.cell(1, 0).conductance(), 3e-4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn cell_out_of_bounds_panics() {
        let x = two_by_two();
        let _ = x.cell(2, 0);
    }

    #[test]
    fn column_currents_compute_matvec() {
        let x = two_by_two();
        let i = x.column_currents(&[2.0, -1.0]);
        // col0: 1e-4*2 + 3e-4*(-1) = -1e-4 ; col1: 2e-4*2 + 4e-4*(-1) = 0
        assert!((i[0] + 1e-4).abs() < 1e-15);
        assert!(i[1].abs() < 1e-15);
    }

    #[test]
    fn zero_input_shortcut_matches_full_path() {
        let x = two_by_two();
        let a = x.column_currents(&[0.0, 1.0]);
        let b = x.column_currents(&[1e-30, 1.0]);
        assert!((a[0] - b[0]).abs() < 1e-20);
    }

    #[test]
    #[should_panic(expected = "input vector length")]
    fn wrong_input_length_panics() {
        let x = two_by_two();
        let _ = x.column_currents(&[1.0]);
    }

    #[test]
    fn divider_output_matches_manual_formula() {
        let x = two_by_two();
        let g_s = 1e-3;
        let v = x.output_voltages_divider(&[1.0, 1.0], g_s);
        let c00 = 1e-4 / (g_s + 4e-4);
        let c10 = 3e-4 / (g_s + 4e-4);
        assert!((v[0] - (c00 + c10)).abs() < 1e-12);
    }

    #[test]
    fn divider_coefficients_sum_below_one() {
        let x = two_by_two();
        for col in x.divider_coefficients(1e-3) {
            let s: f64 = col.iter().sum();
            assert!(s < 1.0, "divider coefficients must sum below 1, got {s}");
        }
    }

    #[test]
    fn divider_output_bounded_by_max_input() {
        // The divider is a convex-ish combination with total weight < 1:
        // outputs cannot exceed the largest input voltage.
        let x = two_by_two();
        let v = x.output_voltages_divider(&[1.0, 1.0], 1e-4);
        assert!(v.iter().all(|&o| o.abs() <= 1.0));
    }

    #[test]
    #[should_panic(expected = "load conductance")]
    fn divider_rejects_nonpositive_load() {
        let x = two_by_two();
        let _ = x.output_voltages_divider(&[1.0, 1.0], 0.0);
    }

    #[test]
    fn disturb_and_restore_roundtrip() {
        let mut x = two_by_two();
        let before = x.conductances();
        let mut rng = StdRng::seed_from_u64(1);
        x.disturb_all(&VariationModel::process_variation(0.5), &mut rng);
        assert_ne!(x.conductances(), before);
        assert!(x.mean_programming_error() > 0.0);
        x.restore_all();
        assert_eq!(x.conductances(), before);
        assert_eq!(x.mean_programming_error(), 0.0);
    }

    #[test]
    fn write_counters_accumulate_over_program_and_disturb() {
        let mut x = two_by_two();
        // two_by_two programs every cell once.
        assert_eq!(x.total_writes(), 4);
        assert_eq!(x.max_write_count(), 1);
        let mut rng = StdRng::seed_from_u64(2);
        x.disturb_all(&VariationModel::process_variation(0.1), &mut rng);
        assert_eq!(x.total_writes(), 8, "disturb_all re-programs every cell");
        // Aging and refresh-restore are not write pulses.
        x.age_all(&rram::RetentionModel::hfox_room_temperature(), 1.0);
        x.restore_all();
        assert_eq!(x.total_writes(), 8);
        // A single-cell rewrite moves only that cell's counter.
        x.cell_mut(0, 0).program_clamped(2e-4);
        assert_eq!(x.total_writes(), 9);
        assert_eq!(x.max_write_count(), 3);
    }

    #[test]
    fn ir_readout_with_zero_wire_resistance_matches_ideal() {
        let x = two_by_two();
        let cfg = IrDropConfig {
            wire_resistance: 0.0,
            ..IrDropConfig::default()
        };
        assert_eq!(
            x.column_currents_ir(&[1.0, 0.5], &cfg),
            x.column_currents(&[1.0, 0.5])
        );
    }

    #[test]
    fn read_power_matches_manual_sum() {
        let x = two_by_two();
        let p = x.read_power(&[1.0, 2.0]);
        let expect = (1e-4 + 2e-4) * 1.0 + (3e-4 + 4e-4) * 4.0;
        assert!((p - expect).abs() < 1e-15);
    }

    #[test]
    fn program_clamped_saturates_out_of_window_values() {
        let p = DeviceParams::ideal();
        let mut x = CrossbarArray::new(1, 2, p);
        x.program_clamped(&[vec![10.0, -3.0]]);
        assert_eq!(x.cell(0, 0).conductance(), p.g_on);
        assert_eq!(x.cell(0, 1).conductance(), p.g_off);
    }

    #[test]
    fn display_mentions_shape() {
        assert!(format!("{}", two_by_two()).contains("2×2"));
    }

    #[test]
    fn cached_kernel_matches_cell_walk_bit_for_bit() {
        let x = two_by_two();
        let inputs = [0.7, -1.3];
        let cached = x.column_currents(&inputs);
        assert_eq!(cached, x.column_currents_uncached(&inputs));
        let mut buf = vec![f64::NAN; 2];
        x.column_currents_into(&inputs, &mut buf);
        assert_eq!(buf, cached);
    }

    #[test]
    fn binary_readout_matches_scalar_bits() {
        let x = two_by_two();
        let bits = BitInput::try_from_values(&[1.0, 0.0]).unwrap();
        assert_eq!(
            x.column_currents_binary(&bits),
            x.column_currents(&[1.0, 0.0])
        );
    }

    #[test]
    fn every_mutation_invalidates_the_plane() {
        let mut x = two_by_two();
        let probe = [1.0, 1.0];
        let check = |x: &CrossbarArray| {
            assert_eq!(
                x.column_currents(&probe),
                x.column_currents_uncached(&probe),
                "cached plane must track the cells"
            );
        };
        check(&x); // warm the cache
        x.cell_mut(0, 0).program_clamped(5e-4);
        check(&x);
        x.program_clamped(&[vec![2e-4, 1e-4], vec![4e-4, 3e-4]]);
        check(&x);
        let mut rng = StdRng::seed_from_u64(11);
        x.disturb_all(&VariationModel::process_variation(0.3), &mut rng);
        check(&x);
        x.age_all(&rram::RetentionModel::new(0.1, 1.0), 100.0);
        check(&x);
        x.restore_all();
        check(&x);
    }

    #[test]
    fn equality_ignores_the_cached_plane() {
        let a = two_by_two();
        let b = two_by_two();
        let _ = a.column_currents(&[1.0, 1.0]); // warm a's cache only
        assert_eq!(a, b);
    }
}
