//! The differential crossbar pair: signed analog matrix-vector multiply.

use std::fmt;

use prng::Rng;
use rram::{DeviceParams, VariationModel};

use crate::array::CrossbarArray;
use crate::bitvec::BitInput;
use crate::ir_drop::IrDropConfig;
use crate::kernel::{self, Rows};
use crate::mapping::{map_differential, MapWeightsError, MappingConfig};

/// A pair of crossbar arrays computing `y = W·x` for a signed weight matrix.
///
/// This is the tile the paper budgets `2·(I+O)·H` devices for: one array
/// carries the positive weight parts, the other the negative parts, and the
/// sensing circuit subtracts their column currents. Process variation is
/// applied to the programmed devices via [`disturb`](Self::disturb); signal
/// fluctuation is applied to the input vector before each evaluation
/// ([`SignalFluctuation::apply_in_place`](crate::SignalFluctuation::apply_in_place)).
///
/// ```
/// use crossbar::{DifferentialPair, MappingConfig};
/// use rram::DeviceParams;
///
/// # fn main() -> Result<(), crossbar::MapWeightsError> {
/// let w = vec![vec![1.0, -0.5]];
/// let pair = DifferentialPair::from_weights(&w, DeviceParams::hfox(), &MappingConfig::default())?;
/// let y = pair.matvec(&[0.2, 0.4]);
/// assert!((y[0] - 0.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DifferentialPair {
    plus: CrossbarArray,
    minus: CrossbarArray,
    current_scale: f64,
    outputs: usize,
    inputs: usize,
}

impl DifferentialPair {
    /// Program a differential pair from a signed weight matrix
    /// (`outputs × inputs` orientation, matching neural-layer storage).
    ///
    /// # Errors
    ///
    /// Returns [`MapWeightsError`] if the matrix is empty, ragged, or
    /// contains non-finite entries.
    pub fn from_weights(
        weights: &[Vec<f64>],
        params: DeviceParams,
        config: &MappingConfig,
    ) -> Result<Self, MapWeightsError> {
        let mapping = map_differential(weights, &params, config)?;
        let inputs = mapping.g_plus.len();
        let outputs = mapping.g_plus[0].len();
        let mut plus = CrossbarArray::new(inputs, outputs, params);
        let mut minus = CrossbarArray::new(inputs, outputs, params);
        plus.program_clamped(&mapping.g_plus);
        minus.program_clamped(&mapping.g_minus);
        Ok(Self {
            plus,
            minus,
            current_scale: mapping.current_scale,
            outputs,
            inputs,
        })
    }

    /// Number of input ports.
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of output ports.
    #[must_use]
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// Total RRAM device count across both arrays (`2 × inputs × outputs`).
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.plus.device_count() + self.minus.device_count()
    }

    /// The positive-weight array.
    #[must_use]
    pub fn plus(&self) -> &CrossbarArray {
        &self.plus
    }

    /// The negative-weight array.
    #[must_use]
    pub fn minus(&self) -> &CrossbarArray {
        &self.minus
    }

    /// Total write pulses across both arrays — the pair's endurance wear.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.plus.total_writes() + self.minus.total_writes()
    }

    /// The worst-worn cell's write count across both arrays.
    #[must_use]
    pub fn max_write_count(&self) -> u64 {
        self.plus
            .max_write_count()
            .max(self.minus.max_write_count())
    }

    /// Ideal analog matrix-vector product `W·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != inputs()`.
    #[must_use]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.outputs];
        self.matvec_into(x, &mut out);
        out
    }

    /// [`matvec`](Self::matvec) into a caller-provided buffer (overwritten):
    /// the allocation-free serving hot path. One kernel pass reads the
    /// plus and minus planes together and senses `(I⁺ − I⁻) · scale` per
    /// column.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != inputs()` or `out.len() != outputs()`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.inputs, "input vector length");
        self.sense_into(x, out);
    }

    /// Matrix-vector product over a bit-packed binary input: bit-identical
    /// to [`matvec`](Self::matvec) on the unpacked `0.0`/`1.0` vector, but
    /// multiply-free in the column accumulation (masked column sums over
    /// the cached conductance planes).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != inputs()`.
    #[must_use]
    pub fn matvec_binary(&self, bits: &BitInput) -> Vec<f64> {
        let mut out = vec![0.0; self.outputs];
        self.matvec_binary_into(bits, &mut out);
        out
    }

    /// [`matvec_binary`](Self::matvec_binary) into a caller-provided
    /// buffer (overwritten), in one pass over both planes.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != inputs()` or `out.len() != outputs()`.
    pub fn matvec_binary_into(&self, bits: &BitInput, out: &mut [f64]) {
        assert_eq!(bits.len(), self.inputs, "input vector length");
        self.sense_into(bits, out);
    }

    /// The one kernel pass over both planes, sensing each column as
    /// `(I⁺ − I⁻) · scale`.
    fn sense_into(&self, rows: impl Rows, out: &mut [f64]) {
        assert_eq!(out.len(), self.outputs, "output buffer length");
        let planes = [self.plus.plane(), self.minus.plane()];
        let scale = self.current_scale;
        kernel::matvec(planes, self.outputs, rows, out, |[plus, minus]| {
            (plus - minus) * scale
        });
    }

    /// [`matvec`](Self::matvec), routing through the bit-packed path when
    /// `x` is an exact interface-bit vector (every entry `0.0` or `1.0`).
    /// Always bit-identical to [`matvec`](Self::matvec), so callers can use
    /// it unconditionally; the packed detour only changes speed.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != inputs()`.
    #[must_use]
    pub fn matvec_auto(&self, x: &[f64]) -> Vec<f64> {
        match BitInput::try_from_values(x) {
            Some(bits) => self.matvec_binary(&bits),
            None => self.matvec(x),
        }
    }

    /// The pre-kernel cell-walk matvec, kept as the bit-exact reference for
    /// property tests and the honest baseline in the kernels bench.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != inputs()`.
    #[must_use]
    pub fn matvec_uncached(&self, x: &[f64]) -> Vec<f64> {
        let ip = self.plus.column_currents_uncached(x);
        let im = self.minus.column_currents_uncached(x);
        ip.iter()
            .zip(&im)
            .map(|(&a, &b)| (a - b) * self.current_scale)
            .collect()
    }

    /// Matrix-vector product through the IR-drop wire model.
    #[must_use]
    pub fn matvec_ir(&self, x: &[f64], config: &IrDropConfig) -> Vec<f64> {
        let ip = self.plus.column_currents_ir(x, config);
        let im = self.minus.column_currents_ir(x, config);
        ip.iter()
            .zip(&im)
            .map(|(&a, &b)| (a - b) * self.current_scale)
            .collect()
    }

    /// Apply a device-variation model to every cell of both arrays.
    pub fn disturb<R: Rng + ?Sized>(&mut self, variation: &VariationModel, rng: &mut R) {
        self.plus.disturb_all(variation, rng);
        self.minus.disturb_all(variation, rng);
    }

    /// Restore every cell to its programmed target.
    pub fn restore(&mut self) {
        self.plus.restore_all();
        self.minus.restore_all();
    }

    /// Age every cell of both arrays by `seconds` under a retention model.
    pub fn age(&mut self, retention: &rram::RetentionModel, seconds: f64) {
        self.plus.age_all(retention, seconds);
        self.minus.age_all(retention, seconds);
    }

    /// Instantaneous ohmic read power dissipated in the RRAM cells of both
    /// arrays at input voltages `x`, in watts (for volt-scale inputs and
    /// siemens-scale conductances).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != inputs()`.
    #[must_use]
    pub fn read_power(&self, x: &[f64]) -> f64 {
        self.plus.read_power(x) + self.minus.read_power(x)
    }

    /// The effective signed weight matrix currently realized by the pair
    /// (`outputs × inputs`), including any applied variation.
    #[must_use]
    pub fn effective_weights(&self) -> Vec<Vec<f64>> {
        let gp = self.plus.conductances();
        let gm = self.minus.conductances();
        (0..self.outputs)
            .map(|j| {
                (0..self.inputs)
                    .map(|k| (gp[k][j] - gm[k][j]) * self.current_scale)
                    .collect()
            })
            .collect()
    }
}

impl fmt::Display for DifferentialPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "differential pair {}→{} ({} devices)",
            self.inputs,
            self.outputs,
            self.device_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prng::rngs::StdRng;
    use prng::SeedableRng;

    fn sample_weights() -> Vec<Vec<f64>> {
        vec![vec![0.5, -1.0, 0.25], vec![-0.125, 2.0, 0.0]]
    }

    fn pair() -> DifferentialPair {
        DifferentialPair::from_weights(
            &sample_weights(),
            DeviceParams::hfox(),
            &MappingConfig::default(),
        )
        .unwrap()
    }

    fn manual_matvec(w: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        w.iter()
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    #[test]
    fn matvec_matches_exact_product() {
        let p = pair();
        let x = [0.3, -0.7, 1.0];
        let y = p.matvec(&x);
        let expect = manual_matvec(&sample_weights(), &x);
        for (a, b) in y.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn dimensions_and_device_count() {
        let p = pair();
        assert_eq!(p.inputs(), 3);
        assert_eq!(p.outputs(), 2);
        assert_eq!(p.device_count(), 2 * 3 * 2);
    }

    #[test]
    fn effective_weights_roundtrip() {
        let p = pair();
        let w = p.effective_weights();
        for (row_a, row_b) in w.iter().zip(&sample_weights()) {
            for (a, b) in row_a.iter().zip(row_b) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn disturb_changes_results_and_restore_undoes() {
        let mut p = pair();
        let x = [0.5, 0.5, 0.5];
        let clean = p.matvec(&x);
        let mut rng = StdRng::seed_from_u64(9);
        p.disturb(&VariationModel::process_variation(0.5), &mut rng);
        let disturbed = p.matvec(&x);
        assert_ne!(disturbed, clean);
        p.restore();
        assert_eq!(p.matvec(&x), clean);
    }

    #[test]
    fn variation_error_shrinks_with_sigma() {
        // Smaller σ ⇒ smaller average output deviation (statistically).
        let x = [1.0, 1.0, 1.0];
        let deviation = |sigma: f64| {
            let mut total = 0.0;
            for seed in 0..30 {
                let mut p = pair();
                let clean = p.matvec(&x);
                let mut rng = StdRng::seed_from_u64(seed);
                p.disturb(&VariationModel::process_variation(sigma), &mut rng);
                let d = p.matvec(&x);
                total += clean
                    .iter()
                    .zip(&d)
                    .map(|(a, b)| (a - b).abs())
                    .sum::<f64>();
            }
            total
        };
        assert!(deviation(0.05) < deviation(0.8));
    }

    #[test]
    fn ir_matvec_with_ideal_wires_matches_matvec() {
        let p = pair();
        let x = [0.1, 0.2, 0.3];
        assert_eq!(p.matvec_ir(&x, &IrDropConfig::ideal()), p.matvec(&x));
    }

    #[test]
    fn zero_weight_matrix_gives_zero_output() {
        let p = DifferentialPair::from_weights(
            &[vec![0.0, 0.0]],
            DeviceParams::hfox(),
            &MappingConfig::default(),
        )
        .unwrap();
        assert_eq!(p.matvec(&[1.0, 1.0]), vec![0.0]);
    }

    #[test]
    fn display_mentions_shape() {
        assert!(format!("{}", pair()).contains("3→2"));
    }

    #[test]
    fn into_binary_auto_and_uncached_paths_agree_bitwise() {
        let p = pair();
        let x = [1.0, 0.0, 1.0];
        let scalar = p.matvec(&x);
        assert_eq!(scalar, p.matvec_uncached(&x));
        assert_eq!(scalar, p.matvec_auto(&x));
        let bits = BitInput::try_from_values(&x).unwrap();
        assert_eq!(scalar, p.matvec_binary(&bits));
        let mut out = vec![f64::NAN; 2];
        p.matvec_into(&x, &mut out);
        assert_eq!(out, scalar);
        p.matvec_binary_into(&bits, &mut out);
        assert_eq!(out, scalar);
        // Non-binary inputs fall back to the scalar path.
        let y = [0.5, -0.25, 1.0];
        assert_eq!(p.matvec_auto(&y), p.matvec(&y));
    }

    #[test]
    fn read_power_is_positive_and_scales_quadratically() {
        let p = pair();
        let x1 = [0.5, 0.5, 0.5];
        let x2 = [1.0, 1.0, 1.0];
        let p1 = p.read_power(&x1);
        let p2 = p.read_power(&x2);
        assert!(p1 > 0.0);
        assert!((p2 / p1 - 4.0).abs() < 1e-9, "P ∝ V²: {p1} vs {p2}");
        assert_eq!(p.read_power(&[0.0, 0.0, 0.0]), 0.0);
    }
}
