//! Binary/ternary convolution tiled across differential crossbar pairs.
//!
//! The conv-on-crossbar mapping of the RRAM-BNN literature
//! (arXiv:1811.02187, arXiv:2505.07490): an im2col tiler lowers a small
//! conv layer to matrix-vector products, then shards the patch dimension
//! across several [`DifferentialPair`] tiles. Inputs are interface bits
//! (`0.0`/`1.0`, each tile reading its patch slice through
//! [`DifferentialPair::matvec_into`]) and weights are **ternary** (`−1`,
//! `0`, `+1`), so every true partial dot product is a small integer.
//!
//! ## The bit-identity argument
//!
//! Floating-point partial-sum folding is not associative, so raw analog
//! sums could never be bit-identical at every tile count. The tile
//! boundary here is therefore a **digital** interface, exactly as in the
//! paper's merged-interface designs: each tile's analog column output is
//! sensed to the nearest integer (its true partial sum — binary inputs ×
//! ternary weights keep clean-array analog error orders of magnitude
//! below the 0.5 decision distance), and the sensed integers are folded
//! in fixed tile order. Integer-valued `f64` additions are exact in any
//! grouping, so the folded output is bit-identical at 1, 2, or N tiles
//! **and** equal to the naive digital oracle [`direct_conv`]. A disturbed
//! array may flip a sensed integer — that is the accuracy cost the
//! workload model measures — but for a fixed tiling the result is still a
//! pure function of the device state.
//!
//! Each tile's sense stage is a small ADC: a tile covering `L` patch
//! positions produces partial sums in `[−L, L]`, so its interface is
//! `⌈log₂(2L+1)⌉` bits per filter ([`TiledConv::tile_bits`]).

use std::fmt;

use prng::Rng;
use rram::{DeviceParams, RetentionModel, VariationModel};

use crate::mapping::{MapWeightsError, MappingConfig};
use crate::pair::DifferentialPair;

/// Shape of a (valid-padding) conv layer over a binary image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Input channels (the patch walks channel-major).
    pub in_channels: usize,
    /// Input height in pixels.
    pub in_h: usize,
    /// Input width in pixels.
    pub in_w: usize,
    /// Output channels (filters).
    pub filters: usize,
    /// Square kernel edge length.
    pub kernel: usize,
    /// Stride in both directions.
    pub stride: usize,
}

impl ConvShape {
    /// Validate the shape: all dimensions nonzero and the kernel fits the
    /// image (valid padding — no implicit zero border).
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::BadShape`] when a dimension is zero or the
    /// kernel exceeds the image.
    pub fn validated(self) -> Result<Self, ConvError> {
        let ok = self.in_channels > 0
            && self.in_h > 0
            && self.in_w > 0
            && self.filters > 0
            && self.kernel > 0
            && self.stride > 0
            && self.kernel <= self.in_h
            && self.kernel <= self.in_w;
        if ok {
            Ok(self)
        } else {
            Err(ConvError::BadShape(self))
        }
    }

    /// Output feature-map height.
    #[must_use]
    pub fn out_h(&self) -> usize {
        (self.in_h - self.kernel) / self.stride + 1
    }

    /// Output feature-map width.
    #[must_use]
    pub fn out_w(&self) -> usize {
        (self.in_w - self.kernel) / self.stride + 1
    }

    /// Patches per image (`out_h × out_w`).
    #[must_use]
    pub fn patches(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// im2col patch length (`in_channels × kernel²`) — the conv's matvec
    /// input dimension.
    #[must_use]
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Input vector length (`in_channels × in_h × in_w`, channel-major).
    #[must_use]
    pub fn input_len(&self) -> usize {
        self.in_channels * self.in_h * self.in_w
    }

    /// Output vector length (`filters × out_h × out_w`, filter-major).
    #[must_use]
    pub fn output_len(&self) -> usize {
        self.filters * self.patches()
    }

    /// Write the im2col patch at output pixel `(ox, oy)` into `patch`
    /// (channel-major, then kernel-row-major — the layout [`TiledConv`]
    /// and the digital twin's training share).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != input_len()`, the pixel is out of range,
    /// or `patch.len() != patch_len()`.
    // Inlined across crates: `neural::train_ste` calls it per gradient pixel.
    #[inline]
    pub fn patch_into(&self, input: &[f64], ox: usize, oy: usize, patch: &mut [f64]) {
        assert_eq!(input.len(), self.input_len(), "conv input length");
        assert_eq!(patch.len(), self.patch_len(), "conv patch length");
        assert!(ox < self.out_w() && oy < self.out_h(), "patch out of range");
        let (x0, y0) = (ox * self.stride, oy * self.stride);
        let mut i = 0;
        for c in 0..self.in_channels {
            let plane = c * self.in_h * self.in_w;
            for ky in 0..self.kernel {
                let row = plane + (y0 + ky) * self.in_w + x0;
                patch[i..i + self.kernel].copy_from_slice(&input[row..row + self.kernel]);
                i += self.kernel;
            }
        }
    }
}

impl fmt::Display for ConvShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Invalid shapes (the ones error messages format) have no output
        // geometry; print zeros rather than underflow.
        let (oh, ow) = if self.validated().is_ok() {
            (self.out_h(), self.out_w())
        } else {
            (0, 0)
        };
        write!(
            f,
            "{}×{}×{} ⊛ {}@{}×{}/{} → {}×{}×{}",
            self.in_channels,
            self.in_h,
            self.in_w,
            self.filters,
            self.kernel,
            self.kernel,
            self.stride,
            self.filters,
            oh,
            ow
        )
    }
}

/// Error constructing a [`TiledConv`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConvError {
    /// A dimension is zero or the kernel does not fit the image.
    BadShape(ConvShape),
    /// The weight matrix is not `filters × patch_len`.
    WeightShape {
        /// Expected rows (filters).
        filters: usize,
        /// Expected columns (patch length).
        patch_len: usize,
    },
    /// A weight is outside `{−1, 0, +1}` — the integer-sensing contract
    /// needs exactly ternary weights.
    NotTernary {
        /// Offending filter row.
        filter: usize,
        /// Offending patch column.
        column: usize,
        /// The value found.
        value: f64,
    },
    /// The crossbar mapping rejected a tile's weights.
    Mapping(MapWeightsError),
}

impl fmt::Display for ConvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvError::BadShape(shape) => write!(f, "invalid conv shape {shape}"),
            ConvError::WeightShape { filters, patch_len } => {
                write!(f, "conv weights must be {filters}×{patch_len}")
            }
            ConvError::NotTernary {
                filter,
                column,
                value,
            } => write!(
                f,
                "weight[{filter}][{column}] = {value} is not in {{-1, 0, 1}}"
            ),
            ConvError::Mapping(err) => write!(f, "conv tile mapping failed: {err}"),
        }
    }
}

impl std::error::Error for ConvError {}

impl From<MapWeightsError> for ConvError {
    fn from(err: MapWeightsError) -> Self {
        ConvError::Mapping(err)
    }
}

/// Balanced contiguous shard of `patch_len` columns over `tiles` tiles:
/// `(start, len)` per tile, first `patch_len mod tiles` tiles one column
/// longer. `tiles` is clamped to `patch_len` (a tile needs a column), so
/// any requested count is serviceable; the partition is a pure function
/// of `(patch_len, tiles)`.
///
/// # Panics
///
/// Panics if either argument is zero.
#[must_use]
pub fn tile_ranges(patch_len: usize, tiles: usize) -> Vec<(usize, usize)> {
    assert!(patch_len > 0, "cannot tile an empty patch");
    assert!(tiles > 0, "at least one tile");
    let tiles = tiles.min(patch_len);
    let base = patch_len / tiles;
    let extra = patch_len % tiles;
    let mut ranges = Vec::with_capacity(tiles);
    let mut start = 0;
    for t in 0..tiles {
        let len = base + usize::from(t < extra);
        ranges.push((start, len));
        start += len;
    }
    ranges
}

/// The naive direct-convolution digital oracle: quadruple loop, no
/// im2col, no tiling. For binary inputs and ternary weights every
/// accumulation step is exact in `f64`, so this is the bitwise reference
/// the tiled analog path is pinned against.
///
/// # Panics
///
/// Panics if `weights` is not `filters × patch_len` or `input` is not
/// `input_len()` long.
#[must_use]
// Inlined across crates: `neural::train_ste` runs it once per sample and epoch.
#[inline]
pub fn direct_conv(shape: &ConvShape, weights: &[Vec<f64>], input: &[f64]) -> Vec<f64> {
    assert_eq!(weights.len(), shape.filters, "direct_conv filter count");
    assert_eq!(input.len(), shape.input_len(), "direct_conv input length");
    let (out_h, out_w, k) = (shape.out_h(), shape.out_w(), shape.kernel);
    let mut out = vec![0.0; shape.output_len()];
    for (f, w) in weights.iter().enumerate() {
        assert_eq!(w.len(), shape.patch_len(), "direct_conv weight row {f}");
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut acc = 0.0;
                let mut i = 0;
                for c in 0..shape.in_channels {
                    let plane = c * shape.in_h * shape.in_w;
                    for ky in 0..k {
                        let row = plane + (oy * shape.stride + ky) * shape.in_w + ox * shape.stride;
                        for kx in 0..k {
                            acc += w[i] * input[row + kx];
                            i += 1;
                        }
                    }
                }
                out[f * out_h * out_w + oy * out_w + ox] = acc;
            }
        }
    }
    out
}

/// One conv tile: a differential pair over a contiguous slice of the
/// patch dimension.
#[derive(Debug, Clone, PartialEq)]
struct ConvTile {
    pair: DifferentialPair,
    start: usize,
    len: usize,
}

/// Reusable scratch for [`TiledConv::forward_with`]: the im2col patch
/// and the per-tile output currents.
#[derive(Debug, Clone, Default)]
pub struct ConvWorkspace {
    patch: Vec<f64>,
    tile_out: Vec<f64>,
}

impl ConvWorkspace {
    /// An empty workspace; buffers grow to the largest conv they serve.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// A ternary conv layer sharded across differential crossbar tiles with
/// per-tile integer sensing (see the module docs for the bit-identity
/// argument).
#[derive(Debug, Clone, PartialEq)]
pub struct TiledConv {
    shape: ConvShape,
    tiles: Vec<ConvTile>,
}

impl TiledConv {
    /// Program a ternary conv layer (`weights` is `filters × patch_len`,
    /// entries in `{−1, 0, +1}`) onto `tiles` crossbar tiles under
    /// [`tile_ranges`].
    ///
    /// # Errors
    ///
    /// Returns [`ConvError`] on an invalid shape, mis-shaped or
    /// non-ternary weights, or an unmappable tile.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is zero.
    pub fn new(
        shape: ConvShape,
        weights: &[Vec<f64>],
        tiles: usize,
        params: DeviceParams,
        mapping: &MappingConfig,
    ) -> Result<Self, ConvError> {
        let shape = shape.validated()?;
        let patch_len = shape.patch_len();
        if weights.len() != shape.filters || weights.iter().any(|row| row.len() != patch_len) {
            return Err(ConvError::WeightShape {
                filters: shape.filters,
                patch_len,
            });
        }
        for (f, row) in weights.iter().enumerate() {
            for (j, &w) in row.iter().enumerate() {
                if w != -1.0 && w != 0.0 && w != 1.0 {
                    return Err(ConvError::NotTernary {
                        filter: f,
                        column: j,
                        value: w,
                    });
                }
            }
        }
        let tiles = tile_ranges(patch_len, tiles)
            .into_iter()
            .map(|(start, len)| {
                let slice: Vec<Vec<f64>> = weights
                    .iter()
                    .map(|row| row[start..start + len].to_vec())
                    .collect();
                let pair = DifferentialPair::from_weights(&slice, params, mapping)?;
                Ok(ConvTile { pair, start, len })
            })
            .collect::<Result<Vec<_>, MapWeightsError>>()?;
        Ok(Self { shape, tiles })
    }

    /// The conv shape.
    #[must_use]
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// Number of crossbar tiles the patch dimension is sharded over.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// The `(start, len)` patch range of tile `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn tile_range(&self, t: usize) -> (usize, usize) {
        (self.tiles[t].start, self.tiles[t].len)
    }

    /// Interface bits of tile `t`'s sense stage: a tile spanning `L`
    /// patch positions senses integer partial sums in `[−L, L]`, i.e.
    /// `⌈log₂(2L+1)⌉` bits per filter column.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn tile_bits(&self, t: usize) -> usize {
        let levels_minus_one = 2 * self.tiles[t].len; // 2L+1 levels → top code 2L
        (usize::BITS - levels_minus_one.leading_zeros()) as usize
    }

    /// Total sense-interface bits across all tiles and filter columns —
    /// the conv's whole digital tile interface.
    #[must_use]
    pub fn interface_bits(&self) -> usize {
        self.shape.filters
            * (0..self.tiles.len())
                .map(|t| self.tile_bits(t))
                .sum::<usize>()
    }

    /// Total RRAM devices across all tiles (both arrays of each pair).
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.tiles.iter().map(|t| t.pair.device_count()).sum()
    }

    /// Forward pass over a binary input image (`0.0`/`1.0` entries,
    /// channel-major): im2col per output pixel, per-tile matvec,
    /// integer sense, fixed-order fold. Output is filter-major
    /// (`filters × out_h × out_w`).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != shape.input_len()`.
    #[must_use]
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut ws = ConvWorkspace::new();
        self.forward_with(input, &mut ws)
    }

    /// [`forward`](Self::forward) against a caller-owned workspace — the
    /// allocation-free serving hot path. Bit-identical to
    /// [`forward`](Self::forward).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != shape.input_len()`.
    #[must_use]
    pub fn forward_with(&self, input: &[f64], ws: &mut ConvWorkspace) -> Vec<f64> {
        let shape = &self.shape;
        let (out_h, out_w, filters) = (shape.out_h(), shape.out_w(), shape.filters);
        let mut out = vec![0.0; shape.output_len()];
        ws.patch.resize(shape.patch_len(), 0.0);
        ws.tile_out.resize(filters, 0.0);
        for oy in 0..out_h {
            for ox in 0..out_w {
                shape.patch_into(input, ox, oy, &mut ws.patch);
                let pixel = oy * out_w + ox;
                // Fixed tile order: the fold visits tiles 0..T always.
                for tile in &self.tiles {
                    let slice = &ws.patch[tile.start..tile.start + tile.len];
                    tile.pair.matvec_into(slice, &mut ws.tile_out);
                    for (f, &current) in ws.tile_out.iter().enumerate() {
                        // The tile's sense stage: quantize the analog
                        // column current to the nearest integer partial
                        // sum. Integer folds are exact in f64.
                        out[f * out_h * out_w + pixel] += current.round();
                    }
                }
            }
        }
        out
    }

    /// Total write pulses across every tile's devices (endurance wear;
    /// see [`crate::array::CrossbarArray::total_writes`]).
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.tiles.iter().map(|t| t.pair.total_writes()).sum()
    }

    /// The worst-worn cell's write count across all tiles.
    #[must_use]
    pub fn max_write_count(&self) -> u64 {
        self.tiles
            .iter()
            .map(|t| t.pair.max_write_count())
            .max()
            .unwrap_or(0)
    }

    /// Apply a device-variation model to every tile (a write/refresh
    /// disturb: each cell's write counter advances once).
    pub fn disturb<R: Rng + ?Sized>(&mut self, variation: &VariationModel, rng: &mut R) {
        for tile in &mut self.tiles {
            tile.pair.disturb(variation, rng);
        }
    }

    /// Restore every device to its programmed target (no write pulses —
    /// targets are unchanged).
    pub fn restore(&mut self) {
        for tile in &mut self.tiles {
            tile.pair.restore();
        }
    }

    /// Age every device by `seconds` under a retention model.
    pub fn age(&mut self, retention: &RetentionModel, seconds: f64) {
        for tile in &mut self.tiles {
            tile.pair.age(retention, seconds);
        }
    }
}

impl fmt::Display for TiledConv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tiled conv {} over {} tiles ({} devices, {} interface bits)",
            self.shape,
            self.tiles.len(),
            self.device_count(),
            self.interface_bits()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prng::rngs::StdRng;
    use prng::{Rng, SeedableRng};

    fn shape() -> ConvShape {
        ConvShape {
            in_channels: 1,
            in_h: 6,
            in_w: 6,
            filters: 3,
            kernel: 3,
            stride: 1,
        }
    }

    fn ternary_weights(shape: &ConvShape, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..shape.filters)
            .map(|_| {
                (0..shape.patch_len())
                    .map(|_| f64::from((rng.gen::<u64>() % 3) as i32 - 1))
                    .collect()
            })
            .collect()
    }

    fn binary_input(shape: &ConvShape, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..shape.input_len())
            .map(|_| f64::from(u8::from(rng.gen::<u64>() % 2 == 0)))
            .collect()
    }

    fn conv(tiles: usize) -> TiledConv {
        TiledConv::new(
            shape(),
            &ternary_weights(&shape(), 1),
            tiles,
            DeviceParams::hfox(),
            &MappingConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn shape_arithmetic() {
        let s = shape();
        assert_eq!((s.out_h(), s.out_w()), (4, 4));
        assert_eq!(s.patch_len(), 9);
        assert_eq!(s.patches(), 16);
        assert_eq!(s.output_len(), 48);
        assert!(s.to_string().contains("1×6×6"));
    }

    #[test]
    fn tile_ranges_partition_the_patch() {
        assert_eq!(tile_ranges(9, 1), vec![(0, 9)]);
        assert_eq!(tile_ranges(9, 2), vec![(0, 5), (5, 4)]);
        assert_eq!(tile_ranges(9, 4), vec![(0, 3), (3, 2), (5, 2), (7, 2)]);
        // Clamped: more tiles than columns degenerates to one per column.
        assert_eq!(tile_ranges(3, 8).len(), 3);
        for (patch_len, tiles) in [(9, 2), (17, 5), (64, 7)] {
            let ranges = tile_ranges(patch_len, tiles);
            let mut next = 0;
            for (start, len) in ranges {
                assert_eq!(start, next, "contiguous");
                assert!(len > 0);
                next = start + len;
            }
            assert_eq!(next, patch_len, "covers the patch");
        }
    }

    #[test]
    fn tiled_forward_matches_direct_oracle_bitwise() {
        let s = shape();
        let w = ternary_weights(&s, 1);
        let x = binary_input(&s, 2);
        let oracle = direct_conv(&s, &w, &x);
        for tiles in [1, 2, 3, 9] {
            let c = conv(tiles);
            assert_eq!(c.forward(&x), oracle, "tiles = {tiles}");
        }
    }

    #[test]
    fn outputs_are_exact_integers() {
        let c = conv(3);
        let x = binary_input(&shape(), 7);
        for v in c.forward(&x) {
            assert_eq!(v, v.round());
            assert!(v.abs() <= shape().patch_len() as f64);
        }
    }

    #[test]
    fn tile_bits_cover_the_partial_sum_range() {
        let c = conv(2);
        // Tile 0 spans 5 columns: sums in [-5, 5] → 11 levels → 4 bits.
        assert_eq!(c.tile_range(0), (0, 5));
        assert_eq!(c.tile_bits(0), 4);
        // Tile 1 spans 4 columns: 9 levels → 4 bits.
        assert_eq!(c.tile_bits(1), 4);
        assert_eq!(c.interface_bits(), 3 * 8);
    }

    #[test]
    fn programming_writes_each_cell_exactly_once() {
        let c = conv(3);
        // Every device got exactly one program_clamped pulse.
        assert_eq!(c.total_writes(), c.device_count() as u64);
        assert_eq!(c.max_write_count(), 1);
    }

    #[test]
    fn disturb_counts_one_pulse_per_cell_and_restore_none() {
        let mut c = conv(2);
        let baseline = c.total_writes();
        let mut rng = StdRng::seed_from_u64(11);
        c.disturb(&VariationModel::process_variation(0.1), &mut rng);
        assert_eq!(c.total_writes(), baseline + c.device_count() as u64);
        let after_disturb = c.total_writes();
        c.restore();
        assert_eq!(c.total_writes(), after_disturb, "restore is not a write");
        assert_eq!(c.max_write_count(), 2);
    }

    #[test]
    fn disturb_changes_sensed_outputs_only_past_the_sense_margin() {
        let mut c = conv(1);
        let x = binary_input(&shape(), 9);
        let clean = c.forward(&x);
        // Tiny disturbance: integer sensing absorbs it entirely.
        let mut rng = StdRng::seed_from_u64(1);
        c.disturb(&VariationModel::process_variation(1e-6), &mut rng);
        assert_eq!(c.forward(&x), clean, "sense margin absorbs small noise");
        c.restore();
        assert_eq!(c.forward(&x), clean);
    }

    #[test]
    fn non_ternary_weights_rejected() {
        let s = shape();
        let mut w = ternary_weights(&s, 1);
        w[1][3] = 0.5;
        let err =
            TiledConv::new(s, &w, 2, DeviceParams::hfox(), &MappingConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            ConvError::NotTernary {
                filter: 1,
                column: 3,
                ..
            }
        ));
    }

    #[test]
    fn bad_shapes_and_weights_rejected() {
        let zero = ConvShape {
            kernel: 0,
            ..shape()
        };
        assert!(matches!(zero.validated(), Err(ConvError::BadShape(_))));
        let too_big = ConvShape {
            kernel: 7,
            ..shape()
        };
        assert!(too_big.validated().is_err());
        let err = TiledConv::new(
            shape(),
            &[vec![0.0; 4]],
            1,
            DeviceParams::hfox(),
            &MappingConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ConvError::WeightShape { .. }));
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let c = conv(2);
        let mut ws = ConvWorkspace::new();
        for seed in 0..4 {
            let x = binary_input(&shape(), seed);
            assert_eq!(c.forward_with(&x, &mut ws), c.forward(&x));
        }
    }

    #[test]
    fn display_mentions_tiles_and_bits() {
        let c = conv(2);
        let s = c.to_string();
        assert!(s.contains("2 tiles"), "{s}");
        assert!(s.contains("interface bits"), "{s}");
    }
}
