//! Fixed-point bit codec: the data format of the merged interface.
//!
//! A B-bit converter represents an analog value `x ∈ [0, 1)` as the unsigned
//! fixed-point fraction `k / 2^B`, `k = ⌊x·2^B + ½⌋` clamped to `2^B − 1`.
//! Bit 0 of the encoded array is the **most significant bit** (weight
//! `2^-1`); the paper's LSB of an 8-bit array accordingly "accounts for a
//! value of 2^-8" (§4.3).
//!
//! MEI replaces each analog port with a *group* of `B` binary ports carrying
//! exactly these bits; [`InterfaceSpec`] describes such a grouped interface,
//! including pruned variants where only the most significant `bits` of each
//! group survive (Table 1's `(D·B)` notation).

use std::fmt;

/// Maximum supported bit width of one group (limited by exact `f64`
/// integer arithmetic; far beyond any practical AD/DA).
pub const MAX_BITS: usize = 32;

/// How a group's integer code is mapped to wire levels.
///
/// The paper uses plain binary. Gray coding is provided as an extension
/// experiment (`ablation_encoding`): adjacent codes differ in exactly one
/// bit, removing the "Hamming cliffs" of binary fixed point (e.g. binary
/// `0.5 − ε → 0111…` vs `0.5 → 1000…`), which are where a merged-interface
/// network pays most for small analog uncertainties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BitCoding {
    /// Plain MSB-first binary fixed point (the paper's format).
    #[default]
    Binary,
    /// Reflected binary Gray code over the same `2^B` levels.
    Gray,
}

impl fmt::Display for BitCoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitCoding::Binary => write!(f, "binary"),
            BitCoding::Gray => write!(f, "gray"),
        }
    }
}

/// Encode `x ∈ [0, 1)` into `bits` binary digits, MSB first.
///
/// Values outside `[0, 1)` saturate. Each returned element is exactly `0.0`
/// or `1.0`, ready to drive a binary crossbar port.
///
/// ```
/// use interface::encode_fraction;
/// assert_eq!(encode_fraction(0.5, 3), vec![1.0, 0.0, 0.0]);
/// assert_eq!(encode_fraction(0.875, 3), vec![1.0, 1.0, 1.0]);
/// assert_eq!(encode_fraction(0.0, 3), vec![0.0, 0.0, 0.0]);
/// ```
///
/// # Panics
///
/// Panics if `bits` is zero or exceeds [`MAX_BITS`].
#[must_use]
pub fn encode_fraction(x: f64, bits: usize) -> Vec<f64> {
    encode_fraction_coded(x, bits, BitCoding::Binary)
}

/// [`encode_fraction`] with an explicit wire coding.
///
/// # Panics
///
/// Panics if `bits` is zero or exceeds [`MAX_BITS`].
#[must_use]
pub fn encode_fraction_coded(x: f64, bits: usize, coding: BitCoding) -> Vec<f64> {
    let mut out = zeros(bits);
    encode_into(x, coding, &mut out);
    out
}

/// `n` zeros for an `_into` call to overwrite. Filled after a plain
/// allocation: for vectors this short, `vec![0.0; n]`'s zeroed allocation
/// measured about twice as slow.
fn zeros(n: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    out.resize(n, 0.0);
    out
}

/// The `bits`-bit code of `x`: `⌊x·2^B + ½⌋` clamped to `2^B − 1`.
///
/// # Panics
///
/// Panics if `bits` is zero or exceeds [`MAX_BITS`].
fn code(x: f64, bits: usize) -> u64 {
    assert!(
        bits > 0 && bits <= MAX_BITS,
        "bit width must be in 1..={MAX_BITS}, got {bits}"
    );
    let levels = (1u64 << bits) as f64;
    // NaN reads as zero drive; ±∞ saturate like any other out-of-range value.
    let x = if x.is_nan() { 0.0 } else { x.clamp(0.0, 1.0) };
    ((x * levels).round() as u64).min((1u64 << bits) - 1)
}

/// Encode `x` into `out.len()` bits under `coding`, MSB first.
fn encode_into(x: f64, coding: BitCoding, out: &mut [f64]) {
    let bits = out.len();
    let mut k = code(x, bits);
    if coding == BitCoding::Gray {
        k ^= k >> 1;
    }
    for (b, o) in out.iter_mut().enumerate() {
        *o = ((k >> (bits - 1 - b)) & 1) as f64;
    }
}

/// Decode a bit array (MSB first) back to the fraction `k / 2^B`.
///
/// Any value `≥ 0.5` counts as a 1 — this is exactly the comparator
/// thresholding MEI applies to its analog output ports.
///
/// ```
/// use interface::decode_bits;
/// assert_eq!(decode_bits(&[1.0, 0.0, 0.0]), 0.5);
/// // Analog levels are thresholded:
/// assert_eq!(decode_bits(&[0.9, 0.2, 0.6]), 0.625);
/// ```
///
/// # Panics
///
/// Panics if the slice is empty or longer than [`MAX_BITS`].
#[must_use]
pub fn decode_bits(bits: &[f64]) -> f64 {
    decode_bits_coded(bits, BitCoding::Binary)
}

/// [`decode_bits`] with an explicit wire coding.
///
/// # Panics
///
/// Panics if the slice is empty or longer than [`MAX_BITS`].
#[must_use]
pub fn decode_bits_coded(bits: &[f64], coding: BitCoding) -> f64 {
    assert!(
        !bits.is_empty() && bits.len() <= MAX_BITS,
        "bit array length must be in 1..={MAX_BITS}, got {}",
        bits.len()
    );
    let mut k = 0u64;
    for &b in bits {
        k = (k << 1) | u64::from(b >= 0.5);
    }
    if coding == BitCoding::Gray {
        // Inverse Gray: prefix-xor from the MSB.
        let mut mask = k >> 1;
        while mask != 0 {
            k ^= mask;
            mask >>= 1;
        }
    }
    k as f64 / (1u64 << bits.len()) as f64
}

/// Round-trip a value through the B-bit codec: the value a B-bit AD/DA pair
/// would deliver, `decode_bits(&encode_fraction(x, bits))` without the
/// bit array.
///
/// ```
/// use interface::quantize_fraction;
/// let q = quantize_fraction(0.3, 8);
/// assert!((q - 0.3).abs() <= 1.0 / 512.0); // ≤ half an LSB
/// ```
///
/// # Panics
///
/// Panics if `bits` is zero or exceeds [`MAX_BITS`].
#[must_use]
pub fn quantize_fraction(x: f64, bits: usize) -> f64 {
    code(x, bits) as f64 / (1u64 << bits) as f64
}

/// A grouped binary interface: `groups` analog dimensions, each carried by
/// its `bits` most significant bits — the `(D·B)` notation of Table 1.
///
/// ```
/// use interface::InterfaceSpec;
///
/// let spec = InterfaceSpec::new(2, 8);
/// assert_eq!(spec.ports(), 16);
/// assert_eq!(format!("{spec}"), "(2·8)");
/// let bits = spec.encode(&[0.5, 0.25]);
/// assert_eq!(bits.len(), 16);
/// assert_eq!(spec.decode(&bits), vec![0.5, 0.25]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InterfaceSpec {
    groups: usize,
    bits: usize,
    coding: BitCoding,
}

impl InterfaceSpec {
    /// An interface of `groups` analog dimensions at `bits` bits each,
    /// binary-coded (the paper's format).
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero or `bits` is not in `1..=MAX_BITS`.
    #[must_use]
    pub fn new(groups: usize, bits: usize) -> Self {
        assert!(groups > 0, "an interface needs at least one group");
        assert!(
            bits > 0 && bits <= MAX_BITS,
            "bit width must be in 1..={MAX_BITS}, got {bits}"
        );
        Self {
            groups,
            bits,
            coding: BitCoding::Binary,
        }
    }

    /// The same interface with a different wire coding (builder style).
    #[must_use]
    pub fn with_coding(mut self, coding: BitCoding) -> Self {
        self.coding = coding;
        self
    }

    /// The wire coding of every group.
    #[must_use]
    pub fn coding(&self) -> BitCoding {
        self.coding
    }

    /// Number of analog dimensions.
    #[must_use]
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Bits carried per group.
    #[must_use]
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Total binary port count (`groups × bits`).
    #[must_use]
    pub fn ports(&self) -> usize {
        self.groups * self.bits
    }

    /// The same interface with `pruned` LSBs removed from every group — the
    /// pruning move of Algorithm 2, line 22.
    ///
    /// # Panics
    ///
    /// Panics if pruning would remove every bit.
    #[must_use]
    pub fn prune_lsbs(&self, pruned: usize) -> Self {
        assert!(
            pruned < self.bits,
            "cannot prune all {} bits of a group",
            self.bits
        );
        Self {
            groups: self.groups,
            bits: self.bits - pruned,
            coding: self.coding,
        }
    }

    /// Encode one analog vector (`groups` values in `[0, 1)`) into
    /// `ports()` binary values, group-major and MSB-first within each group.
    ///
    /// When this spec is a pruned view of a wider `full_bits` interface, the
    /// kept bits are still the most significant ones of the *full-width*
    /// encoding; encoding directly at the pruned width is identical because
    /// truncation of MSB-first fixed point is prefix-stable — see
    /// [`encode_fraction`].
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != groups()`.
    #[must_use]
    pub fn encode(&self, values: &[f64]) -> Vec<f64> {
        let mut out = zeros(self.ports());
        self.encode_into(values, &mut out);
        out
    }

    /// [`encode`](Self::encode) into a caller-provided buffer of `ports()`
    /// values (overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != groups()` or `out.len() != ports()`.
    pub fn encode_into(&self, values: &[f64], out: &mut [f64]) {
        assert_eq!(values.len(), self.groups, "one value per group");
        assert_eq!(out.len(), self.ports(), "bit vector length");
        for (&v, group) in values.iter().zip(out.chunks_exact_mut(self.bits)) {
            encode_into(v, self.coding, group);
        }
    }

    /// Decode `ports()` binary (or analog, thresholded) values back into
    /// `groups` fractions.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != ports()`.
    #[must_use]
    pub fn decode(&self, bits: &[f64]) -> Vec<f64> {
        let mut out = zeros(self.groups);
        self.decode_into(bits, &mut out);
        out
    }

    /// [`decode`](Self::decode) into a caller-provided buffer of
    /// `groups()` values (overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != ports()` or `out.len() != groups()`.
    pub fn decode_into(&self, bits: &[f64], out: &mut [f64]) {
        assert_eq!(bits.len(), self.ports(), "bit vector length");
        assert_eq!(out.len(), self.groups, "one value per group");
        for (o, group) in out.iter_mut().zip(bits.chunks_exact(self.bits)) {
            *o = decode_bits_coded(group, self.coding);
        }
    }

    /// Worst-case quantization error of one group: half an LSB plus the
    /// truncation tail, i.e. `2^-(bits)` bounds the round-trip error.
    #[must_use]
    pub fn quantization_error_bound(&self) -> f64 {
        0.5f64.powi(self.bits as i32)
    }
}

impl fmt::Display for InterfaceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}·{})", self.groups, self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_known_patterns() {
        assert_eq!(encode_fraction(0.0, 4), vec![0.0; 4]);
        assert_eq!(encode_fraction(0.5, 1), vec![1.0]);
        assert_eq!(encode_fraction(0.75, 2), vec![1.0, 1.0]);
        // 0.8125 = 13/16 → 1101
        assert_eq!(encode_fraction(0.8125, 4), vec![1.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn encode_saturates_out_of_range() {
        assert_eq!(encode_fraction(1.5, 3), vec![1.0, 1.0, 1.0]);
        assert_eq!(encode_fraction(-0.5, 3), vec![0.0, 0.0, 0.0]);
        assert_eq!(encode_fraction(f64::NAN, 3), vec![0.0, 0.0, 0.0]);
        // 1.0 saturates to the largest code, not wraparound.
        assert_eq!(encode_fraction(1.0, 2), vec![1.0, 1.0]);
    }

    #[test]
    fn decode_inverts_encode() {
        for bits in [1, 2, 4, 8, 12] {
            for i in 0..(1u64 << bits.min(8)) {
                let x = i as f64 / (1u64 << bits) as f64;
                let enc = encode_fraction(x, bits);
                assert_eq!(decode_bits(&enc), x, "bits={bits} x={x}");
            }
        }
    }

    #[test]
    fn quantization_error_within_one_lsb() {
        // Half an LSB in the interior; saturation at the top code (values in
        // [1 − LSB/2, 1)) costs up to a full LSB.
        for &x in &[0.001, 0.3, 0.49999, 0.7] {
            let q = quantize_fraction(x, 8);
            assert!((q - x).abs() <= 0.5 / 256.0 + 1e-12, "x={x} q={q}");
        }
        let q = quantize_fraction(0.9999, 8);
        assert!((q - 0.9999).abs() <= 1.0 / 256.0, "q={q}");
    }

    #[test]
    fn quantize_is_the_codec_round_trip_bit_for_bit() {
        let values = [0.0, 0.3, 0.5, 0.999_9, 1.0, -0.5, 2.0, f64::NAN, f64::MAX];
        for bits in [1, 3, 8, 16, MAX_BITS] {
            for x in values {
                let round_trip = decode_bits(&encode_fraction(x, bits));
                assert_eq!(
                    quantize_fraction(x, bits).to_bits(),
                    round_trip.to_bits(),
                    "x={x} bits={bits}"
                );
            }
        }
    }

    #[test]
    fn decode_thresholds_analog_levels() {
        assert_eq!(decode_bits(&[0.51, 0.49]), 0.5);
        assert_eq!(decode_bits(&[0.5]), 0.5);
        assert_eq!(decode_bits(&[0.499_999]), 0.0);
    }

    #[test]
    #[should_panic(expected = "bit width")]
    fn encode_rejects_zero_bits() {
        let _ = encode_fraction(0.5, 0);
    }

    #[test]
    #[should_panic(expected = "bit array length")]
    fn decode_rejects_empty() {
        let _ = decode_bits(&[]);
    }

    #[test]
    fn spec_roundtrip_multiple_groups() {
        let spec = InterfaceSpec::new(3, 4);
        let values = [0.25, 0.5, 0.9375];
        let bits = spec.encode(&values);
        assert_eq!(bits.len(), 12);
        let back = spec.decode(&bits);
        for (a, b) in back.iter().zip(&values) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn pruning_reduces_ports_and_is_prefix_stable() {
        let full = InterfaceSpec::new(2, 8);
        let pruned = full.prune_lsbs(3);
        assert_eq!(pruned.bits(), 5);
        assert_eq!(pruned.ports(), 10);
        // The pruned encoding equals the MSB prefix of the full encoding.
        let x = [0.7123, 0.2917];
        let full_bits = full.encode(&x);
        let pruned_bits = pruned.encode(&x);
        for g in 0..2 {
            // Rounding at the pruned width may differ from truncation by one
            // code; compare against truncation of the full encoding.
            let prefix = &full_bits[g * 8..g * 8 + 5];
            let trunc = decode_bits(prefix);
            let direct = decode_bits(&pruned_bits[g * 5..(g + 1) * 5]);
            assert!((trunc - direct).abs() <= 1.0 / 32.0 + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "cannot prune all")]
    fn pruning_all_bits_rejected() {
        let _ = InterfaceSpec::new(1, 4).prune_lsbs(4);
    }

    #[test]
    fn error_bound_halves_per_bit() {
        assert_eq!(InterfaceSpec::new(1, 1).quantization_error_bound(), 0.5);
        assert_eq!(
            InterfaceSpec::new(1, 8).quantization_error_bound(),
            1.0 / 256.0
        );
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(format!("{}", InterfaceSpec::new(64, 6)), "(64·6)");
    }

    #[test]
    fn gray_code_roundtrips_every_4bit_level() {
        for k in 0..16u64 {
            let x = k as f64 / 16.0;
            let enc = encode_fraction_coded(x, 4, BitCoding::Gray);
            assert_eq!(decode_bits_coded(&enc, BitCoding::Gray), x, "level {k}");
        }
    }

    #[test]
    fn gray_neighbours_differ_in_one_bit() {
        for k in 0..15u64 {
            let a = encode_fraction_coded(k as f64 / 16.0, 4, BitCoding::Gray);
            let b = encode_fraction_coded((k + 1) as f64 / 16.0, 4, BitCoding::Gray);
            let flips = a.iter().zip(&b).filter(|(x, y)| x != y).count();
            assert_eq!(flips, 1, "levels {k} and {}", k + 1);
        }
        // Binary, by contrast, has a 4-bit cliff at the 7→8 transition.
        let a = encode_fraction_coded(7.0 / 16.0, 4, BitCoding::Binary);
        let b = encode_fraction_coded(8.0 / 16.0, 4, BitCoding::Binary);
        assert_eq!(a.iter().zip(&b).filter(|(x, y)| x != y).count(), 4);
    }

    #[test]
    fn gray_spec_roundtrips_and_prunes() {
        let spec = InterfaceSpec::new(2, 6).with_coding(BitCoding::Gray);
        assert_eq!(spec.coding(), BitCoding::Gray);
        let values = [0.25, 0.828_125]; // 53/64 — exactly representable
        let decoded = spec.decode(&spec.encode(&values));
        for (a, b) in decoded.iter().zip(&values) {
            assert!((a - b).abs() < 1e-12);
        }
        // Pruning keeps the coding: the first k gray bits depend only on
        // the value's top k binary bits, so truncation stays meaningful.
        let one = InterfaceSpec::new(1, 6).with_coding(BitCoding::Gray);
        let pruned = one.prune_lsbs(2);
        assert_eq!(pruned.coding(), BitCoding::Gray);
        let full = one.encode(&[0.7]);
        let short_direct = pruned.decode(&pruned.encode(&[0.7]));
        let short_trunc = decode_bits_coded(&full[..4], BitCoding::Gray);
        assert!((short_direct[0] - short_trunc).abs() <= 1.0 / 16.0 + 1e-12);
    }

    #[test]
    fn coding_display() {
        assert_eq!(BitCoding::Binary.to_string(), "binary");
        assert_eq!(BitCoding::Gray.to_string(), "gray");
    }
}
