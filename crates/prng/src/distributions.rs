//! Distributions over the raw bit stream: standard uniforms, uniform
//! ranges, Bernoulli, and Box–Muller normal sampling.
//!
//! The float construction is the standard 53-bit one (`next_u64() >> 11`
//! scaled by `2^-53`), so `f64` samples are exactly the dyadic rationals a
//! `rand`-based build produced and land in `[0, 1)`.

use crate::{Rng, RngCore};

/// A sampling rule producing values of type `T`, mirroring
/// `rand`'s `Distribution`.
pub trait Distribution<T> {
    /// Draw one sample using `rng` as the entropy source.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// The standard uniform distribution: `[0, 1)` for floats, full domain
/// for integers, fair coin for `bool`. The distribution behind
/// [`Rng::gen`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Standard;

impl Distribution<f64> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // 53 random mantissa bits / 2^53 — uniform on [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Distribution<f32> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Distribution<bool> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Distribution<$t> for Standard {
            #[allow(clippy::cast_possible_truncation, clippy::cast_lossless)]
            fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// A range usable with [`Rng::gen_range`],
/// mirroring `rand`'s `SampleRange`.
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform `u64` in `[0, span)` by 128-bit widening multiply (Lemire's
/// multiply-shift; the ≤ 2⁻⁶⁴ bias is far below anything a simulation
/// statistic can resolve).
fn uniform_below<R: RngCore + ?Sized>(span: u64, rng: &mut R) -> u64 {
    debug_assert!(span > 0);
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

macro_rules! range_int {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                (self.start as $wide).wrapping_add(uniform_below(span, rng) as $wide) as $t
            }
        }

        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as $wide).wrapping_add(uniform_below(span + 1, rng) as $wide) as $t
            }
        }
    )*};
}
range_int!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64
);

macro_rules! range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let u: $t = Standard.sample(rng);
                let v = self.start + u * (self.end - self.start);
                // Guard the open upper bound against rounding in the affine map.
                if v >= self.end { self.start } else { v }
            }
        }

        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let u: $t = Standard.sample(rng);
                (lo + u * (hi - lo)).min(hi)
            }
        }
    )*};
}
range_float!(f32, f64);

/// Bernoulli distribution: `true` with probability `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// A Bernoulli trial succeeding with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "probability must be in [0, 1], got {p}"
        );
        Self { p }
    }
}

impl Distribution<bool> for Bernoulli {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
        // p == 1.0 must always hit: the uniform is in [0, 1).
        let u: f64 = Standard.sample(rng);
        u < self.p
    }
}

/// The normal (Gaussian) distribution `N(mean, std_dev²)`, sampled by the
/// Box–Muller transform.
///
/// This is the primitive behind the paper's lognormal device-variation
/// model (`g' = g·exp(σ·z)`, §5.3) and the additive read noise.
///
/// ```
/// use prng::rngs::StdRng;
/// use prng::{Distribution, Normal, SeedableRng};
///
/// let n = Normal::new(0.0, 1.0);
/// let mut rng = StdRng::seed_from_u64(1);
/// let z = n.sample(&mut rng);
/// assert!(z.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// `N(mean, std_dev²)`.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is non-finite.
    #[must_use]
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(mean.is_finite(), "normal mean must be finite, got {mean}");
        assert!(
            std_dev.is_finite() && std_dev >= 0.0,
            "normal std dev must be finite and non-negative, got {std_dev}"
        );
        Self { mean, std_dev }
    }

    /// The mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }
}

impl Distribution<f64> for Normal {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }
}

/// One standard-normal draw `z ~ N(0, 1)` via Box–Muller.
///
/// Consumes exactly two uniforms per call (the sine branch of the pair is
/// discarded, keeping the call stateless and the stream position easy to
/// reason about in determinism arguments).
pub fn standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    // u1 ∈ (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;
    use crate::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    #[test]
    fn f64_standard_is_in_unit_interval() {
        let mut r = rng();
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_standard_mean_is_half() {
        let mut r = rng();
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.gen::<f64>()).sum();
        assert!((sum / f64::from(n) - 0.5).abs() < 0.005);
    }

    #[test]
    fn f32_standard_is_in_unit_interval() {
        let mut r = rng();
        for _ in 0..10_000 {
            let x: f32 = r.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn int_ranges_cover_and_stay_inside() {
        let mut r = rng();
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let k: usize = r.gen_range(0..10);
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s), "not all of 0..10 was hit");
        for _ in 0..1_000 {
            let k: i32 = r.gen_range(-5..=5);
            assert!((-5..=5).contains(&k));
        }
    }

    #[test]
    fn signed_range_crossing_zero_is_roughly_centred() {
        let mut r = rng();
        let n = 50_000;
        let sum: i64 = (0..n).map(|_| i64::from(r.gen_range(-100i32..=100))).sum();
        let mean = sum as f64 / f64::from(n);
        assert!(mean.abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn float_range_respects_bounds() {
        let mut r = rng();
        for _ in 0..10_000 {
            let x = r.gen_range(-2.5f64..7.5);
            assert!((-2.5..7.5).contains(&x));
            let y = r.gen_range(-1.0f64..=1.0);
            assert!((-1.0..=1.0).contains(&y));
        }
    }

    #[test]
    fn full_u64_inclusive_range_does_not_overflow() {
        let mut r = rng();
        let _: u64 = r.gen_range(0..=u64::MAX);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_int_range_panics() {
        let mut r = rng();
        let _: usize = r.gen_range(5..5);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_float_range_panics() {
        let mut r = rng();
        let _ = r.gen_range(1.0f64..1.0);
    }

    #[test]
    fn normal_moments_match_parameters() {
        let mut r = rng();
        let d = Normal::new(3.0, 2.0);
        let n = 100_000usize;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.03, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.03, "std {}", var.sqrt());
    }

    #[test]
    fn zero_sigma_normal_is_constant() {
        let mut r = rng();
        let d = Normal::new(1.5, 0.0);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut r), 1.5);
        }
    }

    #[test]
    #[should_panic(expected = "std dev")]
    fn normal_rejects_negative_sigma() {
        let _ = Normal::new(0.0, -1.0);
    }

    #[test]
    fn standard_normal_is_always_finite() {
        let mut r = rng();
        for _ in 0..100_000 {
            assert!(standard_normal(&mut r).is_finite());
        }
    }
}
