//! # `prng` — in-repo deterministic randomness
//!
//! The workspace is **hermetic**: it builds and tests with zero external
//! dependencies and no network access (see `README.md`, "Hermetic build").
//! This crate replaces the `rand` family for every stochastic component of
//! the reproduction — weight initialisation, dataset sampling, lognormal
//! device variation, SAAB's noise-injected boosting — with a seedable,
//! fully specified generator so that every Monte-Carlo loop in the paper
//! reproduction is bit-for-bit repeatable across machines and runs.
//!
//! The API mirrors the subset of `rand` 0.8 the codebase uses, so call
//! sites read identically:
//!
//! ```
//! use prng::rngs::StdRng;
//! use prng::{Rng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let x: f64 = rng.gen();                  // uniform [0, 1)
//! let k = rng.gen_range(0..10);            // uniform integer
//! let fair = rng.gen_bool(0.5);            // Bernoulli
//! assert!((0.0..1.0).contains(&x));
//! assert!(k < 10);
//! let _ = fair;
//! ```
//!
//! ## Contents
//!
//! * [`rngs::StdRng`] — xoshiro256++ seeded via SplitMix64 ([`xoshiro`]);
//! * [`Rng`] / [`RngCore`] / [`SeedableRng`] — the trait surface;
//! * [`distributions`] — [`Standard`] uniform sampling, [`Normal`]
//!   (Box–Muller) and [`Bernoulli`];
//! * [`seq::shuffle`] — Fisher–Yates;
//! * [`stream::substream`] — `(root_seed, task_index)` stream splitting
//!   for deterministic parallelism;
//! * [`prop`] — the deterministic property-test harness behind
//!   [`prop_check!`];
//! * [`env`](mod@env) — warn-on-malformed environment-variable parsing shared by
//!   every workspace knob (here because `prng` is the common base crate).
//!
//! ## Determinism contract
//!
//! The generators are *frozen*: their output streams for a given seed are
//! pinned by unit tests against reference vectors and must never change —
//! experiment results, regression baselines and the cross-run determinism
//! suite all depend on it. Add new generators instead of altering these.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributions;
pub mod env;
pub mod prop;
pub mod seq;
pub mod stream;
pub mod xoshiro;

pub use distributions::{Bernoulli, Distribution, Normal, Standard};
pub use stream::{substream, substream_rng};

/// Namespace mirroring `rand::rngs` so migrated imports keep their shape.
pub mod rngs {
    /// The workspace's default generator: xoshiro256++.
    ///
    /// Unlike `rand`'s `StdRng`, this generator is part of the crate's
    /// stability contract: its stream for a given seed never changes.
    pub type StdRng = crate::xoshiro::Xoshiro256PlusPlus;
}

/// The minimal object-safe generator interface: a source of uniform bits.
///
/// Everything else ([`Rng`], the distributions, the shuffles) is derived
/// from [`next_u64`](RngCore::next_u64). Implementors only need that one
/// method; `next_u32` and `fill_bytes` have derived default
/// implementations.
pub trait RngCore {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly distributed bits (upper half of
    /// [`next_u64`](RngCore::next_u64), which carries the better-mixed
    /// bits of xoshiro-family generators).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `dest` with uniformly distributed bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&bytes[..rest.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest);
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest);
    }
}

/// Convenience sampling methods, blanket-implemented for every
/// [`RngCore`] (including `dyn RngCore`).
pub trait Rng: RngCore {
    /// Sample a value of type `T` from its standard uniform distribution:
    /// `[0, 1)` for floats, the full domain for integers, fair for `bool`.
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
    {
        Standard.sample(self)
    }

    /// Sample uniformly from a half-open (`lo..hi`) or inclusive
    /// (`lo..=hi`) range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: distributions::SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Bernoulli trial: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        Bernoulli::new(p).sample(self)
    }

    /// Sample from an explicit distribution (e.g. [`Normal`]).
    fn sample<T, D: Distribution<T>>(&mut self, distr: &D) -> T {
        distr.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction of a generator from a seed, mirroring `rand`'s `SeedableRng`.
pub trait SeedableRng: Sized {
    /// The raw seed type (a fixed-size byte array).
    type Seed: Default + AsMut<[u8]>;

    /// Build the generator from a full-entropy raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Build the generator from a `u64`, expanded to a full seed via
    /// SplitMix64 — the expansion recommended by the xoshiro authors, and
    /// the constructor every experiment in this workspace uses.
    fn seed_from_u64(state: u64) -> Self {
        let mut sm = xoshiro::SplitMix64::new(state);
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = sm.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn rng_trait_is_usable_through_dyn_rngcore() {
        let mut rng = StdRng::seed_from_u64(7);
        let dynref: &mut dyn RngCore = &mut rng;
        let x = Rng::gen::<f64>(dynref);
        assert!((0.0..1.0).contains(&x));
        let k: u64 = Rng::gen(dynref);
        let b: bool = Rng::gen(dynref);
        let _ = (k, b);
    }

    #[test]
    fn fill_bytes_is_deterministic_and_covers_partial_chunks() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let mut buf_a = [0u8; 13];
        let mut buf_b = [0u8; 13];
        a.fill_bytes(&mut buf_a);
        b.fill_bytes(&mut buf_b);
        assert_eq!(buf_a, buf_b);
        assert_ne!(buf_a, [0u8; 13]);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
    }

    #[test]
    fn gen_bool_rate_tracks_p() {
        let mut rng = StdRng::seed_from_u64(4);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn gen_bool_rejects_bad_p() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = rng.gen_bool(1.5);
    }

    #[test]
    fn next_u32_uses_high_bits() {
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        assert_eq!(a.next_u32(), (b.next_u64() >> 32) as u32);
    }
}
