//! Synthetic binary-image classification dataset for the CNN workload.
//!
//! Three visually distinct texture families rendered by the existing
//! [`GrayImage`] pipelines, binarized to `{0, 1}`
//! pixels and jittered per sample, with one-hot class targets:
//!
//! * **Gradient** — the diagonal luminance ramp thresholded at a
//!   per-sample level, i.e. a half-plane whose boundary position varies.
//! * **Checkerboard** — a 2-pixel checkerboard with a per-sample phase
//!   shift.
//! * **Blobs** — seeded Gaussian blobs over the ramp, thresholded at 0.5.
//!
//! Every sample additionally has a small fraction of pixels flipped, so
//! the classes overlap enough for accuracy to be a meaningful axis when
//! the serving fabric degrades (disturb/aging). Generation is a pure
//! function of `(width, height, per_class, seed)` via
//! [`prng::substream`] — two calls with equal arguments are bitwise
//! identical.

use neural::Dataset;
use prng::rngs::StdRng;
use prng::{substream, Rng, SeedableRng};

use crate::image::GrayImage;

/// Number of classes in the CNN workload.
pub const CNN_CLASSES: usize = 3;

/// The three texture classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CnnClass {
    /// Thresholded diagonal gradient (a half-plane).
    Gradient,
    /// Phase-shifted 2-pixel checkerboard.
    Checkerboard,
    /// Thresholded Gaussian blobs.
    Blobs,
}

impl CnnClass {
    /// All classes in target-index order.
    #[must_use]
    pub fn all() -> [CnnClass; CNN_CLASSES] {
        [CnnClass::Gradient, CnnClass::Checkerboard, CnnClass::Blobs]
    }

    /// The class's one-hot target index.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            CnnClass::Gradient => 0,
            CnnClass::Checkerboard => 1,
            CnnClass::Blobs => 2,
        }
    }

    /// Human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CnnClass::Gradient => "gradient",
            CnnClass::Checkerboard => "checkerboard",
            CnnClass::Blobs => "blobs",
        }
    }
}

/// Fraction (denominator) of pixels flipped per sample: one in
/// `FLIP_ODDS` on average.
const FLIP_ODDS: u64 = 24;

/// Render one jittered binary sample of `class` as a row-major `{0, 1}`
/// pixel vector.
///
/// # Panics
///
/// Panics if `width` or `height` is zero.
#[must_use]
pub fn binary_image(class: CnnClass, width: usize, height: usize, seed: u64) -> Vec<f64> {
    assert!(width > 0 && height > 0, "empty image");
    let mut rng = StdRng::seed_from_u64(seed);
    let img = match class {
        CnnClass::Gradient => {
            // Per-sample threshold slides the half-plane boundary.
            let threshold = 0.35 + 0.3 * rng.gen::<f64>();
            GrayImage::gradient(width, height).map(|v| f64::from(u8::from(v > threshold)))
        }
        CnnClass::Checkerboard => {
            let dx = (rng.gen::<u64>() % 4) as usize;
            let dy = (rng.gen::<u64>() % 4) as usize;
            GrayImage::from_fn(width, height, |x, y| {
                f64::from(u8::from(((x + dx) / 2 + (y + dy) / 2).is_multiple_of(2)))
            })
        }
        CnnClass::Blobs => {
            let blob_seed = rng.gen::<u64>();
            GrayImage::synthetic(width, height, blob_seed).map(|v| f64::from(u8::from(v > 0.5)))
        }
    };
    let mut pixels: Vec<f64> = img.pixels().to_vec();
    for p in &mut pixels {
        if rng.gen::<u64>() % FLIP_ODDS == 0 {
            *p = 1.0 - *p;
        }
    }
    pixels
}

/// Build the classification dataset: `per_class` jittered samples of each
/// class (interleaved class-major so splits stay balanced), one-hot
/// targets of width [`CNN_CLASSES`].
///
/// # Panics
///
/// Panics if `width`, `height`, or `per_class` is zero (an empty dataset
/// is rejected by [`Dataset::new`]).
#[must_use]
pub fn cnn_dataset(width: usize, height: usize, per_class: usize, seed: u64) -> Dataset {
    let mut inputs = Vec::with_capacity(CNN_CLASSES * per_class);
    let mut targets = Vec::with_capacity(CNN_CLASSES * per_class);
    for i in 0..per_class {
        for class in CnnClass::all() {
            let sample_seed = substream(seed, (i * CNN_CLASSES + class.index()) as u64);
            inputs.push(binary_image(class, width, height, sample_seed));
            let mut t = vec![0.0; CNN_CLASSES];
            t[class.index()] = 1.0;
            targets.push(t);
        }
    }
    Dataset::new(inputs, targets).expect("cnn dataset construction is infallible for n > 0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_binary_and_deterministic() {
        for class in CnnClass::all() {
            let a = binary_image(class, 8, 8, 42);
            let b = binary_image(class, 8, 8, 42);
            assert_eq!(a, b, "{} deterministic", class.label());
            assert_eq!(a.len(), 64);
            assert!(a.iter().all(|&p| p == 0.0 || p == 1.0));
            assert_ne!(a, binary_image(class, 8, 8, 43), "jitter varies by seed");
        }
    }

    #[test]
    fn dataset_shape_and_balance() {
        let data = cnn_dataset(8, 8, 10, 7);
        assert_eq!(data.len(), 30);
        assert_eq!(data.input_dim(), 64);
        assert_eq!(data.output_dim(), CNN_CLASSES);
        let mut counts = [0usize; CNN_CLASSES];
        for (_, t) in data.iter() {
            assert_eq!(t.iter().sum::<f64>(), 1.0, "one-hot");
            let class = t.iter().position(|&v| v == 1.0).unwrap();
            counts[class] += 1;
        }
        assert_eq!(counts, [10, 10, 10]);
    }

    #[test]
    fn classes_are_visually_distinct() {
        // Mean pixel disagreement between class exemplars should beat the
        // within-class jitter floor by a wide margin.
        let across = |a: CnnClass, b: CnnClass| -> f64 {
            let xa = binary_image(a, 8, 8, 1);
            let xb = binary_image(b, 8, 8, 1);
            xa.iter()
                .zip(&xb)
                .map(|(p, q)| f64::from(u8::from(p != q)))
                .sum::<f64>()
                / 64.0
        };
        assert!(across(CnnClass::Gradient, CnnClass::Checkerboard) > 0.2);
        assert!(across(CnnClass::Checkerboard, CnnClass::Blobs) > 0.2);
    }

    #[test]
    fn sixteen_by_sixteen_also_works() {
        let data = cnn_dataset(16, 16, 2, 3);
        assert_eq!(data.input_dim(), 256);
        assert_eq!(data.len(), 6);
    }
}
