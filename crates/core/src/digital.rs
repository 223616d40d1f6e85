//! The "Digital ANN" baseline: the paper's ideal CPU implementation with
//! 32-bit floating-point numbers (we use `f64`; the difference is far below
//! every other error source in the comparison). Its [`Network`] is one
//! digital MLP layer: it has no devices to disturb or wear, and it
//! ignores signal fluctuation.

use std::fmt;

use neural::{Dataset, Mlp, MlpBuilder, TrainConfig, TrainReport, Trainer};
use runtime::ChipCostSheet;

use crate::analog::Drive;
use crate::error::TrainRcsError;
use crate::network::{network_system, Layer, Network};

/// The floating-point ANN baseline of Table 1's "Digital" column.
///
/// ```no_run
/// use mei::DigitalAnn;
/// use neural::{Dataset, TrainConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let data = Dataset::new(vec![vec![0.5]], vec![vec![0.5]])?;
/// let ann = DigitalAnn::train(&data, 8, &TrainConfig::default(), 0)?;
/// let y = ann.infer(&[0.5]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DigitalAnn {
    network: Network,
    report: TrainReport,
}

impl DigitalAnn {
    /// Train a 3-layer `I×hidden×O` ANN on the dataset (dimensions taken
    /// from the data).
    ///
    /// # Errors
    ///
    /// Returns [`TrainRcsError::InvalidConfig`] if `hidden` is zero.
    pub fn train(
        data: &Dataset,
        hidden: usize,
        config: &TrainConfig,
        seed: u64,
    ) -> Result<Self, TrainRcsError> {
        if hidden == 0 {
            return Err(TrainRcsError::InvalidConfig(
                "hidden size must be nonzero".into(),
            ));
        }
        let mut mlp = MlpBuilder::new(&[data.input_dim(), hidden, data.output_dim()])
            .seed(seed)
            .build();
        let report = Trainer::new(*config).train(&mut mlp, data);
        Ok(Self::from_mlp(mlp, report))
    }

    /// Wrap an already-trained network.
    #[must_use]
    pub fn from_mlp(mlp: Mlp, report: TrainReport) -> Self {
        let network = Network::new(mlp.input_dim(), vec![Layer::Digital(mlp)]);
        Self { network, report }
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the network's input size.
    #[must_use]
    pub fn infer(&self, x: &[f64]) -> Vec<f64> {
        self.network.serve(x, &mut Drive::Ideal)
    }

    /// The underlying network.
    #[must_use]
    pub fn mlp(&self) -> &Mlp {
        let [Layer::Digital(mlp)] = self.network.layers() else {
            unreachable!("a digital network is one MLP");
        };
        mlp
    }

    /// The training report.
    #[must_use]
    pub fn report(&self) -> &TrainReport {
        &self.report
    }
}

impl fmt::Display for DigitalAnn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "digital ANN: {}", self.mlp())
    }
}

// The digital baseline carries an explicit all-zero sheet rather than
// `None`: the paper publishes no area/power model for it, and inventing
// one would corrupt the mixed-signal comparisons — but an unaccounted
// chip silently lands in `chips − known_chips`, which reads as an
// accounting bug in fleet_cost-style reports. Zero cost states the truth
// ("present, free in this model") and keeps `known_chips == chips`.
network_system!(DigitalAnn, |_ann| Some(ChipCostSheet::new(
    0.0, 0.0, 0.0, 0.0
)));

#[cfg(test)]
mod tests {
    use super::*;
    use prng::rngs::StdRng;
    use prng::{Rng, SeedableRng};

    fn expfit_data(n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(2);
        Dataset::generate(n, &mut rng, |r| {
            let x: f64 = r.gen();
            (vec![x], vec![(-x * x).exp()])
        })
        .unwrap()
    }

    #[test]
    fn digital_ann_fits_expfit_tightly() {
        let data = expfit_data(400);
        let cfg = TrainConfig {
            epochs: 300,
            learning_rate: 1.0,
            ..TrainConfig::default()
        };
        let ann = DigitalAnn::train(&data, 8, &cfg, 1).unwrap();
        let mse = neural::mlp_mse(ann.mlp(), &data);
        assert!(mse < 1e-3, "digital baseline MSE {mse}");
    }

    #[test]
    fn zero_hidden_rejected() {
        let data = expfit_data(10);
        let err = DigitalAnn::train(&data, 0, &TrainConfig::default(), 0).unwrap_err();
        assert!(matches!(err, TrainRcsError::InvalidConfig(_)));
    }

    #[test]
    fn infer_matches_underlying_mlp() {
        let data = expfit_data(50);
        let cfg = TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        };
        let ann = DigitalAnn::train(&data, 4, &cfg, 3).unwrap();
        assert_eq!(ann.infer(&[0.3]), ann.mlp().forward(&[0.3]));
        assert!(ann.report().epochs_run == 10);
    }

    #[test]
    fn display_nonempty() {
        let data = expfit_data(10);
        let cfg = TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        };
        let ann = DigitalAnn::train(&data, 2, &cfg, 0).unwrap();
        assert!(ann.to_string().contains("digital ANN"));
    }
}
