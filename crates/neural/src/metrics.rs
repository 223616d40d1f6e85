//! Evaluation metrics over datasets.

use crate::data::Dataset;
use crate::mlp::Mlp;

/// Mean squared error of an arbitrary predictor over a dataset:
/// `mean over samples of mean over ports of (t_p − o_p)²`.
///
/// This is the "MSE" column of the paper's Table 1 (per-port mean keeps the
/// numbers comparable across output widths).
///
/// # Panics
///
/// Panics if the predictor returns a vector whose length differs from the
/// dataset's output dimension.
pub fn dataset_mse<F>(mut predict: F, data: &Dataset) -> f64
where
    F: FnMut(&[f64]) -> Vec<f64>,
{
    let mut total = 0.0;
    for (x, t) in data.iter() {
        let y = predict(x);
        assert_eq!(y.len(), t.len(), "predictor output length");
        let se: f64 = y.iter().zip(t).map(|(a, b)| (a - b) * (a - b)).sum();
        total += se / t.len() as f64;
    }
    total / data.len() as f64
}

/// [`dataset_mse`] specialized to an [`Mlp`] forward pass.
///
/// ```
/// use neural::{mlp_mse, Dataset, MlpBuilder};
///
/// # fn main() -> Result<(), neural::DatasetError> {
/// let net = MlpBuilder::new(&[1, 2, 1]).seed(0).build();
/// let data = Dataset::new(vec![vec![0.5]], vec![vec![0.5]])?;
/// assert!(mlp_mse(&net, &data) >= 0.0);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn mlp_mse(mlp: &Mlp, data: &Dataset) -> f64 {
    dataset_mse(|x| mlp.forward(x), data)
}

/// Index of the largest value (ties to the lowest index): the predicted
/// class of a score vector.
#[must_use]
pub fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::MlpBuilder;

    #[test]
    fn perfect_predictor_has_zero_mse() {
        let data = Dataset::new(vec![vec![1.0], vec![2.0]], vec![vec![2.0], vec![4.0]]).unwrap();
        let mse = dataset_mse(|x| vec![2.0 * x[0]], &data);
        assert_eq!(mse, 0.0);
    }

    #[test]
    fn constant_error_gives_squared_error() {
        let data = Dataset::new(vec![vec![0.0]], vec![vec![1.0]]).unwrap();
        let mse = dataset_mse(|_| vec![0.5], &data);
        assert!((mse - 0.25).abs() < 1e-15);
    }

    #[test]
    fn multi_port_mse_averages_ports() {
        let data = Dataset::new(vec![vec![0.0]], vec![vec![1.0, 0.0]]).unwrap();
        // errors: 1 and 0 → mean 0.5.
        let mse = dataset_mse(|_| vec![0.0, 0.0], &data);
        assert!((mse - 0.5).abs() < 1e-15);
    }

    #[test]
    fn mlp_mse_runs_forward() {
        let net = MlpBuilder::new(&[2, 3, 1]).seed(0).build();
        let data = Dataset::new(vec![vec![0.0, 1.0]], vec![vec![0.5]]).unwrap();
        let m = mlp_mse(&net, &data);
        let y = net.forward(&[0.0, 1.0])[0];
        assert!((m - (y - 0.5) * (y - 0.5)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "predictor output length")]
    fn rejects_wrong_output_length() {
        let data = Dataset::new(vec![vec![0.0]], vec![vec![1.0]]).unwrap();
        let _ = dataset_mse(|_| vec![0.0, 0.0], &data);
    }

    #[test]
    fn argmax_ties_to_lowest_index() {
        assert_eq!(argmax(&[0.3, 0.7, 0.7]), 1);
        assert_eq!(argmax(&[1.0, 1.0, 0.5]), 0);
        assert_eq!(argmax(&[1.0]), 0);
    }
}
