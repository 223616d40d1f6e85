//! Mini-batch SGD with momentum: the training algorithm behind every RCS in
//! the reproduction.
//!
//! "The training process of an ANN can be described as adjusting the network
//! weights to minimize the difference between the target and actual outputs"
//! (paper §3.1, Eq (4)/(5)). The trainer is fully seeded so experiments are
//! reproducible run-to-run.
//!
//! ## Deterministic data parallelism
//!
//! Training is data-parallel under the workspace determinism contract:
//! thread count is a pure performance knob ([`TrainConfig::threads`]),
//! never an experimental variable. Each mini-batch is partitioned into
//! **fixed contiguous shards** whose geometry depends on the batch size
//! alone, each shard accumulates its gradients into its own reusable
//! `Workspace` on a persistent `runtime` crew, and the per-shard
//! gradients are folded **in shard-index order** before the momentum
//! update, so the non-associative f64 sums see the same grouping at
//! every thread count.
//! The serial path runs the very same sharded code, making serial and
//! parallel the same arithmetic by construction.
//!
//! The steady-state inner loop is allocation-free: traces, deltas, shard
//! index lists and gradient accumulators all live in per-shard workspaces
//! allocated once per `train` call ([`Mlp::forward_trace_into`],
//! [`Matrix::rank_one_add`], [`Matrix::matvec_transpose_into`]).

use std::fmt;
use std::sync::{Mutex, RwLock};
use std::time::Instant;

use prng::rngs::StdRng;
use prng::SeedableRng;
use runtime::{resolve_threads, ThreadPool};

use crate::data::Dataset;
use crate::loss::WeightedMse;
use crate::matrix::Matrix;
use crate::mlp::Mlp;

/// Largest number of gradient shards a mini-batch is split into.
const MAX_SHARDS: usize = 8;

/// Smallest shard worth accumulating separately: below this the per-shard
/// zero + fold overhead dominates the per-sample arithmetic.
const MIN_SHARD_SAMPLES: usize = 4;

/// Samples per gradient shard — a function of the batch size **only**
/// (never the thread count), so the shard partition, and with it every
/// floating-point fold, is identical at every thread count.
fn shard_samples(batch: usize) -> usize {
    batch.div_ceil(MAX_SHARDS).max(MIN_SHARD_SAMPLES)
}

/// Hyperparameters of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// SGD step size.
    pub learning_rate: f64,
    /// Momentum coefficient in `[0, 1)`.
    pub momentum: f64,
    /// Mini-batch size (clamped to the dataset size).
    pub batch_size: usize,
    /// Multiplicative learning-rate decay applied after each epoch.
    pub lr_decay: f64,
    /// RNG seed controlling shuffling.
    pub seed: u64,
    /// Stop early when the epoch loss drops below this value.
    pub target_loss: f64,
    /// Worker threads for sharded gradient computation: `1` (the default)
    /// trains serially, `0` auto-detects, any value produces bit-identical
    /// results — the shard partition depends only on the batch size and
    /// shard gradients fold in shard-index order.
    pub threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 200,
            learning_rate: 0.5,
            momentum: 0.9,
            batch_size: 16,
            lr_decay: 1.0,
            seed: 0,
            target_loss: 0.0,
            threads: 1,
        }
    }
}

impl TrainConfig {
    /// Validate the configuration, panicking with a descriptive message on
    /// nonsensical values.
    ///
    /// # Panics
    ///
    /// Panics if any hyperparameter is out of range.
    pub fn validate(&self) {
        assert!(self.epochs > 0, "epochs must be positive");
        assert!(
            self.learning_rate > 0.0 && self.learning_rate.is_finite(),
            "learning rate must be positive and finite"
        );
        assert!(
            (0.0..1.0).contains(&self.momentum),
            "momentum must be in [0, 1), got {}",
            self.momentum
        );
        assert!(self.batch_size > 0, "batch size must be positive");
        assert!(
            self.lr_decay > 0.0 && self.lr_decay <= 1.0,
            "lr decay must be in (0, 1], got {}",
            self.lr_decay
        );
        assert!(self.target_loss >= 0.0, "target loss must be non-negative");
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Epochs actually executed (≤ configured epochs if the target loss was
    /// reached early).
    pub epochs_run: usize,
    /// Mean per-sample loss over the final epoch.
    pub final_loss: f64,
    /// Mean per-sample loss after each epoch.
    pub loss_history: Vec<f64>,
    /// Wall-clock duration of the run in seconds (`std::time::Instant`).
    pub wall_time_secs: f64,
    /// Training throughput: samples processed per second over the run.
    pub samples_per_sec: f64,
}

impl PartialEq for TrainReport {
    /// Timing fields (`wall_time_secs`, `samples_per_sec`) are
    /// measurements of the host, not outcomes of the algorithm — they are
    /// excluded so determinism tests can compare reports exactly.
    fn eq(&self, other: &Self) -> bool {
        self.epochs_run == other.epochs_run
            && self.final_loss == other.final_loss
            && self.loss_history == other.loss_history
    }
}

impl fmt::Display for TrainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trained {} epochs, final loss {:.6}, {:.0} samples/s ({:.3}s wall)",
            self.epochs_run, self.final_loss, self.samples_per_sec, self.wall_time_secs
        )
    }
}

/// Per-shard scratch: every buffer forward + backward touches, allocated
/// once per training run and reused by whichever worker claims the shard,
/// so the steady-state inner loop performs zero heap allocation.
struct Workspace {
    /// Activation trace, `layers + 1` buffers ([`Mlp::forward_trace_into`]).
    trace: Vec<Vec<f64>>,
    /// Per-layer δ buffers, `deltas[l].len() == layers[l].outputs()`.
    deltas: Vec<Vec<f64>>,
    /// This shard's sample indices, copied out of the shared shuffle order
    /// under a short lock.
    indices: Vec<usize>,
    /// Per-layer weight-gradient accumulators.
    grad_w: Vec<Matrix>,
    /// Per-layer bias-gradient accumulators.
    grad_b: Vec<Vec<f64>>,
    /// Sum of per-sample losses over the shard, in index order.
    loss_sum: f64,
}

impl Workspace {
    fn new(mlp: &Mlp, shard_capacity: usize) -> Self {
        let layers = mlp.layers();
        let mut trace = Vec::with_capacity(layers.len() + 1);
        trace.push(vec![0.0; mlp.input_dim()]);
        trace.extend(layers.iter().map(|l| vec![0.0; l.outputs()]));
        Self {
            trace,
            deltas: layers.iter().map(|l| vec![0.0; l.outputs()]).collect(),
            indices: Vec::with_capacity(shard_capacity),
            grad_w: layers
                .iter()
                .map(|l| Matrix::zeros(l.outputs(), l.inputs()))
                .collect(),
            grad_b: layers.iter().map(|l| vec![0.0; l.outputs()]).collect(),
            loss_sum: 0.0,
        }
    }

    fn reset(&mut self) {
        for g in &mut self.grad_w {
            g.fill_zero();
        }
        for g in &mut self.grad_b {
            g.fill(0.0);
        }
        self.loss_sum = 0.0;
    }

    /// Forward + backward every sample in `self.indices`, accumulating
    /// gradients and loss. This is *the* trainer arithmetic: the serial
    /// path, every parallel path, and the gradient checker all run this
    /// exact code over the same fixed shard partition.
    fn accumulate(&mut self, mlp: &Mlp, data: &Dataset, loss: &WeightedMse) {
        let layers = mlp.layers();
        let last = layers.len() - 1;
        for pos in 0..self.indices.len() {
            let (x, t) = data.sample(self.indices[pos]);
            mlp.forward_trace_into(x, &mut self.trace);
            let output = &self.trace[last + 1];
            self.loss_sum += loss.loss(t, output);

            // δ at the output layer: ∂L/∂o ⊙ f'(o).
            let out_delta = &mut self.deltas[last];
            loss.gradient_into(t, output, out_delta);
            let act = layers[last].activation;
            for (d, &o) in out_delta.iter_mut().zip(output.iter()) {
                *d *= act.derivative_from_output(o);
            }

            // Backward through the layers.
            for l in (0..=last).rev() {
                let a_prev = &self.trace[l];
                let (lower, upper) = self.deltas.split_at_mut(l);
                let delta = &upper[0];
                self.grad_w[l].rank_one_add(1.0, delta, a_prev);
                for (gb, d) in self.grad_b[l].iter_mut().zip(delta.iter()) {
                    *gb += d;
                }
                if l > 0 {
                    let prev = &mut lower[l - 1];
                    layers[l].weights.matvec_transpose_into(delta, prev);
                    let act = layers[l - 1].activation;
                    for (d, &a) in prev.iter_mut().zip(a_prev.iter()) {
                        *d *= act.derivative_from_output(a);
                    }
                }
            }
        }
    }
}

/// Mean-loss gradients of `mlp` over all of `data` under `loss`, computed
/// by the exact shard-accumulation path [`Trainer::train`] uses: the fixed
/// contiguous shard partition of one dataset-sized batch, per-shard
/// accumulation, and an ordered shard-index fold. Returns per-layer weight
/// and bias gradients; [`crate::gradcheck::check_gradients`] pins this
/// against central finite differences.
///
/// # Panics
///
/// Panics if the dataset or loss dimensions don't match the network.
#[must_use]
pub fn sharded_mean_gradients(
    mlp: &Mlp,
    data: &Dataset,
    loss: &WeightedMse,
) -> (Vec<Matrix>, Vec<Vec<f64>>) {
    assert_eq!(data.input_dim(), mlp.input_dim(), "dataset input dim");
    assert_eq!(loss.ports(), mlp.output_dim(), "loss port count");
    let n = data.len();
    let shard = shard_samples(n);
    let mut ws = Workspace::new(mlp, shard);
    let mut grad_w: Vec<Matrix> = mlp
        .layers()
        .iter()
        .map(|l| Matrix::zeros(l.outputs(), l.inputs()))
        .collect();
    let mut grad_b: Vec<Vec<f64>> = mlp
        .layers()
        .iter()
        .map(|l| vec![0.0; l.outputs()])
        .collect();
    let mut start = 0usize;
    while start < n {
        let hi = (start + shard).min(n);
        ws.indices.clear();
        ws.indices.extend(start..hi);
        ws.reset();
        ws.accumulate(mlp, data, loss);
        fold_workspace(&ws, &mut grad_w, &mut grad_b);
        start = hi;
    }
    let inv = 1.0 / n as f64;
    for g in &mut grad_w {
        g.scale(inv);
    }
    for g in &mut grad_b {
        for v in g {
            *v *= inv;
        }
    }
    (grad_w, grad_b)
}

/// Add one shard's accumulated gradients into the global accumulators —
/// the single fold step both the trainer and the gradient checker use.
fn fold_workspace(ws: &Workspace, grad_w: &mut [Matrix], grad_b: &mut [Vec<f64>]) {
    for (dst, src) in grad_w.iter_mut().zip(&ws.grad_w) {
        dst.add_scaled(1.0, src);
    }
    for (dst, src) in grad_b.iter_mut().zip(&ws.grad_b) {
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            *d += s;
        }
    }
}

/// A mini-batch SGD trainer with momentum and a pluggable per-port weighted
/// loss.
///
/// See the crate-level example for a full training run.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
    loss: Option<WeightedMse>,
}

impl Trainer {
    /// Trainer with the plain (uniform) Eq (4) loss.
    #[must_use]
    pub fn new(config: TrainConfig) -> Self {
        config.validate();
        Self { config, loss: None }
    }

    /// Trainer with an explicit per-port weighted loss (paper Eq (5)).
    #[must_use]
    pub fn with_loss(config: TrainConfig, loss: WeightedMse) -> Self {
        config.validate();
        Self {
            config,
            loss: Some(loss),
        }
    }

    /// The training configuration.
    #[must_use]
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Train `mlp` on `data`, mutating its weights in place.
    ///
    /// The mini-batch loop is sharded ([module docs](self)): the result is
    /// a pure function of the configuration and the data, bit-identical at
    /// every [`TrainConfig::threads`] setting.
    ///
    /// # Panics
    ///
    /// Panics if the dataset dimensions don't match the network, or if a
    /// configured loss has a different port count than the network output.
    pub fn train(&self, mlp: &mut Mlp, data: &Dataset) -> TrainReport {
        assert_eq!(
            data.input_dim(),
            mlp.input_dim(),
            "dataset input dim vs network"
        );
        assert_eq!(
            data.output_dim(),
            mlp.output_dim(),
            "dataset output dim vs network"
        );
        let loss = match &self.loss {
            Some(l) => {
                assert_eq!(
                    l.ports(),
                    mlp.output_dim(),
                    "loss port count vs network output"
                );
                l.clone()
            }
            None => WeightedMse::uniform(mlp.output_dim()),
        };

        let started = Instant::now();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let n = data.len();
        let batch = self.config.batch_size.min(n);
        let shard = shard_samples(batch);
        let slots = batch.div_ceil(shard);
        let workers = resolve_threads(self.config.threads).min(slots).max(1);

        // Shared state for the crew: the shuffle order, the current network
        // (read by shard tasks, write-locked only between rounds for the
        // momentum update), and one workspace per shard slot — per-*shard*,
        // not per-worker, so accumulation groups are fixed by the partition
        // and the ordered fold below is thread-count invariant.
        let order: Mutex<Vec<usize>> = Mutex::new((0..n).collect());
        let net: RwLock<Mlp> = RwLock::new(mlp.clone());
        let workspaces: Vec<Mutex<Workspace>> = (0..slots)
            .map(|_| Mutex::new(Workspace::new(mlp, shard)))
            .collect();

        let mut lr = self.config.learning_rate;
        // Momentum velocity buffers, one per layer.
        let mut vel_w: Vec<Matrix> = mlp
            .layers()
            .iter()
            .map(|l| Matrix::zeros(l.outputs(), l.inputs()))
            .collect();
        let mut vel_b: Vec<Vec<f64>> = mlp
            .layers()
            .iter()
            .map(|l| vec![0.0; l.outputs()])
            .collect();
        // Folded gradient accumulators.
        let mut grad_w: Vec<Matrix> = vel_w.clone();
        let mut grad_b: Vec<Vec<f64>> = vel_b.clone();

        // The per-round task: shard `s` of the mini-batch starting at
        // `chunk_start`. Everything it needs is a pure function of those
        // two numbers plus shared state, so the dispatch is two words.
        let task = |chunk_start: usize, s: usize| {
            let len = (n - chunk_start).min(batch);
            let lo = chunk_start + s * shard;
            let hi = chunk_start + ((s + 1) * shard).min(len);
            let mut ws = workspaces[s].lock().expect("workspace lock");
            {
                let order = order.lock().expect("order lock");
                ws.indices.clear();
                ws.indices.extend_from_slice(&order[lo..hi]);
            }
            ws.reset();
            let net = net.read().expect("net lock");
            ws.accumulate(&net, data, &loss);
        };

        let pool = ThreadPool::new(workers);
        let (history, epochs_run) = pool.crew(task, |crew| {
            let mut history = Vec::with_capacity(self.config.epochs);
            let mut epochs_run = 0usize;
            for _epoch in 0..self.config.epochs {
                epochs_run += 1;
                {
                    let mut order = order.lock().expect("order lock");
                    prng::seq::shuffle(&mut order, &mut rng);
                }
                let mut epoch_loss = 0.0;

                let mut chunk_start = 0usize;
                while chunk_start < n {
                    let len = (n - chunk_start).min(batch);
                    crew.run(chunk_start, len.div_ceil(shard));

                    // Ordered reduction: fold shard gradients strictly in
                    // shard-index order so the f64 sums group identically
                    // at every thread count.
                    for g in &mut grad_w {
                        g.fill_zero();
                    }
                    for g in &mut grad_b {
                        g.fill(0.0);
                    }
                    for slot in workspaces.iter().take(len.div_ceil(shard)) {
                        let ws = slot.lock().expect("workspace lock");
                        fold_workspace(&ws, &mut grad_w, &mut grad_b);
                        epoch_loss += ws.loss_sum;
                    }

                    // Momentum update: v ← μ·v − (lr/|batch|)·∇ ; θ ← θ + v.
                    let scale = lr / len as f64;
                    let mut net = net.write().expect("net lock");
                    for (l, layer) in net.layers_mut().iter_mut().enumerate() {
                        vel_w[l].scale(self.config.momentum);
                        vel_w[l].add_scaled(-scale, &grad_w[l]);
                        layer.weights.add_scaled(1.0, &vel_w[l]);
                        for j in 0..layer.biases.len() {
                            vel_b[l][j] = self.config.momentum * vel_b[l][j] - scale * grad_b[l][j];
                            layer.biases[j] += vel_b[l][j];
                        }
                    }
                    chunk_start += len;
                }

                let mean_loss = epoch_loss / n as f64;
                history.push(mean_loss);
                lr *= self.config.lr_decay;
                if mean_loss <= self.config.target_loss {
                    break;
                }
            }
            (history, epochs_run)
        });

        *mlp = net.into_inner().expect("net lock poisoned");
        let wall = started.elapsed().as_secs_f64();
        let samples = (epochs_run * n) as f64;
        TrainReport {
            epochs_run,
            final_loss: *history.last().expect("at least one epoch"),
            loss_history: history,
            wall_time_secs: wall,
            samples_per_sec: if wall > 0.0 { samples / wall } else { 0.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::mlp::MlpBuilder;
    use prng::rngs::StdRng;
    use prng::Rng;
    use prng::SeedableRng;

    fn xor_dataset() -> Dataset {
        Dataset::new(
            vec![vec![0., 0.], vec![0., 1.], vec![1., 0.], vec![1., 1.]],
            vec![vec![0.], vec![1.], vec![1.], vec![0.]],
        )
        .unwrap()
    }

    #[test]
    fn xor_converges() {
        let mut net = MlpBuilder::new(&[2, 6, 1])
            .hidden_activation(Activation::Tanh)
            .seed(3)
            .build();
        let trainer = Trainer::new(TrainConfig {
            epochs: 3000,
            learning_rate: 0.5,
            batch_size: 4,
            ..TrainConfig::default()
        });
        let report = trainer.train(&mut net, &xor_dataset());
        assert!(report.final_loss < 0.01, "final loss {}", report.final_loss);
        // Predictions round to the right class.
        for (x, t) in xor_dataset().iter() {
            let y = net.forward(x)[0];
            assert_eq!((y >= 0.5) as u8 as f64, t[0], "x={x:?} y={y}");
        }
    }

    #[test]
    fn training_is_deterministic_given_seeds() {
        let run = || {
            let mut net = MlpBuilder::new(&[2, 4, 1]).seed(1).build();
            let trainer = Trainer::new(TrainConfig {
                epochs: 50,
                ..TrainConfig::default()
            });
            let r = trainer.train(&mut net, &xor_dataset());
            (net, r.final_loss)
        };
        let (n1, l1) = run();
        let (n2, l2) = run();
        assert_eq!(n1, n2);
        assert_eq!(l1, l2);
    }

    #[test]
    fn loss_decreases_on_average() {
        let mut rng = StdRng::seed_from_u64(7);
        let data = Dataset::generate(128, &mut rng, |r| {
            let x: f64 = r.gen();
            (vec![x], vec![(x * std::f64::consts::PI).sin() * 0.4 + 0.5])
        })
        .unwrap();
        let mut net = MlpBuilder::new(&[1, 8, 1]).seed(2).build();
        let trainer = Trainer::new(TrainConfig {
            epochs: 100,
            learning_rate: 0.8,
            ..TrainConfig::default()
        });
        let report = trainer.train(&mut net, &data);
        let first = report.loss_history[0];
        // Every init converges to the same ≈0.008 plateau for this target;
        // a lucky init can *start* there, so assert convergence plus
        // non-increase rather than a fixed improvement ratio.
        assert!(
            report.final_loss < 0.01,
            "did not converge: {} -> {}",
            first,
            report.final_loss
        );
        assert!(
            report.final_loss <= first * 1.01,
            "{} -> {}",
            first,
            report.final_loss
        );
    }

    #[test]
    fn target_loss_stops_early() {
        let mut net = MlpBuilder::new(&[2, 6, 1])
            .hidden_activation(Activation::Tanh)
            .seed(3)
            .build();
        let trainer = Trainer::new(TrainConfig {
            epochs: 100_000,
            learning_rate: 0.5,
            batch_size: 4,
            target_loss: 0.05,
            ..TrainConfig::default()
        });
        let report = trainer.train(&mut net, &xor_dataset());
        assert!(report.epochs_run < 100_000);
        assert!(report.final_loss <= 0.05);
    }

    #[test]
    fn weighted_loss_prioritizes_heavy_port() {
        // Two outputs driven by conflicting targets for the same inputs: the
        // heavily-weighted port must end up much more accurate.
        let mut rng = StdRng::seed_from_u64(1);
        let data = Dataset::generate(64, &mut rng, |r| {
            let x: f64 = r.gen();
            // Port 0: smooth function; port 1: high-frequency function the
            // tiny network cannot also fit.
            (vec![x], vec![x, (20.0 * x).sin() * 0.5 + 0.5])
        })
        .unwrap();
        let make = |weights: Vec<f64>| {
            let mut net = MlpBuilder::new(&[1, 4, 2]).seed(5).build();
            let trainer = Trainer::with_loss(
                TrainConfig {
                    epochs: 400,
                    learning_rate: 0.8,
                    ..TrainConfig::default()
                },
                WeightedMse::new(weights),
            );
            trainer.train(&mut net, &data);
            net
        };
        let err_port0 = |net: &Mlp| -> f64 {
            data.iter()
                .map(|(x, t)| {
                    let y = net.forward(x);
                    (y[0] - t[0]).abs()
                })
                .sum::<f64>()
                / data.len() as f64
        };
        let favored = make(vec![1.0, 0.01]);
        let unfavored = make(vec![0.01, 1.0]);
        assert!(
            err_port0(&favored) < err_port0(&unfavored),
            "weighting port 0 should reduce its error: {} vs {}",
            err_port0(&favored),
            err_port0(&unfavored)
        );
    }

    #[test]
    #[should_panic(expected = "dataset input dim")]
    fn train_rejects_dimension_mismatch() {
        let mut net = MlpBuilder::new(&[3, 4, 1]).build();
        let trainer = Trainer::new(TrainConfig::default());
        let _ = trainer.train(&mut net, &xor_dataset());
    }

    #[test]
    #[should_panic(expected = "loss port count")]
    fn train_rejects_loss_port_mismatch() {
        let mut net = MlpBuilder::new(&[2, 4, 1]).build();
        let trainer = Trainer::with_loss(TrainConfig::default(), WeightedMse::uniform(3));
        let _ = trainer.train(&mut net, &xor_dataset());
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn config_validation_rejects_bad_momentum() {
        let _ = Trainer::new(TrainConfig {
            momentum: 1.5,
            ..TrainConfig::default()
        });
    }

    #[test]
    fn report_display_is_informative() {
        let r = TrainReport {
            epochs_run: 10,
            final_loss: 0.125,
            loss_history: vec![0.125],
            wall_time_secs: 0.5,
            samples_per_sec: 1280.0,
        };
        let s = format!("{r}");
        assert!(s.contains("10") && s.contains("0.125") && s.contains("1280"));
    }

    #[test]
    fn report_equality_ignores_timing() {
        let mut a = TrainReport {
            epochs_run: 3,
            final_loss: 0.25,
            loss_history: vec![1.0, 0.5, 0.25],
            wall_time_secs: 0.1,
            samples_per_sec: 100.0,
        };
        let mut b = a.clone();
        b.wall_time_secs = 99.0;
        b.samples_per_sec = 1.0;
        assert_eq!(a, b);
        a.final_loss = 0.3;
        assert_ne!(a, b);
    }

    #[test]
    fn training_is_bit_identical_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(11);
        let data = Dataset::generate(37, &mut rng, |r| {
            let x: f64 = r.gen();
            let y: f64 = r.gen();
            (vec![x, y], vec![(x * y).sqrt()])
        })
        .unwrap();
        let run = |threads: usize| {
            let mut net = MlpBuilder::new(&[2, 6, 1]).seed(9).build();
            let trainer = Trainer::new(TrainConfig {
                epochs: 8,
                batch_size: 10,
                learning_rate: 0.6,
                threads,
                ..TrainConfig::default()
            });
            let report = trainer.train(&mut net, &data);
            (net, report)
        };
        let (serial_net, serial_report) = run(1);
        for threads in [2, 3, 0] {
            let (net, report) = run(threads);
            assert_eq!(serial_net, net, "weights diverged at threads={threads}");
            assert_eq!(
                serial_report, report,
                "report diverged at threads={threads}"
            );
            let bits: Vec<u64> = report.loss_history.iter().map(|l| l.to_bits()).collect();
            let serial_bits: Vec<u64> = serial_report
                .loss_history
                .iter()
                .map(|l| l.to_bits())
                .collect();
            assert_eq!(serial_bits, bits, "loss bits diverged at threads={threads}");
        }
    }

    #[test]
    fn sharded_mean_gradients_are_finite_and_shaped() {
        let mut rng = StdRng::seed_from_u64(13);
        let data = Dataset::generate(21, &mut rng, |r| {
            let x: f64 = r.gen();
            (vec![x], vec![1.0 - x, x * x])
        })
        .unwrap();
        let net = MlpBuilder::new(&[1, 5, 2]).seed(4).build();
        let loss = WeightedMse::uniform(2);
        let (gw, gb) = sharded_mean_gradients(&net, &data, &loss);
        assert_eq!(gw.len(), net.layers().len());
        assert_eq!(gb.len(), net.layers().len());
        for (l, layer) in net.layers().iter().enumerate() {
            assert_eq!(
                (gw[l].rows(), gw[l].cols()),
                (layer.outputs(), layer.inputs())
            );
            assert_eq!(gb[l].len(), layer.outputs());
            assert!(gb[l].iter().all(|g| g.is_finite()));
        }
    }
}
