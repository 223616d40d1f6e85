//! # `mei-bench` — the reproduction harness
//!
//! One binary per table/figure of the paper's evaluation (§5):
//!
//! | Target | Reproduces |
//! |---|---|
//! | `fig2_breakdown` | Fig 2 — area/power breakdown of the 2×8×2 AD/DA RCS |
//! | `fig3_exp_fit` | Fig 3 — `exp(−x²)` MSE vs hidden size, AD/DA vs MEI (un)weighted |
//! | `table1` | Table 1 — MSE/error/savings on all six benchmarks |
//! | `fig4_methods` | Fig 4 — Digital vs AD/DA vs MEI vs MEI+SAAB per benchmark |
//! | `fig5_noise` | Fig 5 — error under swept process variation / signal fluctuation |
//! | `ablation_loss` | Eq (5) weighted vs Eq (4) uniform loss, all benchmarks |
//! | `ablation_bc` | SAAB `B_C` error-relaxation sweep |
//! | `ablation_bitlength` | MEI at 6/8/10/12-bit interfaces |
//! | `ablation_irdrop` | wire-resistance attenuation + end-to-end accuracy |
//! | `ablation_retention` | conductance drift over deployment time |
//! | `ablation_encoding` | binary vs Gray-coded interfaces (extension) |
//!
//! The in-repo micro-benchmarks (`benches/`, on the [`timing`] runner)
//! cover the substrate hot paths.
//!
//! ## The experimental substrate
//!
//! The paper evaluates on SPICE-level crossbar netlists; this harness runs
//! the behavioural substrate with **continuous HfOx cells disturbed by 2%
//! lognormal write-accuracy noise** ([`EXPERIMENT_WRITE_SIGMA`]) — the
//! program-and-verify tolerance reported for analog RRAM tuning — and
//! reports the mean over [`ExperimentConfig::write_draws`] manufactured
//! "chips". Each draw is one trial of [`mei::robustness`] at that
//! process-variation level alone, the same protocol the noise sweeps use.
//! Without such noise the behavioural analog path is *exact* and the
//! AD/DA baseline becomes unrealistically strong (see DESIGN.md).
//!
//! Set `MEI_BENCH_FAST=1` for smoke runs: it shrinks every training budget
//! ~4× here and the serving benches' windows and training.
//!
//! Every numeric knob (`MEI_THREADS`, `MEI_BENCH_SECONDS`,
//! `MEI_BENCH_MIN_SPEEDUP`, …) is parsed through [`prng::env`]: an unset
//! variable silently takes the default, but a *set-and-malformed* one
//! prints a warning on stderr instead of being silently ignored.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod ramp;
pub mod timing;

use std::time::{Duration, Instant};

use mei::{AddaConfig, AddaRcs, DigitalAnn, MeiConfig, MeiRcs};
use neural::{Dataset, TrainConfig};
use rram::DeviceParams;
use runtime::{Chip, Engine, ServeStats};
use workloads::{all_benchmarks, Workload};

/// Lognormal σ of the write-accuracy (program-and-verify) noise applied to
/// every manufactured RCS in the experiments. 2% is the tight end of
/// published RRAM write-verify tolerances; larger values make single
/// manufactured draws of the small AD/DA networks (e.g. inversek2j's 2×8×2)
/// dominate the reported means.
pub const EXPERIMENT_WRITE_SIGMA: f64 = 0.02;

/// Budgets and seeds shared by every reproduction binary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Training-set size (quartered in fast mode).
    pub train_samples: usize,
    /// Test-set size.
    pub test_samples: usize,
    /// Backprop epochs for the digital/AD-DA networks.
    pub adda_epochs: usize,
    /// Backprop epochs for MEI networks.
    pub mei_epochs: usize,
    /// Manufactured-chip draws averaged per reported number.
    pub write_draws: usize,
    /// Monte-Carlo trials per robustness point (Fig 5).
    pub noise_trials: usize,
    /// Base seed.
    pub seed: u64,
    /// Worker threads for parallel evaluation (`0` = auto-detect). Set via
    /// `MEI_THREADS`; results are bit-identical for every value.
    pub threads: usize,
}

impl ExperimentConfig {
    /// The default budgets, shrunk in [`fast_mode`].
    #[must_use]
    pub fn from_env() -> Self {
        let threads = prng::env::parse_or("MEI_THREADS", 0);
        if fast_mode() {
            Self {
                train_samples: 1_500,
                test_samples: 300,
                adda_epochs: 60,
                mei_epochs: 80,
                write_draws: 2,
                noise_trials: 20,
                seed: 1,
                threads,
            }
        } else {
            Self {
                train_samples: 6_000,
                test_samples: 1_000,
                adda_epochs: 200,
                mei_epochs: 300,
                write_draws: 5,
                noise_trials: 100,
                seed: 1,
                threads,
            }
        }
    }

    /// The worker pool every parallel evaluation path shares.
    #[must_use]
    pub fn pool(&self) -> runtime::ThreadPool {
        runtime::ThreadPool::new(self.threads)
    }

    /// The experimental device model.
    #[must_use]
    pub fn device(&self) -> DeviceParams {
        DeviceParams::hfox()
    }

    /// Training hyperparameters for the digital / AD-DA path.
    #[must_use]
    pub fn adda_train(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.adda_epochs,
            learning_rate: 0.8,
            lr_decay: 0.995,
            threads: self.threads,
            ..TrainConfig::default()
        }
    }

    /// Training hyperparameters for MEI networks (`wide` widens batches for
    /// the big JPEG output layer).
    #[must_use]
    pub fn mei_train(&self, wide: bool) -> TrainConfig {
        TrainConfig {
            epochs: if wide {
                self.mei_epochs / 3
            } else {
                self.mei_epochs
            },
            learning_rate: if wide { 0.3 } else { 0.5 },
            batch_size: if wide { 32 } else { 16 },
            lr_decay: 0.995,
            threads: self.threads,
            ..TrainConfig::default()
        }
    }
}

/// Table 1 row description: the benchmark plus the architecture sizes the
/// paper reports for it.
pub struct BenchmarkSetup {
    /// The workload.
    pub workload: Box<dyn Workload>,
    /// Hidden size of the MEI network (Table 1's pruned-MEI column).
    pub mei_hidden: usize,
    /// MEI input bits per group — the basic bit-length `B_r = 8`; the
    /// Table 1 `(D·B)` widths are what LSB *pruning* finds afterwards.
    pub mei_in_bits: usize,
    /// MEI output bits per group (`B_r = 8`).
    pub mei_out_bits: usize,
    /// Whether this benchmark's MEI network is large enough to need the
    /// wide-training budget.
    pub wide: bool,
}

/// The six Table 1 rows, trained at the paper's basic bit-length
/// (`B_r = 8` on both sides; §4.3 prunes from there).
#[must_use]
pub fn table1_setups() -> Vec<BenchmarkSetup> {
    let hidden = [16usize, 32, 64, 64, 32, 16];
    all_benchmarks()
        .into_iter()
        .zip(hidden)
        .map(|(workload, mei_hidden)| {
            let wide = workload.name() == "jpeg";
            BenchmarkSetup {
                workload,
                mei_hidden,
                mei_in_bits: 8,
                mei_out_bits: 8,
                wide,
            }
        })
        .collect()
}

/// The serving benches' system: the Table 1 inversek2j row's MEI RCS with
/// `hidden` hidden units (`None` keeps the row's own size), trained on a
/// small budget — a serving workload, not the accuracy experiment;
/// `MEI_BENCH_FAST=1` shrinks it further — plus the 64 held-out test
/// inputs the benches serve.
///
/// # Panics
///
/// Panics if data generation or training fails — a harness bug.
#[must_use]
pub fn serving_mei(cfg: &ExperimentConfig, hidden: Option<usize>) -> (MeiRcs, Vec<Vec<f64>>) {
    let fast = fast_mode();
    let setup = table1_setups()
        .into_iter()
        .find(|s| s.workload.name() == "inversek2j")
        .expect("inversek2j is a Table 1 row");
    let train = setup
        .workload
        .dataset(if fast { 400 } else { 1_500 }, cfg.seed)
        .expect("train data");
    let test = setup.workload.dataset(64, cfg.seed + 1).expect("test data");
    let mei = MeiRcs::train(
        &train,
        &MeiConfig {
            hidden: hidden.unwrap_or(setup.mei_hidden),
            in_bits: setup.mei_in_bits,
            out_bits: setup.mei_out_bits,
            device: cfg.device(),
            train: TrainConfig {
                epochs: if fast { 15 } else { 60 },
                learning_rate: 0.8,
                ..TrainConfig::default()
            },
            seed: cfg.seed,
            ..MeiConfig::default()
        },
    )
    .expect("MEI training");
    (mei, test.inputs().to_vec())
}

/// The three trained architectures for one benchmark.
pub struct Trio {
    /// 32-bit float baseline ("Digital ANN").
    pub digital: DigitalAnn,
    /// Traditional RCS with 8-bit AD/DAs.
    pub adda: AddaRcs,
    /// Merged-interface RCS.
    pub mei: MeiRcs,
}

/// Train the digital / AD-DA / MEI trio for a Table 1 row.
///
/// # Panics
///
/// Panics if any training step fails — a harness bug, not an expected
/// runtime condition.
#[must_use]
pub fn train_trio(setup: &BenchmarkSetup, train: &Dataset, cfg: &ExperimentConfig) -> Trio {
    let (_, h, _) = setup.workload.digital_topology();
    let digital =
        DigitalAnn::train(train, h, &cfg.adda_train(), cfg.seed).expect("digital training");
    let adda = AddaRcs::train(
        train,
        &AddaConfig {
            hidden: h,
            bits: 8,
            device: cfg.device(),
            train: cfg.adda_train(),
            seed: cfg.seed,
            ..AddaConfig::default()
        },
    )
    .expect("AD/DA training");
    let mei = MeiRcs::train(
        train,
        &MeiConfig {
            hidden: setup.mei_hidden,
            in_bits: setup.mei_in_bits,
            out_bits: setup.mei_out_bits,
            device: cfg.device(),
            train: cfg.mei_train(setup.wide),
            seed: cfg.seed,
            ..MeiConfig::default()
        },
    )
    .expect("MEI training");
    Trio { digital, adda, mei }
}

/// Train a SAAB ensemble, relaxing `B_C` (the compared MSB count) one bit at
/// a time if every round gets discarded — the paper's "otherwise, most of
/// the training samples will be either sensitive or hard ... and the
/// performance of SAAB may significantly decrease" failure mode, handled
/// automatically.
///
/// # Panics
///
/// Panics if SAAB cannot be trained even at `B_C = 1` (a harness bug).
#[must_use]
pub fn train_saab_adaptive(
    train: &Dataset,
    mei_cfg: &MeiConfig,
    base: &mei::SaabConfig,
) -> (mei::Saab, usize) {
    let start = base.compare_bits.min(mei_cfg.out_bits).max(1);
    for tolerance in [base.group_error_tolerance, 0.25, 0.5] {
        for bc in (1..=start).rev() {
            let cfg = mei::SaabConfig {
                compare_bits: bc,
                group_error_tolerance: tolerance,
                ..*base
            };
            if let Ok(saab) = mei::Saab::train(train, mei_cfg, &cfg) {
                return (saab, bc);
            }
        }
    }
    panic!("SAAB untrainable even at B_C = 1 with 50% group tolerance");
}

/// Whether `MEI_BENCH_FAST=1` smoke mode is on.
#[must_use]
pub fn fast_mode() -> bool {
    std::env::var("MEI_BENCH_FAST").is_ok_and(|v| v == "1")
}

/// The per-phase measurement window: `MEI_BENCH_SECONDS` when set and
/// well-formed (malformed values warn on stderr and fall back), else
/// `default_secs`; clamped to `[0.05, 60]` seconds either way.
#[must_use]
pub fn measure_window(default_secs: f64) -> std::time::Duration {
    let secs = prng::env::parse_validated::<f64>(
        "MEI_BENCH_SECONDS",
        "a finite number of seconds > 0",
        |s| s.is_finite() && *s > 0.0,
    )
    .unwrap_or(default_secs);
    std::time::Duration::from_secs_f64(secs.clamp(0.05, 60.0))
}

/// Uniform open-loop request schedule at `rate` req/s over `window`:
/// `⌈window·rate⌉` requests (at least one) cycling through `inputs`,
/// request `i` arriving at `i / rate` (rates below 1 req/s count as 1).
#[must_use]
pub fn schedule(
    inputs: &[Vec<f64>],
    rate: f64,
    window: Duration,
) -> (Vec<Vec<f64>>, Vec<Duration>) {
    let spacing = Duration::from_secs_f64(1.0 / rate.max(1.0));
    let n = ((window.as_secs_f64() * rate).ceil() as usize).max(1);
    let requests: Vec<Vec<f64>> = (0..n).map(|i| inputs[i % inputs.len()].clone()).collect();
    let arrivals: Vec<Duration> = (0..n).map(|i| spacing * i as u32).collect();
    (requests, arrivals)
}

/// Serve `engine` the [`schedule`] at `rate` over `window`, open loop.
pub fn open_phase<C: Chip>(
    engine: &Engine<C>,
    inputs: &[Vec<f64>],
    rate: f64,
    window: Duration,
) -> ServeStats {
    let (requests, arrivals) = schedule(inputs, rate, window);
    engine.serve_open_loop(&requests, &arrivals).stats
}

/// Closed-loop rate of `engine`: serve `inputs` as saturating batches
/// until `window` elapses, in requests per second.
pub fn closed_rate<C: Chip>(engine: &Engine<C>, inputs: &[Vec<f64>], window: Duration) -> f64 {
    let start = Instant::now();
    let mut requests = 0usize;
    while start.elapsed() < window {
        requests += engine.serve(inputs).outputs.len();
    }
    requests as f64 / start.elapsed().as_secs_f64()
}

/// Render an aligned text table.
#[must_use]
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(ToString::to_string).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Format a fraction as a percentage string.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mei::{evaluate_mse, mse_scorer, robustness, NonIdealFactors};

    #[test]
    fn setups_cover_all_six_benchmarks() {
        let setups = table1_setups();
        assert_eq!(setups.len(), 6);
        let names: Vec<&str> = setups.iter().map(|s| s.workload.name()).collect();
        assert_eq!(
            names,
            vec!["fft", "inversek2j", "jmeint", "jpeg", "kmeans", "sobel"]
        );
        assert!(setups.iter().all(|s| s.mei_hidden >= 16));
    }

    #[test]
    fn fast_config_is_smaller() {
        std::env::set_var("MEI_BENCH_FAST", "1");
        let fast = ExperimentConfig::from_env();
        std::env::remove_var("MEI_BENCH_FAST");
        let full = ExperimentConfig::from_env();
        assert!(fast.train_samples < full.train_samples);
        assert!(fast.mei_epochs < full.mei_epochs);
    }

    #[test]
    fn trio_trains_on_smallest_benchmark() {
        let cfg = ExperimentConfig {
            train_samples: 300,
            test_samples: 100,
            adda_epochs: 10,
            mei_epochs: 10,
            write_draws: 1,
            noise_trials: 2,
            seed: 3,
            threads: 1,
        };
        let setups = table1_setups();
        let sobel = &setups[5];
        let train = sobel.workload.dataset(cfg.train_samples, 1).unwrap();
        let test = sobel.workload.dataset(cfg.test_samples, 2).unwrap();
        let trio = train_trio(sobel, &train, &cfg);
        assert!(evaluate_mse(&trio.digital, &test).is_finite());
        let noise = NonIdealFactors::process_only(EXPERIMENT_WRITE_SIGMA);
        let noisy = robustness(&cfg.pool(), &trio.mei, &test, &noise, 2, 7, mse_scorer).mean;
        assert!(noisy.is_finite() && noisy >= 0.0);
    }

    #[test]
    fn table_formatting_aligns() {
        let t = format_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        assert!(t.contains("name"));
        assert!(t.lines().count() == 4);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5463), "54.63%");
    }
}
