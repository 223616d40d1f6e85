//! Fig 5 reproduction: system performance under different noisy conditions.
//!
//! For three representative benchmarks (the paper presents inversek2j, JPEG
//! and Sobel as "enough to reflect all the simulation results"), sweep the
//! lognormal level of each non-ideal factor — process variation (PV) and
//! signal fluctuation (SF) — and evaluate four systems Monte-Carlo style:
//!
//! * the traditional AD/DA RCS,
//! * MEI,
//! * MEI + SAAB (boosted with the σ injected during scoring),
//! * MEI with an equivalently-enlarged hidden layer.
//!
//! Paper's observations: both SAAB and the wider hidden layer improve
//! robustness (which one wins is benchmark-dependent), and MEI is markedly
//! more robust to *signal fluctuation* than the AD/DA design.
//!
//! Run with: `cargo run --release -p mei-bench --bin fig5_noise`

use mei::{mse_scorer, robustness, MeiConfig, MeiRcs, NonIdealFactors, Rcs, SaabConfig};
use mei_bench::{format_table, table1_setups, train_saab_adaptive, train_trio, ExperimentConfig};
use neural::Dataset;
use runtime::ThreadPool;

const PV_LEVELS: [f64; 4] = [0.0, 0.1, 0.2, 0.4];
const SF_LEVELS: [f64; 4] = [0.0, 0.05, 0.1, 0.2];
const BENCHMARKS: [&str; 3] = ["inversek2j", "jpeg", "sobel"];

/// Mean MC-robustness error of one system at one σ point, with the trials
/// spread over the pool (bit-identical for every thread count).
fn mc_mean<T: Rcs + Clone + Send + Sync>(
    pool: &ThreadPool,
    rcs: &T,
    test: &Dataset,
    factors: &NonIdealFactors,
    trials: usize,
    seed: u64,
) -> f64 {
    robustness(pool, rcs, test, factors, trials, seed, mse_scorer).mean
}

fn main() {
    let cfg = ExperimentConfig::from_env();
    let pool = cfg.pool();
    eprintln!("fig5_noise on {} threads", pool.threads());
    println!(
        "== Fig 5: error under noisy conditions ({} MC trials per point) ==\n",
        cfg.noise_trials
    );

    for setup in table1_setups() {
        let w = &setup.workload;
        if !BENCHMARKS.contains(&w.name()) {
            continue;
        }
        let started = std::time::Instant::now();
        let n_train = if setup.wide {
            cfg.train_samples.min(3000)
        } else {
            cfg.train_samples
        };
        let train = w.dataset(n_train, cfg.seed).expect("train data");
        let test = w
            .dataset(cfg.test_samples.min(400), cfg.seed + 1)
            .expect("test data");

        let trio = train_trio(&setup, &train, &cfg);

        // SAAB trained with representative σ injected during scoring
        // (Algorithm 1 line 6), K = 3 learners.
        let mei_cfg = MeiConfig {
            hidden: setup.mei_hidden,
            in_bits: setup.mei_in_bits,
            out_bits: setup.mei_out_bits,
            device: cfg.device(),
            train: cfg.mei_train(setup.wide),
            seed: cfg.seed,
            ..MeiConfig::default()
        };
        let (saab, _bc) = train_saab_adaptive(
            &train,
            &mei_cfg,
            &SaabConfig {
                rounds: 3,
                compare_bits: setup.mei_out_bits.clamp(1, 5),
                factors: NonIdealFactors::new(0.1, 0.05),
                ..SaabConfig::default()
            },
        );

        // The increasing-hidden-layer alternative: 3× hidden nodes.
        let wide = MeiRcs::train(
            &train,
            &MeiConfig {
                hidden: 3 * setup.mei_hidden,
                ..mei_cfg
            },
        )
        .expect("wide MEI training");

        for (factor_name, levels, make) in [
            (
                "process variation",
                PV_LEVELS,
                NonIdealFactors::process_only as fn(f64) -> _,
            ),
            (
                "signal fluctuation",
                SF_LEVELS,
                NonIdealFactors::signal_only as fn(f64) -> _,
            ),
        ] {
            let mut rows = Vec::new();
            for &sigma in &levels {
                let factors = make(sigma);
                let cell = |mean: f64| format!("{mean:.5}");
                rows.push(vec![
                    format!("{sigma:.2}"),
                    cell(mc_mean(
                        &pool,
                        &trio.adda,
                        &test,
                        &factors,
                        cfg.noise_trials,
                        31,
                    )),
                    cell(mc_mean(
                        &pool,
                        &trio.mei,
                        &test,
                        &factors,
                        cfg.noise_trials,
                        31,
                    )),
                    cell(mc_mean(&pool, &saab, &test, &factors, cfg.noise_trials, 31)),
                    cell(mc_mean(&pool, &wide, &test, &factors, cfg.noise_trials, 31)),
                ]);
            }
            println!("--- {} | {} sweep ---", w.name(), factor_name);
            println!(
                "{}",
                format_table(&["σ", "AD/DA", "MEI", "MEI+SAAB(3)", "MEI wide(3H)"], &rows)
            );
        }

        // Shape check: at the strongest SF level, MEI's *relative*
        // degradation is below the AD/DA architecture's.
        let sf = NonIdealFactors::signal_only(SF_LEVELS[3]);
        let ideal = NonIdealFactors::ideal();
        let base_adda = mc_mean(&pool, &trio.adda, &test, &ideal, 1, 0);
        let base_mei = mc_mean(&pool, &trio.mei, &test, &ideal, 1, 0);
        let noisy_adda = mc_mean(&pool, &trio.adda, &test, &sf, cfg.noise_trials, 33);
        let noisy_mei = mc_mean(&pool, &trio.mei, &test, &sf, cfg.noise_trials, 33);
        let adda_deg = noisy_adda - base_adda;
        let mei_deg = noisy_mei - base_mei;
        println!(
            "SF robustness ({}): AD/DA degrades by {:.5}, MEI by {:.5} → {}",
            w.name(),
            adda_deg,
            mei_deg,
            if mei_deg < adda_deg {
                "PASS (MEI more robust, as in the paper)"
            } else {
                "FAIL"
            }
        );
        eprintln!(
            "[{}] done in {:.0}s\n",
            w.name(),
            started.elapsed().as_secs_f64()
        );
        println!();
    }
}
