//! Table 1 reproduction: benchmark description and results.
//!
//! For each of the six benchmarks: the Digital / AD-DA / MEI MSEs, the
//! application error metric for all three, the pruned MEI topology found by
//! the LSB-pruning pass, and the Eq (6)/(7) area & power savings.
//!
//! Run with: `cargo run --release -p mei-bench --bin table1`
//! (set `MEI_BENCH_FAST=1` for a smoke run)

use interface::cost::{AddaTopology, CostModel};
use mei::prune::prune_to_requirement;
use mei::{evaluate_metric, evaluate_mse, mse_scorer, robustness, NonIdealFactors};
use mei_bench::{
    format_table, pct, table1_setups, train_trio, ExperimentConfig, EXPERIMENT_WRITE_SIGMA,
};

/// The paper's Table 1 reference values: (mse_digital, mse_adda, mse_mei,
/// err_digital, err_adda, err_mei, area_saved, power_saved).
const PAPER: [(&str, [f64; 8]); 6] = [
    (
        "fft",
        [
            0.0046, 0.0071, 0.0052, 0.0603, 0.1072, 0.0887, 0.7424, 0.8723,
        ],
    ),
    (
        "inversek2j",
        [
            0.0038, 0.0053, 0.0067, 0.0657, 0.0907, 0.1045, 0.5463, 0.7373,
        ],
    ),
    (
        "jmeint",
        [
            0.0117, 0.0258, 0.0262, 0.0719, 0.0950, 0.0996, 0.6967, 0.6182,
        ],
    ),
    (
        "jpeg",
        [
            0.0081, 0.0153, 0.0142, 0.0689, 0.1144, 0.0973, 0.8614, 0.7958,
        ],
    ),
    (
        "kmeans",
        [
            0.0052, 0.0081, 0.0094, 0.0359, 0.0759, 0.0813, 0.6700, 0.7025,
        ],
    ),
    (
        "sobel",
        [
            0.0024, 0.0028, 0.0026, 0.0371, 0.0400, 0.0377, 0.8599, 0.8680,
        ],
    ),
];

fn main() {
    let cfg = ExperimentConfig::from_env();
    let pool = cfg.pool();
    let noise = NonIdealFactors::process_only(EXPERIMENT_WRITE_SIGMA);
    let cost = CostModel::dac2015();
    eprintln!("table1 on {} threads", pool.threads());
    println!(
        "== Table 1: six benchmarks, {} train / {} test samples, {} write draws ==\n",
        cfg.train_samples, cfg.test_samples, cfg.write_draws
    );

    let mut rows = Vec::new();
    let mut shape_failures: Vec<String> = Vec::new();

    for (setup, (paper_name, paper)) in table1_setups().iter().zip(PAPER) {
        let w = &setup.workload;
        assert_eq!(w.name(), paper_name);
        let started = std::time::Instant::now();
        let n_train = if setup.wide {
            cfg.train_samples.min(3000)
        } else {
            cfg.train_samples
        };
        let train = w.dataset(n_train, cfg.seed).expect("train data");
        let test = w
            .dataset(cfg.test_samples, cfg.seed + 1)
            .expect("test data");

        let trio = train_trio(setup, &train, &cfg);
        let metric = w.metric();

        // LSB pruning within a 10% quality guarantee relative to the clean
        // MEI error. Table 1 reports the pruned *topology* (and computes the
        // savings from it) alongside the B_r = 8 system's accuracy.
        let mse_mei_clean = evaluate_mse(&trio.mei, &test);
        let pruned = prune_to_requirement(&trio.mei, &test, mse_mei_clean * 1.10).expect("pruning");
        let mei_topology = pruned.rcs.topology();

        // Digital is noise-free; the two RCSs average over write draws.
        let error = |p: &[Vec<f64>], t: &[Vec<f64>]| metric.evaluate(p, t);
        let mse_digital = evaluate_mse(&trio.digital, &test);
        let err_digital = evaluate_metric(&trio.digital, &test, error);
        let draws = cfg.write_draws;
        let mse_adda = robustness(&pool, &trio.adda, &test, &noise, draws, 11, mse_scorer).mean;
        let err_adda = robustness(&pool, &trio.adda, &test, &noise, draws, 11, error).mean;
        let mse_mei = robustness(&pool, &trio.mei, &test, &noise, draws, 13, mse_scorer).mean;
        let err_mei = robustness(&pool, &trio.mei, &test, &noise, draws, 13, error).mean;

        let (i, h, o) = w.digital_topology();
        let adda_topology = AddaTopology::new(i, h, o, 8);
        let area_saved = cost.area_saving(&adda_topology, &mei_topology);
        let power_saved = cost.power_saving(&adda_topology, &mei_topology);

        rows.push(vec![
            w.name().to_string(),
            format!("{}×{}×{}", i, h, o),
            mei_topology.to_string(),
            format!("{mse_digital:.4}/{:.4}", paper[0]),
            format!("{mse_adda:.4}/{:.4}", paper[1]),
            format!("{mse_mei:.4}/{:.4}", paper[2]),
            format!("{err_digital:.3}"),
            format!("{err_adda:.3}"),
            format!("{err_mei:.3}"),
            format!("{}/{}", pct(area_saved), pct(paper[6])),
            format!("{}/{}", pct(power_saved), pct(paper[7])),
        ]);

        // Shape assertions.
        if area_saved < 0.5 {
            shape_failures.push(format!("{}: area saving below 50%", w.name()));
        }
        if power_saved < 0.5 {
            shape_failures.push(format!("{}: power saving below 50%", w.name()));
        }
        if mse_digital > mse_adda * 1.5 + 1e-5 {
            shape_failures.push(format!("{}: digital baseline not best", w.name()));
        }
        if mse_mei > (mse_adda * 8.0).max(1.5e-2) {
            shape_failures.push(format!(
                "{}: MEI not comparable to AD/DA ({mse_mei:.4} vs {mse_adda:.4})",
                w.name()
            ));
        }
        eprintln!(
            "[{}] done in {:.0}s",
            w.name(),
            started.elapsed().as_secs_f64()
        );
    }

    println!(
        "{}",
        format_table(
            &[
                "name",
                "digital topo",
                "pruned MEI topo",
                "MSE dig (ours/paper)",
                "MSE AD/DA",
                "MSE MEI",
                "err dig",
                "err AD/DA",
                "err MEI",
                "area saved (ours/paper)",
                "power saved (ours/paper)",
            ],
            &rows
        )
    );

    println!("shape checks vs paper:");
    if shape_failures.is_empty() {
        println!("  all orderings and savings PASS");
    } else {
        for f in &shape_failures {
            println!("  FAIL {f}");
        }
    }
    println!("\nnote: absolute MSEs differ from the paper (behavioural substrate vs the");
    println!("authors' SPICE testbed); see EXPERIMENTS.md for the per-benchmark discussion.");
}
