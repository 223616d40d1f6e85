//! Ablation: MEI at higher interface bit-lengths (the paper's future-work
//! direction — "we may directly use higher bit-level ... in MEI to further
//! improve the system performance", §6).
//!
//! Sweeps `B_r ∈ {6, 8, 10, 12}` on inversek2j — the benchmark where MEI
//! loses to AD/DA at 8 bits and where the paper suggests "increasing the
//! bit requirement of MEI from 8 to 10, 12 or a higher level" as the
//! remedy — and reports accuracy together with the Eq (7) cost growth.
//!
//! Run with: `cargo run --release -p mei-bench --bin ablation_bitlength`

use interface::cost::{AddaTopology, CostModel};
use mei::{evaluate_mse, MeiConfig, MeiRcs};
use mei_bench::{format_table, pct, ExperimentConfig};
use workloads::{inversek2j::InverseK2j, Workload};

fn main() {
    let cfg = ExperimentConfig::from_env();
    let cost = CostModel::dac2015();
    let w = InverseK2j::new();
    let train = w.dataset(cfg.train_samples, cfg.seed).expect("train data");
    let test = w
        .dataset(cfg.test_samples, cfg.seed + 1)
        .expect("test data");
    let adda_topology = AddaTopology::new(2, 8, 2, 8);

    println!("== Ablation: MEI interface bit-length on inversek2j ==\n");

    let mut rows = Vec::new();
    let mut points = Vec::new(); // (test MSE, area saved, power saved)
    for bits in [6usize, 8, 10, 12] {
        let rcs = MeiRcs::train(
            &train,
            &MeiConfig {
                in_bits: bits,
                out_bits: bits,
                hidden: 32,
                device: cfg.device(),
                train: cfg.mei_train(false),
                seed: cfg.seed,
                ..MeiConfig::default()
            },
        )
        .expect("MEI training");
        let mse = evaluate_mse(&rcs, &test);
        let topo = rcs.topology();
        let area = cost.area_saving(&adda_topology, &topo);
        let power = cost.power_saving(&adda_topology, &topo);
        points.push((mse, area, power));
        rows.push(vec![
            format!("{bits}-bit"),
            topo.to_string(),
            format!("{mse:.5}"),
            pct(area),
            pct(power),
        ]);
    }
    // 6 bits against 10: the error holds or falls, and both savings shrink.
    let (six, ten) = (points[0], points[2]);
    let trade_off = ten.0 <= six.0 && ten.1 < six.1 && ten.2 < six.2;
    println!(
        "{}",
        format_table(
            &["B_r", "topology", "test MSE", "area saved", "power saved"],
            &rows
        )
    );
    println!("shape check: accuracy improves (or holds) from 6 → 10 bits while the");
    println!(
        "cost saving shrinks — the accuracy/cost trade-off the paper's DSE navigates: {}",
        if trade_off { "PASS" } else { "FAIL" }
    );
}
