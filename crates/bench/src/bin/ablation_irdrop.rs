//! Ablation: IR drop across array sizes and interconnect resistances.
//!
//! The paper sidesteps IR drop by choosing 90 nm interconnect (§5.1) and
//! names "reducing the IR drop for a larger RCS under smaller technology
//! node" as future work (§6). This sweep quantifies the effect the choice
//! avoids: per-column current attenuation of a uniformly-excited crossbar
//! as the array grows and the wire resistance rises, solved with the
//! conjugate-gradient nodal model.
//!
//! Run with: `cargo run --release -p mei-bench --bin ablation_irdrop`

use crossbar::ir_drop::attenuation;
use crossbar::{CrossbarArray, IrDropConfig};
use mei::{AnalogWorkspace, Drive, MeiConfig, MeiRcs};
use mei_bench::{format_table, pct, ExperimentConfig};
use neural::dataset_mse;
use rram::DeviceParams;
use workloads::{sobel::Sobel, Workload};

fn main() {
    println!("== Ablation: IR-drop attenuation (uniform mid-conductance array) ==\n");
    let params = DeviceParams::hfox();
    let g_mid = 0.5 * (params.g_on + params.g_off);

    let mut rows = Vec::new();
    for &n in &[16usize, 32, 64, 128] {
        let mut xbar = CrossbarArray::new(n, n, params);
        xbar.program_clamped(&vec![vec![g_mid; n]; n]);
        let inputs = vec![1.0; n];
        let mut row = vec![format!("{n}×{n}")];
        for &r_wire in &[1.0, 2.5, 10.0] {
            let cfg = IrDropConfig::with_wire_resistance(r_wire);
            let att = attenuation(&xbar, &inputs, &cfg);
            let worst = att.iter().flatten().cloned().fold(0.0f64, f64::max);
            row.push(pct(worst));
        }
        rows.push(row);
    }
    println!(
        "{}",
        format_table(
            &["array", "r_w=1.0 Ω", "r_w=2.5 Ω (90nm-class)", "r_w=10 Ω"],
            &rows
        )
    );
    println!("worst-column current attenuation; grows superlinearly with array size,");
    println!("which is why the paper caps its arrays and picks 90 nm wires — and why");
    println!("IR-aware mapping is the named future work.\n");

    // End-to-end: what IR drop does to a trained MEI system's accuracy.
    let cfg = ExperimentConfig::from_env();
    let w = Sobel::new();
    let train = w
        .dataset(cfg.train_samples.min(3000), cfg.seed)
        .expect("train data");
    let test = w
        .dataset(cfg.test_samples.min(300), cfg.seed + 1)
        .expect("test data");
    let rcs = MeiRcs::train(
        &train,
        &MeiConfig {
            in_bits: 6,
            out_bits: 6,
            hidden: 16,
            device: cfg.device(),
            train: cfg.mei_train(false),
            seed: cfg.seed,
            ..MeiConfig::default()
        },
    )
    .expect("MEI training");

    println!("== End-to-end MEI accuracy on Sobel under IR drop ==\n");
    let mut ws = AnalogWorkspace::new();
    let mut rows = Vec::new();
    for &r_wire in &[0.0, 1.0, 2.5, 10.0, 25.0] {
        let ir = IrDropConfig::with_wire_resistance(r_wire);
        let infer = |x: &[f64]| {
            let bits = rcs.input_spec().encode(x);
            let out = rcs
                .network()
                .forward_bits(&bits, &mut Drive::IrDrop(&ir), &mut ws);
            rcs.output_spec().decode(&out.expect("validated input"))
        };
        let mse = dataset_mse(infer, &test);
        rows.push(vec![format!("{r_wire:.1} Ω"), format!("{mse:.5}")]);
    }
    println!("{}", format_table(&["wire resistance", "test MSE"], &rows));
}
