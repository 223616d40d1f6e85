//! Micro-benchmarks of the crossbar substrate hot paths on the in-repo
//! `Instant`-based runner (`mei_bench::timing`): analog matrix-vector
//! multiply at Table 1 array sizes, the resistive divider readout, and
//! the red-black Gauss–Seidel IR-drop solver.

use crossbar::{CrossbarArray, DifferentialPair, IrDropConfig, MappingConfig};
use mei_bench::timing::{print_header, Runner};
use prng::rngs::StdRng;
use prng::{Rng, SeedableRng};
use rram::DeviceParams;
use std::hint::black_box;

fn random_weights(outputs: usize, inputs: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..outputs)
        .map(|_| (0..inputs).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect()
}

fn bench_matvec(r: &mut Runner) {
    // Table 1 layer shapes: sobel 16×10, inversek2j 32×17, jpeg 448×64.
    for &(outputs, inputs) in &[(16usize, 10usize), (32, 17), (64, 112), (448, 64)] {
        let pair = DifferentialPair::from_weights(
            &random_weights(outputs, inputs, 1),
            DeviceParams::hfox(),
            &MappingConfig::default(),
        )
        .expect("mapping");
        let x: Vec<f64> = (0..inputs).map(|i| (i as f64 * 0.37).sin().abs()).collect();
        r.bench(&format!("differential_matvec/{inputs}x{outputs}"), || {
            pair.matvec(black_box(&x))
        });
    }
}

fn bench_divider(r: &mut Runner) {
    let mut xbar = CrossbarArray::new(32, 32, DeviceParams::hfox());
    let mut rng = StdRng::seed_from_u64(2);
    let g: Vec<Vec<f64>> = (0..32)
        .map(|_| (0..32).map(|_| rng.gen_range(5e-7..5e-5)).collect())
        .collect();
    xbar.program_clamped(&g);
    let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.1).cos().abs()).collect();
    r.bench("divider_readout_32x32", || {
        xbar.output_voltages_divider(black_box(&x), 1e-4)
    });
}

fn bench_divider_layer(r: &mut Runner) {
    // The single-array Eq (2) alternative at the same 32×32 scale as the
    // raw divider readout above (includes the per-column closed-form solve
    // once at construction; the bench measures the forward path).
    let coefficients: Vec<Vec<f64>> = (0..32)
        .map(|j| {
            (0..32)
                .map(|k| 0.015 + 0.0002 * ((j * 31 + k) % 17) as f64)
                .collect()
        })
        .collect();
    let layer =
        crossbar::DividerLayer::from_coefficients(&coefficients, DeviceParams::ideal(), 1e-3)
            .expect("feasible coefficients");
    let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.2).sin().abs()).collect();
    r.bench("divider_layer_forward_32x32", || {
        layer.forward(black_box(&x))
    });
}

fn bench_ir_drop(r: &mut Runner) {
    for &n in &[16usize, 32] {
        let mut xbar = CrossbarArray::new(n, n, DeviceParams::hfox());
        let mut rng = StdRng::seed_from_u64(3);
        let g: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..n).map(|_| rng.gen_range(5e-7..5e-5)).collect())
            .collect();
        xbar.program_clamped(&g);
        let x = vec![0.8; n];
        let cfg = IrDropConfig::with_wire_resistance(2.5);
        r.bench(&format!("ir_drop_solve/{n}"), || {
            xbar.column_currents_ir(black_box(&x), &cfg)
        });
    }
}

fn main() {
    print_header("crossbar_ops");
    let mut r = Runner::new("crossbar_ops");
    bench_matvec(&mut r);
    bench_divider(&mut r);
    bench_divider_layer(&mut r);
    bench_ir_drop(&mut r);
    r.finish();
}
