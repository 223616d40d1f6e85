//! Kernel-layer micro-benchmarks: the register-blocked differential-pair
//! matvec (scalar and bit-packed inputs) against the uncached cell walk,
//! at the jpeg layer and at the two layers of the inversek2j MEI chip
//! servebench serves, and the red-black Gauss–Seidel IR-drop sweep
//! against the conjugate-gradient reference.
//!
//! Before timing anything the binary asserts the correctness contracts
//! the kernels are sold on — packed output bit-identical to the scalar
//! path, both bit-identical to the cell-walk reference, and the two
//! IR-drop solvers agreeing within the configured tolerance — so a CI
//! smoke run of this bench doubles as an end-to-end kernel check.
//!
//! The report (shared `meta` header first) goes to stdout and, when
//! `MEI_BENCH_JSON=<path>` is set, to that file. It carries a `speedup`
//! object comparing the new kernels both in-run (packed vs. scalar,
//! Gauss–Seidel vs. CG) and against the pre-kernel baseline medians
//! recorded below. In full mode (no `MEI_BENCH_FAST=1`) the run fails
//! if the ISSUE floors — packed matvec ≥ 4× baseline at 64×448,
//! IR-drop ≥ 3× baseline at 32×32 — are not met.

use crossbar::{ir_drop, BitInput, CrossbarArray, DifferentialPair, IrDropConfig, MappingConfig};
use mei_bench::timing::{print_header, Runner};
use prng::rngs::StdRng;
use prng::{Rng, SeedableRng};
use rram::DeviceParams;
use std::hint::black_box;

/// Root seed for this bench's randomness (weights and conductances).
const MEI_SEED: u64 = 1;

/// Pre-kernel baseline medians on the reference host (committed
/// `results/BENCH_crossbar_ops.json` before the kernel layer landed):
/// the scalar `differential_matvec/64x448` and the CG `ir_drop_solve/32`.
const BASELINE_MATVEC_64X448_NS: f64 = 148_107.446;
const BASELINE_IR_DROP_32_NS: f64 = 2_050_696.0;

fn random_weights(outputs: usize, inputs: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..outputs)
        .map(|_| (0..inputs).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect()
}

/// The jpeg-layer shape from Table 1 (64 inputs × 448 outputs), driven
/// with a deterministic interface-bit pattern.
fn bench_matvec_paths(r: &mut Runner) {
    let (inputs, outputs) = (64usize, 448usize);
    let pair = DifferentialPair::from_weights(
        &random_weights(outputs, inputs, MEI_SEED),
        DeviceParams::hfox(),
        &MappingConfig::default(),
    )
    .expect("mapping");
    let pattern: Vec<bool> = (0..inputs).map(|k| k % 3 != 0).collect();
    let bits = BitInput::from_bools(&pattern);
    let x: Vec<f64> = pattern.iter().map(|&b| f64::from(b)).collect();

    // The contract the packed path is sold on: bit-identical outputs.
    let scalar = pair.matvec(&x);
    assert_eq!(
        scalar,
        pair.matvec_uncached(&x),
        "cached plane diverged from the cell-walk reference"
    );
    assert_eq!(
        scalar,
        pair.matvec_binary(&bits),
        "packed matvec not bit-identical to the scalar path"
    );
    assert_eq!(
        scalar,
        pair.matvec_auto(&x),
        "auto path did not reproduce the scalar result"
    );

    r.bench(
        &format!("differential_matvec_uncached/{inputs}x{outputs}"),
        || pair.matvec_uncached(black_box(&x)),
    );
    r.bench(&format!("differential_matvec/{inputs}x{outputs}"), || {
        pair.matvec(black_box(&x))
    });
    r.bench(
        &format!("differential_matvec_binary/{inputs}x{outputs}"),
        || pair.matvec_binary(black_box(&bits)),
    );
    let mut out = vec![0.0; outputs];
    r.bench(
        &format!("differential_matvec_binary_into/{inputs}x{outputs}"),
        || {
            pair.matvec_binary_into(black_box(&bits), &mut out);
            out[0]
        },
    );
    assert_eq!(out, scalar, "allocation-free path diverged");
}

/// The two layers of the inversek2j MEI chip: 16 input bits plus the
/// bias row into 32 hidden columns (packed), and 32 sigmoid activations
/// plus the bias row into 16 output bits (scalar). Each fused pass is
/// checked against the cell walk before it is timed.
fn bench_mei_serving_shapes(r: &mut Runner) {
    let mut rng = StdRng::seed_from_u64(MEI_SEED);
    let first = DifferentialPair::from_weights(
        &random_weights(32, 17, MEI_SEED + 1),
        DeviceParams::hfox(),
        &MappingConfig::default(),
    )
    .expect("mapping");
    let mut x: Vec<f64> = (0..16).map(|_| f64::from(rng.gen_bool(0.5))).collect();
    x.push(1.0);
    let bits = BitInput::try_from_values(&x).expect("interface bits");
    let mut out = vec![0.0; 32];
    first.matvec_binary_into(&bits, &mut out);
    assert_eq!(
        out,
        first.matvec_uncached(&x),
        "packed 17x32 pass diverged from the cell walk"
    );
    r.bench("differential_matvec_binary_into/17x32", || {
        first.matvec_binary_into(black_box(&bits), &mut out);
        out[0]
    });

    let second = DifferentialPair::from_weights(
        &random_weights(16, 33, MEI_SEED + 2),
        DeviceParams::hfox(),
        &MappingConfig::default(),
    )
    .expect("mapping");
    let mut h: Vec<f64> = (0..32).map(|_| rng.gen_range(0.0..1.0)).collect();
    h.push(1.0);
    let mut out = vec![0.0; 16];
    second.matvec_into(&h, &mut out);
    assert_eq!(
        out,
        second.matvec_uncached(&h),
        "scalar 33x16 pass diverged from the cell walk"
    );
    r.bench("differential_matvec_into/33x16", || {
        second.matvec_into(black_box(&h), &mut out);
        out[0]
    });
}

/// IR-drop solve at the crossbar_ops sizes: the default red-black
/// Gauss–Seidel line sweep vs. the conjugate-gradient reference.
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

        // Both solvers must land on the same currents within tolerance.
        let i_gs = xbar.column_currents_ir(&x, &cfg);
        let i_cg = ir_drop::solve_grid_cg(&xbar, &x, &cfg);
        let scale = i_cg.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (a, b) in i_gs.iter().zip(&i_cg) {
            assert!(
                (a - b).abs() <= 1e-6 * scale,
                "solvers disagree at {n}x{n}: {a} vs {b}"
            );
        }

        r.bench(&format!("ir_drop_solve/{n}"), || {
            xbar.column_currents_ir(black_box(&x), &cfg)
        });
        r.bench(&format!("ir_drop_solve_cg/{n}"), || {
            ir_drop::solve_grid_cg(&xbar, black_box(&x), &cfg)
        });
    }
}

fn median(r: &Runner, name: &str) -> f64 {
    r.reports()
        .iter()
        .find(|rep| rep.name == name)
        .unwrap_or_else(|| panic!("no report named {name}"))
        .median_ns
}

fn main() {
    let fast = std::env::var("MEI_BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false);
    print_header("kernels");
    let mut r = Runner::new("kernels");
    bench_matvec_paths(&mut r);
    bench_mei_serving_shapes(&mut r);
    bench_ir_drop(&mut r);

    let scalar_ns = median(&r, "differential_matvec/64x448");
    let packed_ns = median(&r, "differential_matvec_binary/64x448");
    let gs_ns = median(&r, "ir_drop_solve/32");
    let cg_ns = median(&r, "ir_drop_solve_cg/32");
    let packed_vs_scalar = scalar_ns / packed_ns;
    let packed_vs_baseline = BASELINE_MATVEC_64X448_NS / packed_ns;
    let gs_vs_cg = cg_ns / gs_ns;
    let gs_vs_baseline = BASELINE_IR_DROP_32_NS / gs_ns;
    eprintln!("packed matvec 64x448: {packed_vs_scalar:.2}x vs in-run scalar, {packed_vs_baseline:.2}x vs baseline");
    eprintln!(
        "ir_drop GS 32x32:     {gs_vs_cg:.2}x vs in-run CG, {gs_vs_baseline:.2}x vs baseline"
    );

    // ISSUE floors, asserted only in full mode — FAST smoke runs use too
    // few samples for the medians to be floors-grade evidence.
    if !fast {
        assert!(
            packed_vs_baseline >= 4.0,
            "packed matvec {packed_vs_baseline:.2}x vs baseline, floor is 4x"
        );
        assert!(
            gs_vs_baseline >= 3.0,
            "ir_drop Gauss-Seidel {gs_vs_baseline:.2}x vs baseline, floor is 3x"
        );
    }

    let meta = mei_bench::json::meta("kernels", MEI_SEED);
    let body: Vec<String> = r.reports().iter().map(|rep| rep.to_json()).collect();
    let json = format!(
        "{{\"meta\":{meta},\"suite\":\"kernels\",\"benchmarks\":[{}],\
         \"speedup\":{{\"packed_vs_scalar\":{},\"packed_vs_baseline\":{},\
         \"gs_vs_cg\":{},\"gs_vs_baseline\":{},\
         \"baseline_matvec_64x448_ns\":{},\"baseline_ir_drop_32_ns\":{}}}}}",
        body.join(","),
        runtime::json_num(packed_vs_scalar, 3),
        runtime::json_num(packed_vs_baseline, 3),
        runtime::json_num(gs_vs_cg, 3),
        runtime::json_num(gs_vs_baseline, 3),
        runtime::json_num(BASELINE_MATVEC_64X448_NS, 3),
        runtime::json_num(BASELINE_IR_DROP_32_NS, 3),
    );
    mei_bench::json::emit(&json, "MEI_BENCH_JSON");
}
