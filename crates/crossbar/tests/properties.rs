//! Property-based tests for the crossbar substrate, on the in-repo
//! deterministic harness (`prng::prop`).

use prng::prop::Gen;
use prng::prop_check;
use prng::rngs::StdRng;
use prng::SeedableRng;

use crossbar::{
    direct_conv, ir_drop, BitInput, ConvShape, CrossbarArray, DifferentialPair, IrDropConfig,
    MappingConfig, TiledConv,
};
use rram::{DeviceParams, RetentionModel, VariationModel};

/// A weight matrix of up to `max_out × max_in` values in `[-5, 5)`.
fn arb_weights(g: &mut Gen, max_out: usize, max_in: usize) -> Vec<Vec<f64>> {
    let o = g.usize_in(1, max_out + 1);
    let i = g.usize_in(1, max_in + 1);
    g.matrix_f64(-5.0, 5.0, o, i)
}

fn manual_matvec(w: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
    w.iter()
        .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
        .collect()
}

/// The differential mapping + ideal sensing computes W·x exactly
/// (up to floating-point error) for any finite weight matrix.
#[test]
fn differential_pair_is_exact_mvm() {
    prop_check!(|g| {
        let w = arb_weights(g, 6, 6);
        let xs = g.vec_f64(-1.0, 1.0, 6);
        let pair =
            DifferentialPair::from_weights(&w, DeviceParams::hfox(), &MappingConfig::default())
                .unwrap();
        let x = &xs[..pair.inputs()];
        let y = pair.matvec(x);
        let expect = manual_matvec(&w, x);
        let wmax = w
            .iter()
            .flatten()
            .fold(0.0f64, |m, &v| m.max(v.abs()))
            .max(1e-12);
        for (a, b) in y.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-8 * wmax * x.len() as f64 + 1e-12);
        }
    });
}

/// MVM is linear: f(αx) = α·f(x).
#[test]
fn matvec_is_homogeneous() {
    prop_check!(|g| {
        let w = arb_weights(g, 4, 4);
        let xs = g.vec_f64(-1.0, 1.0, 4);
        let alpha = g.f64_in(-3.0, 3.0);
        let pair =
            DifferentialPair::from_weights(&w, DeviceParams::hfox(), &MappingConfig::default())
                .unwrap();
        let x = &xs[..pair.inputs()];
        let scaled: Vec<f64> = x.iter().map(|v| v * alpha).collect();
        let y1 = pair.matvec(&scaled);
        let y2: Vec<f64> = pair.matvec(x).iter().map(|v| v * alpha).collect();
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-9 + 1e-9 * b.abs());
        }
    });
}

/// Divider outputs never exceed the largest input magnitude (passive
/// network property).
#[test]
fn divider_is_passive() {
    prop_check!(|g| {
        let gs = g.vec_f64(1e-6, 1e-3, 9);
        let xs = g.vec_f64(0.0, 1.0, 3);
        let mut x = CrossbarArray::new(3, 3, DeviceParams::ideal());
        let rows: Vec<Vec<f64>> = gs.chunks(3).map(<[f64]>::to_vec).collect();
        x.program_clamped(&rows);
        let out = x.output_voltages_divider(&xs, 1e-4);
        let vmax = xs.iter().fold(0.0f64, |m, &v| m.max(v));
        for o in out {
            assert!(o <= vmax + 1e-12);
            assert!(o >= 0.0);
        }
    });
}

/// IR drop only ever attenuates a uniform-excitation array (currents
/// bounded by the ideal ones) and currents remain positive.
#[test]
fn ir_drop_attenuates_not_amplifies() {
    prop_check!(|g| {
        let cond = g.f64_in(1e-5, 1e-3);
        let r_wire = g.f64_in(0.1, 50.0);
        let n = g.usize_in(2, 10);
        let mut x = CrossbarArray::new(n, n, DeviceParams::ideal());
        x.program_clamped(&vec![vec![cond; n]; n]);
        let inputs = vec![1.0; n];
        let ideal = x.column_currents(&inputs);
        let real = x.column_currents_ir(&inputs, &IrDropConfig::with_wire_resistance(r_wire));
        for (a, b) in ideal.iter().zip(&real) {
            assert!(*b <= *a + 1e-15);
            assert!(*b > 0.0);
        }
    });
}

/// Device variation never drives the effective weights outside the range
/// representable by the conductance window.
#[test]
fn varied_weights_stay_bounded() {
    prop_check!(|g| {
        let w = arb_weights(g, 3, 3);
        let sigma = g.f64_in(0.0, 1.5);
        let seed = g.u64_any();
        let mut pair =
            DifferentialPair::from_weights(&w, DeviceParams::hfox(), &MappingConfig::default())
                .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        pair.disturb(&VariationModel::process_variation(sigma), &mut rng);
        let wmax = w.iter().flatten().fold(0.0f64, |m, &v| m.max(v.abs()));
        for row in pair.effective_weights() {
            for v in row {
                // |g+ − g−| ≤ range ⇒ |w_eff| ≤ w_max (the full-scale weight).
                assert!(v.abs() <= wmax + 1e-12);
            }
        }
    });
}

/// The divider layer reproduces any feasible non-negative coefficient
/// matrix exactly (closed-form solve + Eq (2) readout are inverses).
#[test]
fn divider_layer_realizes_coefficients() {
    prop_check!(|g| {
        let c = g.matrix_f64(0.02, 0.2, 2, 3);
        let xs = g.vec_f64(0.0, 1.0, 3);
        let layer =
            crossbar::DividerLayer::from_coefficients(&c, DeviceParams::ideal(), 1e-3).unwrap();
        let v = layer.forward(&xs);
        for (j, row) in c.iter().enumerate() {
            let expect: f64 = row.iter().zip(&xs).map(|(a, b)| a * b).sum();
            assert!((v[j] - expect).abs() < 1e-9);
        }
    });
}

/// The bit-packed matvec is bit-identical to the scalar path (and both
/// to the uncached cell-walk) for arbitrary bit patterns and shapes —
/// including after device-state mutations (variation, aging).
#[test]
fn packed_matvec_is_bit_identical_for_any_bits_and_state() {
    prop_check!(|g| {
        // Shapes up to the jpeg layer (64 inputs × 448 outputs), biased
        // small so most cases stay cheap.
        let inputs = g.usize_in(1, 65);
        let outputs = if g.bool_any() {
            g.usize_in(1, 17)
        } else {
            g.usize_in(1, 449)
        };
        let w = g.matrix_f64(-2.0, 2.0, outputs, inputs);
        let mut pair =
            DifferentialPair::from_weights(&w, DeviceParams::hfox(), &MappingConfig::default())
                .unwrap();
        // Optionally perturb the device state: the identity must hold on
        // disturbed and aged arrays, not only freshly-programmed ones.
        let mut rng = StdRng::seed_from_u64(g.u64_any());
        match g.usize_in(0, 3) {
            0 => pair.disturb(&VariationModel::process_variation(0.4), &mut rng),
            1 => pair.age(&RetentionModel::new(0.05, 1.0), g.f64_in(0.0, 1e4)),
            _ => {}
        }
        let pattern = g.vec_bool(inputs);
        let bits = BitInput::from_bools(&pattern);
        let x: Vec<f64> = pattern.iter().map(|&b| f64::from(b)).collect();
        let scalar = pair.matvec(&x);
        assert_eq!(scalar, pair.matvec_binary(&bits));
        assert_eq!(scalar, pair.matvec_uncached(&x));
        assert_eq!(scalar, pair.matvec_auto(&x));
    });
}

/// The bits of every value, so `-0.0` and `0.0` differ.
fn to_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The fused pair kernel, scalar and packed, and the one-plane array
/// readout equal the cell walk bit for bit at every output width around
/// the 8-column register block (1–40 columns: below, at and past it,
/// every remainder) and at row counts that cross 64-bit lanes, on inputs
/// holding `0.0` and `-0.0`, both fresh and after `disturb` and then
/// `restore` invalidate the planes.
#[test]
fn fused_kernels_match_the_cell_walk_around_the_register_block() {
    prop_check!(|g| {
        let outputs = g.usize_in(1, 41);
        let inputs = g.usize_in(1, 131);
        let w = g.matrix_f64(-2.0, 2.0, outputs, inputs);
        let mut pair =
            DifferentialPair::from_weights(&w, DeviceParams::hfox(), &MappingConfig::default())
                .unwrap();
        let zero = |g: &mut Gen| if g.bool_any() { -0.0 } else { 0.0 };
        let scalar: Vec<f64> = (0..inputs)
            .map(|_| match g.usize_in(0, 4) {
                0 => zero(g),
                _ => g.f64_in(-1.0, 1.0),
            })
            .collect();
        let binary: Vec<f64> = (0..inputs)
            .map(|_| if g.bool_any() { 1.0 } else { zero(g) })
            .collect();
        let bits = BitInput::try_from_values(&binary).expect("interface bits");
        let mut rng = StdRng::seed_from_u64(g.u64_any());
        for stage in ["fresh", "disturbed", "restored"] {
            match stage {
                "disturbed" => pair.disturb(&VariationModel::process_variation(0.3), &mut rng),
                "restored" => pair.restore(),
                _ => {}
            }
            let mut out = vec![f64::NAN; outputs];
            pair.matvec_into(&scalar, &mut out);
            let walk = pair.matvec_uncached(&scalar);
            assert_eq!(to_bits(&out), to_bits(&walk), "scalar pair, {stage}");
            out.fill(f64::NAN);
            pair.matvec_binary_into(&bits, &mut out);
            let walk = pair.matvec_uncached(&binary);
            assert_eq!(to_bits(&out), to_bits(&walk), "packed pair, {stage}");
            let plus = pair.plus();
            let walk = plus.column_currents_uncached(&scalar);
            assert_eq!(
                to_bits(&plus.column_currents(&scalar)),
                to_bits(&walk),
                "scalar array, {stage}"
            );
            let walk = plus.column_currents_uncached(&binary);
            assert_eq!(
                to_bits(&plus.column_currents_binary(&bits)),
                to_bits(&walk),
                "packed array, {stage}"
            );
        }
    });
}

/// The cached conductance plane stays bit-identical to the cell walk
/// across every mutation path (reprogram, disturb, age, restore,
/// direct cell writes).
#[test]
fn cached_plane_tracks_every_mutation() {
    prop_check!(|g| {
        let n = g.usize_in(1, 9);
        let m = g.usize_in(1, 9);
        let mut x = CrossbarArray::new(n, m, DeviceParams::hfox());
        x.program_clamped(&g.matrix_f64(1e-6, 9e-5, n, m));
        let inputs = g.vec_f64(0.0, 1.0, n);
        assert_eq!(
            x.column_currents(&inputs),
            x.column_currents_uncached(&inputs)
        );
        let mut rng = StdRng::seed_from_u64(g.u64_any());
        for _ in 0..3 {
            match g.usize_in(0, 5) {
                0 => x.program_clamped(&g.matrix_f64(1e-6, 9e-5, n, m)),
                1 => x.disturb_all(&VariationModel::process_variation(0.5), &mut rng),
                2 => x.age_all(&RetentionModel::new(0.1, 1.0), g.f64_in(0.0, 1e3)),
                3 => x.restore_all(),
                _ => {
                    let (k, j) = (g.usize_in(0, n), g.usize_in(0, m));
                    x.cell_mut(k, j).program_clamped(g.f64_in(1e-6, 9e-5));
                }
            }
            assert_eq!(
                x.column_currents(&inputs),
                x.column_currents_uncached(&inputs),
                "cached plane diverged from the cell walk after a mutation"
            );
        }
    });
}

/// The red-black Gauss–Seidel IR-drop sweep converges to the same
/// currents as the conjugate-gradient reference on random grids.
#[test]
fn gauss_seidel_matches_conjugate_gradient() {
    prop_check!(|g| {
        let n = g.usize_in(2, 11);
        let m = g.usize_in(2, 11);
        let mut x = CrossbarArray::new(n, m, DeviceParams::ideal());
        x.program_clamped(&g.matrix_f64(5e-7, 5e-5, n, m));
        let inputs = g.vec_f64(0.0, 1.0, n);
        let cfg = IrDropConfig::with_wire_resistance(g.f64_in(0.1, 25.0));
        let gs = x.column_currents_ir(&inputs, &cfg);
        let cg = ir_drop::solve_grid_cg(&x, &inputs, &cfg);
        let scale = cg
            .iter()
            .fold(0.0f64, |acc, v| acc.max(v.abs()))
            .max(f64::MIN_POSITIVE);
        for (a, b) in gs.iter().zip(&cg) {
            // Both solvers stop on (different) tolerance criteria; they
            // must agree well inside the physical accuracy they promise.
            assert!(
                (a - b).abs() <= 1e-6 * scale,
                "GS {a} vs CG {b} on a {n}x{m} grid"
            );
        }
    });
}

/// The signed divider layer computes the exact signed product for any
/// feasible coefficient matrix (offset-column subtraction is exact).
#[test]
fn signed_divider_is_exact() {
    prop_check!(|g| {
        let c = g.matrix_f64(-0.15, 0.15, 2, 2);
        let xs = g.vec_f64(0.0, 1.0, 2);
        let layer =
            crossbar::SignedDividerLayer::from_signed(&c, DeviceParams::ideal(), 1e-3).unwrap();
        let v = layer.forward(&xs);
        for (j, row) in c.iter().enumerate() {
            let expect: f64 = row.iter().zip(&xs).map(|(a, b)| a * b).sum();
            assert!((v[j] - expect).abs() < 1e-9);
        }
    });
}

/// A random *valid* conv shape small enough for the property budget.
fn arb_conv_shape(g: &mut Gen) -> ConvShape {
    let kernel = g.usize_in(1, 4);
    ConvShape {
        in_channels: g.usize_in(1, 3),
        in_h: g.usize_in(kernel, 7),
        in_w: g.usize_in(kernel, 7),
        filters: g.usize_in(1, 5),
        kernel,
        stride: g.usize_in(1, 3),
    }
    .validated()
    .expect("arb_conv_shape only draws valid shapes")
}

/// Random ternary filter bank for `shape`: every tap in {-1, 0, +1}.
fn arb_ternary_weights(g: &mut Gen, shape: &ConvShape) -> Vec<Vec<f64>> {
    (0..shape.filters)
        .map(|_| {
            (0..shape.patch_len())
                .map(|_| g.usize_in(0, 3) as f64 - 1.0)
                .collect()
        })
        .collect()
}

/// Random binary image for `shape`: every pixel in {0, 1}.
fn arb_binary_input(g: &mut Gen, shape: &ConvShape) -> Vec<f64> {
    g.vec_bool(shape.input_len())
        .into_iter()
        .map(|b| if b { 1.0 } else { 0.0 })
        .collect()
}

/// Sharding the im2col patch dimension over crossbar tiles is invisible:
/// for ANY valid shape, ternary weights, binary input and tile count, the
/// analog tiled pipeline reproduces the digital direct-convolution oracle
/// **bitwise** — at 1 tile, 2 tiles and an arbitrary tile count alike.
/// (Integer sensing: every per-tile partial sum is an exact small integer,
/// so per-tile rounding and fixed-order folding are both exact.)
#[test]
fn tiled_conv_matches_the_direct_oracle_bitwise_for_any_tiling() {
    prop_check!(|g| {
        let shape = arb_conv_shape(g);
        let w = arb_ternary_weights(g, &shape);
        let x = arb_binary_input(g, &shape);
        let oracle = direct_conv(&shape, &w, &x);
        let tiles = g.usize_in(1, shape.patch_len() + 3);
        for t in [1, 2, tiles] {
            let conv = TiledConv::new(
                shape,
                &w,
                t,
                DeviceParams::hfox(),
                &MappingConfig::default(),
            )
            .unwrap();
            assert_eq!(
                conv.forward(&x),
                oracle,
                "tiles={t} diverged from the oracle on {shape}"
            );
        }
    });
}

/// The packed `BitInput` fast path and the scalar matvec path produce
/// bit-identical conv outputs for any shape, weights, input and tiling.
#[test]
fn packed_and_scalar_conv_paths_are_bit_identical() {
    prop_check!(|g| {
        let shape = arb_conv_shape(g);
        let w = arb_ternary_weights(g, &shape);
        let x = arb_binary_input(g, &shape);
        let tiles = g.usize_in(1, shape.patch_len() + 3);
        let conv = TiledConv::new(
            shape,
            &w,
            tiles,
            DeviceParams::hfox(),
            &MappingConfig::default(),
        )
        .unwrap();
        assert_eq!(conv.forward(&x), conv.forward_scalar(&x));
    });
}

/// Endurance accounting along the conv programming path: mapping a filter
/// bank programs every device exactly once (`total_writes == device_count`,
/// per-cell max 1), a disturb cycle adds exactly one write per device, and
/// `restore` (a state copy, not a programming pulse) adds none.
#[test]
fn conv_programming_counts_exactly_one_write_per_device() {
    prop_check!(|g| {
        let shape = arb_conv_shape(g);
        let w = arb_ternary_weights(g, &shape);
        let tiles = g.usize_in(1, shape.patch_len() + 3);
        let mut conv = TiledConv::new(
            shape,
            &w,
            tiles,
            DeviceParams::hfox(),
            &MappingConfig::default(),
        )
        .unwrap();
        let devices = conv.device_count() as u64;
        assert_eq!(conv.total_writes(), devices);
        assert_eq!(conv.max_write_count(), 1);
        let variation = VariationModel::process_variation(0.02);
        let mut rng = StdRng::seed_from_u64(g.u64_any());
        conv.disturb(&variation, &mut rng);
        assert_eq!(conv.total_writes(), 2 * devices);
        assert_eq!(conv.max_write_count(), 2);
        conv.restore();
        assert_eq!(
            conv.total_writes(),
            2 * devices,
            "restore must not count as a write"
        );
    });
}
