//! CNN-over-crossbars serving benchmark: tiling identity, accuracy,
//! throughput and wear-aware placement.
//!
//! Four phases, in dependency order:
//!
//! 1. **Tiling identity (asserted, before any timing)** — the trained
//!    ternary conv layer is re-tiled at 1, 2 and `patch_len` crossbar
//!    tiles and every tiling must reproduce the digital
//!    direct-convolution oracle **bitwise** on every test image, on both
//!    the packed `BitInput` and the scalar matvec path. A bench that
//!    times a wrong kernel is worse than no bench; this phase aborts it.
//! 2. **Accuracy** — held-out classification accuracy of the digital
//!    twin, the clean analog pipeline (must match the twin exactly — the
//!    tile boundary is digital) and the analog pipeline under lognormal
//!    write noise, averaged over seeds.
//! 3. **Throughput** — a manufactured 4-chip [`runtime::Engine`] serves
//!    closed batches for a measured window; requests/s are reported,
//!    never asserted (host-dependent).
//! 4. **Wear experiment** — two identical 4-chip engines, chip 0
//!    pre-aged with maintenance disturb/restore cycles. Both serve the
//!    same windowed request stream; after each window every chip pays
//!    one refresh cycle per request it served, and the wear-aware engine
//!    refreshes its placement snapshot at the boundary. Wear-aware
//!    placement must end with **no more** total-write imbalance
//!    (max − min across chips) than round-robin — asserted before the
//!    JSON report is written.
//!
//! Environment knobs:
//!
//! * `MEI_BENCH_SECONDS=<f>` — measurement window (default 1.0);
//! * `MEI_BENCH_FAST=1` — smoke mode: tiny training, short windows;
//! * `MEI_BENCH_JSON=<path>` — also write the JSON report to a file;
//! * `MEI_WEAR_ALPHA=<f>` — wear-penalty strength (default 1.0).
//!
//! Run with: `cargo run --release -p mei-bench --bin cnn_serving`

use std::time::Instant;

use crossbar::{direct_conv, TiledConv};
use mei::{argmax, manufacture_engine, manufacture_fleet, CnnConfig, CnnRcs, Rcs};
use mei_bench::{
    fast_mode, format_table, measure_window, ExperimentConfig, EXPERIMENT_WRITE_SIGMA,
};
use neural::{SteConfig, TrainConfig};
use prng::rngs::StdRng;
use prng::substream_rng;
use rram::VariationModel;
use runtime::{json_num, Chip, Engine, FleetConfig, RoundRobin};

const CHIPS: usize = 4;
const WEAR_SALT: u64 = 0x434E_4E5F_5745_4152; // "CNN_WEAR"

/// One request = one raw image; the whole test set, cycled.
fn requests(images: &[Vec<f64>], n: usize) -> Vec<Vec<f64>> {
    (0..n).map(|i| images[i % images.len()].clone()).collect()
}

/// Held-out accuracy of the digital twin (binarized conv + float head),
/// the all-digital baseline the analog pipeline must match bit-for-bit
/// on clean arrays.
fn digital_accuracy(cnn: &CnnRcs, data: &neural::Dataset) -> f64 {
    let mut correct = 0usize;
    for (x, t) in data.iter() {
        let scores = cnn.infer_digital(x).expect("dataset-validated input");
        correct += usize::from(argmax(&scores) == argmax(t));
    }
    correct as f64 / data.len() as f64
}

/// `cycles` maintenance disturb/restore cycles on one chip: each cycle
/// is one programming pulse per device (the endurance cost of a refresh)
/// with the electrical state rewound afterwards.
fn maintain(chip: &mut CnnRcs, cycles: usize, variation: &VariationModel, seed: u64) {
    let mut rng: StdRng = substream_rng(seed, 0);
    for _ in 0..cycles {
        chip.disturb(variation, &mut rng);
        chip.restore();
    }
}

/// Run the windowed wear scenario on `engine`: `windows` windows of
/// `batch` requests each; after each window every chip pays one refresh
/// cycle per served request, and (when `alpha` is set) the engine's
/// wear snapshot is refreshed at the boundary. Returns per-chip total
/// writes after the last window.
fn wear_scenario(
    mut engine: Engine<CnnRcs>,
    images: &[Vec<f64>],
    windows: usize,
    batch: usize,
    alpha: Option<f64>,
    seed: u64,
) -> Vec<u64> {
    let variation = VariationModel::process_variation(EXPERIMENT_WRITE_SIGMA);
    let lens: Vec<usize> = requests(images, batch).iter().map(Vec::len).collect();
    if let Some(alpha) = alpha {
        // Window 0 plans off the pre-aged counters.
        engine.refresh_wear_policy(alpha);
    }
    for window in 0..windows {
        let assignment = engine.assignment(&lens);
        let mut served = [0usize; CHIPS];
        for &chip in &assignment {
            served[chip] += 1;
        }
        for (c, chip) in engine.pool_mut().chips_mut().iter_mut().enumerate() {
            maintain(
                chip,
                served[c],
                &variation,
                prng::substream(seed, (window * CHIPS + c) as u64),
            );
        }
        if let Some(alpha) = alpha {
            engine.refresh_wear_policy(alpha);
        }
    }
    engine
        .pool()
        .wear()
        .into_iter()
        .map(|w| w.expect("CNN chips report wear"))
        .collect()
}

fn main() {
    let fast = fast_mode();
    let window = measure_window(if fast { 0.25 } else { 1.0 });
    let cfg = ExperimentConfig::from_env();
    let alpha = prng::env::parse_or("MEI_WEAR_ALPHA", 1.0_f64);

    let config = if fast {
        CnnConfig {
            seed: cfg.seed,
            ..CnnConfig::quick_test()
        }
    } else {
        CnnConfig {
            in_h: 16,
            in_w: 16,
            // 1176 binary features over a few hundred samples: keep the
            // head small so it generalizes instead of memorizing.
            hidden: 12,
            stride: 2,
            // STE gradients accumulate over ~200 patches at 16x16 (vs 36
            // at 8x8); scale the rates down to keep the shadow updates in
            // the same per-step range.
            ste: SteConfig {
                epochs: 120,
                lr: 0.01,
                probe_lr: 0.02,
                ..SteConfig::default()
            },
            train: TrainConfig {
                epochs: 160,
                learning_rate: 0.5,
                ..TrainConfig::default()
            },
            seed: cfg.seed,
            ..CnnConfig::default()
        }
    };
    let per_class = if fast { 8 } else { 150 };
    let train = workloads::cnn_dataset(config.in_w, config.in_h, per_class, cfg.seed);
    let test = workloads::cnn_dataset(config.in_w, config.in_h, per_class / 2, cfg.seed + 1);

    eprintln!(
        "== cnn_serving: {}×{} images, {} filters, {} tiles, {:.2}s windows ==",
        config.in_w,
        config.in_h,
        config.filters,
        config.tiles,
        window.as_secs_f64()
    );
    let cnn = CnnRcs::train(&train, &config).expect("CNN training");
    let shape = *cnn.conv().shape();
    eprintln!(
        "trained: {} | ste loss {:.4} → {:.4}, probe {:.3}",
        cnn.conv(),
        cnn.ste_report().initial_loss,
        cnn.ste_report().final_loss,
        cnn.ste_report().probe_accuracy
    );

    // -- Phase 1: tiling identity, asserted before anything is timed. --
    let weights = cnn.twin().ternary_weights();
    let tile_counts = [1, 2, shape.patch_len()];
    for &tiles in &tile_counts {
        let retiled = TiledConv::new(shape, &weights, tiles, config.device, &config.mapping)
            .expect("retiling a trained conv");
        for x in test.inputs() {
            let oracle = direct_conv(&shape, &weights, x);
            assert_eq!(
                retiled.forward(x),
                oracle,
                "{}-tile packed conv diverged from the digital oracle",
                retiled.tile_count()
            );
            assert_eq!(
                retiled.forward_scalar(x),
                oracle,
                "{}-tile scalar conv diverged from the digital oracle",
                retiled.tile_count()
            );
        }
    }
    eprintln!(
        "tiling identity: {} images × tiles {:?} bitwise vs direct oracle ✓",
        test.len(),
        tile_counts
    );

    // -- Phase 2: accuracy (digital twin, clean analog, disturbed). --
    let acc_digital = digital_accuracy(&cnn, &test);
    let acc_analog = cnn.accuracy(&test);
    assert!(
        (acc_digital - acc_analog).abs() < f64::EPSILON,
        "clean analog accuracy must equal the digital twin exactly"
    );
    let draws: u32 = if fast { 2 } else { 5 };
    let variation = VariationModel::process_variation(EXPERIMENT_WRITE_SIGMA);
    let acc_disturbed = (0..draws)
        .map(|draw| {
            let mut noisy = cnn.clone();
            let mut rng: StdRng = substream_rng(cfg.seed, u64::from(draw));
            noisy.disturb(&variation, &mut rng);
            noisy.accuracy(&test)
        })
        .sum::<f64>()
        / f64::from(draws);
    eprintln!(
        "accuracy: train {:.3}, digital {acc_digital:.3}, analog {acc_analog:.3}, \
         disturbed(σ={EXPERIMENT_WRITE_SIGMA}) {acc_disturbed:.3} over {draws} draws",
        cnn.accuracy(&train)
    );

    // -- Phase 3: measured serving throughput (reported, not asserted). --
    let engine = manufacture_engine(&cnn, CHIPS, EXPERIMENT_WRITE_SIGMA, cfg.seed);
    let sheet = Chip::cost_sheet(&cnn).expect("CNN chips are accounted");
    let batch = requests(test.inputs(), if fast { 32 } else { 128 });
    let start = Instant::now();
    let mut served = 0usize;
    while start.elapsed() < window {
        let outcome = engine.serve(&batch);
        assert!(outcome.failed.is_empty(), "healthy chips must not fail");
        served += batch.len();
    }
    let rps = served as f64 / start.elapsed().as_secs_f64();
    eprintln!(
        "throughput: {served} requests in {:.2}s on {CHIPS} chips → {rps:.0} req/s \
         | chip sheet: {sheet}",
        start.elapsed().as_secs_f64()
    );

    // -- Phase 4: the wear experiment. --
    let windows = if fast { 3 } else { 6 };
    let batch_len = if fast { 40 } else { 120 };
    let preage = if fast { 60 } else { 300 };
    let build = |policy_rr: bool| {
        let mut engine = manufacture_engine(&cnn, CHIPS, EXPERIMENT_WRITE_SIGMA, cfg.seed);
        if policy_rr {
            engine = engine.with_policy(RoundRobin);
        }
        // Chip 0 arrives with a maintenance history two orders of
        // magnitude above its peers.
        maintain(
            &mut engine.pool_mut().chips_mut()[0],
            preage,
            &VariationModel::process_variation(EXPERIMENT_WRITE_SIGMA),
            WEAR_SALT,
        );
        engine
    };
    let rr_wear = wear_scenario(
        build(true),
        test.inputs(),
        windows,
        batch_len,
        None,
        cfg.seed ^ WEAR_SALT,
    );
    let wa_wear = wear_scenario(
        build(false),
        test.inputs(),
        windows,
        batch_len,
        Some(alpha),
        cfg.seed ^ WEAR_SALT,
    );
    let spread = |wear: &[u64]| wear.iter().max().unwrap() - wear.iter().min().unwrap();
    let (rr_max, wa_max) = (
        *rr_wear.iter().max().unwrap(),
        *wa_wear.iter().max().unwrap(),
    );
    let (rr_spread, wa_spread) = (spread(&rr_wear), spread(&wa_wear));
    let rows = vec![
        vec![
            "round_robin".into(),
            format!("{rr_wear:?}"),
            rr_max.to_string(),
            rr_spread.to_string(),
        ],
        vec![
            "wear_aware".into(),
            format!("{wa_wear:?}"),
            wa_max.to_string(),
            wa_spread.to_string(),
        ],
    ];
    eprintln!(
        "-- wear: {windows} windows × {batch_len} requests, chip 0 pre-aged {preage} cycles, \
         α={alpha} --\n{}",
        format_table(&["policy", "per-chip writes", "max", "max−min"], &rows)
    );
    assert!(
        wa_max <= rr_max,
        "wear-aware placement must not out-wear round-robin: {wa_wear:?} vs {rr_wear:?}"
    );
    assert!(
        wa_spread <= rr_spread,
        "wear-aware placement must not widen the write imbalance: \
         {wa_wear:?} vs {rr_wear:?}"
    );

    // -- Fleet rotation demo: the boundary hook at fleet scale. --
    let mut fleet = manufacture_fleet(
        &cnn,
        2,
        2,
        EXPERIMENT_WRITE_SIGMA,
        FleetConfig::new(cfg.seed),
    );
    let (fleet_window, snapshots) = fleet.rotate_wear(alpha);
    eprintln!(
        "fleet: rotated {} pools to window {fleet_window}, wear snapshots {:?}",
        snapshots.len(),
        snapshots
    );

    // -- JSON report (meta first, strict RFC 8259). --
    let meta = mei_bench::json::meta("cnn_serving", cfg.seed);
    let wear_json = |wear: &[u64], max: u64, spr: u64| {
        let per_chip: Vec<String> = wear.iter().map(u64::to_string).collect();
        format!(
            "{{\"per_chip_writes\":[{}],\"max\":{max},\"imbalance\":{spr}}}",
            per_chip.join(",")
        )
    };
    let tiles_json: Vec<String> = tile_counts.iter().map(|t| t.to_string()).collect();
    let json = format!(
        "{{\"meta\":{meta},\"suite\":\"cnn_serving\",\
         \"shape\":{{\"in_channels\":{},\"in_h\":{},\"in_w\":{},\"filters\":{},\
         \"kernel\":{},\"stride\":{},\"tiles\":{},\"patch_len\":{},\
         \"interface_bits\":{}}},\
         \"identity\":{{\"images\":{},\"tile_counts\":[{}],\"bitwise\":true}},\
         \"accuracy\":{{\"digital\":{},\"analog\":{},\"disturbed\":{},\
         \"write_sigma\":{},\"draws\":{draws}}},\
         \"throughput\":{{\"chips\":{CHIPS},\"window_secs\":{},\"requests\":{served},\
         \"rps\":{},\"chip_sheet\":{}}},\
         \"wear\":{{\"windows\":{windows},\"batch\":{batch_len},\"preage_cycles\":{preage},\
         \"alpha\":{},\"round_robin\":{},\"wear_aware\":{}}},\
         \"fleet\":{{\"pools\":{},\"window\":{fleet_window}}}}}",
        shape.in_channels,
        shape.in_h,
        shape.in_w,
        shape.filters,
        shape.kernel,
        shape.stride,
        cnn.conv().tile_count(),
        shape.patch_len(),
        cnn.tile_interface_bits(),
        test.len(),
        tiles_json.join(","),
        json_num(acc_digital, 6),
        json_num(acc_analog, 6),
        json_num(acc_disturbed, 6),
        json_num(EXPERIMENT_WRITE_SIGMA, 6),
        json_num(window.as_secs_f64(), 3),
        json_num(rps, 1),
        sheet.to_json(),
        json_num(alpha, 3),
        wear_json(&rr_wear, rr_max, rr_spread),
        wear_json(&wa_wear, wa_max, wa_spread),
        snapshots.len(),
    );
    mei_bench::json::validate(&json).expect("cnn_serving emits strict JSON");
    println!("{json}");
    if let Ok(path) = std::env::var("MEI_BENCH_JSON") {
        if let Err(err) = std::fs::write(&path, &json) {
            panic!("cannot write MEI_BENCH_JSON report to '{path}': {err}");
        }
    }
}
