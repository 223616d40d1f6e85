//! Drift + admission benchmark: serving a pool whose chips *age*, with
//! and without online cost refresh, then gating an overloaded pool with
//! the knee-calibrated admission controller.
//!
//! The workload is the Table 1 **inversek2j** MEI system. Two phases:
//!
//! 1. **drift** — a 4-chip [`DriftingChip`] pool (latency-only profile,
//!    so output bits stay fixed and the comparison is pure service time)
//!    is aged two serving windows under two regimes: a **frozen**
//!    size-aware engine keeps the cost model it calibrated at window 0,
//!    while a **recalibrated** engine refits the model at every window
//!    boundary (`Engine::recalibrate_window`) and re-routes around the
//!    chips that drifted hardest. Both serve the same open-loop load;
//!    the p99 ratio is *reported, never asserted* — on a 1-core host the
//!    placement advantage cannot show up in wall-clock latency.
//! 2. **admission** — a healthy pool is ramped to its latency knee
//!    (`mei_bench::ramp`), the knee is converted into an
//!    [`AdmissionConfig`](runtime::AdmissionConfig) (3× p99 headroom),
//!    and the gated engine is offered 0.5× and 1.5× the knee rate. The
//!    gate simulates queueing in *virtual time* — decisions never read a
//!    clock — so two properties hold on any host and **are asserted**:
//!    under the knee nothing is shed, 1.5× over it the shed rate is
//!    positive. The p99 of the admitted traffic at the over-knee rate is
//!    reported against the ungated run's p99 (the bound the gate buys).
//!
//! Human-readable tables go to stderr; the machine-diffable JSON report
//! goes to stdout (and to `MEI_BENCH_JSON` when set).
//!
//! Environment knobs:
//!
//! * `MEI_BENCH_SECONDS=<f>` — measurement window per phase (default 2.0);
//! * `MEI_BENCH_FAST=1` — smoke mode: ~0.3 s windows, tiny training
//!   budget, shorter ramps;
//! * `MEI_BENCH_JSON=<path>` — also write the JSON report to a file;
//! * `MEI_ADMIT_MAX_DELAY_US`, `MEI_ADMIT_SECS_PER_COST` — override the
//!   knee-derived admission bound (see `runtime::admission`).
//!
//! Run with: `cargo run --release -p mei-bench --bin drift_admission`

use std::time::Duration;

use mei::{manufacture_drifting_engine, manufacture_engine, MeiConfig, MeiRcs};
use mei_bench::ramp::{ramp_to_knee, RampConfig};
use mei_bench::{
    closed_rate, fast_mode, format_table, measure_window, open_phase, schedule, table1_setups,
    ExperimentConfig, EXPERIMENT_WRITE_SIGMA,
};
use neural::TrainConfig;
use runtime::{json_num, AdmittedOutcome, Chip, DriftProfile, DriftingChip, Engine, SizeAware};

const CHIPS: usize = 4;
const DRIFT_WINDOWS: u64 = 2;
const ADMIT_HEADROOM: f64 = 3.0;

fn gated_phase<C: Chip>(
    engine: &Engine<C>,
    inputs: &[Vec<f64>],
    rate: f64,
    window: Duration,
) -> AdmittedOutcome {
    let (requests, arrivals) = schedule(inputs, rate, window);
    engine.serve_open_loop_admitted(&requests, &arrivals)
}

fn admitted_json(label: &str, rate: f64, outcome: &AdmittedOutcome) -> String {
    let p99 = outcome
        .outcome
        .as_ref()
        .map_or_else(|| "null".into(), |o| json_num(o.stats.p99_latency_us, 3));
    format!(
        "{{\"phase\":\"{label}\",\"offered_rps\":{},\"offered\":{},\
         \"admitted\":{},\"shed\":{},\"shed_rate\":{},\"admitted_p99_us\":{p99}}}",
        json_num(rate, 3),
        outcome.gate_stats.offered,
        outcome.gate_stats.admitted,
        outcome.gate_stats.shed,
        json_num(outcome.gate_stats.shed_rate(), 4)
    )
}

#[allow(clippy::too_many_lines)]
fn main() {
    let fast = fast_mode();
    let window = measure_window(if fast { 0.3 } else { 2.0 });
    let cfg = ExperimentConfig::from_env();

    let setup = table1_setups()
        .into_iter()
        .find(|s| s.workload.name() == "inversek2j")
        .expect("inversek2j is a Table 1 row");
    let train_samples = if fast { 400 } else { 1_500 };
    let train = setup
        .workload
        .dataset(train_samples, cfg.seed)
        .expect("train data");
    let test = setup.workload.dataset(64, cfg.seed + 1).expect("test data");
    let mei = MeiRcs::train(
        &train,
        &MeiConfig {
            hidden: setup.mei_hidden,
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
    let inputs: Vec<Vec<f64>> = test.inputs().to_vec();
    let reps: Vec<Vec<f64>> = inputs[..8.min(inputs.len())].to_vec();
    let passes = if fast { 2 } else { 3 };

    eprintln!(
        "== drift_admission: inversek2j MEI, {CHIPS} chips, {:.2}s windows ==",
        window.as_secs_f64()
    );

    // -- Phase 1: retention drift, frozen vs recalibrated cost model. --
    // Latency-only drift: output bits stay pinned to the inner chips, so
    // the two regimes differ only in where requests land and how long
    // they take.
    let profile = DriftProfile::latency_only();
    let build = || -> Engine<DriftingChip<MeiRcs>> {
        manufacture_drifting_engine(&mei, CHIPS, EXPERIMENT_WRITE_SIGMA, cfg.seed, profile)
            .with_policy(SizeAware)
            .calibrated(&reps, passes)
    };

    let mut frozen = build();
    for _ in 0..DRIFT_WINDOWS {
        frozen.advance_window();
    }
    let mut refreshed = build();
    for _ in 0..DRIFT_WINDOWS {
        refreshed.recalibrate_window(&reps, passes);
    }
    let severities: Vec<f64> = frozen.pool().chips().iter().map(|c| c.severity()).collect();
    let decays: Vec<f64> = frozen.pool().chips().iter().map(|c| c.decay()).collect();
    eprintln!(
        "per-chip drift severity: [{}], window-{DRIFT_WINDOWS} decay: [{}]",
        severities
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(", "),
        decays
            .iter()
            .map(|d| format!("{d:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    eprintln!(
        "cost model versions: frozen v{} (history {}), refreshed v{} (history {})",
        frozen.cost_model().version(),
        frozen.model_history().len(),
        refreshed.cost_model().version(),
        refreshed.model_history().len()
    );

    // Offer both regimes the same load: 60% of the *drifted* frozen
    // pool's closed rate, so neither engine is saturated outright.
    let drifted_closed = closed_rate(&frozen, &inputs, window);
    let drift_rate = (drifted_closed * 0.6).max(10.0);
    let frozen_stats = open_phase(&frozen, &inputs, drift_rate, window);
    let refreshed_stats = open_phase(&refreshed, &inputs, drift_rate, window);
    let rows = vec![
        vec![
            "frozen (v0 model)".to_string(),
            format!("{drift_rate:.0}"),
            format!("{:.0}", frozen_stats.requests_per_sec),
            format!("{:.1}", frozen_stats.p50_latency_us),
            format!("{:.1}", frozen_stats.p99_latency_us),
        ],
        vec![
            format!("recalibrated (v{})", refreshed.cost_model().version()),
            format!("{drift_rate:.0}"),
            format!("{:.0}", refreshed_stats.requests_per_sec),
            format!("{:.1}", refreshed_stats.p50_latency_us),
            format!("{:.1}", refreshed_stats.p99_latency_us),
        ],
    ];
    eprintln!(
        "\n-- drifted pool, open loop, window {DRIFT_WINDOWS} --\n{}",
        format_table(
            &[
                "regime",
                "offered req/s",
                "served req/s",
                "p50 µs",
                "p99 µs"
            ],
            &rows
        )
    );
    let p99_ratio = refreshed_stats.p99_latency_us / frozen_stats.p99_latency_us;
    eprintln!(
        "recalibrated p99 / frozen p99 = {p99_ratio:.3} \
         (multi-core hosts should see < 1 — reported, not asserted)"
    );

    // -- Phase 2: knee-calibrated admission on a healthy pool. --
    let engine = manufacture_engine(&mei, CHIPS, EXPERIMENT_WRITE_SIGMA, cfg.seed);
    let closed = closed_rate(&engine, &inputs, window);
    let ramp_config = RampConfig {
        start_rps: (closed * 0.15).max(10.0),
        growth: if fast { 1.6 } else { 1.35 },
        max_steps: if fast { 6 } else { 12 },
        knee_factor: 4.0,
    };
    let report = ramp_to_knee(&ramp_config, |rate| {
        open_phase(&engine, &inputs, rate, window)
    });
    let knee = report.knee_step();
    let knee_rps = knee.offered_rps;
    eprintln!(
        "\n-- admission: knee at {knee_rps:.0} req/s (p99 {:.1} µs, elbow {}) --",
        knee.stats.p99_latency_us,
        if report.kneed { "found" } else { "not reached" }
    );

    // Mean model cost of the test inputs, for the cost→seconds scale.
    let model = engine.cost_model();
    let mut costs = Vec::new();
    let mean_cost = inputs
        .iter()
        .map(|input| {
            model.estimates_into(input.len(), &mut costs);
            costs.iter().sum::<f64>() / costs.len() as f64
        })
        .sum::<f64>()
        / inputs.len() as f64;
    let admit = report
        .admission_config(ADMIT_HEADROOM, mean_cost, CHIPS)
        .from_env();
    eprintln!(
        "gate: max_delay {:.1} µs, {:.3e} s/cost (knee × {ADMIT_HEADROOM} headroom)",
        admit.max_delay_secs * 1e6,
        admit.secs_per_cost
    );

    // The gate simulates queueing in virtual time, so these two checks
    // are pure functions of (rate, config) and hold on any host.
    let gated =
        manufacture_engine(&mei, CHIPS, EXPERIMENT_WRITE_SIGMA, cfg.seed).with_admission(admit);
    let under_rate = knee_rps * 0.5;
    let over_rate = knee_rps * 1.5;
    let under = gated_phase(&gated, &inputs, under_rate, window);
    let over = gated_phase(&gated, &inputs, over_rate, window);
    let ungated_over = open_phase(&engine, &inputs, over_rate, window);
    let rows = vec![
        vec![
            "0.5× knee".to_string(),
            format!("{under_rate:.0}"),
            format!("{}", under.gate_stats.shed),
            format!("{:.1}%", under.gate_stats.shed_rate() * 100.0),
            under
                .outcome
                .as_ref()
                .map_or_else(|| "-".into(), |o| format!("{:.1}", o.stats.p99_latency_us)),
        ],
        vec![
            "1.5× knee".to_string(),
            format!("{over_rate:.0}"),
            format!("{}", over.gate_stats.shed),
            format!("{:.1}%", over.gate_stats.shed_rate() * 100.0),
            over.outcome
                .as_ref()
                .map_or_else(|| "-".into(), |o| format!("{:.1}", o.stats.p99_latency_us)),
        ],
        vec![
            "1.5× knee, ungated".to_string(),
            format!("{over_rate:.0}"),
            "-".to_string(),
            "-".to_string(),
            format!("{:.1}", ungated_over.p99_latency_us),
        ],
    ];
    eprintln!(
        "{}",
        format_table(
            &["offered", "req/s", "shed", "shed rate", "admitted p99 µs"],
            &rows
        )
    );
    assert_eq!(
        under.gate_stats.shed, 0,
        "under the knee the gate must shed nothing"
    );
    assert!(
        over.gate_stats.shed_rate() > 0.0,
        "1.5× over the knee the gate must shed"
    );

    let meta = mei_bench::json::meta("drift_admission", cfg.seed);
    let json = format!(
        "{{\"meta\":{meta},\"suite\":\"drift_admission/inversek2j\",\"window_secs\":{},\
         \"drift\":{{\"windows\":{DRIFT_WINDOWS},\"profile\":\"latency_only\",\
         \"severities\":[{}],\"decays\":[{}],\
         \"offered_rps\":{},\
         \"frozen\":{{\"model_version\":{},\"stats\":{}}},\
         \"recalibrated\":{{\"model_version\":{},\"model_history\":{},\"stats\":{}}},\
         \"recalibrated_p99_over_frozen_p99\":{}}},\
         \"admission\":{{\"knee_rps\":{},\"kneed\":{},\
         \"knee_p99_us\":{},\"headroom\":{ADMIT_HEADROOM},\
         \"max_delay_us\":{},\"secs_per_cost\":{:.6e},\"mean_cost\":{},\
         \"runs\":[{},{}],\"ungated_over_p99_us\":{}}}}}",
        json_num(window.as_secs_f64(), 3),
        severities
            .iter()
            .map(|s| json_num(*s, 4))
            .collect::<Vec<_>>()
            .join(","),
        decays
            .iter()
            .map(|d| json_num(*d, 6))
            .collect::<Vec<_>>()
            .join(","),
        json_num(drift_rate, 3),
        frozen.cost_model().version(),
        frozen_stats.to_json(),
        refreshed.cost_model().version(),
        refreshed.model_history().len(),
        refreshed_stats.to_json(),
        json_num(p99_ratio, 4),
        json_num(knee_rps, 3),
        report.kneed,
        json_num(knee.stats.p99_latency_us, 3),
        json_num(admit.max_delay_secs * 1e6, 3),
        admit.secs_per_cost,
        json_num(mean_cost, 4),
        admitted_json("under_knee_0.5x", under_rate, &under),
        admitted_json("over_knee_1.5x", over_rate, &over),
        json_num(ungated_over.p99_latency_us, 3)
    );
    println!("{json}");
    if let Ok(path) = std::env::var("MEI_BENCH_JSON") {
        if let Err(err) = std::fs::write(&path, &json) {
            panic!("cannot write MEI_BENCH_JSON report to '{path}': {err}");
        }
    }
}
