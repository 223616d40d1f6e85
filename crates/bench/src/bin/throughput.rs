//! Serving-throughput benchmark: the policy-driven engine under closed
//! and open-loop load, in process.
//!
//! The workload is the Table 1 **inversek2j** MEI system trained with a
//! small budget. Three phases:
//!
//! 1. **closed sweep** — saturating batches at pool sizes `{1, 2, 4,
//!    auto}`, measuring the maximum sustainable requests/sec;
//! 2. **in-process knee** — a ramping open-loop controller
//!    (`mei_bench::ramp`) walks the arrival rate up on the largest pool
//!    until p99 latency knees, reporting the knee rate and p50/p99 there
//!    instead of a blind fixed-utilization point;
//! 3. **policy comparison** — a *mixed-topology* pool (2 narrow + 2 wide
//!    chips of the same workload) served open-loop at a fixed rate under
//!    `RoundRobin`, `LeastLoaded` (input-length proxy) and `SizeAware`
//!    over a **calibrated** cost model; the calibrated policy should buy
//!    lower p99 at equal offered rate on multi-core hosts (reported
//!    always, never asserted here).
//!
//! Serving over the wire is measured by the `servebench` package, which
//! checks the served bits against the in-process fold before timing.
//!
//! The human-readable tables go to stderr; the machine-diffable JSON
//! report goes to stdout (also to `MEI_BENCH_JSON` when set).
//!
//! Environment knobs:
//!
//! * `MEI_BENCH_SECONDS=<f>` — measurement window per phase (default 2.0;
//!   malformed values warn on stderr and fall back);
//! * `MEI_BENCH_FAST=1` — smoke mode: ~0.2 s windows, tiny training
//!   budget, shorter ramps;
//! * `MEI_BENCH_JSON=<path>` — also write the JSON report to a file;
//! * `MEI_THREADS` is *not* read here: the pool size under test is the
//!   experiment variable.
//!
//! Run with: `cargo run --release -p mei-bench --bin throughput`

use std::time::Duration;

use mei::{manufacture_chips, MeiRcs};
use mei_bench::ramp::{ramp_to_knee, RampConfig, RampReport};
use mei_bench::{
    closed_rate, fast_mode, format_table, measure_window, open_phase, serving_mei,
    ExperimentConfig, EXPERIMENT_WRITE_SIGMA,
};
use runtime::{
    json_num, resolve_threads, Chip, ChipPool, CostModel, Engine, LeastLoaded, RoundRobin,
    ServeStats, SizeAware,
};

/// Build the mixed-topology pool: `narrow_n` chips of the narrow system
/// and `wide_n` of the wide one, as one type-erased pool. Chip ids
/// `0..narrow_n` are the fast chips.
fn mixed_pool(
    narrow: &MeiRcs,
    wide: &MeiRcs,
    narrow_n: usize,
    wide_n: usize,
    seed: u64,
) -> ChipPool<Box<dyn Chip>> {
    let mut chips: Vec<Box<dyn Chip>> =
        manufacture_chips(narrow, narrow_n, EXPERIMENT_WRITE_SIGMA, seed)
            .boxed()
            .into_chips();
    chips.extend(
        manufacture_chips(wide, wide_n, EXPERIMENT_WRITE_SIGMA, seed + 1)
            .boxed()
            .into_chips(),
    );
    ChipPool::from_chips(chips)
}

struct PolicyResult {
    name: &'static str,
    offered_rps: f64,
    stats: ServeStats,
}

impl PolicyResult {
    fn to_json(&self) -> String {
        format!(
            "{{\"policy\":\"{}\",\"offered_rps\":{},\"stats\":{}}}",
            runtime::json_escape(self.name),
            json_num(self.offered_rps, 3),
            self.stats.to_json()
        )
    }
}

fn knee_table(report: &RampReport) -> String {
    let rows: Vec<Vec<String>> = report
        .steps
        .iter()
        .map(|s| {
            vec![
                format!("{:.0}", s.offered_rps),
                format!("{:.0}", s.stats.requests_per_sec),
                format!("{:.1}", s.stats.p50_latency_us),
                format!("{:.1}", s.stats.p99_latency_us),
            ]
        })
        .collect();
    let knee = report.knee_step();
    format!(
        "{}\nknee: {:.0} req/s (p50 {:.1} µs, p99 {:.1} µs, elbow {})",
        format_table(
            &["offered req/s", "served req/s", "p50 µs", "p99 µs"],
            &rows
        ),
        knee.offered_rps,
        knee.stats.p50_latency_us,
        knee.stats.p99_latency_us,
        if report.kneed { "found" } else { "not reached" }
    )
}

#[allow(clippy::too_many_lines)]
fn main() {
    let fast = fast_mode();
    let window = measure_window(if fast { 0.2 } else { 2.0 });
    let cfg = ExperimentConfig::from_env();

    // The Table 1 inversek2j MEI system, trained with a small budget —
    // the serving workload, not the accuracy experiment.
    let (mei, inputs) = serving_mei(&cfg, None);

    let auto = resolve_threads(0);
    let mut chip_counts = vec![1usize, 2, 4, auto];
    chip_counts.sort_unstable();
    chip_counts.dedup();
    let largest = *chip_counts.last().expect("non-empty");

    eprintln!(
        "== throughput: inversek2j MEI serving, {} hardware threads, {:.2}s windows ==",
        auto,
        window.as_secs_f64()
    );

    // Phase 1: closed saturation sweep over pool sizes.
    let mut closed: Vec<(usize, f64)> = Vec::new();
    for &chips in &chip_counts {
        let engine = Engine::new(manufacture_chips(
            &mei,
            chips,
            EXPERIMENT_WRITE_SIGMA,
            cfg.seed,
        ));
        closed.push((chips, closed_rate(&engine, &inputs, window)));
    }
    let rows: Vec<Vec<String>> = closed
        .iter()
        .map(|(chips, rps)| vec![chips.to_string(), format!("{rps:.0}")])
        .collect();
    eprintln!("{}", format_table(&["chips", "closed req/s"], &rows));
    let rps_of = |chips: usize| closed.iter().find(|r| r.0 == chips).map(|r| r.1);
    let speedup_4v1 = match (rps_of(4), rps_of(1)) {
        (Some(four), Some(one)) if one > 0.0 => Some(four / one),
        _ => None,
    };
    eprintln!(
        "speedup 4 chips vs 1 (closed): {} ({} hardware threads — reported, not asserted)",
        speedup_4v1.map_or_else(|| "n/a".into(), |s| format!("{s:.2}×")),
        auto
    );

    // Phase 2: in-process knee on the largest pool.
    let closed_largest = rps_of(largest).expect("largest pool measured");
    let ramp_config = RampConfig {
        start_rps: (closed_largest * 0.15).max(10.0),
        growth: if fast { 1.6 } else { 1.35 },
        max_steps: if fast { 6 } else { 12 },
        knee_factor: 4.0,
    };
    let knee_window = if fast {
        window
    } else {
        window.min(Duration::from_secs(1))
    };
    let engine = Engine::new(manufacture_chips(
        &mei,
        largest,
        EXPERIMENT_WRITE_SIGMA,
        cfg.seed,
    ));
    let in_process = ramp_to_knee(&ramp_config, |rate| {
        open_phase(&engine, &inputs, rate, knee_window)
    });
    eprintln!(
        "\n-- in-process open-loop ramp ({largest} chips) --\n{}",
        knee_table(&in_process)
    );

    // Phase 3: mixed-topology policy comparison. Two narrow (fast) and
    // two wide (slow) chips of the same workload; the calibrated
    // size-aware policy should hold a lower p99 at equal offered rate.
    let wide = serving_mei(&cfg, Some(mei.hidden() * 6)).0;
    let build = || mixed_pool(&mei, &wide, 2, 2, cfg.seed);
    let calibration = CostModel::calibrate(&build(), &inputs[..8.min(inputs.len())], 3);
    eprintln!(
        "\n-- mixed-topology pool (2× hidden={}, 2× hidden={}) --\ncalibrated cost model: {}",
        mei.hidden(),
        wide.hidden(),
        calibration.to_json()
    );
    let mixed_closed = closed_rate(
        &Engine::new(build()).with_policy(LeastLoaded),
        &inputs,
        window,
    );
    let offered = mixed_closed * 0.6;
    let policies: Vec<PolicyResult> = vec![
        PolicyResult {
            name: "round_robin",
            offered_rps: offered,
            stats: open_phase(
                &Engine::new(build()).with_policy(RoundRobin),
                &inputs,
                offered,
                window,
            ),
        },
        PolicyResult {
            name: "least_loaded",
            offered_rps: offered,
            stats: open_phase(
                &Engine::new(build()).with_policy(LeastLoaded),
                &inputs,
                offered,
                window,
            ),
        },
        PolicyResult {
            name: "size_aware",
            offered_rps: offered,
            stats: open_phase(
                &Engine::new(build())
                    .with_policy(SizeAware)
                    .with_cost_model(calibration.clone()),
                &inputs,
                offered,
                window,
            ),
        },
    ];
    let rows: Vec<Vec<String>> = policies
        .iter()
        .map(|p| {
            vec![
                p.name.to_string(),
                format!("{:.0}", p.offered_rps),
                format!("{:.0}", p.stats.requests_per_sec),
                format!("{:.1}", p.stats.p50_latency_us),
                format!("{:.1}", p.stats.p99_latency_us),
            ]
        })
        .collect();
    eprintln!(
        "{}",
        format_table(
            &[
                "policy",
                "offered req/s",
                "served req/s",
                "p50 µs",
                "p99 µs"
            ],
            &rows
        )
    );
    let p99_of = |name: &str| {
        policies
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.stats.p99_latency_us)
            .expect("policy measured")
    };
    eprintln!(
        "size_aware p99 / round_robin p99 = {:.3} (multi-core hosts should see < 1; \
         {} hardware threads here — reported, not asserted)",
        p99_of("size_aware") / p99_of("round_robin"),
        auto
    );

    let meta = mei_bench::json::meta("throughput", cfg.seed);
    let closed_json: Vec<String> = closed
        .iter()
        .map(|(chips, rps)| {
            format!(
                "{{\"chips\":{chips},\"closed_requests_per_sec\":{}}}",
                json_num(*rps, 3)
            )
        })
        .collect();
    let policies_json: Vec<String> = policies.iter().map(PolicyResult::to_json).collect();
    let json = format!(
        "{{\"meta\":{meta},\"suite\":\"throughput/inversek2j\",\"hardware_threads\":{},\
         \"window_secs\":{},\"speedup_4v1\":{},\"pools\":[{}],\
         \"knee\":{{\"in_process\":{}}},\
         \"mixed_topology\":{{\"narrow_hidden\":{},\"wide_hidden\":{},\
         \"cost_model\":{},\"closed_requests_per_sec\":{},\"policies\":[{}]}}}}",
        auto,
        json_num(window.as_secs_f64(), 3),
        speedup_4v1.map_or_else(|| "null".into(), |s| json_num(s, 4)),
        closed_json.join(","),
        in_process.to_json(),
        mei.hidden(),
        wide.hidden(),
        calibration.to_json(),
        json_num(mixed_closed, 3),
        policies_json.join(",")
    );
    mei_bench::json::emit(&json, "MEI_BENCH_JSON");
}
