//! Fleet cost accounting + capacity DSE benchmark.
//!
//! The paper's Eq (6)/(7) model answers "what does one chip cost"; this
//! bench answers the production questions built on top of it:
//!
//! 1. **Accounting** — fleets of P ∈ {1, 2, 4} pools of manufactured
//!    Table 1 **inversek2j** MEI chips serve a measured open-loop
//!    window; `Fleet::accounting()` reports the physical rollup (mm²,
//!    leakage W) and the serve-time [`runtime::EnergyStats`] integrate
//!    the window into joules: `leakage × wall + dynamic × inferences`.
//!    Per-pool mm², W, J/inference, ops/mm² and cost per million
//!    requests land in the JSON report.
//! 2. **Capacity DSE** — `runtime::fleet::dse` searches chip count ×
//!    SAAB ensemble size × replication factor under an explicit
//!    area+power budget, reusing the measured `sla_search` knee as the
//!    per-pool rate model (a K-learner ensemble does K× the work per
//!    inference, so its rate is the single-learner rate / K; its sheet
//!    is the single-learner sheet × K). The winning candidate maximizes
//!    throughput *admitted with failover headroom*: R-way replication
//!    reserves R−1 pools' capacity.
//!
//! Measured rates are host-dependent and are **reported, never
//! asserted**; the physics columns (mm², W, J/inference at a given
//! rate) are pure Eq (6)/(7) arithmetic and are stable everywhere.
//!
//! Environment knobs:
//!
//! * `MEI_BENCH_SECONDS=<f>` — measurement window (default 1.0);
//! * `MEI_BENCH_FAST=1` — smoke mode: short windows, tiny training;
//! * `MEI_BENCH_JSON=<path>` — also write the JSON report to a file;
//! * `MEI_FLEET_SLA_US=<f>` — absolute p99 target, µs (default 2000);
//! * `MEI_AREA_BUDGET_MM2=<f>` — DSE area budget (default 0.25 mm²);
//! * `MEI_POWER_BUDGET_W=<f>` — DSE power budget (default 0.05 W);
//! * `MEI_COST_PER_MREQ=<f>` — DSE cap on joules per million requests
//!   (default unbounded).
//!
//! Run with: `cargo run --release -p mei-bench --bin fleet_cost`

use mei::{manufacture_fleet, MeiConfig, MeiRcs};
use mei_bench::ramp::{ramp_to_knee, sla_search, RampConfig, SlaConfig};
use mei_bench::{
    fast_mode, format_table, measure_window, open_phase, table1_setups, ExperimentConfig,
    EXPERIMENT_WRITE_SIGMA,
};
use neural::TrainConfig;
use runtime::fleet::dse::{self, CandidateModel, DseBudget, DseCandidate};
use runtime::{json_num, Chip, FleetConfig};

const CHIPS_PER_POOL: usize = 2;
const WORKLOAD: &str = "inversek2j";

/// One accounted pool's reported row.
struct PoolRow {
    pool: usize,
    area_mm2: f64,
    leakage_w: f64,
    j_per_inference: f64,
    ops_per_mm2: f64,
    j_per_mreq: f64,
    requests: usize,
}

fn main() {
    let fast = fast_mode();
    let window = measure_window(if fast { 0.25 } else { 1.0 });
    let cfg = ExperimentConfig::from_env();
    let sla_target_us = prng::env::parse_or("MEI_FLEET_SLA_US", 2000.0_f64);
    let budget = DseBudget::new(0.25, 0.05).from_env();

    let setup = table1_setups()
        .into_iter()
        .find(|s| s.workload.name() == WORKLOAD)
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
    let chip_sheet = Chip::cost_sheet(&mei).expect("MEI chips are accounted");

    eprintln!(
        "== fleet_cost: {WORKLOAD} MEI, {CHIPS_PER_POOL} chips/pool, \
         {:.2}s windows == \nchip sheet: {chip_sheet}",
        window.as_secs_f64()
    );

    // -- Phase 1: measured per-pool SLA rate (single pool, the DSE's
    // -- per-pool rate model) --
    let fleet1 = manufacture_fleet(
        &mei,
        1,
        CHIPS_PER_POOL,
        EXPERIMENT_WRITE_SIGMA,
        FleetConfig::new(cfg.seed),
    );
    let ramp_config = RampConfig {
        start_rps: 50.0,
        growth: if fast { 2.0 } else { 1.5 },
        max_steps: if fast { 6 } else { 10 },
        knee_factor: 4.0,
    };
    let ramp = ramp_to_knee(&ramp_config, |rate| {
        open_phase(fleet1.engine(0), &inputs, rate, window)
    });
    let sla = sla_search(
        &ramp,
        &SlaConfig {
            target_p99_us: sla_target_us,
            max_iters: if fast { 3 } else { 6 },
            rel_tol: 0.05,
        },
        |rate| open_phase(fleet1.engine(0), &inputs, rate, window),
    );
    // The per-pool rate the DSE plans with: the SLA-compliant rate when
    // found, the ramp knee otherwise (an unmet SLA on a tiny CI host
    // still leaves a valid relative capacity model).
    let per_pool_rps = if sla.met {
        sla.max_rps
    } else {
        ramp.knee_step().offered_rps
    };
    eprintln!(
        "per-pool rate model: {per_pool_rps:.0} req/s ({} at {sla_target_us:.0} µs p99)",
        if sla.met {
            "SLA-met"
        } else {
            "knee, SLA unmet"
        }
    );

    // -- Phase 2: fleet accounting at a sustainable operating point. --
    let pool_sizes: [usize; 3] = [1, 2, 4];
    let mut fleet_reports: Vec<(usize, String, Vec<PoolRow>)> = Vec::new();
    for &pools in &pool_sizes {
        let fleet = manufacture_fleet(
            &mei,
            pools,
            CHIPS_PER_POOL,
            EXPERIMENT_WRITE_SIGMA,
            FleetConfig::new(cfg.seed),
        );
        let accounting = fleet.accounting();
        assert_eq!(
            accounting.known_chips,
            pools * CHIPS_PER_POOL,
            "every manufactured MEI chip publishes a cost sheet"
        );
        // Serve each pool ~60% of its modeled capacity so the energy
        // integral reflects a loaded-but-stable fleet.
        let rate = (per_pool_rps * 0.6).max(50.0);
        let rows: Vec<PoolRow> = (0..pools)
            .map(|pool| {
                let stats = open_phase(fleet.engine(pool), &inputs, rate, window);
                let energy = stats.energy.as_ref().expect("accounted chips bill energy");
                let pool_acc = &accounting.per_pool[pool];
                let j_per_inference = energy.j_per_request;
                PoolRow {
                    pool,
                    area_mm2: pool_acc.area_mm2(),
                    leakage_w: pool_acc.leakage_w(),
                    j_per_inference,
                    ops_per_mm2: energy.ops_per_sec / pool_acc.area_mm2(),
                    j_per_mreq: j_per_inference * 1e6,
                    requests: stats.requests,
                }
            })
            .collect();
        fleet_reports.push((pools, accounting.to_json(), rows));
    }

    for (pools, _, rows) in &fleet_reports {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.pool.to_string(),
                    format!("{:.6}", r.area_mm2),
                    format!("{:.6}", r.leakage_w),
                    format!("{:.3e}", r.j_per_inference),
                    format!("{:.3e}", r.ops_per_mm2),
                    format!("{:.3}", r.j_per_mreq),
                ]
            })
            .collect();
        eprintln!(
            "-- {pools}-pool fleet --\n{}",
            format_table(
                &["pool", "mm²", "leak W", "J/inf", "ops/s/mm²", "J per Mreq"],
                &table
            )
        );
    }

    // -- Phase 3: capacity DSE under the explicit budget. --
    let mut candidates = Vec::new();
    for pools in [1usize, 2, 4] {
        for chips_per_pool in [1usize, 2] {
            for ensemble in [1usize, 2, 4] {
                for replication in [1usize, 2] {
                    candidates.push(DseCandidate {
                        pools,
                        chips_per_pool,
                        ensemble,
                        replication,
                    });
                }
            }
        }
    }
    let per_chip_rps = per_pool_rps / CHIPS_PER_POOL as f64;
    let report = dse::search(&budget, &candidates, |c| CandidateModel {
        // A K-learner SAAB chip is K single-learner sheets side by side…
        chip_sheet: chip_sheet.scaled(c.ensemble),
        // …doing K× the work per inference, over the pool's chip count.
        per_pool_rps: per_chip_rps * c.chips_per_pool as f64 / c.ensemble as f64,
    });
    match report.pick() {
        Some(pick) => eprintln!(
            "DSE pick under {:.3} mm² / {:.3} W: {} → {:.0} admitted req/s, \
             {:.6} mm², {:.6} W, {:.3} J/Mreq",
            budget.area_mm2,
            budget.power_w,
            pick.candidate,
            pick.admitted_rps,
            pick.area_mm2,
            pick.power_w,
            pick.j_per_mreq
        ),
        None => eprintln!(
            "DSE: no candidate fits {:.3} mm² / {:.3} W",
            budget.area_mm2, budget.power_w
        ),
    }

    // -- JSON report (meta first, strict RFC 8259). --
    let meta = mei_bench::json::meta("fleet_cost", cfg.seed);
    let fleets_json: Vec<String> = fleet_reports
        .iter()
        .map(|(pools, accounting, rows)| {
            let pool_json: Vec<String> = rows
                .iter()
                .map(|r| {
                    format!(
                        "{{\"pool\":{},\"area_mm2\":{},\"leakage_w\":{},\
                         \"j_per_inference\":{},\"ops_per_mm2\":{},\
                         \"j_per_mreq\":{},\"requests\":{}}}",
                        r.pool,
                        json_num(r.area_mm2, 6),
                        json_num(r.leakage_w, 6),
                        json_num(r.j_per_inference, 15),
                        json_num(r.ops_per_mm2, 1),
                        json_num(r.j_per_mreq, 6),
                        r.requests
                    )
                })
                .collect();
            format!(
                "{{\"pools\":{pools},\"accounting\":{accounting},\
                 \"per_pool\":[{}]}}",
                pool_json.join(",")
            )
        })
        .collect();
    let json = format!(
        "{{\"meta\":{meta},\"suite\":\"fleet_cost/{WORKLOAD}\",\
         \"window_secs\":{},\"chips_per_pool\":{CHIPS_PER_POOL},\
         \"chip_sheet\":{},\
         \"sla\":{{\"target_p99_us\":{},\"met\":{},\"per_pool_rps\":{}}},\
         \"fleets\":[{}],\"dse\":{}}}",
        json_num(window.as_secs_f64(), 3),
        chip_sheet.to_json(),
        json_num(sla_target_us, 3),
        sla.met,
        json_num(per_pool_rps, 3),
        fleets_json.join(","),
        report.to_json(),
    );
    println!("{json}");
    if let Ok(path) = std::env::var("MEI_BENCH_JSON") {
        if let Err(err) = std::fs::write(&path, &json) {
            panic!("cannot write MEI_BENCH_JSON report to '{path}': {err}");
        }
    }
}
