//! Fleet-scale serving benchmark: SLA-targeted capacity search over
//! 1/2/4 engine pools, plus a forced-quarantine failover drill.
//!
//! The workload is the Table 1 **inversek2j** MEI system, served as one
//! hot workload replicated across every pool of a `runtime::Fleet`.
//! Three phases:
//!
//! 1. **SLA capacity** — for P ∈ {1, 2, 4} pools, the fleet is ramped
//!    to its latency knee (`mei_bench::ramp`) and then bisected for the
//!    highest aggregate rate whose p99 stays under an **absolute**
//!    target (`sla_search`; default 2000 µs, `MEI_FLEET_SLA_US`). The
//!    fleet-level p99 of a step is the worst pool's p99 — a sound
//!    bound: the request mix splits evenly across pools, so if every
//!    pool's p99 meets the target the mixture's p99 does too. Rates are
//!    host-dependent and are *reported, never asserted* (a 1-core CI
//!    host has no parallel capacity to show).
//! 2. **Capacity planning** — each fleet size's per-pool SLA rate is
//!    recorded as a `SlaPoint` and `Fleet::pools_for` answers the
//!    ROADMAP question "how many pools for `MEI_FLEET_TARGET_RPS`
//!    req/s under the target p99".
//! 3. **Failover drill** — a 2-pool fleet of breakable chips serves a
//!    replicated workload; every chip in the primary pool is broken;
//!    `Fleet::recalibrate_window` quarantines them and ejects the pool;
//!    serving continues on the survivor. Three properties hold on any
//!    host and **are asserted**: zero requests are lost across the
//!    failover, no post-ejection request lands on the dead pool, and
//!    the whole drill — routing, chips, output bits — replays
//!    bit-identically on a rerun. Repairing the chips and
//!    recalibrating re-admits the pool and restores the original
//!    routing.
//!
//! Human-readable tables go to stderr; the machine-diffable JSON report
//! (with the shared `meta` header) goes to stdout (and to
//! `MEI_BENCH_JSON` when set).
//!
//! Environment knobs:
//!
//! * `MEI_BENCH_SECONDS=<f>` — measurement window per ramp step
//!   (default 1.0);
//! * `MEI_BENCH_FAST=1` — smoke mode: ~0.25 s windows, tiny training
//!   budget, shorter ramps;
//! * `MEI_BENCH_JSON=<path>` — also write the JSON report to a file;
//! * `MEI_FLEET_SLA_US=<f>` — absolute p99 target, µs (default 2000);
//! * `MEI_FLEET_TARGET_RPS=<f>` — capacity-planning question for
//!   `Fleet::pools_for` (default 10000);
//! * `MEI_FLEET_REPLICATION`, `MEI_FLEET_QUARANTINE_FRAC`,
//!   `MEI_FLEET_DRIFT_RATIO` — fleet routing/health overrides (see
//!   `runtime::fleet`).
//!
//! Run with: `cargo run --release -p mei-bench --bin fleet_serving`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mei::{manufacture_chips, manufacture_fleet, MeiConfig, MeiRcs};
use mei_bench::ramp::{ramp_to_knee, sla_search, RampConfig, SlaConfig, SlaReport};
use mei_bench::{
    closed_rate, fast_mode, format_table, measure_window, schedule, table1_setups,
    ExperimentConfig, EXPERIMENT_WRITE_SIGMA,
};
use neural::TrainConfig;
use runtime::{
    json_num, BatchItem, Chip, ChipPool, EjectReason, Engine, Fleet, FleetConfig, RoundRobin,
    ServeStats, SlaPoint, Transition,
};

const CHIPS_PER_POOL: usize = 2;
const WORKLOAD: &str = "inversek2j";

/// Offer the fleet an aggregate open-loop load: the schedule is split
/// across the workload's replica set by the fleet's own deterministic
/// rotation (request `n` → replica `n mod R`), each pool serves its
/// share concurrently, and the fleet-level stats take the **worst**
/// pool's percentiles. That bound is sound for SLA search: the mixture
/// of per-pool latency distributions meets a p99 target whenever every
/// component does.
fn fleet_measure<C: Chip>(
    fleet: &Fleet<C>,
    inputs: &[Vec<f64>],
    rate: f64,
    window: Duration,
) -> ServeStats {
    let replicas = fleet.replicas(WORKLOAD);
    assert!(!replicas.is_empty(), "no healthy pool to measure");
    let (requests, arrivals) = schedule(inputs, rate, window);
    let mut shares: Vec<(Vec<Vec<f64>>, Vec<Duration>)> =
        (0..fleet.len()).map(|_| (Vec::new(), Vec::new())).collect();
    for (n, (request, arrival)) in requests.into_iter().zip(arrivals).enumerate() {
        let pool = replicas[n % replicas.len()];
        shares[pool].0.push(request);
        shares[pool].1.push(arrival);
    }
    let pool_stats: Vec<ServeStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .enumerate()
            .filter(|(_, (requests, _))| !requests.is_empty())
            .map(|(pool, (requests, arrivals))| {
                scope.spawn(move || fleet.engine(pool).serve_open_loop(requests, arrivals).stats)
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool serve"))
            .collect()
    });
    let worst_p99 = pool_stats
        .iter()
        .map(|s| s.p99_latency_us)
        .fold(f64::NAN, f64::max);
    let wall = pool_stats
        .iter()
        .map(|s| s.wall_secs)
        .fold(0.0f64, f64::max);
    ServeStats::from_latencies_us(
        "fleet_worst_pool",
        &[worst_p99],
        Duration::from_secs_f64(wall.max(f64::MIN_POSITIVE)),
        vec![],
    )
}

/// A chip that can be broken at runtime: `infer` panics while the
/// switch is set, which is what a failed device looks like to the
/// recalibration pass (`CostModel::calibrate` quarantines it).
struct BreakableChip {
    inner: MeiRcs,
    broken: Arc<AtomicBool>,
}

impl Chip for BreakableChip {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        assert!(
            !self.broken.load(Ordering::SeqCst),
            "chip failed (fault injection)"
        );
        Chip::infer(&self.inner, input)
    }
}

/// One serve call's observable bits: global chip id + output pattern.
type Trace = Vec<(usize, Vec<u64>)>;

/// The failover drill's full observable record (asserted bit-identical
/// across reruns).
struct DrillRecord {
    before: Trace,
    after: Trace,
    recovered: Trace,
    primary: usize,
    transitions: Vec<Vec<(usize, Transition)>>,
}

/// Run the failover drill once: serve, break the primary pool,
/// recalibrate (→ ejection), serve on, repair, recalibrate (→
/// re-admission), serve again.
fn failover_drill(mei: &MeiRcs, seed: u64, reps: &[Vec<f64>], requests: usize) -> DrillRecord {
    let switches: Vec<Arc<AtomicBool>> = (0..2).map(|_| Arc::new(AtomicBool::new(false))).collect();
    let engines: Vec<Engine<BreakableChip>> = switches
        .iter()
        .enumerate()
        .map(|(p, switch)| {
            // Distinct physical chips per pool: pool p draws from the
            // (seed, p) substream, exactly like `manufacture_fleet`.
            let pool_seed = prng::substream(seed, p as u64);
            let chips = manufacture_chips(mei, CHIPS_PER_POOL, EXPERIMENT_WRITE_SIGMA, pool_seed)
                .into_chips()
                .into_iter()
                .map(|inner| BreakableChip {
                    inner,
                    broken: Arc::clone(switch),
                })
                .collect();
            // Round-robin placement: the chip sequence is a pure
            // function of the request sequence, never of measured
            // costs, so the drill replays bit-identically.
            Engine::new(ChipPool::from_chips(chips)).with_policy(RoundRobin)
        })
        .collect();
    let mut fleet = Fleet::new(engines, FleetConfig::new(seed).with_replication(2));
    let mut session = fleet.session(WORKLOAD);
    let primary = fleet.route(WORKLOAD).expect("healthy fleet routes");
    let inputs: Vec<Vec<f64>> = reps.iter().cycle().take(requests).cloned().collect();

    let serve = |fleet: &Fleet<BreakableChip>,
                 session: &mut runtime::FleetSession,
                 inputs: &[Vec<f64>]|
     -> Trace {
        fleet
            .serve_session_batch(session, inputs, None)
            .into_iter()
            .map(|item| match item {
                BatchItem::Served(served) => (
                    served.chip,
                    served.output.iter().map(|v| v.to_bits()).collect(),
                ),
                other => panic!("request lost in failover drill: {other:?}"),
            })
            .collect()
    };

    let before = serve(&fleet, &mut session, &inputs);
    // Kill every chip in the primary pool; the next recalibration
    // quarantines them all and the health check ejects the pool.
    switches[primary].store(true, Ordering::SeqCst);
    let eject_transitions = fleet.recalibrate_window(reps, 1);
    assert_eq!(
        eject_transitions,
        vec![(primary, Transition::Ejected(EjectReason::Quarantine))],
        "breaking every chip must eject exactly the primary pool"
    );
    let after = serve(&fleet, &mut session, &inputs);
    // Repair and recalibrate: the pool is re-admitted and the workload's
    // original replica set comes back.
    switches[primary].store(false, Ordering::SeqCst);
    let readmit_transitions = fleet.recalibrate_window(reps, 1);
    assert_eq!(
        readmit_transitions,
        vec![(primary, Transition::Readmitted)],
        "a clean recalibration must re-admit the repaired pool"
    );
    let recovered = serve(&fleet, &mut session, &inputs);

    // Zero requests landed on the dead pool while it was out.
    let dead_chips =
        fleet.chip_offset(primary)..fleet.chip_offset(primary) + fleet.engine(primary).pool().len();
    assert!(
        after.iter().all(|(chip, _)| !dead_chips.contains(chip)),
        "no failover request may land on the ejected pool"
    );
    // The repaired pool serves again once re-admitted.
    assert!(
        recovered.iter().any(|(chip, _)| dead_chips.contains(chip)),
        "re-admission must restore routing to the repaired pool"
    );

    DrillRecord {
        before,
        after,
        recovered,
        primary,
        transitions: vec![eject_transitions, readmit_transitions],
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let fast = fast_mode();
    let window = measure_window(if fast { 0.25 } else { 1.0 });
    let cfg = ExperimentConfig::from_env();
    let sla_target_us = prng::env::parse_or("MEI_FLEET_SLA_US", 2000.0_f64);
    let target_rps = prng::env::parse_or("MEI_FLEET_TARGET_RPS", 10_000.0_f64);

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
    let reps: Vec<Vec<f64>> = inputs[..8.min(inputs.len())].to_vec();

    eprintln!(
        "== fleet_serving: {WORKLOAD} MEI, {CHIPS_PER_POOL} chips/pool, \
         {:.2}s windows, {sla_target_us:.0} µs p99 target ==",
        window.as_secs_f64()
    );

    // -- Phase 1: SLA capacity search over 1/2/4 pools. --
    // Each fleet replicates the hot workload onto every pool
    // (replication = P) so the whole fleet shares the load.
    let pool_sizes: [usize; 3] = [1, 2, 4];
    let mut sla_reports: Vec<(usize, f64, SlaReport, bool)> = Vec::new();
    let mut sla_points: Vec<SlaPoint> = Vec::new();
    for &pools in &pool_sizes {
        let fleet = manufacture_fleet(
            &mei,
            pools,
            CHIPS_PER_POOL,
            EXPERIMENT_WRITE_SIGMA,
            FleetConfig::new(cfg.seed)
                .with_replication(pools)
                .from_env(),
        );
        let closed = closed_rate(fleet.engine(0), &inputs, window) * pools as f64;
        let ramp_config = RampConfig {
            start_rps: (closed * 0.15).max(10.0),
            growth: if fast { 1.6 } else { 1.35 },
            max_steps: if fast { 8 } else { 12 },
            knee_factor: 4.0,
        };
        let ramp = ramp_to_knee(&ramp_config, |rate| {
            fleet_measure(&fleet, &inputs, rate, window)
        });
        let sla = sla_search(
            &ramp,
            &SlaConfig {
                target_p99_us: sla_target_us,
                max_iters: if fast { 4 } else { 8 },
                rel_tol: 0.05,
            },
            |rate| fleet_measure(&fleet, &inputs, rate, window),
        );
        if sla.met {
            sla_points.push(SlaPoint {
                sla_p99_us: sla_target_us,
                max_rps_per_pool: sla.max_rps / pools as f64,
            });
        }
        sla_reports.push((pools, ramp.knee_step().offered_rps, sla, ramp.kneed));
    }

    let rows: Vec<Vec<String>> = sla_reports
        .iter()
        .map(|(pools, knee_rps, sla, _)| {
            vec![
                pools.to_string(),
                format!("{knee_rps:.0}"),
                if sla.met {
                    format!("{:.0}", sla.max_rps)
                } else {
                    "unmet".to_string()
                },
                if sla.met {
                    format!("{:.0}", sla.p99_at_max_us)
                } else {
                    "—".to_string()
                },
            ]
        })
        .collect();
    eprintln!(
        "{}",
        format_table(
            &["pools", "knee rps", "max rps @ SLA", "p99 @ max (µs)"],
            &rows
        )
    );

    // -- Phase 2: capacity planning from the recorded points. --
    let mut planner = manufacture_fleet(
        &mei,
        *pool_sizes.last().expect("sizes"),
        CHIPS_PER_POOL,
        EXPERIMENT_WRITE_SIGMA,
        FleetConfig::new(cfg.seed),
    );
    for point in &sla_points {
        planner.record_sla_point(*point);
    }
    let pools_needed = planner.pools_for(target_rps, sla_target_us);
    match pools_needed {
        Some(n) => {
            eprintln!("pools_for({target_rps:.0} rps, {sla_target_us:.0} µs p99) = {n} pools")
        }
        None => eprintln!(
            "pools_for({target_rps:.0} rps, {sla_target_us:.0} µs p99): \
             unanswerable — no measured point met the target"
        ),
    }

    // -- Phase 3: failover drill (forced quarantine, zero loss, --
    // -- bit-identical rerun). --
    let drill_requests = if fast { 24 } else { 96 };
    let first = failover_drill(&mei, cfg.seed, &reps, drill_requests);
    let second = failover_drill(&mei, cfg.seed, &reps, drill_requests);
    assert_eq!(
        first.primary, second.primary,
        "rendezvous routing must pick the same primary on a rerun"
    );
    assert_eq!(
        first.transitions, second.transitions,
        "failover transitions must replay identically"
    );
    let identical = first.before == second.before
        && first.after == second.after
        && first.recovered == second.recovered;
    assert!(
        identical,
        "the failover drill must be bit-identical across reruns"
    );
    eprintln!(
        "failover drill: primary pool {} ejected (quarantine), \
         {}+{}+{} requests served, 0 lost, rerun bit-identical",
        first.primary,
        first.before.len(),
        first.after.len(),
        first.recovered.len()
    );

    let meta = mei_bench::json::meta("fleet_serving", cfg.seed);
    let sla_json: Vec<String> = sla_reports
        .iter()
        .map(|(pools, knee_rps, sla, kneed)| {
            format!(
                "{{\"pools\":{pools},\"knee_rps\":{},\"kneed\":{kneed},\"sla\":{}}}",
                json_num(*knee_rps, 3),
                sla.to_json()
            )
        })
        .collect();
    let json = format!(
        "{{\"meta\":{meta},\"suite\":\"fleet_serving/{WORKLOAD}\",\
         \"window_secs\":{},\"chips_per_pool\":{CHIPS_PER_POOL},\
         \"sla_target_p99_us\":{},\"sla\":[{}],\
         \"pools_for\":{{\"target_rps\":{},\"sla_p99_us\":{},\"pools\":{}}},\
         \"failover\":{{\"pools\":2,\"primary\":{},\"reason\":\"quarantine\",\
         \"served_before\":{},\"served_after\":{},\"served_recovered\":{},\
         \"lost\":0,\"rerun_identical\":{identical}}}}}",
        json_num(window.as_secs_f64(), 3),
        json_num(sla_target_us, 3),
        sla_json.join(","),
        json_num(target_rps, 3),
        json_num(sla_target_us, 3),
        pools_needed.map_or_else(|| "null".to_string(), |n| n.to_string()),
        first.primary,
        first.before.len(),
        first.after.len(),
        first.recovered.len(),
    );
    println!("{json}");
    if let Ok(path) = std::env::var("MEI_BENCH_JSON") {
        if let Err(err) = std::fs::write(&path, &json) {
            panic!("cannot write MEI_BENCH_JSON report to '{path}': {err}");
        }
    }
}
