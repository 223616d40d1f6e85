//! Fleet quickstart: route one workload across several chip pools with
//! replication, survive a pool failure, and plan capacity against an
//! SLA target.
//!
//! The fleet layer (`runtime::fleet`) sits above the serving engine:
//!
//! ```text
//! Fleet ─ rendezvous router + health ─┬─ Engine (pool 0) ── chips 0..k
//!                                     ├─ Engine (pool 1) ── chips k..2k
//!                                     └─ Engine (pool 2) ── chips 2k..3k
//! ```
//!
//! A workload key is served by its top-R rendezvous-ranked healthy
//! pools; requests rotate across those replicas deterministically, and
//! responses carry **global** chip ids (`pool offset + local chip`).
//! Ejecting a pool moves only the keys that ranked it — the survivors'
//! routing never changes — and re-admission restores the original
//! placement exactly.
//!
//! Run with: `cargo run --release --example serve_fleet`

use mei::{manufacture_fleet, MeiConfig, MeiRcs};
use neural::{Dataset, TrainConfig};
use prng::rngs::StdRng;
use prng::{Rng, SeedableRng};
use runtime::net::frame::ItemResponse;
use runtime::net::{ClientV2, EventServer, EventServerConfig, NetWorkload};
use runtime::{EjectReason, Engine, Fleet, FleetConfig, SlaPoint};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Train a small MEI system on exp(−x²), as in the serve_tcp example.
    let mut rng = StdRng::seed_from_u64(1);
    let train = Dataset::generate(1_500, &mut rng, |r| {
        let x: f64 = r.gen();
        (vec![x], vec![(-x * x).exp()])
    })?;
    let mei = MeiRcs::train(
        &train,
        &MeiConfig {
            hidden: 8,
            seed: 1,
            train: TrainConfig {
                epochs: 40,
                learning_rate: 0.8,
                ..TrainConfig::default()
            },
            ..MeiConfig::default()
        },
    )?;

    // Three pools of two chips each, replication 2: the workload lands
    // on its two top-ranked pools and rotates between them.
    let config = FleetConfig::new(42).with_replication(2).from_env();
    // The event server takes type-erased chips: box each pool.
    let engines = manufacture_fleet(&mei, 3, 2, 0.02, config)
        .into_engines()
        .into_iter()
        .map(|engine| Engine::new(engine.into_pool().boxed()))
        .collect();
    let mut fleet = Fleet::new(engines, config);
    println!(
        "fleet: {} pools, {} chips total, replicas for 'expfit' = {:?}",
        fleet.len(),
        fleet.total_chips(),
        fleet.replicas("expfit")
    );

    let mut session = fleet.session("expfit");
    for i in 0..4 {
        let x = f64::from(i) / 4.0;
        let served = fleet.serve_one(&mut session, &[x]);
        println!(
            "expfit({x:.2}) = {:.4}  (exact {:.4}, pool {}, global chip {})",
            served.output[0],
            (-x * x).exp(),
            fleet.pool_of_chip(served.chip),
            served.chip
        );
    }

    // Failover: eject the session's current primary. Only keys that
    // ranked the victim move; the survivors keep serving untouched.
    let primary = fleet.next_pool(&session);
    fleet.eject(primary, EjectReason::Manual);
    println!(
        "\nejected pool {primary}; replicas now {:?}",
        fleet.replicas("expfit")
    );
    let served = fleet.serve_one(&mut session, &[0.5]);
    println!(
        "expfit(0.50) survived on pool {} (global chip {})",
        fleet.pool_of_chip(served.chip),
        served.chip
    );
    fleet.readmit(primary);
    println!(
        "re-admitted pool {primary}; replicas restored to {:?}",
        fleet.replicas("expfit")
    );

    // Capacity planning: feed measured SLA points (normally produced by
    // the fleet_serving bench's SLA search) and ask how many pools a
    // target load needs.
    fleet.record_sla_point(SlaPoint {
        sla_p99_us: 2_000.0,
        max_rps_per_pool: 90_000.0,
    });
    let target_rps = 200_000.0;
    match fleet.pools_for(target_rps, 2_000.0) {
        Some(pools) => println!("\n{target_rps} req/s under a 2 ms p99 needs {pools} pools"),
        None => println!("\nno recorded SLA point meets a 2 ms p99"),
    }

    // The same fleet behind the event-driven front-end: the wire
    // carries global chip ids, so clients see fleet placement with no
    // protocol change.
    let server = EventServer::bind(
        "127.0.0.1:0",
        vec![NetWorkload::fleet("expfit", 1, fleet)],
        EventServerConfig::default(),
    )?;
    println!("\nserving the fleet (protocol v2) on {}", server.addr());
    let mut client = ClientV2::connect(server.addr())?;
    let inputs: Vec<Vec<f64>> = (0..4).map(|i| vec![f64::from(i) / 4.0]).collect();
    for (input, item) in inputs.iter().zip(client.request_batch("expfit", &inputs)?) {
        match item {
            ItemResponse::Ok { chip, output, .. } => println!(
                "expfit({:.2}) = {:.4}  (global chip {chip})",
                input[0], output[0]
            ),
            other => println!("expfit({:.2}) → {other:?}", input[0]),
        }
    }
    drop(client);
    server.shutdown();
    println!("fleet server drained and shut down");
    Ok(())
}
