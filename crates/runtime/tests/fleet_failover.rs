//! The fleet failover acceptance scenario, end to end: a three-pool
//! fleet loses every chip in one pool, recalibration quarantines and
//! ejects the pool, and serving continues with **zero lost requests** —
//! no survivor request ever lands in the dead pool's global chip range,
//! the whole scenario replays bit-identically, and a clean
//! recalibration re-admits the pool with its original routing restored.
//!
//! The second half pins the network face: a fleet-backed
//! [`NetWorkload`] behind the event server serves the same bits on
//! every fresh server, because each connection owns its
//! [`runtime::FleetSession`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use runtime::net::frame::ItemResponse;
use runtime::net::{ClientV2, EventServer, EventServerConfig, NetWorkload};
use runtime::{
    Chip, ChipPool, EjectReason, Engine, Fleet, FleetConfig, PoolHealth, RoundRobin, Transition,
};

const POOLS: usize = 3;
const CHIPS_PER_POOL: usize = 2;
const WORKLOAD: &str = "inversek2j";

/// A deterministic toy chip that can be broken at runtime: `infer`
/// panics while `broken` is set, which is exactly the signal the cost
/// model's calibration quarantines on.
struct BreakableChip {
    tag: f64,
    broken: Arc<AtomicBool>,
}

impl Chip for BreakableChip {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        assert!(
            !self.broken.load(Ordering::SeqCst),
            "chip failed (fault injection)"
        );
        input.iter().map(|x| x * 10.0 + self.tag).collect()
    }
}

/// Build the standard three-pool fleet plus one kill switch per pool.
/// Round-robin placement keeps chip choice a pure function of the
/// request sequence, so reruns are bit-comparable even though the cost
/// model re-measures noisy wall-clock timings.
fn breakable_fleet(seed: u64) -> (Fleet<BreakableChip>, Vec<Arc<AtomicBool>>) {
    let mut switches = Vec::new();
    let engines: Vec<Engine<BreakableChip>> = (0..POOLS)
        .map(|pool| {
            let broken = Arc::new(AtomicBool::new(false));
            switches.push(Arc::clone(&broken));
            let chips: Vec<BreakableChip> = (0..CHIPS_PER_POOL)
                .map(|c| BreakableChip {
                    tag: (pool * CHIPS_PER_POOL + c) as f64,
                    broken: Arc::clone(&broken),
                })
                .collect();
            Engine::new(ChipPool::from_chips(chips)).with_policy(RoundRobin)
        })
        .collect();
    let fleet = Fleet::new(engines, FleetConfig::new(seed).with_replication(2));
    (fleet, switches)
}

/// One request's observable outcome: `(global chip, output bits)`.
type Trace = Vec<(usize, Vec<u64>)>;

fn serve_n(fleet: &Fleet<BreakableChip>, session: &mut runtime::FleetSession, n: usize) -> Trace {
    (0..n)
        .map(|i| {
            let input = vec![0.125 * i as f64, -0.25];
            let served = fleet.serve_one(session, &input);
            (
                served.chip,
                served.output.iter().map(|x| x.to_bits()).collect(),
            )
        })
        .collect()
}

/// Run the full scenario once: serve, kill the session's primary pool,
/// recalibrate (eject), serve, repair, recalibrate (re-admit), serve.
/// Returns the three traces plus the ejected pool's index.
fn failover_scenario(seed: u64) -> (usize, Trace, Trace, Trace) {
    let (mut fleet, switches) = breakable_fleet(seed);
    let reps: Vec<Vec<f64>> = vec![vec![0.5, 0.5]];
    let mut session = fleet.session(WORKLOAD);
    let primary = fleet.next_pool(&session);
    let replicas_before = fleet.replicas(WORKLOAD);

    let before = serve_n(&fleet, &mut session, 30);
    // Every request stayed on the two replicas.
    for (chip, _) in &before {
        assert!(
            replicas_before.contains(&fleet.pool_of_chip(*chip)),
            "request escaped the replica set"
        );
    }

    // Kill every chip in the primary pool; recalibration must
    // quarantine them all and eject exactly that pool.
    switches[primary].store(true, Ordering::SeqCst);
    let transitions = fleet.recalibrate_window(&reps, 1);
    assert_eq!(
        transitions,
        vec![(primary, Transition::Ejected(EjectReason::Quarantine))],
        "the dead pool and only the dead pool must eject"
    );
    assert!(matches!(
        fleet.health(primary),
        PoolHealth::Ejected {
            reason: EjectReason::Quarantine,
            ..
        }
    ));
    assert_eq!(fleet.healthy().len(), POOLS - 1);

    // Zero lost requests: every post-ejection request serves, and none
    // lands in the dead pool's global chip range.
    let dead_lo = fleet.chip_offset(primary);
    let dead_hi = dead_lo + CHIPS_PER_POOL;
    let after = serve_n(&fleet, &mut session, 30);
    assert_eq!(after.len(), 30, "no request may be lost during failover");
    for (chip, _) in &after {
        assert!(
            !(dead_lo..dead_hi).contains(chip),
            "request routed to ejected pool (chip {chip})"
        );
    }

    // Repair and recalibrate: the pool comes back and routing is
    // restored — the replica set equals the pre-failure one.
    switches[primary].store(false, Ordering::SeqCst);
    let transitions = fleet.recalibrate_window(&reps, 1);
    assert_eq!(transitions, vec![(primary, Transition::Readmitted)]);
    assert_eq!(fleet.health(primary), PoolHealth::Healthy);
    assert_eq!(
        fleet.replicas(WORKLOAD),
        replicas_before,
        "re-admission must restore the original routing"
    );
    let recovered = serve_n(&fleet, &mut session, 30);
    assert!(
        recovered
            .iter()
            .any(|(chip, _)| (dead_lo..dead_hi).contains(chip)),
        "the re-admitted pool must receive traffic again"
    );

    (primary, before, after, recovered)
}

/// The acceptance criterion: quarantining every chip in one pool of a
/// three-pool fleet loses zero requests, and the survivors' routing is
/// bit-identical across independent reruns of the whole scenario.
#[test]
fn failover_loses_nothing_and_replays_bit_identically() {
    let first = failover_scenario(42);
    let second = failover_scenario(42);
    assert_eq!(first.0, second.0, "the primary pool is deterministic");
    assert_eq!(first.1, second.1, "pre-failure traffic must replay");
    assert_eq!(first.2, second.2, "failover traffic must replay");
    assert_eq!(first.3, second.3, "recovery traffic must replay");
    // A different seed routes differently — the seed is load-bearing.
    let other = failover_scenario(43);
    assert!(
        other.1 != first.1 || other.0 != first.0,
        "the fleet seed must steer routing"
    );
}

/// With replication R = fleet size, ejecting one pool must not touch
/// the rotation order of the survivors: rendezvous ranking minus the
/// victim is the survivors' ranking (the router's minimal-disruption
/// invariant, observed through the serving API).
#[test]
fn ejection_preserves_survivor_rotation_order() {
    let (mut fleet, _switches) = breakable_fleet(7);
    let all = {
        let mut f = *fleet.config();
        f.replication = POOLS;
        f
    };
    let fleet_all = {
        let (f, _s) = breakable_fleet(7);
        let engines: Vec<Engine<BreakableChip>> = f.into_engines();
        Fleet::new(engines, all)
    };
    let before = fleet_all.replicas(WORKLOAD);
    fleet.eject(before[0], EjectReason::Manual);
    // Survivor order in the full ranking, with the victim removed …
    let expect: Vec<usize> = before.iter().copied().filter(|&p| p != before[0]).collect();
    // … must equal the ejected fleet's (replication-2) replica set.
    assert_eq!(
        fleet.replicas(WORKLOAD),
        &expect[..2.min(expect.len())],
        "survivors must keep their rendezvous order"
    );
}

/// A fleet-backed workload behind the event server: two fresh servers
/// answer with the same bits, and the global chip ids on the wire
/// partition by pool exactly as `Fleet::chip_offset` predicts.
#[test]
fn fresh_event_servers_serve_identical_fleet_bits() {
    let serve = || -> Vec<(u32, Vec<u64>)> {
        let (fleet, _switches) = breakable_fleet(5);
        let engines: Vec<Engine<Box<dyn Chip>>> = fleet
            .into_engines()
            .into_iter()
            .map(|engine| Engine::new(engine.into_pool().boxed()).with_policy(RoundRobin))
            .collect();
        let boxed = Fleet::new(engines, FleetConfig::new(5).with_replication(2));
        let server = EventServer::bind(
            "127.0.0.1:0",
            vec![NetWorkload::fleet(WORKLOAD, 2, boxed)],
            EventServerConfig::default(),
        )
        .expect("bind event server");
        let mut client = ClientV2::connect(server.addr()).expect("negotiate v2");
        let inputs: Vec<Vec<f64>> = (0..12).map(|i| vec![0.5 * i as f64, 0.25]).collect();
        let mut served = Vec::new();
        // Uneven pipelined frames: framing must not leak into routing.
        for chunk in [&inputs[..5], &inputs[5..6], &inputs[6..]] {
            for item in client.request_batch(WORKLOAD, chunk).expect("round trip") {
                match item {
                    ItemResponse::Ok { chip, output, .. } => {
                        served.push((chip, output.iter().map(|x| x.to_bits()).collect()));
                    }
                    other => panic!("request not served: {other:?}"),
                }
            }
        }
        drop(client);
        server.shutdown();
        served
    };
    let first = serve();
    let second = serve();
    assert_eq!(
        first, second,
        "per-connection fleet sessions make bits a function of the requests"
    );
    // Replication 2 over 3 pools: the wire must show exactly two pools'
    // global chip ranges.
    let pools: std::collections::BTreeSet<usize> = first
        .iter()
        .map(|(chip, _)| *chip as usize / CHIPS_PER_POOL)
        .collect();
    assert_eq!(pools.len(), 2, "exactly the two replicas serve: {pools:?}");
}
