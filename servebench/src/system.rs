//! The workloads and the system each one serves: training, manufacture,
//! the 2-pool × 2-chip fleet and the in-process event server.

use std::time::Instant;

use mei::{manufacture_fleet, CnnConfig, CnnRcs, MeiConfig, MeiRcs};
use neural::{Dataset, SteConfig, TrainConfig};
use runtime::net::{ClientV2, EventServer, EventServerConfig, NetWorkload};
use runtime::{
    AdmissionConfig, Chip, ChipCostSheet, ChipPool, Engine, Fleet, FleetConfig, LeastLoaded,
};
use servebench::trace::{CountedPolicy, TimedChip};

/// Which trained system a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Table 1 inversek2j MEI RCS (2×8-bit in, hidden 32, 2×8-bit out).
    Mlp,
    /// The tiled ternary CNN (16×16, stride 2, 6 filters, 3 tiles,
    /// hidden 12).
    Cnn,
}

/// Which wire protocol a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Wire protocol v2: pipelined binary batch frames.
    V2,
    /// Wire protocol v1: one text line per request.
    V1,
}

/// One benchmark workload. The values are fixed here and recorded in
/// `BENCHMARK.json`; see `README.md` for why each was chosen.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// CLI name.
    pub name: &'static str,
    /// The served system.
    pub kind: Kind,
    /// The protocol of the timed phases.
    pub protocol: Protocol,
    /// Requests per frame in the closed phase (v2).
    pub closed_frame: usize,
    /// Frames in flight in the closed phase (v2).
    pub depth: usize,
    /// Requests per frame in the open phases (1 for v1 lines).
    pub open_frame: usize,
    /// Offered rate of the fixed-rate open phase, req/s (v2 only).
    pub fixed_rps: f64,
    /// p99 limit of the `slo_rps` search, µs.
    pub slo_limit_us: f64,
    /// Coarse open-loop rates the search brackets from, req/s.
    pub slo_steps: [f64; 3],
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "mlp-pipelined",
        kind: Kind::Mlp,
        protocol: Protocol::V2,
        closed_frame: 48,
        depth: 4,
        open_frame: 16,
        fixed_rps: 6_000.0,
        slo_limit_us: 20_000.0,
        slo_steps: [4_000.0, 18_000.0, 30_000.0],
    },
    Spec {
        name: "cnn-pipelined",
        kind: Kind::Cnn,
        protocol: Protocol::V2,
        closed_frame: 56,
        depth: 4,
        open_frame: 4,
        fixed_rps: 2_000.0,
        slo_limit_us: 20_000.0,
        slo_steps: [1_000.0, 5_000.0, 8_000.0],
    },
    Spec {
        name: "mlp-roundtrip",
        kind: Kind::Mlp,
        protocol: Protocol::V1,
        closed_frame: 64,
        depth: 1,
        open_frame: 1,
        fixed_rps: 0.0,
        slo_limit_us: 20_000.0,
        slo_steps: [250.0, 2_500.0, 5_000.0],
    },
];

/// Look a workload up by name.
#[must_use]
pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// The cost sheet each chip kind must bill (area µm², leakage µW,
/// J/inference). These are modelled Eq (6)/(7) figures, a function of the
/// topology alone, so no host or seed may change them.
#[must_use]
pub fn recorded_sheet(kind: Kind) -> (f64, f64, f64) {
    match kind {
        Kind::Mlp => (
            15_210.624_000_000_002,
            1_182.720_000_000_000_3,
            8.927_232e-11,
        ),
        Kind::Cnn => (
            20_666.172_000_000_002,
            1_108.800_000_000_000_2,
            3.593_559_6e-10,
        ),
    }
}

/// A trained system. A handful exist per run, so the size difference
/// between the variants does not matter.
#[derive(Clone)]
#[allow(clippy::large_enum_variant)]
pub enum Model {
    /// The MEI MLP.
    Mlp(MeiRcs),
    /// The tiled CNN.
    Cnn(CnnRcs),
}

/// A trained system plus the held-out set its requests cycle.
pub struct System {
    /// The trained master.
    pub model: Model,
    /// Held-out inputs and targets, drawn from the seed.
    pub held_out: Dataset,
}

impl System {
    /// The held-out inputs (the request sequence cycles them).
    #[must_use]
    pub fn inputs(&self) -> &[Vec<f64>] {
        self.held_out.inputs()
    }
}

impl Kind {
    /// The workload name the server announces.
    #[must_use]
    pub fn wire_name(self) -> &'static str {
        match self {
            Kind::Mlp => "inversek2j",
            Kind::Cnn => "cnn16",
        }
    }
}

/// The CNN configuration of the committed `cnn_serving` bench, seeded.
fn cnn_config(seed: u64) -> CnnConfig {
    CnnConfig {
        in_h: 16,
        in_w: 16,
        hidden: 12,
        stride: 2,
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
        seed,
        ..CnnConfig::default()
    }
}

/// Train `kind` from `seed`: training data from the seed, held-out data
/// from `seed + 1` (the committed benches' convention).
///
/// # Panics
///
/// Panics if training fails (a benchmark bug, not a measured outcome).
#[must_use]
pub fn train(kind: Kind, seed: u64) -> System {
    let held_seed = seed.wrapping_add(1);
    match kind {
        Kind::Mlp => {
            // Trained as the `throughput` bench trains it.
            let setup = mei_bench::table1_setups()
                .into_iter()
                .find(|s| s.workload.name() == "inversek2j")
                .expect("inversek2j is a Table 1 row");
            let train = setup.workload.dataset(1_500, seed).expect("train data");
            let held_out = setup
                .workload
                .dataset(256, held_seed)
                .expect("held-out data");
            let rcs = MeiRcs::train(
                &train,
                &MeiConfig {
                    hidden: setup.mei_hidden,
                    in_bits: setup.mei_in_bits,
                    out_bits: setup.mei_out_bits,
                    train: TrainConfig {
                        epochs: 60,
                        learning_rate: 0.8,
                        ..TrainConfig::default()
                    },
                    seed,
                    ..MeiConfig::default()
                },
            )
            .expect("MEI training");
            System {
                model: Model::Mlp(rcs),
                held_out,
            }
        }
        Kind::Cnn => {
            let config = cnn_config(seed);
            let train = workloads::cnn_dataset(config.in_w, config.in_h, 150, seed);
            let held_out = workloads::cnn_dataset(config.in_w, config.in_h, 75, held_seed);
            let rcs = CnnRcs::train(&train, &config).expect("CNN training");
            System {
                model: Model::Cnn(rcs),
                held_out,
            }
        }
    }
}

/// Pools, chips per pool and replica count of every served fleet.
pub const POOLS: usize = 2;
/// Chips per pool.
pub const CHIPS_PER_POOL: usize = 2;
/// Replica count `R`.
pub const REPLICATION: usize = 2;

/// Admission bound: a request is shed only if its estimated wait passes
/// 250 ms, and the gate's virtual chips retire 10⁷ requests/s each —
/// far beyond anything a healthy run offers, so the gate runs on every
/// request and never trips.
fn admission(input_dim: usize) -> AdmissionConfig {
    AdmissionConfig {
        max_delay_secs: 0.25,
        secs_per_cost: 1e-7 / input_dim as f64,
    }
}

fn boxed_fleet<T>(
    rcs: &T,
    write_sigma: f64,
    seed: u64,
    input_dim: usize,
    timed: bool,
) -> Fleet<Box<dyn Chip>>
where
    T: mei::Rcs + Chip + Clone + 'static,
{
    let config = FleetConfig::new(seed).with_replication(REPLICATION);
    let engines = manufacture_fleet(rcs, POOLS, CHIPS_PER_POOL, write_sigma, config)
        .into_engines()
        .into_iter()
        .map(|engine| {
            let chips: Vec<Box<dyn Chip>> = engine
                .into_pool()
                .into_chips()
                .into_iter()
                .map(|chip| -> Box<dyn Chip> {
                    if timed {
                        Box::new(TimedChip::new(chip))
                    } else {
                        Box::new(chip)
                    }
                })
                .collect();
            let engine =
                Engine::new(ChipPool::from_chips(chips)).with_admission(admission(input_dim));
            if timed {
                engine.with_policy(CountedPolicy::new(LeastLoaded))
            } else {
                engine.with_policy(LeastLoaded)
            }
        })
        .collect();
    Fleet::new(engines, config)
}

/// Manufacture the 2-pool × 2-chip fleet for `system` from `seed`. MLP
/// chips carry the experiments' 2% write noise, as `throughput`
/// manufactures them; CNN chips are ideal, so the served accuracy must
/// equal the digital twin's. `timed` wraps every chip and placement
/// policy in the tracing wrappers.
#[must_use]
pub fn fleet(system: &System, seed: u64, timed: bool) -> Fleet<Box<dyn Chip>> {
    let dim = system.held_out.input_dim();
    match &system.model {
        Model::Mlp(rcs) => boxed_fleet(rcs, mei_bench::EXPERIMENT_WRITE_SIGMA, seed, dim, timed),
        Model::Cnn(rcs) => boxed_fleet(rcs, 0.0, seed, dim, timed),
    }
}

/// The first chip's cost sheet.
///
/// # Panics
///
/// Panics if the chip bills no sheet (both kinds do).
#[must_use]
pub fn chip_sheet(fleet: &Fleet<Box<dyn Chip>>) -> ChipCostSheet {
    fleet.engine(0).pool().chips()[0]
        .cost_sheet()
        .expect("MEI and CNN chips are accounted")
}

/// Register `fleet` under the kind's wire name.
#[must_use]
pub fn net_workload(kind: Kind, input_dim: usize, fleet: Fleet<Box<dyn Chip>>) -> NetWorkload {
    NetWorkload::fleet(kind.wire_name(), input_dim, fleet)
}

/// Bind an event server on an ephemeral loopback port and wait until it
/// answers a v2 negotiation.
///
/// # Errors
///
/// Propagates bind and connect errors.
pub fn serve(workload: NetWorkload) -> std::io::Result<EventServer> {
    let server = EventServer::bind("127.0.0.1:0", vec![workload], EventServerConfig::default())?;
    match ClientV2::connect(server.addr()) {
        Ok(_) => Ok(server),
        Err(e) => {
            server.shutdown();
            Err(e)
        }
    }
}

/// One timed set-up: train, manufacture and bind until the server
/// accepts. Returns the system, the server, the cost sheet of its chips
/// and the seconds it took.
///
/// # Errors
///
/// Propagates socket errors.
pub fn setup(kind: Kind, seed: u64) -> std::io::Result<(System, EventServer, ChipCostSheet, f64)> {
    let start = Instant::now();
    let system = train(kind, seed);
    let fleet = fleet(&system, seed, false);
    let sheet = chip_sheet(&fleet);
    let server = serve(net_workload(kind, system.held_out.input_dim(), fleet))?;
    Ok((system, server, sheet, start.elapsed().as_secs_f64()))
}
