//! Serving integration: the trained architectures as [`runtime::Chip`]s,
//! and chip-pool manufacturing with per-chip write-noise draws.
//!
//! A deployment serves inference from *manufactured* chips: every chip is
//! programmed from the same trained weights but carries its own
//! program-and-verify (write-accuracy) noise draw. [`manufacture_chips`]
//! builds such a pool from any trained [`Rcs`]: chip `i` is disturbed
//! with a generator derived from `(root_seed, i)`, so chip `i` is the
//! same physical device on every run and for every pool size — the
//! serving-side face of the workspace's deterministic-parallelism rule.

use std::cell::RefCell;

use interface::{CostModel, Throughput};
use prng::rngs::StdRng;
use prng::SeedableRng;
use rram::VariationModel;
use runtime::{
    Chip, ChipCostSheet, ChipPool, DriftProfile, DriftingChip, Engine, Fleet, FleetConfig,
};

use crate::adda::AddaRcs;
use crate::analog::AnalogWorkspace;
use crate::cnn::{CnnRcs, CnnWorkspace};
use crate::digital::DigitalAnn;
use crate::eval::Rcs;
use crate::mei_arch::MeiRcs;
use crate::saab::Saab;

thread_local! {
    /// Per-worker analog scratch: `Chip::infer` takes `&self` (chips are
    /// shared across serving threads), so the workspace that makes the
    /// crossbar matvec allocation-free lives per thread, sized once by the
    /// largest layer the thread serves.
    static SERVE_WORKSPACE: RefCell<AnalogWorkspace> = RefCell::new(AnalogWorkspace::new());

    /// The CNN counterpart: conv tiling buffers plus head scratch.
    static CNN_SERVE_WORKSPACE: RefCell<CnnWorkspace> = RefCell::new(CnnWorkspace::new());
}

/// Translate an interface-crate [`interface::CostSheet`] (valued from the
/// paper's Eq (6)/(7) at the default mixed-signal throughput) into the
/// runtime's plain-numbers [`ChipCostSheet`]. This is the one bridge
/// between the physics silo and the serving-time accounting layer —
/// `runtime` cannot depend on `interface`, so the mapping lives here.
fn to_runtime_sheet(sheet: interface::CostSheet) -> ChipCostSheet {
    ChipCostSheet::new(
        sheet.area_um2,
        sheet.static_power_uw,
        sheet.dynamic_j_per_evaluation,
        sheet.ops_per_evaluation,
    )
}

impl Chip for MeiRcs {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        SERVE_WORKSPACE
            .with(|ws| MeiRcs::infer_with(self, input, &mut ws.borrow_mut()))
            .expect("dataset-validated input")
    }

    fn cost_sheet(&self) -> Option<ChipCostSheet> {
        let sheet =
            CostModel::dac2015().sheet_mei(&self.topology(), &Throughput::default_mixed_signal());
        Some(to_runtime_sheet(sheet))
    }

    fn wear(&self) -> Option<u64> {
        Some(self.analog().total_writes())
    }
}

impl Chip for AddaRcs {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        SERVE_WORKSPACE
            .with(|ws| AddaRcs::infer_with(self, input, &mut ws.borrow_mut()))
            .expect("dataset-validated input")
    }

    fn cost_sheet(&self) -> Option<ChipCostSheet> {
        let sheet =
            CostModel::dac2015().sheet_adda(&self.topology(), &Throughput::default_mixed_signal());
        Some(to_runtime_sheet(sheet))
    }
}

impl Chip for Saab {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        Saab::infer(self, input).expect("dataset-validated input")
    }

    // A SAAB chip is its learners side by side: one inference evaluates
    // every (non-pruned) learner, so the sheets sum in learner order.
    fn cost_sheet(&self) -> Option<ChipCostSheet> {
        let model = CostModel::dac2015();
        let throughput = Throughput::default_mixed_signal();
        let mut area_um2 = 0.0;
        let mut static_uw = 0.0;
        let mut dynamic_j = 0.0;
        let mut ops = 0.0;
        for learner in self.learners() {
            let sheet = model.sheet_mei(&learner.topology(), &throughput);
            area_um2 += sheet.area_um2;
            static_uw += sheet.static_power_uw;
            dynamic_j += sheet.dynamic_j_per_evaluation;
            ops += sheet.ops_per_evaluation;
        }
        Some(ChipCostSheet::new(area_um2, static_uw, dynamic_j, ops))
    }
}

impl Chip for CnnRcs {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        CNN_SERVE_WORKSPACE
            .with(|ws| CnnRcs::infer_with(self, input, &mut ws.borrow_mut()))
            .expect("dataset-validated input")
    }

    // The CNN chip is its conv tiles plus its head side by side: each
    // tile is costed as a 1-bit-input stage with a `tile_bits`-wide sense
    // interface (the Eq (6)/(7) machinery applied per tile), the head as
    // a regular MEI stack. One inference evaluates all of them.
    fn cost_sheet(&self) -> Option<ChipCostSheet> {
        let model = CostModel::dac2015();
        let throughput = Throughput::default_mixed_signal();
        let mut area_um2 = 0.0;
        let mut static_uw = 0.0;
        let mut dynamic_j = 0.0;
        let mut ops = 0.0;
        for topology in self
            .tile_topologies()
            .iter()
            .chain(std::iter::once(&self.head_topology()))
        {
            let sheet = model.sheet_mei(topology, &throughput);
            area_um2 += sheet.area_um2;
            static_uw += sheet.static_power_uw;
            dynamic_j += sheet.dynamic_j_per_evaluation;
            ops += sheet.ops_per_evaluation;
        }
        Some(ChipCostSheet::new(area_um2, static_uw, dynamic_j, ops))
    }

    fn wear(&self) -> Option<u64> {
        Some(CnnRcs::total_writes(self))
    }
}

// The digital baseline carries an explicit all-zero sheet rather than
// `None`: the paper publishes no area/power model for it, and inventing
// one would corrupt the mixed-signal comparisons — but an unaccounted
// chip silently lands in `chips − known_chips`, which reads as an
// accounting bug in fleet_cost-style reports. Zero cost states the truth
// ("present, free in this model") and keeps `known_chips == chips`.
impl Chip for DigitalAnn {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        DigitalAnn::infer(self, input)
    }

    fn cost_sheet(&self) -> Option<ChipCostSheet> {
        Some(ChipCostSheet::new(0.0, 0.0, 0.0, 0.0))
    }
}

/// Manufacture a pool of `chips` instances of a trained system: each chip
/// is a clone of `rcs` disturbed by lognormal write noise of level
/// `write_sigma` under its `(root_seed, chip_index)`-derived stream.
/// `write_sigma = 0` yields identical ideal chips.
///
/// # Panics
///
/// Panics if `chips` is zero.
pub fn manufacture_chips<T>(rcs: &T, chips: usize, write_sigma: f64, root_seed: u64) -> ChipPool<T>
where
    T: Rcs + Chip + Clone,
{
    let variation = VariationModel::process_variation(write_sigma);
    ChipPool::manufacture(root_seed, chips, |_, chip_seed| {
        let mut chip = rcs.clone();
        if !variation.is_ideal() {
            let mut rng = StdRng::seed_from_u64(chip_seed);
            chip.disturb(&variation, &mut rng);
        }
        chip
    })
}

/// Manufacture a pool (as [`manufacture_chips`]) and wrap it in a
/// serving [`Engine`] with the default least-loaded policy over the
/// input-length cost proxy. Rebind policy/cost model with the engine's
/// `with_*` builders; `.calibrated(...)` fits a measured cost model for
/// the size-aware policy.
///
/// # Panics
///
/// Panics if `chips` is zero.
pub fn manufacture_engine<T>(rcs: &T, chips: usize, write_sigma: f64, root_seed: u64) -> Engine<T>
where
    T: Rcs + Chip + Clone,
{
    Engine::new(manufacture_chips(rcs, chips, write_sigma, root_seed))
}

/// [`manufacture_engine`], but over type-erased chips — the form
/// `runtime::net::NetWorkload` takes, and the one that lets chips of
/// several trained systems share a pool.
///
/// # Panics
///
/// Panics if `chips` is zero.
pub fn manufacture_boxed_engine<T>(
    rcs: &T,
    chips: usize,
    write_sigma: f64,
    root_seed: u64,
) -> Engine<Box<dyn Chip>>
where
    T: Rcs + Chip + Clone + 'static,
{
    Engine::new(manufacture_chips(rcs, chips, write_sigma, root_seed).boxed())
}

/// Salt folded into a fleet's root seed before deriving per-pool
/// manufacturing seeds, so pool substreams never collide with any other
/// consumer of the same root seed (routing draws, chip write noise).
const FLEET_POOL_SALT: u64 = 0x4D45_495F_504F_4F4C; // "MEI_POOL"

/// Manufacture `pools` independent chip pools (as
/// [`manufacture_engine`], pool `p` seeded from
/// `substream(config.seed ^ SALT, p)`) and assemble them into a serving
/// [`Fleet`] routed under `config`. Pool `p` holds the same physical
/// devices on every run and for every fleet size — the fleet-level face
/// of the manufacturing determinism rule.
///
/// # Panics
///
/// Panics if `pools` or `chips_per_pool` is zero.
pub fn manufacture_fleet<T>(
    rcs: &T,
    pools: usize,
    chips_per_pool: usize,
    write_sigma: f64,
    config: FleetConfig,
) -> Fleet<T>
where
    T: Rcs + Chip + Clone,
{
    assert!(pools > 0, "a fleet needs a pool");
    let engines = (0..pools)
        .map(|p| {
            let pool_seed = prng::substream(config.seed ^ FLEET_POOL_SALT, p as u64);
            manufacture_engine(rcs, chips_per_pool, write_sigma, pool_seed)
        })
        .collect();
    Fleet::new(engines, config)
}

/// [`manufacture_fleet`], but over type-erased chips — the form
/// `runtime::net::NetWorkload::fleet` takes.
///
/// # Panics
///
/// Panics if `pools` or `chips_per_pool` is zero.
pub fn manufacture_boxed_fleet<T>(
    rcs: &T,
    pools: usize,
    chips_per_pool: usize,
    write_sigma: f64,
    config: FleetConfig,
) -> Fleet<Box<dyn Chip>>
where
    T: Rcs + Chip + Clone + 'static,
{
    assert!(pools > 0, "a fleet needs a pool");
    let engines = (0..pools)
        .map(|p| {
            let pool_seed = prng::substream(config.seed ^ FLEET_POOL_SALT, p as u64);
            Engine::new(manufacture_chips(rcs, chips_per_pool, write_sigma, pool_seed).boxed())
        })
        .collect();
    Fleet::new(engines, config)
}

/// Manufacture a pool (as [`manufacture_chips`]) and wrap every chip in
/// a [`DriftingChip`] with retention drift `profile`, each chip's drift
/// severity drawn from its `(root_seed, chip_index)` substream — the
/// same seed that drew its write noise, salted to a distinct stream. The
/// result is an [`Engine`] whose chips age deterministically as the
/// engine's serving window advances (`Engine::advance_window` /
/// `Engine::recalibrate_window`); at window 0 outputs are bit-identical
/// to [`manufacture_engine`] over the same arguments.
///
/// # Panics
///
/// Panics if `chips` is zero.
pub fn manufacture_drifting_engine<T>(
    rcs: &T,
    chips: usize,
    write_sigma: f64,
    root_seed: u64,
    profile: DriftProfile,
) -> Engine<DriftingChip<T>>
where
    T: Rcs + Chip + Clone,
{
    let variation = VariationModel::process_variation(write_sigma);
    let pool = ChipPool::manufacture(root_seed, chips, |_, chip_seed| {
        let mut chip = rcs.clone();
        if !variation.is_ideal() {
            let mut rng = StdRng::seed_from_u64(chip_seed);
            chip.disturb(&variation, &mut rng);
        }
        DriftingChip::new(chip, profile, chip_seed)
    });
    Engine::new(pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mei_arch::MeiConfig;
    use neural::Dataset;
    use prng::Rng;
    use runtime::{LeastLoaded, RoundRobin};

    fn expfit_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::generate(n, &mut rng, |r| {
            let x: f64 = r.gen();
            (vec![x], vec![(-x * x).exp()])
        })
        .unwrap()
    }

    #[test]
    fn chip_infer_matches_rcs_infer() {
        let data = expfit_data(200, 1);
        let rcs = MeiRcs::train(&data, &MeiConfig::quick_test()).unwrap();
        let direct = MeiRcs::infer(&rcs, &[0.3]).unwrap();
        let chip: &dyn Chip = &rcs;
        assert_eq!(chip.infer(&[0.3]), direct);
    }

    #[test]
    fn cnn_chips_serve_bill_and_report_wear() {
        let data = workloads::cnn_dataset(8, 8, 12, 5);
        let rcs = crate::cnn::CnnRcs::train(&data, &crate::cnn::CnnConfig::quick_test()).unwrap();
        let (x, _) = data.iter().next().unwrap();
        // Chip::infer matches the direct path and rides per-thread scratch.
        let chip: &dyn Chip = &rcs;
        assert_eq!(chip.infer(x), rcs.infer(x).unwrap());
        // The sheet sums the per-tile stages and the head, so it must
        // strictly exceed the head alone.
        let sheet = chip.cost_sheet().expect("CNN chips are accounted");
        let head_only = interface::CostModel::dac2015()
            .sheet_mei(&rcs.head_topology(), &Throughput::default_mixed_signal());
        assert!(sheet.area_um2 > head_only.area_um2);
        // Wear rolls up through the Chip trait, manufacture included:
        // write noise is programming (`program_clamped`), so every
        // manufactured chip has more pulses than the pristine master.
        assert_eq!(chip.wear(), Some(rcs.total_writes()));
        let pool = manufacture_chips(&rcs, 2, 0.05, 9);
        for made in pool.chips() {
            assert!(Chip::wear(made).unwrap() >= rcs.total_writes());
        }
        let outcome = Engine::new(pool)
            .with_policy(RoundRobin)
            .serve(&data.iter().map(|(x, _)| x.to_vec()).collect::<Vec<_>>());
        assert_eq!(outcome.outputs.len(), data.len());
    }

    #[test]
    fn manufactured_chips_are_distinct_but_reproducible() {
        let data = expfit_data(200, 2);
        let rcs = MeiRcs::train(&data, &MeiConfig::quick_test()).unwrap();
        let pool_a = manufacture_chips(&rcs, 3, 0.05, 42);
        let pool_b = manufacture_chips(&rcs, 3, 0.05, 42);
        let x = [0.6];
        for (a, b) in pool_a.chips().iter().zip(pool_b.chips()) {
            // Reproducible: chip i identical across manufacture runs.
            assert_eq!(Chip::infer(a, &x), Chip::infer(b, &x));
        }
        // Distinct draws: some chip differs from the ideal weights.
        let ideal = Chip::infer(&rcs, &x);
        assert!(
            pool_a.chips().iter().any(|c| Chip::infer(c, &x) != ideal),
            "write noise should perturb at least one chip"
        );
    }

    #[test]
    fn zero_write_sigma_gives_ideal_chips() {
        let data = expfit_data(150, 3);
        let rcs = MeiRcs::train(&data, &MeiConfig::quick_test()).unwrap();
        let pool = manufacture_chips(&rcs, 2, 0.0, 7);
        let x = [0.25];
        let ideal = Chip::infer(&rcs, &x);
        for chip in pool.chips() {
            assert_eq!(Chip::infer(chip, &x), ideal);
        }
    }

    #[test]
    fn default_and_boxed_engines_place_and_serve_identically() {
        let data = expfit_data(200, 5);
        let rcs = MeiRcs::train(&data, &MeiConfig::quick_test()).unwrap();
        let inputs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 10.0]).collect();
        let pool_outcome = Engine::new(manufacture_chips(&rcs, 3, 0.05, 9))
            .with_policy(LeastLoaded)
            .serve(&inputs);
        // Engine default = LeastLoaded over the input-length proxy: the
        // exact placement (and therefore bits) of an explicit policy.
        let engine = manufacture_engine(&rcs, 3, 0.05, 9);
        assert_eq!(engine.serve(&inputs).outputs, pool_outcome.outputs);
        // The boxed engine is the same pool behind `dyn Chip`.
        let boxed = manufacture_boxed_engine(&rcs, 3, 0.05, 9);
        assert_eq!(boxed.serve(&inputs).outputs, pool_outcome.outputs);
    }

    #[test]
    fn drifting_engine_is_transparent_at_window_zero_and_ages_reproducibly() {
        let data = expfit_data(200, 6);
        let rcs = MeiRcs::train(&data, &MeiConfig::quick_test()).unwrap();
        let inputs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 8.0]).collect();
        let fresh = manufacture_engine(&rcs, 2, 0.05, 13).serve(&inputs);
        let profile = DriftProfile {
            latency_per_drift: 0.0,
            ..DriftProfile::aggressive()
        };
        let mut drifting = manufacture_drifting_engine(&rcs, 2, 0.05, 13, profile);
        // Window 0: the wrapper is bit-transparent.
        assert_eq!(drifting.serve(&inputs).outputs, fresh.outputs);
        // Aged: outputs move, but identically on an identically-built twin.
        let _ = drifting.advance_window();
        let _ = drifting.advance_window();
        let aged = drifting.serve(&inputs);
        assert_ne!(aged.outputs, fresh.outputs, "drift must act by window 2");
        let mut twin = manufacture_drifting_engine(&rcs, 2, 0.05, 13, profile);
        let _ = twin.advance_window();
        let _ = twin.advance_window();
        assert_eq!(twin.serve(&inputs).outputs, aged.outputs);
    }

    #[test]
    fn cost_sheets_carry_eq67_physics_into_the_runtime() {
        let data = expfit_data(200, 11);
        let rcs = MeiRcs::train(&data, &MeiConfig::quick_test()).unwrap();
        // The MEI chip's sheet is exactly the interface crate's Eq (7)
        // valuation at the default mixed-signal throughput.
        let sheet = Chip::cost_sheet(&rcs).expect("MEI chips are accounted");
        let expect = interface::CostModel::dac2015()
            .sheet_mei(&rcs.topology(), &Throughput::default_mixed_signal());
        assert_eq!(sheet.area_um2.to_bits(), expect.area_um2.to_bits());
        assert_eq!(sheet.leakage_uw.to_bits(), expect.static_power_uw.to_bits());
        assert_eq!(
            sheet.dynamic_j_per_inference.to_bits(),
            expect.dynamic_j_per_evaluation.to_bits()
        );
        // Write noise and drift do not change the silicon's bill.
        let pool = manufacture_chips(&rcs, 3, 0.1, 21);
        for chip in pool.chips() {
            assert_eq!(Chip::cost_sheet(chip), Some(sheet));
        }
        let acc = pool.accounting();
        assert_eq!((acc.chips, acc.known_chips), (3, 3));
        assert_eq!(acc.area_um2.to_bits(), (3.0 * sheet.area_um2).to_bits());
        // A SAAB chip bills the learner-order sum of its ensemble.
        let saab = Saab::train(
            &data,
            &MeiConfig::quick_test(),
            &crate::saab::SaabConfig {
                rounds: 2,
                compare_bits: 4,
                ..crate::saab::SaabConfig::default()
            },
        )
        .unwrap();
        let saab_sheet = Chip::cost_sheet(&saab).unwrap();
        let learner_area: f64 = saab
            .learners()
            .iter()
            .map(|l| {
                interface::CostModel::dac2015()
                    .sheet_mei(&l.topology(), &Throughput::default_mixed_signal())
                    .area_um2
            })
            .sum();
        assert_eq!(saab_sheet.area_um2.to_bits(), learner_area.to_bits());
        // The digital baseline has no published physics, but it must not
        // vanish from accounting: an explicit zero-cost sheet keeps
        // `known_chips == chips` while adding nothing to the bill.
        let ann = DigitalAnn::train(
            &data,
            4,
            &neural::TrainConfig {
                epochs: 20,
                learning_rate: 1.0,
                ..neural::TrainConfig::default()
            },
            0,
        )
        .unwrap();
        let ann_sheet = Chip::cost_sheet(&ann).expect("digital baseline is accounted");
        assert_eq!(ann_sheet, runtime::ChipCostSheet::new(0.0, 0.0, 0.0, 0.0));
        let digital_pool = runtime::ChipPool::from_chips(vec![ann]);
        let digital_acc = digital_pool.accounting();
        assert_eq!((digital_acc.chips, digital_acc.known_chips), (1, 1));
        assert_eq!(digital_acc.area_um2, 0.0);
        // Serving a manufactured engine reports measured energy.
        let outcome = manufacture_engine(&rcs, 2, 0.05, 33)
            .serve(&(0..6).map(|i| vec![i as f64 / 6.0]).collect::<Vec<_>>());
        let energy = outcome.stats.energy.expect("MEI chips bill energy");
        assert_eq!(energy.known_chips, 2);
        assert!(energy.joules > 0.0 && energy.j_per_request > 0.0);
    }

    #[test]
    fn manufactured_fleet_pools_are_distinct_and_reproducible() {
        let data = expfit_data(200, 8);
        let rcs = MeiRcs::train(&data, &MeiConfig::quick_test()).unwrap();
        // A heavy write sigma so the disturbance survives the chips'
        // output quantization; probe several inputs per chip.
        let config = runtime::FleetConfig::new(42);
        let fleet_a = manufacture_fleet(&rcs, 2, 2, 0.4, config);
        let fleet_b = manufacture_boxed_fleet(&rcs, 2, 2, 0.4, config);
        let probes: Vec<Vec<f64>> = (0..8).map(|i| vec![f64::from(i) / 8.0]).collect();
        let sample = |fleet: &Fleet<MeiRcs>, pool: usize| -> Vec<Vec<f64>> {
            fleet
                .engine(pool)
                .pool()
                .chips()
                .iter()
                .flat_map(|c| probes.iter().map(|x| Chip::infer(c, x)))
                .collect()
        };
        // Pool p, chip c is the same physical device in the plain and
        // boxed fleets (same substream), and across reruns.
        for p in 0..2 {
            let boxed: Vec<Vec<f64>> = fleet_b
                .engine(p)
                .pool()
                .chips()
                .iter()
                .flat_map(|c| probes.iter().map(|x| c.infer(x)))
                .collect();
            assert_eq!(sample(&fleet_a, p), boxed);
        }
        // Different pools hold different write-noise draws.
        assert_ne!(
            sample(&fleet_a, 0),
            sample(&fleet_a, 1),
            "pools must carry independent manufacturing draws"
        );
    }

    #[test]
    fn pool_serves_a_batch_through_mei_chips() {
        let data = expfit_data(250, 4);
        let rcs = MeiRcs::train(&data, &MeiConfig::quick_test()).unwrap();
        let engine = Engine::new(manufacture_chips(&rcs, 2, 0.02, 11)).with_policy(RoundRobin);
        let inputs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 12.0]).collect();
        let outcome = engine.serve(&inputs);
        assert_eq!(outcome.outputs.len(), 12);
        assert_eq!(outcome.stats.per_chip.len(), 2);
        for (input, out) in inputs.iter().zip(&outcome.outputs) {
            let expect = (-input[0] * input[0]).exp();
            assert!(
                (out[0] - expect).abs() < 0.4,
                "serving should stay near f(x)"
            );
        }
    }
}
