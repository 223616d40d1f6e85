//! Serving integration: chip-pool manufacturing with per-chip write-noise
//! draws, and the Eq (6)/(7) cost-sheet bridge into the runtime.
//!
//! Every trained architecture is a [`runtime::Chip`] through [`Rcs`]; its
//! `Chip` impl lives next to its inference in its own module. A
//! deployment serves inference from *manufactured* chips: every chip is
//! programmed from the same trained weights but carries its own
//! program-and-verify (write-accuracy) noise draw. [`manufacture_chips`]
//! builds such a pool from any trained [`Rcs`]: chip `i` is disturbed
//! with a generator derived from `(root_seed, i)`, so chip `i` is the
//! same physical device on every run and for every pool size — the
//! serving-side face of the workspace's deterministic-parallelism rule.

use interface::cost::MeiTopology;
use interface::{CostModel, Throughput};
use prng::rngs::StdRng;
use prng::SeedableRng;
use rram::VariationModel;
use runtime::{ChipCostSheet, ChipPool, DriftProfile, DriftingChip, Engine, Fleet, FleetConfig};

use crate::eval::Rcs;

/// Translate interface-crate [`interface::CostSheet`]s (valued from the
/// paper's Eq (6)/(7) at the default mixed-signal throughput) into the
/// runtime's plain-numbers [`ChipCostSheet`], summing the stages one
/// inference evaluates side by side in the given order. This is the one
/// bridge between the physics silo and the serving-time accounting layer —
/// `runtime` cannot depend on `interface`, so the mapping lives here.
pub(crate) fn to_runtime_sheet(
    stages: impl IntoIterator<Item = interface::CostSheet>,
) -> ChipCostSheet {
    let mut sum = [0.0; 4];
    for sheet in stages {
        let values = [
            sheet.area_um2,
            sheet.static_power_uw,
            sheet.dynamic_j_per_evaluation,
            sheet.ops_per_evaluation,
        ];
        for (total, value) in sum.iter_mut().zip(values) {
            *total += value;
        }
    }
    ChipCostSheet::new(sum[0], sum[1], sum[2], sum[3])
}

/// The bill of merged-interface stages: one for an MEI chip, learner
/// order for SAAB, tiles then head for the CNN.
pub(crate) fn mei_sheet(stages: impl IntoIterator<Item = MeiTopology>) -> ChipCostSheet {
    let model = CostModel::dac2015();
    let throughput = Throughput::default_mixed_signal();
    to_runtime_sheet(stages.into_iter().map(|t| model.sheet_mei(&t, &throughput)))
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
    T: Rcs + Clone,
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

/// Salt folded into a fleet's root seed before deriving per-pool
/// manufacturing seeds, so pool substreams never collide with any other
/// consumer of the same root seed (routing draws, chip write noise).
const FLEET_POOL_SALT: u64 = 0x4D45_495F_504F_4F4C; // "MEI_POOL"

/// Manufacture `pools` independent chip pools (as [`manufacture_chips`],
/// pool `p` seeded from `substream(config.seed ^ SALT, p)`), each behind
/// a default [`Engine`], and assemble them into a serving [`Fleet`]
/// routed under `config`. Pool `p` holds the same physical
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
    T: Rcs + Clone,
{
    assert!(pools > 0, "a fleet needs a pool");
    let engines = (0..pools)
        .map(|p| {
            let pool_seed = prng::substream(config.seed ^ FLEET_POOL_SALT, p as u64);
            let chips = manufacture_chips(rcs, chips_per_pool, write_sigma, pool_seed);
            Engine::new(chips)
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
/// to an [`Engine`] over [`manufacture_chips`] with the same arguments.
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
    T: Rcs + Clone,
{
    // Re-deriving the pool's per-chip seeds pairs chip i with the seed
    // that drew its write noise.
    let mut made = manufacture_chips(rcs, chips, write_sigma, root_seed)
        .into_chips()
        .into_iter();
    Engine::new(ChipPool::manufacture(root_seed, chips, |_, chip_seed| {
        DriftingChip::new(
            made.next().expect("one manufactured chip per seed"),
            profile,
            chip_seed,
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adda::{AddaConfig, AddaRcs};
    use crate::cnn::{CnnConfig, CnnRcs};
    use crate::digital::DigitalAnn;
    use crate::mei_arch::{MeiConfig, MeiRcs};
    use crate::saab::{Saab, SaabConfig};
    use neural::{Dataset, TrainConfig};
    use prng::Rng;
    use runtime::{Chip, LeastLoaded, RoundRobin};

    fn expfit_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::generate(n, &mut rng, |r| {
            let x: f64 = r.gen();
            (vec![x], vec![(-x * x).exp()])
        })
        .unwrap()
    }

    fn to_bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn chip_infer_matches_rcs_infer() {
        let data = expfit_data(200, 1);
        let short = TrainConfig {
            epochs: 20,
            learning_rate: 1.0,
            ..TrainConfig::default()
        };
        let mei = MeiRcs::train(&data, &MeiConfig::quick_test()).unwrap();
        let adda = AddaRcs::train(
            &data,
            &AddaConfig {
                train: short,
                ..AddaConfig::default()
            },
        )
        .unwrap();
        let saab = Saab::train(
            &data,
            &MeiConfig::quick_test(),
            &SaabConfig {
                rounds: 2,
                compare_bits: 4,
                ..SaabConfig::default()
            },
        )
        .unwrap();
        let ann = DigitalAnn::train(&data, 4, &short, 0).unwrap();
        let images = workloads::cnn_dataset(8, 8, 12, 5);
        let cnn = CnnRcs::train(&images, &CnnConfig::quick_test()).unwrap();
        let worn_cnn = manufacture_chips(&cnn, 2, 0.05, 3).into_chips().remove(1);
        let points = [vec![0.3], vec![0.85]];
        let pictures = [images.inputs()[0].clone(), images.inputs()[1].clone()];
        // (name, chip, inputs, inherent infer)
        type Case<'a> = (
            &'a str,
            &'a dyn Chip,
            &'a [Vec<f64>],
            &'a dyn Fn(&[f64]) -> Vec<f64>,
        );
        let cases: [Case; 6] = [
            ("mei", &mei, &points, &|x| mei.infer(x).unwrap()),
            ("adda", &adda, &points, &|x| adda.infer(x).unwrap()),
            ("saab", &saab, &points, &|x| saab.infer(x).unwrap()),
            ("cnn", &cnn, &pictures, &|x| cnn.infer(x).unwrap()),
            ("worn cnn", &worn_cnn, &pictures, &|x| {
                worn_cnn.infer(x).unwrap()
            }),
            ("digital", &ann, &points, &|x| ann.infer(x)),
        ];
        // Round 1 runs every chip on a per-thread workspace that another
        // chip and another input used last.
        for round in 0..2 {
            for (name, chip, inputs, direct) in &cases {
                let x = &inputs[round];
                assert_eq!(
                    to_bits(&chip.infer(x)),
                    to_bits(&direct(x)),
                    "{name}, round {round}"
                );
            }
        }
    }

    #[test]
    fn cnn_chips_serve_bill_and_report_wear() {
        let data = workloads::cnn_dataset(8, 8, 12, 5);
        let rcs = CnnRcs::train(&data, &CnnConfig::quick_test()).unwrap();
        let (x, _) = data.iter().next().unwrap();
        // Chip::infer matches the direct path and rides per-thread scratch.
        let chip: &dyn Chip = &rcs;
        assert_eq!(chip.infer(x), rcs.infer(x).unwrap());
        // The sheet sums the per-tile stages and the head, so it must
        // strictly exceed the head alone.
        let sheet = chip.cost_sheet().expect("CNN chips are accounted");
        let model = interface::CostModel::dac2015();
        let throughput = Throughput::default_mixed_signal();
        let head_only = model.sheet_mei(&rcs.head_topology(), &throughput);
        assert!(sheet.area_um2 > head_only.area_um2);
        // Bit for bit, it is the tiles-then-head sum of the Eq (7) sheets.
        let mut sum = [0.0; 4];
        for topology in rcs.tile_topologies().iter().chain([&rcs.head_topology()]) {
            let stage = model.sheet_mei(topology, &throughput);
            sum[0] += stage.area_um2;
            sum[1] += stage.static_power_uw;
            sum[2] += stage.dynamic_j_per_evaluation;
            sum[3] += stage.ops_per_evaluation;
        }
        let billed = [
            sheet.area_um2,
            sheet.leakage_uw,
            sheet.dynamic_j_per_inference,
            sheet.ops_per_inference,
        ];
        assert_eq!(to_bits(&billed), to_bits(&sum));
        // Wear rolls up through the Chip trait, manufacture included:
        // write noise is programming (`program_clamped`), so every
        // manufactured chip has more pulses than the pristine master.
        assert_eq!(chip.wear(), Some(rcs.network().total_writes()));
        let pool = manufacture_chips(&rcs, 2, 0.05, 9);
        for made in pool.chips() {
            assert!(Chip::wear(made).unwrap() >= rcs.network().total_writes());
        }
        let outcome = Engine::new(pool)
            .with_policy(RoundRobin)
            .serve(&data.iter().map(|(x, _)| x.to_vec()).collect::<Vec<_>>());
        assert_eq!(outcome.outputs.len(), data.len());
    }

    #[test]
    fn adda_and_saab_chips_report_their_wear() {
        let data = expfit_data(200, 3);
        let short = TrainConfig {
            epochs: 5,
            ..TrainConfig::default()
        };
        let adda = AddaRcs::train(
            &data,
            &AddaConfig {
                train: short,
                ..AddaConfig::default()
            },
        )
        .unwrap();
        let saab = Saab::train(
            &data,
            &MeiConfig::quick_test(),
            &SaabConfig {
                rounds: 2,
                compare_bits: 4,
                ..SaabConfig::default()
            },
        )
        .unwrap();
        // Programming writes every device once; SAAB sums its learners.
        let adda_devices = adda.analog().device_count() as u64;
        let saab_devices: usize = saab
            .learners()
            .iter()
            .map(|l| l.analog().device_count())
            .sum();
        assert_eq!(Chip::wear(&adda), Some(adda_devices));
        assert_eq!(Chip::wear(&saab), Some(saab_devices as u64));
        // Write noise is programming, so manufactured chips are worn.
        let adda_pool = manufacture_chips(&adda, 2, 0.05, 4);
        let saab_pool = manufacture_chips(&saab, 2, 0.05, 4);
        for made in adda_pool.chips() {
            assert!(Chip::wear(made).unwrap() > adda_devices);
        }
        for made in saab_pool.chips() {
            assert!(Chip::wear(made).unwrap() > saab_devices as u64);
        }
        // The digital baseline has no endurance counters.
        let ann = DigitalAnn::train(&data, 4, &short, 0).unwrap();
        assert_eq!(Chip::wear(&ann), None);
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
        let engine = Engine::new(manufacture_chips(&rcs, 3, 0.05, 9));
        assert_eq!(engine.serve(&inputs).outputs, pool_outcome.outputs);
        // The boxed engine is the same pool behind `dyn Chip`.
        let boxed = Engine::new(manufacture_chips(&rcs, 3, 0.05, 9).boxed());
        assert_eq!(boxed.serve(&inputs).outputs, pool_outcome.outputs);
    }

    #[test]
    fn drifting_engine_is_transparent_at_window_zero_and_ages_reproducibly() {
        let data = expfit_data(200, 6);
        let rcs = MeiRcs::train(&data, &MeiConfig::quick_test()).unwrap();
        let inputs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 8.0]).collect();
        let fresh = Engine::new(manufacture_chips(&rcs, 2, 0.05, 13)).serve(&inputs);
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
        let outcome = Engine::new(manufacture_chips(&rcs, 2, 0.05, 33))
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
        let fleet_b = Fleet::new(
            manufacture_fleet(&rcs, 2, 2, 0.4, config)
                .into_engines()
                .into_iter()
                .map(|engine| Engine::new(engine.into_pool().boxed()))
                .collect(),
            config,
        );
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
