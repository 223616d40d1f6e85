//! Placement policies and the calibrated cost model.
//!
//! Placement — which chip serves which request — is the serving-side
//! analogue of the paper's thesis: the *interface* layer, not the crossbar,
//! decides end-to-end cost. This module makes that layer first-class:
//!
//! * [`PlacementPolicy`] — an object-safe strategy trait. A policy sees
//!   the per-chip estimated cost of the next request and the accumulated
//!   [`PoolState`], and returns a chip id. Placement must be a **pure
//!   function** of `(costs, state)` — never of wall-clock time or thread
//!   timing — so a request sequence maps to the same chips on every run.
//! * [`RoundRobin`], [`LeastLoaded`] — the classic policies.
//! * [`SizeAware`] — greedy earliest-finish-time: picks the chip that
//!   would *complete* the request soonest (`load + cost` argmin), which
//!   routes work away from slow chips when the [`CostModel`] knows chips
//!   differ in speed (heterogeneous / mixed-topology pools).
//! * [`WearAware`] — earliest-finish-time with each chip's key inflated
//!   by an endurance penalty frozen from a `write_count` snapshot, so hot
//!   streams drift off heavily-written chips (RRAM endurance is finite;
//!   placement is the cheapest wear-leveling lever the serving layer has).
//! * [`CostModel`] — per-chip affine estimates `t ≈ a + b·len` of service
//!   time. [`CostModel::calibrate`] measures each chip's `infer` on
//!   representative inputs and freezes the coefficients, after which
//!   placement is deterministic again.
//!
//! ## Tie-breaking contract
//!
//! [`LeastLoaded`] and [`SizeAware`] resolve ties toward the **lowest
//! chip index**: a candidate chip replaces the incumbent only when its
//! key is *strictly* smaller. Equal-cost request streams therefore
//! degenerate to round-robin-like sweeps deterministically (pinned by
//! `tie_break_prefers_lowest_chip_index` below).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::chip::{Chip, ChipPool};

/// The intercept a [`CostModel::calibrate`] pass assigns to a chip whose
/// `infer` panicked during measurement: a finite sentinel so large that
/// cost-aware policies ([`SizeAware`]) route every request to any other
/// chip first, effectively quarantining the broken device until a later
/// recalibration finds it healthy again.
pub const QUARANTINE_COST: f64 = 1e12;

/// The placement-visible state of a pool: how many requests have been
/// placed and the accumulated estimated load per chip. The engine owns
/// and updates this; policies only read it.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolState {
    placed: u64,
    load: Vec<f64>,
}

impl PoolState {
    /// Fresh state for a pool of `chips` chips.
    ///
    /// # Panics
    ///
    /// Panics if `chips` is zero.
    #[must_use]
    pub fn new(chips: usize) -> Self {
        assert!(chips > 0, "a pool needs at least one chip");
        Self {
            placed: 0,
            load: vec![0.0; chips],
        }
    }

    /// Number of chips in the pool.
    #[must_use]
    pub fn chips(&self) -> usize {
        self.load.len()
    }

    /// Requests placed so far.
    #[must_use]
    pub fn placed(&self) -> u64 {
        self.placed
    }

    /// Accumulated estimated load per chip, in the cost model's units.
    #[must_use]
    pub fn load(&self) -> &[f64] {
        &self.load
    }

    /// Record a placement: request of estimated `cost` went to `chip`.
    pub fn commit(&mut self, chip: usize, cost: f64) {
        self.load[chip] += cost;
        self.placed += 1;
    }
}

/// An object-safe placement strategy. `costs[c]` is the cost model's
/// estimate of serving the next request on chip `c`; the return value is
/// the chosen chip id, `< state.chips()`.
///
/// Implementations must be pure: the same `(costs, state)` always yields
/// the same chip, so the request → chip assignment — and therefore every
/// output bit of a serve run — is a function of the request sequence.
pub trait PlacementPolicy: Send + Sync {
    /// Short stable identifier, used in stats and JSON reports.
    fn name(&self) -> &'static str;

    /// Choose the chip for the next request.
    fn place(&self, costs: &[f64], state: &PoolState) -> usize;
}

/// Request `i` goes to chip `i mod N`, ignoring costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl PlacementPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round_robin"
    }

    fn place(&self, _costs: &[f64], state: &PoolState) -> usize {
        (state.placed() % state.chips() as u64) as usize
    }
}

/// Each request goes to the chip with the least accumulated estimated
/// load. Ties break toward the lowest chip index (strict `<` keeps the
/// incumbent), so equal-load pools fill from chip 0 upward.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoaded;

impl PlacementPolicy for LeastLoaded {
    fn name(&self) -> &'static str {
        "least_loaded"
    }

    fn place(&self, _costs: &[f64], state: &PoolState) -> usize {
        argmin(state.load().iter().copied())
    }
}

/// Greedy earliest-finish-time: the request goes to the chip minimizing
/// `load[c] + costs[c]`, its estimated completion time there. On a
/// homogeneous pool (all chips equally fast) this reduces to
/// [`LeastLoaded`]; on a heterogeneous pool a calibrated [`CostModel`]
/// makes it route proportionally more work to faster chips. Ties break
/// toward the lowest chip index.
#[derive(Debug, Clone, Copy, Default)]
pub struct SizeAware;

impl PlacementPolicy for SizeAware {
    fn name(&self) -> &'static str {
        "size_aware"
    }

    fn place(&self, costs: &[f64], state: &PoolState) -> usize {
        argmin(state.load().iter().zip(costs).map(|(&l, &c)| l + c))
    }
}

/// Wear-aware earliest-finish-time: [`SizeAware`]'s completion-time key,
/// inflated per chip by an endurance penalty **frozen at construction**
/// from a wear snapshot — `key_c = (load_c + cost_c) · (1 + penalty_c)`,
/// ties toward the lowest chip index.
///
/// Freezing matters for determinism: live `write_count` reads would make
/// placement depend on maintenance timing. Instead the engine snapshots
/// wear at a window boundary ([`crate::Engine::refresh_wear_policy`]),
/// and within the window request → chip stays a pure function of the
/// request sequence. A heavily-written chip gets a proportionally larger
/// penalty, so hot streams drift off it toward less-worn silicon while
/// it still absorbs work when the others are saturated.
#[derive(Debug, Clone, PartialEq)]
pub struct WearAware {
    penalties: Vec<f64>,
}

impl WearAware {
    /// Build from explicit per-chip penalties (≥ 0, finite).
    ///
    /// # Panics
    ///
    /// Panics if `penalties` is empty or contains a negative or
    /// non-finite value.
    #[must_use]
    pub fn new(penalties: Vec<f64>) -> Self {
        assert!(!penalties.is_empty(), "a policy needs at least one chip");
        assert!(
            penalties.iter().all(|p| p.is_finite() && *p >= 0.0),
            "wear penalties must be finite and non-negative"
        );
        Self { penalties }
    }

    /// Build from a wear snapshot (as [`crate::ChipPool::wear`] returns
    /// it): chip `c`'s penalty is `alpha · wear_c / max_wear`, so the
    /// most-worn chip is handicapped by a factor `1 + alpha` and pristine
    /// chips not at all. Chips without counters (`None`) count as unworn.
    /// An all-unworn snapshot degenerates to [`SizeAware`] exactly.
    ///
    /// # Panics
    ///
    /// Panics if `wear` is empty or `alpha` is negative or non-finite.
    #[must_use]
    pub fn from_wear(wear: &[Option<u64>], alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "alpha must be finite and non-negative"
        );
        let max = wear.iter().flatten().copied().max().unwrap_or(0);
        let penalties = wear
            .iter()
            .map(|w| {
                if max == 0 {
                    0.0
                } else {
                    alpha * w.unwrap_or(0) as f64 / max as f64
                }
            })
            .collect();
        Self::new(penalties)
    }

    /// The frozen per-chip penalties.
    #[must_use]
    pub fn penalties(&self) -> &[f64] {
        &self.penalties
    }
}

impl PlacementPolicy for WearAware {
    fn name(&self) -> &'static str {
        "wear_aware"
    }

    fn place(&self, costs: &[f64], state: &PoolState) -> usize {
        assert_eq!(
            self.penalties.len(),
            state.chips(),
            "wear snapshot covers a different pool"
        );
        argmin(
            state
                .load()
                .iter()
                .zip(costs)
                .zip(&self.penalties)
                .map(|((&l, &c), &p)| (l + c) * (1.0 + p)),
        )
    }
}

/// Index of the strictly smallest value; the first (lowest index) wins
/// ties.
fn argmin(values: impl Iterator<Item = f64>) -> usize {
    let mut best = 0usize;
    let mut best_value = f64::INFINITY;
    for (i, v) in values.enumerate() {
        if v < best_value {
            best = i;
            best_value = v;
        }
    }
    best
}

/// Per-chip affine service-time estimates: serving a request of input
/// length `len` on chip `c` is predicted to cost
/// `a_c + b_c · max(len, 1)`.
///
/// Two unit conventions coexist deliberately:
///
/// * [`CostModel::input_length`] — `a = 0, b = 1`: cost *is* the input
///   length. Deterministic, no measurement needed.
/// * [`CostModel::calibrate`] — coefficients are least-squares fits of
///   measured `infer` wall time in **seconds**. The measurement itself is
///   host-dependent, but once frozen the model (and all placement
///   derived from it) is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    coefficients: Vec<(f64, f64)>,
    version: u64,
}

impl CostModel {
    /// The unit cost model for `chips` chips: cost = input length
    /// (clamped to ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `chips` is zero.
    #[must_use]
    pub fn input_length(chips: usize) -> Self {
        assert!(chips > 0, "a cost model needs at least one chip");
        Self {
            coefficients: vec![(0.0, 1.0); chips],
            version: 0,
        }
    }

    /// Build from per-chip `(intercept, slope)` coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `coefficients` is empty or any coefficient is not
    /// finite and non-negative.
    #[must_use]
    pub fn from_coefficients(coefficients: Vec<(f64, f64)>) -> Self {
        assert!(
            !coefficients.is_empty(),
            "a cost model needs at least one chip"
        );
        for &(a, b) in &coefficients {
            assert!(
                a.is_finite() && b.is_finite() && a >= 0.0 && b >= 0.0,
                "cost coefficients must be finite and non-negative"
            );
        }
        Self {
            coefficients,
            version: 0,
        }
    }

    /// Calibrate by timing every chip's `infer` on the representative
    /// inputs: `passes` timed passes per input (plus one untimed warm-up),
    /// the per-input minimum taken as its service time, and per-chip
    /// `(a, b)` fit by least squares over `(len, time)` points. If every
    /// representative input has the same length the slope is
    /// indeterminate and the fit degenerates to `(mean time, 0)`.
    ///
    /// The returned coefficients are **frozen measurements** — placement
    /// computed from them is deterministic even though the calibration
    /// pass itself is not.
    ///
    /// A chip whose `infer` **panics** during calibration is not allowed
    /// to abort the pass: the panic is caught at the chip boundary and the
    /// chip is *quarantined* — its coefficients become
    /// `(`[`QUARANTINE_COST`]`, 0)`, so cost-aware policies route around
    /// it until a later recalibration measures it healthy.
    ///
    /// # Panics
    ///
    /// Panics if `representative` is empty or `passes` is zero.
    #[must_use]
    pub fn calibrate<C: Chip>(
        pool: &ChipPool<C>,
        representative: &[Vec<f64>],
        passes: usize,
    ) -> Self {
        assert!(
            !representative.is_empty(),
            "calibration needs representative inputs"
        );
        assert!(passes > 0, "calibration needs at least one timed pass");
        let coefficients = pool
            .chips()
            .iter()
            .map(|chip| {
                catch_unwind(AssertUnwindSafe(|| {
                    let points: Vec<(f64, f64)> = representative
                        .iter()
                        .map(|input| {
                            let _ = chip.infer(input); // warm-up, untimed
                            let mut best = f64::INFINITY;
                            for _ in 0..passes {
                                let start = Instant::now();
                                let _ = chip.infer(input);
                                best = best.min(start.elapsed().as_secs_f64());
                            }
                            (input.len().max(1) as f64, best)
                        })
                        .collect();
                    fit_affine(&points)
                }))
                .unwrap_or((QUARANTINE_COST, 0.0))
            })
            .collect();
        Self {
            coefficients,
            version: 0,
        }
    }

    /// Number of chips the model covers.
    #[must_use]
    pub fn chips(&self) -> usize {
        self.coefficients.len()
    }

    /// The model's coefficient-snapshot version. Freshly built models are
    /// version 0; [`Engine::recalibrate_window`](crate::Engine::recalibrate_window)
    /// bumps the version on every refresh, so stats and reports can say
    /// *which* frozen snapshot placed a window's requests.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The same coefficients stamped as snapshot `version`.
    #[must_use]
    pub fn with_version(mut self, version: u64) -> Self {
        self.version = version;
        self
    }

    /// Whether calibration quarantined `chip` (its `infer` panicked while
    /// being measured).
    #[must_use]
    pub fn is_quarantined(&self, chip: usize) -> bool {
        self.coefficients[chip].0 >= QUARANTINE_COST
    }

    /// The frozen per-chip `(intercept, slope)` coefficients.
    #[must_use]
    pub fn coefficients(&self) -> &[(f64, f64)] {
        &self.coefficients
    }

    /// Estimated cost of a request of `input_len` elements on `chip`.
    #[must_use]
    pub fn estimate(&self, chip: usize, input_len: usize) -> f64 {
        let (a, b) = self.coefficients[chip];
        a + b * input_len.max(1) as f64
    }

    /// Fill `out` with the estimate of this request on every chip.
    pub fn estimates_into(&self, input_len: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.coefficients.len()).map(|chip| self.estimate(chip, input_len)));
    }

    /// The model as a JSON object: the snapshot version plus a per-chip
    /// coefficient array.
    #[must_use]
    pub fn to_json(&self) -> String {
        let chips: Vec<String> = self
            .coefficients
            .iter()
            .map(|(a, b)| {
                format!(
                    "{{\"intercept\":{},\"slope\":{}}}",
                    crate::stats::json_num(*a, 9),
                    crate::stats::json_num(*b, 9)
                )
            })
            .collect();
        format!(
            "{{\"version\":{},\"coefficients\":[{}]}}",
            self.version,
            chips.join(",")
        )
    }
}

/// Least-squares affine fit of `(x, y)` points; slope clamped to ≥ 0 and
/// the intercept to ≥ 0 (a negative service-time estimate would let load
/// accounting run backwards). Zero x-variance degenerates to
/// `(mean y, 0)`.
fn fit_affine(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let var_x = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum::<f64>();
    if var_x <= f64::EPSILON {
        return (mean_y.max(0.0), 0.0);
    }
    let cov = points
        .iter()
        .map(|p| (p.0 - mean_x) * (p.1 - mean_y))
        .sum::<f64>();
    let slope = (cov / var_x).max(0.0);
    let intercept = (mean_y - slope * mean_x).max(0.0);
    (intercept, slope)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The assignment an engine over `model.chips()` chips plans for
    /// requests of these input lengths.
    fn assign_batch(
        input_lens: &[usize],
        policy: impl PlacementPolicy + 'static,
        model: &CostModel,
    ) -> Vec<usize> {
        let chips = (0..model.chips()).map(|_| FixedChip(0.0)).collect();
        crate::Engine::new(ChipPool::from_chips(chips))
            .with_policy(policy)
            .with_cost_model(model.clone())
            .assignment(input_lens)
    }

    #[test]
    fn round_robin_cycles() {
        let model = CostModel::input_length(3);
        let lens = [5usize, 1, 9, 2, 2, 7, 1];
        assert_eq!(
            assign_batch(&lens, RoundRobin, &model),
            vec![0, 1, 2, 0, 1, 2, 0]
        );
    }

    #[test]
    fn least_loaded_balances_by_cost() {
        let model = CostModel::input_length(2);
        assert_eq!(
            assign_batch(&[10, 1, 1, 1], LeastLoaded, &model),
            vec![0, 1, 1, 1]
        );
    }

    /// The documented tie-break: on equal keys the lowest chip index
    /// wins, for both load-based policies, so equal-cost streams sweep
    /// the chips in index order.
    #[test]
    fn tie_break_prefers_lowest_chip_index() {
        let model = CostModel::input_length(4);
        let lens = [3usize; 8];
        let expected = vec![0, 1, 2, 3, 0, 1, 2, 3];
        assert_eq!(assign_batch(&lens, LeastLoaded, &model), expected);
        assert_eq!(assign_batch(&lens, SizeAware, &model), expected);
        // And a literal all-zero-load tie picks chip 0.
        let state = PoolState::new(4);
        assert_eq!(LeastLoaded.place(&[1.0; 4], &state), 0);
        assert_eq!(SizeAware.place(&[1.0; 4], &state), 0);
    }

    #[test]
    fn size_aware_equals_least_loaded_on_homogeneous_pools() {
        let model = CostModel::input_length(3);
        let lens = [4usize, 9, 1, 1, 6, 2, 8, 3, 3, 5];
        assert_eq!(
            assign_batch(&lens, SizeAware, &model),
            assign_batch(&lens, LeastLoaded, &model)
        );
    }

    #[test]
    fn size_aware_prefers_faster_chips_when_costs_differ() {
        // Chip 1 is 4x faster than chip 0; earliest-finish-time should
        // give it the bulk of a uniform stream.
        let model = CostModel::from_coefficients(vec![(0.0, 4.0), (0.0, 1.0)]);
        let lens = [2usize; 10];
        let assignment = assign_batch(&lens, SizeAware, &model);
        let to_fast = assignment.iter().filter(|&&c| c == 1).count();
        assert!(
            to_fast >= 7,
            "fast chip got only {to_fast}/10 requests: {assignment:?}"
        );
        // Least-loaded on the same calibrated model also skews fast-ward,
        // but earliest-finish-time never does worse.
        let ll = assign_batch(&lens, LeastLoaded, &model);
        let ll_fast = ll.iter().filter(|&&c| c == 1).count();
        assert!(to_fast >= ll_fast);
    }

    #[test]
    fn wear_aware_with_zero_wear_equals_size_aware() {
        let model = CostModel::input_length(3);
        let lens = [4usize, 9, 1, 1, 6, 2, 8, 3, 3, 5];
        let unworn = WearAware::from_wear(&[None, Some(0), None], 0.5);
        assert_eq!(unworn.penalties(), &[0.0, 0.0, 0.0]);
        assert_eq!(
            assign_batch(&lens, unworn, &model),
            assign_batch(&lens, SizeAware, &model)
        );
    }

    #[test]
    fn wear_aware_shifts_load_off_the_worn_chip() {
        let model = CostModel::input_length(2);
        let lens = [3usize; 10];
        // Chip 0 heavily written, chip 1 pristine.
        let policy = WearAware::from_wear(&[Some(1000), Some(10)], 1.0);
        let assignment = assign_batch(&lens, policy, &model);
        let to_worn = assignment.iter().filter(|&&c| c == 0).count();
        let to_fresh = assignment.iter().filter(|&&c| c == 1).count();
        assert!(
            to_fresh > to_worn,
            "worn chip still got {to_worn}/10: {assignment:?}"
        );
        // But the worn chip is throttled, not drained: it still serves.
        assert!(to_worn > 0, "assignment starved chip 0: {assignment:?}");
    }

    #[test]
    fn wear_aware_tie_breaks_toward_lowest_index() {
        let state = PoolState::new(3);
        let policy = WearAware::new(vec![0.25; 3]);
        assert_eq!(policy.place(&[1.0; 3], &state), 0);
    }

    #[test]
    fn wear_penalties_scale_with_alpha_and_normalize_to_max() {
        let policy = WearAware::from_wear(&[Some(50), Some(100), Some(0)], 0.8);
        assert_eq!(policy.penalties(), &[0.4, 0.8, 0.0]);
    }

    #[test]
    fn cost_model_estimates_are_affine_and_clamped() {
        let model = CostModel::from_coefficients(vec![(1.5, 0.5)]);
        assert_eq!(model.estimate(0, 4), 1.5 + 0.5 * 4.0);
        // Zero-length requests still cost the one-element price.
        assert_eq!(model.estimate(0, 0), model.estimate(0, 1));
        let mut out = Vec::new();
        model.estimates_into(4, &mut out);
        assert_eq!(out, vec![3.5]);
    }

    #[test]
    fn affine_fit_recovers_exact_lines_and_degenerates_cleanly() {
        let (a, b) = fit_affine(&[(1.0, 3.0), (2.0, 5.0), (3.0, 7.0)]);
        assert!((a - 1.0).abs() < 1e-9 && (b - 2.0).abs() < 1e-9);
        // Same x everywhere: slope indeterminate → mean, 0.
        let (a, b) = fit_affine(&[(4.0, 2.0), (4.0, 4.0)]);
        assert_eq!((a, b), (3.0, 0.0));
        // A decreasing trend clamps to slope 0 rather than negative cost.
        let (_, b) = fit_affine(&[(1.0, 5.0), (10.0, 1.0)]);
        assert_eq!(b, 0.0);
    }

    struct FixedChip(f64);
    impl Chip for FixedChip {
        fn infer(&self, input: &[f64]) -> Vec<f64> {
            // Busy-work proportional to input length so calibration has
            // something real to measure.
            let mut acc = self.0;
            for x in input {
                for _ in 0..50 {
                    acc = (acc + x).sin();
                }
            }
            vec![acc]
        }
    }

    #[test]
    fn calibrate_freezes_finite_nonnegative_coefficients() {
        let pool = ChipPool::from_chips(vec![FixedChip(0.1), FixedChip(0.2)]);
        let reps: Vec<Vec<f64>> = [1usize, 8, 32].iter().map(|&n| vec![0.5; n]).collect();
        let model = CostModel::calibrate(&pool, &reps, 2);
        assert_eq!(model.chips(), 2);
        for &(a, b) in model.coefficients() {
            assert!(a.is_finite() && b.is_finite());
            assert!(a >= 0.0 && b >= 0.0);
        }
        // Longer inputs must never be estimated cheaper.
        assert!(model.estimate(0, 32) >= model.estimate(0, 1));
        let json = model.to_json();
        assert!(json.starts_with("{\"version\":0,\"coefficients\":[{\"intercept\":"));
    }

    struct PanickyChip;
    impl Chip for PanickyChip {
        fn infer(&self, _input: &[f64]) -> Vec<f64> {
            panic!("injected fault: chip is broken");
        }
    }

    /// A panicking chip must not abort calibration: it gets quarantine
    /// coefficients and `SizeAware` routes everything to the healthy chip.
    #[test]
    fn calibrate_quarantines_a_panicking_chip() {
        let chips: Vec<Box<dyn Chip>> = vec![Box::new(PanickyChip), Box::new(FixedChip(0.1))];
        let pool = ChipPool::from_chips(chips);
        let reps = vec![vec![0.5; 8]];
        let model = CostModel::calibrate(&pool, &reps, 1);
        assert!(model.is_quarantined(0));
        assert!(!model.is_quarantined(1));
        assert_eq!(model.coefficients()[0], (QUARANTINE_COST, 0.0));
        let assignment = assign_batch(&[8, 8, 8, 8], SizeAware, &model);
        assert_eq!(assignment, vec![1, 1, 1, 1]);
    }

    #[test]
    fn version_round_trips_and_survives_cloning() {
        let model = CostModel::input_length(2);
        assert_eq!(model.version(), 0);
        let stamped = model.with_version(7);
        assert_eq!(stamped.version(), 7);
        assert_eq!(stamped.clone().version(), 7);
        assert!(stamped.to_json().starts_with("{\"version\":7,"));
        // Versions are labels, not behaviour: estimates are unchanged.
        assert_eq!(stamped.estimate(0, 5), 5.0);
    }
}
