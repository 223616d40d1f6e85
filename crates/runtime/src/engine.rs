//! The serving engine: a chip pool bound to a placement policy, a cost
//! model and an optional admission gate.
//!
//! Every serving entry point is the same two steps:
//!
//! ```text
//! requests ──▶ plan ──────────────────────────────▶ execute ───────────────────────────▶ items
//!              (Session fold: CostModel estimate    (per-chip FIFO queues, arrival waits,
//!               → policy.place → gate.offer →        coalescing, catch_unwind(infer))
//!               commit)
//! ```
//!
//! * `Engine::plan` is the one definition of placement and admission.
//!   Batch runs ([`Engine::serve`], [`Engine::serve_open_loop`],
//!   [`Engine::serve_open_loop_admitted`], [`Engine::assignment`]) plan
//!   on a fresh [`Session`]; streaming calls ([`Engine::serve_one`],
//!   [`Engine::offer_one`], [`Engine::serve_session_batch`]) plan on the
//!   caller's. A sequence fed through a fresh session therefore visits
//!   exactly the chips a batch run predicts — which is what makes
//!   in-process and over-the-wire serving bit-identical.
//! * The executor is one [`Crew`](crate::Crew) round per frame: the
//!   frame's plan and inputs are loaded into a `Round`, and every busy
//!   chip drains its FIFO queue on a thread of its own, the caller among
//!   them, *coalescing* contiguous runs of already-arrived requests into
//!   back-to-back batches; release times come only from open-loop arrival
//!   offsets. The event server's event thread runs every frame it serves
//!   on its own crew, which lives as long as the thread; the in-process
//!   entry points run theirs on a crew that lives for the call. A
//!   panicking `infer` is contained at the chip boundary and its siblings
//!   still complete.
//!
//! Coalescing and threading never change outputs: placement is decided
//! before execution and each chip is deterministic, so execution only
//! affects *when* an inference runs, not what it returns.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use crate::admission::{AdmissionConfig, AdmittedOutcome, Decision, Gate, GateStats};
use crate::chip::{Chip, ChipPool, ServeOutcome};
use crate::policy::{CostModel, LeastLoaded, PlacementPolicy, PoolState};
use crate::pool::ThreadPool;
use crate::stats::ServeStats;

/// A chip pool bound to a placement policy and cost model. Build with
/// [`Engine::new`] and the `with_*` builders.
pub struct Engine<C: Chip> {
    pool: ChipPool<C>,
    policy: Box<dyn PlacementPolicy>,
    model: CostModel,
    admission: Option<AdmissionConfig>,
    window: u64,
    model_history: Vec<CostModel>,
}

/// Bound on [`Engine::model_history`]: a long-running server
/// recalibrating every window keeps the most recent 64 superseded
/// snapshots rather than growing without bound. When a recalibration
/// would exceed the cap the oldest snapshot is dropped; snapshots keep
/// their [`CostModel::version`], so after truncation the history index
/// no longer equals the version — read versions off the snapshots, not
/// their positions.
pub const MODEL_HISTORY_CAP: usize = 64;

impl<C: Chip> Engine<C> {
    /// Wrap a pool with the defaults: [`LeastLoaded`] placement over the
    /// [`CostModel::input_length`] proxy, no admission control, serving
    /// window 0.
    #[must_use]
    pub fn new(pool: ChipPool<C>) -> Self {
        let chips = pool.len();
        Self {
            pool,
            policy: Box::new(LeastLoaded),
            model: CostModel::input_length(chips),
            admission: None,
            window: 0,
            model_history: Vec::new(),
        }
    }

    /// Replace the placement policy.
    #[must_use]
    pub fn with_policy<P: PlacementPolicy + 'static>(self, policy: P) -> Self {
        self.with_boxed_policy(Box::new(policy))
    }

    /// Replace the placement policy with an already-boxed one (e.g. one
    /// chosen at runtime from a CLI flag).
    #[must_use]
    pub fn with_boxed_policy(mut self, policy: Box<dyn PlacementPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the cost model.
    ///
    /// # Panics
    ///
    /// Panics if the model covers a different number of chips than the
    /// pool holds.
    #[must_use]
    pub fn with_cost_model(mut self, model: CostModel) -> Self {
        assert_eq!(
            model.chips(),
            self.pool.len(),
            "cost model must cover every chip"
        );
        self.model = model;
        self
    }

    /// Enable admission control: sessions and admitted serves gate every
    /// request through a virtual-time [`Gate`] built from `config`,
    /// shedding requests whose estimated wait exceeds the bound instead
    /// of queueing them.
    #[must_use]
    pub fn with_admission(mut self, config: AdmissionConfig) -> Self {
        self.admission = Some(config);
        self
    }

    /// Calibrate the cost model in place: time every chip's `infer` on
    /// `representative` inputs ([`CostModel::calibrate`]) and freeze the
    /// fitted coefficients as this engine's model.
    #[must_use]
    pub fn calibrated(mut self, representative: &[Vec<f64>], passes: usize) -> Self {
        self.model = CostModel::calibrate(&self.pool, representative, passes);
        self
    }

    /// Re-snapshot the pool's endurance wear and install a fresh
    /// [`WearAware`](crate::WearAware) policy built from it (penalty
    /// scale `alpha`; see [`WearAware::from_wear`](crate::WearAware::from_wear)).
    /// Call at window boundaries: within a window the snapshot — and so
    /// placement — stays frozen and deterministic. Returns the snapshot,
    /// indexed by chip id.
    pub fn refresh_wear_policy(&mut self, alpha: f64) -> Vec<Option<u64>> {
        let wear = self.pool.wear();
        self.policy = Box::new(crate::policy::WearAware::from_wear(&wear, alpha));
        wear
    }

    /// The underlying pool.
    #[must_use]
    pub fn pool(&self) -> &ChipPool<C> {
        &self.pool
    }

    /// Mutable access to the pool (maintenance between windows; see
    /// [`ChipPool::chips_mut`]).
    pub fn pool_mut(&mut self) -> &mut ChipPool<C> {
        &mut self.pool
    }

    /// The pool's physical accounting: the chip-id-order sum of its
    /// chips' cost sheets (see [`crate::accounting`]).
    #[must_use]
    pub fn accounting(&self) -> crate::accounting::PoolAccounting {
        self.pool.accounting()
    }

    /// Consume the engine, returning its pool (e.g. to re-wrap the
    /// chips — [`ChipPool::boxed`] — and rebuild the engine).
    #[must_use]
    pub fn into_pool(self) -> ChipPool<C> {
        self.pool
    }

    /// The active placement policy.
    #[must_use]
    pub fn policy(&self) -> &dyn PlacementPolicy {
        self.policy.as_ref()
    }

    /// The active cost model.
    #[must_use]
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// The current serving window.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Superseded cost-model snapshots, oldest retained first — the
    /// audit trail of [`Engine::recalibrate_window`] refreshes, bounded
    /// by [`MODEL_HISTORY_CAP`]. Each snapshot keeps its
    /// [`CostModel::version`]; until the cap truncates, snapshot `i` has
    /// version `i` and the active model's version is
    /// `model_history.len()`.
    #[must_use]
    pub fn model_history(&self) -> &[CostModel] {
        &self.model_history
    }

    /// Advance to the next serving window **without** recalibrating:
    /// bump the window counter and broadcast it to every chip via
    /// [`Chip::set_window`], stepping time-dependent behaviour (e.g.
    /// [`DriftingChip`](crate::DriftingChip) retention drift) while the
    /// cost coefficients stay frozen. This is the "frozen" serving mode
    /// a recalibrating engine is benchmarked against.
    pub fn advance_window(&mut self) -> u64 {
        self.window += 1;
        for chip in self.pool.chips() {
            chip.set_window(self.window);
        }
        self.window
    }

    /// Advance to the next serving window **and** refresh the cost
    /// model: bump + broadcast the window, re-time every chip on
    /// `representative` inputs, and install the new coefficients as a
    /// higher-versioned snapshot (the superseded model is pushed onto
    /// [`Engine::model_history`]). Placement *within* the new window is
    /// again a pure function of the frozen snapshot — recalibration
    /// moves all nondeterministic measurement to the window boundary.
    ///
    /// A chip that panics while being re-timed is quarantined
    /// ([`CostModel::calibrate`]), so subsequent windows deterministically
    /// place around a broken device.
    ///
    /// # Panics
    ///
    /// Panics if `representative` is empty or `passes` is zero.
    pub fn recalibrate_window(&mut self, representative: &[Vec<f64>], passes: usize) -> u64 {
        let window = self.advance_window();
        let next_version = self.model.version() + 1;
        let refreshed =
            CostModel::calibrate(&self.pool, representative, passes).with_version(next_version);
        self.model_history
            .push(std::mem::replace(&mut self.model, refreshed));
        if self.model_history.len() > MODEL_HISTORY_CAP {
            let excess = self.model_history.len() - MODEL_HISTORY_CAP;
            self.model_history.drain(..excess);
        }
        window
    }

    /// Open a streaming placement session (one per client connection).
    /// When admission control is enabled the session carries its own
    /// fresh [`Gate`] — like placement state, admission state is scoped
    /// to one request source.
    #[must_use]
    pub fn session(&self) -> Session {
        Session {
            state: PoolState::new(self.pool.len()),
            costs: Vec::with_capacity(self.pool.len()),
            gate: self
                .admission
                .map(|config| Gate::new(config, self.pool.len())),
        }
    }

    /// The placement fold every serving call goes through: fold
    /// `session` over `(input length, arrival stamp)` pairs, in order.
    /// Each request is priced by the cost model, placed by the policy,
    /// offered to the session's gate if it carries a stamp (seconds on the
    /// gate's clock), and commits its cost only if admitted — a shed
    /// request commits **nothing**, so decisions are a pure function of
    /// the sequence. It reads no clock and runs no chip.
    ///
    /// # Panics
    ///
    /// Panics if the policy chooses an out-of-range chip.
    pub(crate) fn plan(
        &self,
        session: &mut Session,
        requests: impl IntoIterator<Item = (usize, Option<f64>)>,
    ) -> Vec<Step> {
        requests
            .into_iter()
            .map(|(len, arrival)| {
                self.model.estimates_into(len, &mut session.costs);
                let chip = self.policy.place(&session.costs, &session.state);
                assert!(chip < self.pool.len(), "policy chose an out-of-range chip");
                let cost = session.costs[chip];
                if let (Some(arrival), Some(gate)) = (arrival, session.gate.as_mut()) {
                    if let Decision::Shed {
                        estimated_wait_secs,
                    } = gate.offer(chip, cost, arrival)
                    {
                        return Step::Shed {
                            chip,
                            estimated_wait_secs,
                        };
                    }
                }
                session.state.commit(chip, cost);
                Step::Run(chip)
            })
            .collect()
    }

    /// The deterministic request → chip assignment a batch serve will
    /// use, given per-request input lengths: `Engine::plan` over a
    /// fresh session.
    #[must_use]
    pub fn assignment(&self, input_lens: &[usize]) -> Vec<usize> {
        self.plan(
            &mut self.session(),
            input_lens.iter().map(|&len| (len, None)),
        )
        .iter()
        .map(Step::chip)
        .collect()
    }

    /// Serve a closed batch (every request ready at time zero). Outputs
    /// come back in request order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    #[must_use]
    pub fn serve(&self, inputs: &[Vec<f64>]) -> ServeOutcome {
        self.serve_open_loop(inputs, &vec![Duration::ZERO; inputs.len()])
    }

    /// Serve an open-loop load: request `i` arrives `arrivals[i]` after
    /// the start of the run and may not start earlier; latency includes
    /// queueing delay. Placement ignores the arrivals (no gate).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or the lengths differ.
    #[must_use]
    pub fn serve_open_loop(&self, inputs: &[Vec<f64>], arrivals: &[Duration]) -> ServeOutcome {
        assert!(!inputs.is_empty(), "a serve run needs requests");
        assert_eq!(
            inputs.len(),
            arrivals.len(),
            "one arrival offset per request"
        );
        let steps = self.plan(&mut self.session(), inputs.iter().map(|x| (x.len(), None)));
        self.run_outcome(steps, inputs, arrivals)
            .expect("an unstamped plan runs every request")
    }

    /// Admission-gated open-loop serve: plan the batch through a fresh
    /// session's gate (requests in order, each stamped with its arrival
    /// offset), then run only the admitted subset, each released at its
    /// arrival. Decisions and outputs are a pure function of `(inputs,
    /// arrivals)` — the plan never reads a clock — so reruns and
    /// different server thread counts shed the same requests and return
    /// the same bits.
    ///
    /// Without admission configured, every request is admitted.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or the lengths differ.
    #[must_use]
    pub fn serve_open_loop_admitted(
        &self,
        inputs: &[Vec<f64>],
        arrivals: &[Duration],
    ) -> AdmittedOutcome {
        assert!(!inputs.is_empty(), "a serve run needs requests");
        assert_eq!(
            inputs.len(),
            arrivals.len(),
            "one arrival offset per request"
        );
        let mut session = self.session();
        let stamped = inputs.iter().zip(arrivals);
        let steps = self.plan(
            &mut session,
            stamped.map(|(x, arrival)| (x.len(), Some(arrival.as_secs_f64()))),
        );
        let (admitted, shed): (Vec<usize>, Vec<usize>) =
            (0..steps.len()).partition(|&i| matches!(steps[i], Step::Run(_)));
        let gate_stats = session.gate_stats().unwrap_or(GateStats {
            offered: inputs.len() as u64,
            admitted: admitted.len() as u64,
            shed: 0,
        });
        AdmittedOutcome {
            outcome: self.run_outcome(steps, inputs, arrivals),
            admitted,
            shed,
            gate_stats,
        }
    }

    /// Execute a plan's runs, each released at its arrival offset, and
    /// fold them into a [`ServeOutcome`] over the requests that ran (in
    /// request order; `None` when every request was shed). Latency is
    /// completion minus arrival.
    fn run_outcome(
        &self,
        steps: Vec<Step>,
        inputs: &[Vec<f64>],
        arrivals: &[Duration],
    ) -> Option<ServeOutcome> {
        let round = self.run_round(steps, inputs.iter().map(Vec::as_slice), Some(arrivals));
        let (per_chip, wall) = round.chip_runs();
        let (mut outputs, mut latencies, mut failed) = (Vec::new(), Vec::new(), Vec::new());
        for (ran, arrival) in round.fold(|_, ran| ran).into_iter().zip(arrivals) {
            let Some(ran) = ran else { continue };
            latencies.push(ran.done.saturating_sub(*arrival));
            if ran.output.is_err() {
                failed.push(outputs.len());
            }
            outputs.push(ran.output.unwrap_or_default());
        }
        if outputs.is_empty() {
            return None;
        }
        let mut stats = ServeStats::from_run(self.policy.name(), &latencies, wall, per_chip);
        // The one place serving runs are valued in joules, for every chip
        // that publishes a cost sheet.
        stats.attach_energy(&self.pool.cost_sheets());
        Some(ServeOutcome {
            outputs,
            failed,
            stats,
        })
    }

    /// Run a plan over this pool's chips as one [`Round`], on a crew that
    /// lives for the call.
    fn run_round<'a>(
        &self,
        steps: Vec<Step>,
        inputs: impl IntoIterator<Item = &'a [f64]>,
        releases: Option<&[Duration]>,
    ) -> Round {
        let round = Round::default();
        round.load(steps, self.pool.len(), inputs, releases);
        round.run_here(|chip| &self.pool.chips()[chip]);
        round
    }

    /// Plan `inputs` against `session` (every request stamped `arrival`)
    /// and run the frame as one [`Round`].
    fn serve_frame<I: AsRef<[f64]>>(
        &self,
        session: &mut Session,
        inputs: &[I],
        arrival: Option<f64>,
    ) -> (Vec<BatchItem>, Option<Panic>) {
        let steps = self.plan(session, inputs.iter().map(|x| (x.as_ref().len(), arrival)));
        self.run_round(steps, inputs.iter().map(AsRef::as_ref), None)
            .items()
    }

    /// Serve one request against a session, inline on the caller's
    /// thread, and report which chip served it: a one-request
    /// `Engine::plan` (no arrival stamp, so no gate) and execution.
    ///
    /// Feeding a request sequence through a fresh session reproduces
    /// [`Engine::assignment`] for that sequence exactly — streaming and
    /// batch serving are the same pure placement function.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from `Chip::infer` with its original payload
    /// (the placement load stays committed, as for a failed batch item).
    pub fn serve_one(&self, session: &mut Session, input: &[f64]) -> Served {
        into_served(self.serve_frame(session, &[input], None))
    }

    /// [`Engine::serve_one`] behind the session's admission gate: the
    /// request is planned with `arrival_secs`, then served or shed. A
    /// shed request commits **nothing** — neither placement load nor
    /// virtual queue time. Without admission configured this is exactly
    /// `serve_one`.
    ///
    /// # Panics
    ///
    /// As [`Engine::serve_one`].
    pub fn offer_one(&self, session: &mut Session, input: &[f64], arrival_secs: f64) -> Offer {
        into_offer(self.serve_frame(session, &[input], Some(arrival_secs)))
    }

    /// Serve a pipelined batch against a session: the wire-protocol-v2
    /// serving shape, where one frame carries many requests for the same
    /// workload and the whole batch shares one arrival stamp (taken at
    /// frame decode; `None` bypasses the gate).
    ///
    /// The batch is one `Engine::plan` over the session, so the items —
    /// chip ids and output bits — are identical to feeding the same
    /// sequence through `serve_one`/`offer_one` one request at a time,
    /// whatever the threading. Execution is one crew round over the busy
    /// chips (see the module docs). A panicking `infer` is contained at
    /// the chip boundary and reported as [`BatchItem::Failed`]; sibling
    /// requests still complete.
    pub fn serve_session_batch(
        &self,
        session: &mut Session,
        inputs: &[Vec<f64>],
        arrival_secs: Option<f64>,
    ) -> Vec<BatchItem> {
        self.serve_frame(session, inputs, arrival_secs).0
    }
}

/// Where [`Engine::plan`] sends one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Step {
    /// Run on this chip; the request's estimated cost was committed.
    Run(usize),
    /// Shed by the session's gate; nothing was committed.
    Shed {
        /// The chip the request would have been placed on.
        chip: usize,
        /// The estimated queueing delay that tripped the bound, seconds.
        estimated_wait_secs: f64,
    },
}

impl Step {
    /// The chip the policy chose, whether or not the request runs.
    fn chip(&self) -> usize {
        match *self {
            Step::Run(chip) | Step::Shed { chip, .. } => chip,
        }
    }

    /// The same step on chip `chip + offset`: a pool's plan in a fleet's
    /// global chip ids.
    pub(crate) fn offset(mut self, offset: usize) -> Self {
        let (Step::Run(chip) | Step::Shed { chip, .. }) = &mut self;
        *chip += offset;
        self
    }
}

/// One gated request's result: served, or shed by admission control.
#[derive(Debug, Clone, PartialEq)]
pub enum Offer {
    /// Admitted and served.
    Served(Served),
    /// Shed: the estimated wait on the chip the policy chose exceeded
    /// the admission bound. Nothing ran and nothing was committed.
    Shed {
        /// The chip the request would have been placed on.
        chip: usize,
        /// The estimated queueing delay that tripped the bound, seconds.
        estimated_wait_secs: f64,
    },
}

/// One request's result within a [`Engine::serve_session_batch`] call.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchItem {
    /// Admitted and served.
    Served(Served),
    /// Shed by the session's admission gate; nothing was committed.
    Shed {
        /// The chip the request would have been placed on.
        chip: usize,
        /// The estimated queueing delay that tripped the bound, seconds.
        estimated_wait_secs: f64,
    },
    /// `Chip::infer` panicked; the panic was contained at the chip
    /// boundary (placement load *was* committed, matching the batch
    /// runs' accounting of failed requests).
    Failed {
        /// The chip whose `infer` panicked.
        chip: usize,
    },
}

/// The one item of a one-request frame as an [`Offer`], re-raising a
/// contained chip panic with its original payload.
pub(crate) fn into_offer((mut items, panic): (Vec<BatchItem>, Option<Panic>)) -> Offer {
    match items.pop().expect("one request, one item") {
        BatchItem::Served(served) => Offer::Served(served),
        BatchItem::Shed {
            chip,
            estimated_wait_secs,
        } => Offer::Shed {
            chip,
            estimated_wait_secs,
        },
        BatchItem::Failed { .. } => resume_unwind(panic.expect("a failed run keeps its panic")),
    }
}

/// [`into_offer`] for an unstamped request, which the gate never sees.
pub(crate) fn into_served(frame: (Vec<BatchItem>, Option<Panic>)) -> Served {
    match into_offer(frame) {
        Offer::Served(served) => served,
        Offer::Shed { .. } => unreachable!("an unstamped request bypasses the gate"),
    }
}

/// Streaming placement state for one request source (e.g. one TCP
/// connection): the policy sees only this session's history, so
/// concurrent sessions cannot perturb each other's placement. When the
/// engine has admission control enabled the session also carries its
/// virtual-time [`Gate`], scoped the same way.
#[derive(Debug, Clone)]
pub struct Session {
    state: PoolState,
    costs: Vec<f64>,
    gate: Option<Gate>,
}

impl Session {
    /// Requests served through this session so far.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.state.placed()
    }

    /// The session gate's decision tallies, if admission is enabled.
    #[must_use]
    pub fn gate_stats(&self) -> Option<GateStats> {
        self.gate.as_ref().map(Gate::stats)
    }
}

/// One streamed request's result.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// Chip id that ran the request.
    pub chip: usize,
    /// Service latency of the `infer` call.
    pub latency: Duration,
    /// The output vector.
    pub output: Vec<f64>,
}

/// A panic payload contained at the chip boundary.
pub(crate) type Panic = Box<dyn Any + Send>;

/// One executed run: the chip's output (or the payload of the panic
/// `infer` raised), and when `infer` started and finished.
struct Ran {
    output: Result<Vec<f64>, Panic>,
    start: Duration,
    done: Duration,
}

/// One chip's share of a run, as [`ServeStats::from_run`] takes it.
type ChipRun = (usize, usize, usize, Duration);

/// The executor: one crew round over a frame's busy chips. The owner
/// [`load`](Round::load)s a plan, runs `drain(task)` for every task in
/// `0..tasks` (one busy chip each, all at once), then folds the result
/// ([`items`](Round::items)). A crew has one task closure that cannot
/// borrow a frame (see [`crate::crew`]), so the round owns everything a
/// task reads, in buffers kept from round to round: the event server's
/// event thread loads every frame it serves into one `Round` that its
/// long-lived crew drains (its buffers grow to the largest frame the
/// thread has served, which the server's frame and line caps bound), and
/// the in-process entry points build one per call and drain it on a crew
/// that lives for the call ([`run_here`](Round::run_here)).
///
/// A chip waits for its head request's release time (its open-loop
/// arrival offset, if any), then runs every queued request already
/// released back to back, as one batch. `infer` runs inside
/// `catch_unwind`, so a panicking chip fails only its own requests.
#[derive(Default)]
pub(crate) struct Round(RwLock<RoundState>);

#[derive(Default)]
struct RoundState {
    /// The plan, one step per request.
    steps: Vec<Step>,
    /// Every request's input, back to back; request `r` is
    /// `values[spans[r].0..spans[r].1]`.
    values: Vec<f64>,
    spans: Vec<(usize, usize)>,
    /// Open-loop release offsets, one per request; empty = all at once.
    releases: Vec<Duration>,
    /// One lane per chip id (the event thread's round keeps the lanes of
    /// the largest fleet it has served; the rest stay empty).
    lanes: Vec<Mutex<Lane>>,
    /// Ids of the chips with queued requests, in id order: task `i`
    /// drains chip `busy[i]`.
    busy: Vec<usize>,
    /// The round's time origin: releases and run times count from here.
    epoch: Option<Instant>,
}

/// One chip's FIFO queue of request indices and the runs that drained it.
#[derive(Default)]
struct Lane {
    queue: Vec<usize>,
    runs: Vec<Ran>,
    batches: usize,
}

/// A lane under the round's write lock. `load` rewrites the whole round,
/// so a lock poisoned by an earlier round guards nothing stale.
fn lane(lane: &mut Mutex<Lane>) -> &mut Lane {
    lane.get_mut().unwrap_or_else(PoisonError::into_inner)
}

impl Round {
    fn read(&self) -> RwLockReadGuard<'_, RoundState> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, RoundState> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Load a plan over chip ids `0..chips`: queue every [`Step::Run`] on
    /// its chip in request order, copy the inputs in, and start the
    /// round's clock. Returns the task count: the number of busy chips.
    pub(crate) fn load<'a>(
        &self,
        steps: Vec<Step>,
        chips: usize,
        inputs: impl IntoIterator<Item = &'a [f64]>,
        releases: Option<&[Duration]>,
    ) -> usize {
        let mut guard = self.write();
        let state = &mut *guard;
        state.values.clear();
        state.spans.clear();
        for input in inputs {
            let start = state.values.len();
            state.values.extend_from_slice(input);
            state.spans.push((start, state.values.len()));
        }
        state.releases.clear();
        state
            .releases
            .extend_from_slice(releases.unwrap_or_default());
        if state.lanes.len() < chips {
            state.lanes.resize_with(chips, Mutex::default);
        }
        for lane in state.lanes.iter_mut().map(lane) {
            lane.queue.clear();
            lane.runs.clear();
            lane.batches = 0;
        }
        for (request, step) in steps.iter().enumerate() {
            if let Step::Run(chip) = *step {
                lane(&mut state.lanes[chip]).queue.push(request);
            }
        }
        state.steps = steps;
        state.busy.clear();
        let lanes = state.lanes.iter_mut().map(lane).enumerate();
        let busy = lanes.filter_map(|(chip, lane)| (!lane.queue.is_empty()).then_some(chip));
        state.busy.extend(busy);
        state.epoch = Some(Instant::now());
        state.busy.len()
    }

    /// The task: drain busy chip `task`'s queue on `chip(id)`.
    pub(crate) fn drain<'c, K: Chip + ?Sized + 'c>(
        &self,
        task: usize,
        chip: impl FnOnce(usize) -> &'c K,
    ) {
        let state = self.read();
        let id = state.busy[task];
        let chip = chip(id);
        let epoch = state.epoch.expect("a loaded round has a clock");
        let release = |request: usize| state.releases.get(request).copied().unwrap_or_default();
        let mut guard = state.lanes[id]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let Lane {
            queue,
            runs,
            batches,
        } = &mut *guard;
        let mut i = 0;
        while i < queue.len() {
            let mut now = epoch.elapsed();
            if release(queue[i]) > now {
                std::thread::sleep(release(queue[i]) - now);
                now = epoch.elapsed();
            }
            let mut j = i + 1;
            while j < queue.len() && release(queue[j]) <= now {
                j += 1;
            }
            *batches += 1;
            for &request in &queue[i..j] {
                let (from, to) = state.spans[request];
                let input = &state.values[from..to];
                let start = epoch.elapsed();
                let output = catch_unwind(AssertUnwindSafe(|| chip.infer(input)));
                let done = epoch.elapsed();
                runs.push(Ran {
                    output,
                    start,
                    done,
                });
            }
            i = j;
        }
    }

    /// Drain the loaded round on a crew that lives for this call: one
    /// thread per busy chip, the caller among them, so one busy chip
    /// runs inline and no chip's release waits delay another's requests.
    pub(crate) fn run_here<'c, K: Chip + ?Sized + 'c>(&self, chip: impl Fn(usize) -> &'c K + Sync) {
        let tasks = self.read().busy.len();
        // `ThreadPool::new(0)` means "auto", hence the floor of one.
        ThreadPool::new(tasks.max(1))
            .crew(|_, task| self.drain(task, &chip), |crew| crew.run(0, tasks));
    }

    /// Per lane `(runs, batches, failures, busy time)`, and the wall time
    /// since the round's clock started.
    fn chip_runs(&self) -> (Vec<ChipRun>, Duration) {
        let mut state = self.write();
        let wall = state.epoch.map_or(Duration::ZERO, |epoch| epoch.elapsed());
        let stats = |lane: &mut Lane| {
            let failures = lane.runs.iter().filter(|r| r.output.is_err()).count();
            let busy = lane.runs.iter().map(|r| r.done - r.start).sum();
            (lane.runs.len(), lane.batches, failures, busy)
        };
        (state.lanes.iter_mut().map(lane).map(stats).collect(), wall)
    }

    /// Fold the drained round in request order: `f` gets each step and
    /// its run (`None` when shed). Consumes the runs.
    fn fold<T>(&self, mut f: impl FnMut(Step, Option<Ran>) -> T) -> Vec<T> {
        let mut state = self.write();
        let RoundState { steps, lanes, .. } = &mut *state;
        // Each chip's queue is in request order, so a request's run is the
        // next unclaimed entry of its chip's log: pop them off reversed.
        lanes.iter_mut().for_each(|l| lane(l).runs.reverse());
        let mut ran = |step| match step {
            Step::Run(chip) => lane(&mut lanes[chip]).runs.pop(),
            Step::Shed { .. } => None,
        };
        steps.iter().map(|&step| f(step, ran(step))).collect()
    }

    /// One item per request, in request order, plus the payload of the
    /// first contained chip panic (the streaming entry points re-raise it).
    pub(crate) fn items(&self) -> (Vec<BatchItem>, Option<Panic>) {
        let mut panic = None;
        let items = self.fold(|step, ran| match step {
            Step::Shed {
                chip,
                estimated_wait_secs,
            } => BatchItem::Shed {
                chip,
                estimated_wait_secs,
            },
            Step::Run(chip) => {
                let ran = ran.expect("every planned run executes");
                match ran.output {
                    Ok(output) => BatchItem::Served(Served {
                        chip,
                        latency: ran.done - ran.start,
                        output,
                    }),
                    Err(payload) => {
                        panic.get_or_insert(payload);
                        BatchItem::Failed { chip }
                    }
                }
            }
        });
        (items, panic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{RoundRobin, SizeAware};

    struct ToyChip {
        scale: f64,
    }

    impl Chip for ToyChip {
        fn infer(&self, input: &[f64]) -> Vec<f64> {
            input.iter().map(|x| x * self.scale).collect()
        }
    }

    fn toy_engine(n: usize) -> Engine<ToyChip> {
        let pool = ChipPool::manufacture(77, n, |_, seed| ToyChip {
            scale: 1.0 + (seed % 1000) as f64 / 1000.0,
        });
        Engine::new(pool)
    }

    #[test]
    fn engine_serve_returns_request_order_and_matches_assignment() {
        let engine = toy_engine(3).with_policy(RoundRobin);
        let inputs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let lens: Vec<usize> = inputs.iter().map(Vec::len).collect();
        let assignment = engine.assignment(&lens);
        let outcome = engine.serve(&inputs);
        assert_eq!(outcome.stats.policy, "round_robin");
        for (i, out) in outcome.outputs.iter().enumerate() {
            let scale = engine.pool().chips()[assignment[i]].scale;
            assert_eq!(out, &vec![inputs[i][0] * scale], "request {i}");
        }
    }

    #[test]
    fn serve_results_are_identical_across_runs_and_placements_agree() {
        let engine = toy_engine(2).with_policy(RoundRobin);
        let inputs: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64, 1.0]).collect();
        let a = engine.serve(&inputs);
        let b = engine.serve(&inputs);
        assert_eq!(a.outputs, b.outputs, "same pool, same batch → same bits");
        // Equal-cost requests: least-loaded degenerates to round-robin.
        let costs = vec![2usize; 9];
        assert_eq!(
            toy_engine(2).with_policy(LeastLoaded).assignment(&costs),
            engine.assignment(&costs)
        );
    }

    #[test]
    fn stats_cover_every_chip_and_request() {
        let engine = toy_engine(4).with_policy(RoundRobin);
        let inputs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let outcome = engine.serve(&inputs);
        let stats = &outcome.stats;
        assert_eq!(stats.requests, 20);
        assert_eq!(stats.policy, "round_robin");
        assert_eq!(stats.per_chip.len(), 4);
        assert_eq!(stats.per_chip.iter().map(|c| c.served).sum::<usize>(), 20);
        // A closed batch is released at once: one batch per busy chip.
        assert!(stats.per_chip.iter().all(|c| c.batches == 1));
        assert!(stats.requests_per_sec > 0.0);
        assert!(stats.p50_latency_us <= stats.p99_latency_us);
    }

    #[test]
    fn streaming_session_reproduces_batch_assignment() {
        let engine = toy_engine(4).with_policy(SizeAware);
        let inputs: Vec<Vec<f64>> = (0..17).map(|i| vec![0.5; 1 + (i * 7) % 5]).collect();
        let lens: Vec<usize> = inputs.iter().map(Vec::len).collect();
        let batch = engine.assignment(&lens);
        let mut session = engine.session();
        let streamed: Vec<usize> = inputs
            .iter()
            .map(|input| engine.serve_one(&mut session, input).chip)
            .collect();
        assert_eq!(streamed, batch, "stream and batch placement diverged");
        assert_eq!(session.served(), inputs.len() as u64);
    }

    #[test]
    fn open_loop_latency_includes_queueing_and_outputs_stay_exact() {
        let engine = toy_engine(1);
        let inputs: Vec<Vec<f64>> = (0..3).map(|i| vec![i as f64]).collect();
        let arrivals = vec![
            Duration::ZERO,
            Duration::from_millis(4),
            Duration::from_millis(8),
        ];
        let outcome = engine.serve_open_loop(&inputs, &arrivals);
        assert!(outcome.stats.wall_secs >= 0.008);
        let scale = engine.pool().chips()[0].scale;
        for (input, out) in inputs.iter().zip(&outcome.outputs) {
            assert_eq!(out, &vec![input[0] * scale]);
        }
    }

    #[test]
    #[should_panic(expected = "cost model must cover every chip")]
    fn mismatched_cost_model_is_rejected() {
        let _ = toy_engine(3).with_cost_model(CostModel::input_length(2));
    }

    #[test]
    fn advance_window_broadcasts_and_recalibrate_versions_snapshots() {
        let mut engine = toy_engine(2);
        assert_eq!(engine.window(), 0);
        assert_eq!(engine.cost_model().version(), 0);
        assert_eq!(engine.advance_window(), 1);
        assert_eq!(engine.window(), 1);
        // Advancing without recalibrating leaves the model untouched.
        assert_eq!(engine.cost_model().version(), 0);
        assert!(engine.model_history().is_empty());
        let reps = vec![vec![0.5; 4], vec![0.5; 16]];
        assert_eq!(engine.recalibrate_window(&reps, 1), 2);
        assert_eq!(engine.cost_model().version(), 1);
        assert_eq!(engine.model_history().len(), 1);
        assert_eq!(engine.model_history()[0].version(), 0);
        let _ = engine.recalibrate_window(&reps, 1);
        assert_eq!(engine.cost_model().version(), 2);
        assert_eq!(engine.model_history().len(), 2);
    }

    #[test]
    fn model_history_cap_drops_the_oldest_snapshots() {
        let mut engine = toy_engine(2);
        let reps = vec![vec![0.5; 4]];
        for _ in 0..MODEL_HISTORY_CAP + 2 {
            let _ = engine.recalibrate_window(&reps, 1);
        }
        // Two recalibrations past the cap: versions 0 and 1 were dropped,
        // the retained snapshots keep their original versions.
        assert_eq!(engine.cost_model().version(), MODEL_HISTORY_CAP as u64 + 2);
        let versions: Vec<u64> = engine
            .model_history()
            .iter()
            .map(CostModel::version)
            .collect();
        assert_eq!(
            versions,
            (2..=MODEL_HISTORY_CAP as u64 + 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn admitted_serve_without_admission_admits_everything() {
        let engine = toy_engine(2);
        let inputs: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
        let arrivals = vec![Duration::ZERO; 6];
        let plain = engine.serve_open_loop(&inputs, &arrivals);
        let gated = engine.serve_open_loop_admitted(&inputs, &arrivals);
        assert!(gated.shed.is_empty());
        assert_eq!(gated.admitted, (0..6).collect::<Vec<_>>());
        let outcome = gated.outcome.expect("admitted requests ran");
        assert_eq!(outcome.outputs, plain.outputs);
        assert_eq!(gated.gate_stats.offered, 6);
        assert_eq!(gated.gate_stats.shed, 0);
    }

    #[test]
    fn admitted_serve_sheds_deterministically_and_serves_the_rest() {
        // Zero tolerance for estimated wait over the input-length proxy:
        // on one chip every request after the first (all arriving at 0)
        // finds a non-empty virtual queue and is shed.
        let engine = toy_engine(1).with_admission(AdmissionConfig::new(0.0));
        let inputs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let arrivals = vec![Duration::ZERO; 5];
        let a = engine.serve_open_loop_admitted(&inputs, &arrivals);
        let b = engine.serve_open_loop_admitted(&inputs, &arrivals);
        assert_eq!(a.admitted, vec![0]);
        assert_eq!(a.shed, vec![1, 2, 3, 4]);
        assert_eq!(a.admitted, b.admitted);
        assert_eq!(a.shed, b.shed);
        assert_eq!(
            a.outcome.expect("one admitted").outputs,
            b.outcome.expect("one admitted").outputs,
            "rerun changed admitted bits"
        );
        assert_eq!(a.gate_stats.shed, 4);
    }

    #[test]
    fn session_batch_matches_serve_one_bits() {
        // The v2 serving shape must be bit-identical to one-at-a-time
        // streaming: same chips, same outputs, whatever the per-chip
        // threading inside the batch.
        let engine = toy_engine(3).with_policy(SizeAware);
        let inputs: Vec<Vec<f64>> = (0..23).map(|i| vec![0.5; 1 + (i * 7) % 5]).collect();
        let mut streamed_session = engine.session();
        let streamed: Vec<Served> = inputs
            .iter()
            .map(|input| engine.serve_one(&mut streamed_session, input))
            .collect();
        let mut batched_session = engine.session();
        let batched = engine.serve_session_batch(&mut batched_session, &inputs, None);
        assert_eq!(batched.len(), streamed.len());
        for (b, s) in batched.iter().zip(&streamed) {
            match b {
                BatchItem::Served(served) => {
                    assert_eq!(served.chip, s.chip);
                    assert_eq!(served.output, s.output);
                }
                other => panic!("ungated batch item must serve: {other:?}"),
            }
        }
        assert_eq!(batched_session.served(), streamed_session.served());

        // Splitting the same sequence across several batches continues
        // the same session fold (latency is wall-clock, so compare the
        // deterministic fields: chip and output bits).
        let mut split_session = engine.session();
        let mut split = engine.serve_session_batch(&mut split_session, &inputs[..7], None);
        split.extend(engine.serve_session_batch(&mut split_session, &inputs[7..], None));
        let bits = |items: &[BatchItem]| -> Vec<(usize, Vec<u64>)> {
            items
                .iter()
                .map(|item| match item {
                    BatchItem::Served(s) => {
                        (s.chip, s.output.iter().map(|x| x.to_bits()).collect())
                    }
                    other => panic!("ungated batch item must serve: {other:?}"),
                })
                .collect()
        };
        assert_eq!(
            bits(&split),
            bits(&batched),
            "batch boundaries changed placement"
        );
    }

    #[test]
    fn session_batch_respects_the_admission_gate() {
        // Zero wait tolerance on one chip: with all requests stamped at
        // arrival 0, only the first is admitted — exactly offer_one's
        // decision stream.
        let engine = toy_engine(1).with_admission(AdmissionConfig::new(0.0));
        let inputs: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        let mut session = engine.session();
        let items = engine.serve_session_batch(&mut session, &inputs, Some(0.0));
        assert!(matches!(items[0], BatchItem::Served(_)));
        for item in &items[1..] {
            assert!(matches!(item, BatchItem::Shed { chip: 0, .. }), "{item:?}");
        }
        assert_eq!(session.served(), 1);
        assert_eq!(session.gate_stats().expect("gate").shed, 3);

        // Without an arrival stamp the gate is bypassed (v1 ungated
        // connections reuse the same entry point).
        let mut ungated = engine.session();
        let items = engine.serve_session_batch(&mut ungated, &inputs, None);
        assert!(items.iter().all(|i| matches!(i, BatchItem::Served(_))));
    }

    #[test]
    fn session_batch_contains_a_panicking_chip() {
        struct FlakyChip {
            broken: bool,
        }
        impl Chip for FlakyChip {
            fn infer(&self, input: &[f64]) -> Vec<f64> {
                assert!(!self.broken, "injected fault");
                input.to_vec()
            }
        }
        let pool = ChipPool::from_chips(vec![
            FlakyChip { broken: false },
            FlakyChip { broken: true },
        ]);
        let engine = Engine::new(pool).with_policy(RoundRobin);
        let inputs: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
        let mut session = engine.session();
        let items = engine.serve_session_batch(&mut session, &inputs, None);
        // Round-robin alternates chips; every chip-1 request fails, every
        // chip-0 request still completes.
        for (i, item) in items.iter().enumerate() {
            match item {
                BatchItem::Served(s) => {
                    assert_eq!(s.chip, 0, "request {i}");
                    assert_eq!(s.output, inputs[i]);
                }
                BatchItem::Failed { chip } => assert_eq!(*chip, 1, "request {i}"),
                BatchItem::Shed { .. } => panic!("no gate configured"),
            }
        }
        assert_eq!(
            items
                .iter()
                .filter(|i| matches!(i, BatchItem::Failed { .. }))
                .count(),
            3
        );
        // The streaming entry points re-raise the contained panic with
        // its original payload.
        for offered in [false, true] {
            // Round-robin: the next request lands on chip 0, the one
            // after on the broken chip 1.
            let _ = engine.serve_one(&mut session, &inputs[0]);
            let payload = catch_unwind(AssertUnwindSafe(|| match offered {
                false => drop(engine.serve_one(&mut session, &inputs[1])),
                true => drop(engine.offer_one(&mut session, &inputs[1], 0.0)),
            }))
            .expect_err("the chip panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"injected fault"));
        }
    }

    #[test]
    fn offer_one_matches_serve_one_when_admitting_and_commits_nothing_on_shed() {
        let engine = toy_engine(2).with_admission(AdmissionConfig::new(1e6));
        let open = toy_engine(2);
        let inputs: Vec<Vec<f64>> = (0..8).map(|i| vec![0.5; 1 + i % 3]).collect();
        let mut gated = engine.session();
        let mut plain = open.session();
        for input in &inputs {
            let offer = engine.offer_one(&mut gated, input, 0.0);
            let served = open.serve_one(&mut plain, input);
            match offer {
                Offer::Served(s) => {
                    assert_eq!(s.chip, served.chip);
                    assert_eq!(s.output, served.output);
                }
                Offer::Shed { .. } => panic!("generous bound must admit"),
            }
        }
        assert_eq!(gated.gate_stats().expect("gated session").admitted, 8);

        // A zero-bound session sheds from the second request on, and the
        // shed commits nothing: served() only counts admitted requests.
        let strict = toy_engine(1).with_admission(AdmissionConfig::new(0.0));
        let mut session = strict.session();
        let first = strict.offer_one(&mut session, &[1.0], 0.0);
        assert!(matches!(first, Offer::Served(_)));
        let second = strict.offer_one(&mut session, &[1.0], 0.0);
        assert!(matches!(second, Offer::Shed { chip: 0, .. }), "{second:?}");
        assert_eq!(session.served(), 1);
        assert_eq!(session.gate_stats().expect("gate").shed, 1);
    }
}
