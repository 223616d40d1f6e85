//! Fleet-scale serving: a deterministic router over many [`Engine`]
//! pools.
//!
//! One engine saturates one chip pool; the ROADMAP's production shape is
//! many pools behind one front door. This module is that layer:
//!
//! ```text
//! Fleet ──▶ Engine ──▶ ChipPool ──▶ Chip
//!   │          │           │
//!   │          │           └─ manufactured devices (write noise, drift)
//!   │          └─ placement policy + cost model + admission gate
//!   └─ rendezvous routing + replication + failover + capacity planning
//! ```
//!
//! * **Routing** ([`router`]) — rendezvous (highest-random-weight)
//!   hashing scores every `(workload key, pool)` pair independently, so
//!   losing a pool moves only that pool's keys (minimal disruption) and
//!   routing is a pure function of `(fleet seed, key, healthy set)`.
//! * **Replication** — a workload is served by its top-`R` ranked
//!   healthy pools; a [`FleetSession`] rotates across the replica set
//!   deterministically (request `n` lands on replica `n mod R`), so the
//!   request → pool map is a pure function of the request sequence.
//! * **Failover** ([`health`]) — recalibration signals (chip
//!   quarantine, drift past the calibrated baseline) eject a pool from
//!   the routing set at a window boundary and re-admit it when a later
//!   recalibration comes back clean. Ejection takes `&mut Fleet` while
//!   serving borrows `&Fleet`, so rerouting is in-flight-free by
//!   construction: no request is mid-serve when the healthy set changes.
//! * **Capacity** — [`Fleet::pools_for`] answers "how many pools for
//!   `target_rps` under this p99 SLA" from recorded
//!   [`SlaPoint`]s (measured by `mei_bench::ramp::sla_search`).
//!
//! Chip ids reported by a fleet are **global**: pool `p`'s chip `c`
//! surfaces as `chip_offset(p) + c`, so the wire protocols carry fleet
//! placement without a schema change.
//!
//! Determinism: same seed + same pool set + same request sequence ⇒
//! bit-identical routing and outputs regardless of worker or thread
//! count, and a killed pool's traffic lands identically on reruns —
//! pinned end-to-end in `crates/runtime/tests/fleet_failover.rs`.

pub mod dse;
pub mod health;
pub mod router;

pub use health::{EjectReason, HealthPolicy, PoolHealth, Transition};

use crate::chip::Chip;
use crate::engine::{
    into_offer, into_served, BatchItem, Engine, Offer, Panic, Round, Served, Session, Step,
};

/// Fleet-wide knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Root seed of the routing hash. Two fleets with the same seed and
    /// pool set route identically.
    pub seed: u64,
    /// Replica count `R`: a workload key is served by its top-`R`
    /// ranked healthy pools (clamped to the healthy pool count).
    pub replication: usize,
    /// Failover thresholds.
    pub health: HealthPolicy,
}

impl FleetConfig {
    /// A config with the default replication (2) and health policy.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            replication: 2,
            health: HealthPolicy::default(),
        }
    }

    /// Replace the replica count.
    ///
    /// # Panics
    ///
    /// Panics if `replication` is zero.
    #[must_use]
    pub fn with_replication(mut self, replication: usize) -> Self {
        assert!(replication > 0, "a workload needs at least one replica");
        self.replication = replication;
        self
    }

    /// Apply deploy-time overrides from the environment:
    ///
    /// * `MEI_FLEET_REPLICATION` — replaces `replication` (≥ 1);
    /// * `MEI_FLEET_QUARANTINE_FRAC`, `MEI_FLEET_DRIFT_RATIO` — health
    ///   thresholds (see [`HealthPolicy::from_env`]).
    ///
    /// Unset variables leave the config unchanged; malformed values
    /// warn on stderr and are ignored.
    #[must_use]
    pub fn from_env(mut self) -> Self {
        if let Some(r) =
            prng::env::parse_validated::<usize>("MEI_FLEET_REPLICATION", "an integer >= 1", |r| {
                *r >= 1
            })
        {
            self.replication = r;
        }
        self.health = self.health.from_env();
        self
    }
}

/// One measured capacity point: the highest per-pool rate whose p99
/// stayed under an absolute SLA target (the output of
/// `mei_bench::ramp::sla_search`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaPoint {
    /// The absolute p99 target the rate was searched under, µs.
    pub sla_p99_us: f64,
    /// The highest measured per-pool rate meeting the target, req/s.
    pub max_rps_per_pool: f64,
}

/// One pool slot: the engine plus its routing identity and health.
struct FleetPool<C: Chip> {
    engine: Engine<C>,
    /// Stable routing identity: the pool's construction index. Survives
    /// ejection of *other* pools, which is what keeps rendezvous scores
    /// stable as the healthy set shrinks.
    id: u64,
    /// First global chip id of this pool.
    chip_offset: usize,
    health: PoolHealth,
    /// Mean calibrated cost captured at fleet construction — the
    /// operating point the drift signal is measured against.
    baseline_cost: f64,
}

/// A router over many engine pools. Build with [`Fleet::new`]; serve
/// through [`FleetSession`]s.
pub struct Fleet<C: Chip> {
    pools: Vec<FleetPool<C>>,
    config: FleetConfig,
    sla_points: Vec<SlaPoint>,
}

impl<C: Chip> Fleet<C> {
    /// Assemble a fleet from pools. Pool `i` keeps routing identity `i`
    /// forever; each pool's current cost model sets its drift baseline
    /// (calibrate engines before assembly for a meaningful one).
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty or `config.replication` is zero.
    #[must_use]
    pub fn new(engines: Vec<Engine<C>>, config: FleetConfig) -> Self {
        assert!(!engines.is_empty(), "a fleet needs a pool");
        assert!(config.replication > 0, "replication must be at least 1");
        let mut chip_offset = 0usize;
        let pools = engines
            .into_iter()
            .enumerate()
            .map(|(i, engine)| {
                let offset = chip_offset;
                chip_offset += engine.pool().len();
                let baseline_cost = health::mean_cost(engine.cost_model());
                FleetPool {
                    engine,
                    id: i as u64,
                    chip_offset: offset,
                    health: PoolHealth::Healthy,
                    baseline_cost,
                }
            })
            .collect();
        Self {
            pools,
            config,
            sla_points: Vec::new(),
        }
    }

    /// Number of pools (healthy or not).
    #[must_use]
    pub fn len(&self) -> usize {
        self.pools.len()
    }

    /// `true` when the fleet holds no pools (unreachable after `new`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pools.is_empty()
    }

    /// The fleet config.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Pool `i`'s engine.
    #[must_use]
    pub fn engine(&self, pool: usize) -> &Engine<C> {
        &self.pools[pool].engine
    }

    /// Pool `i`'s engine, mutably (for window advances outside the
    /// fleet-level helpers).
    #[must_use]
    pub fn engine_mut(&mut self, pool: usize) -> &mut Engine<C> {
        &mut self.pools[pool].engine
    }

    /// Consume the fleet, returning its engines in pool order — e.g. to
    /// rebuild under a different [`FleetConfig`] or box the chips.
    #[must_use]
    pub fn into_engines(self) -> Vec<Engine<C>> {
        self.pools.into_iter().map(|slot| slot.engine).collect()
    }

    /// Pool `i`'s health.
    #[must_use]
    pub fn health(&self, pool: usize) -> PoolHealth {
        self.pools[pool].health
    }

    /// Pool `i`'s drift baseline (mean calibrated cost at assembly).
    #[must_use]
    pub fn baseline_cost(&self, pool: usize) -> f64 {
        self.pools[pool].baseline_cost
    }

    /// Indices of the pools currently in the routing set.
    #[must_use]
    pub fn healthy(&self) -> Vec<usize> {
        (0..self.pools.len())
            .filter(|&i| self.pools[i].health.is_healthy())
            .collect()
    }

    /// Total chips across all pools; global chip ids live in
    /// `0..total_chips()`.
    #[must_use]
    pub fn total_chips(&self) -> usize {
        self.pools
            .last()
            .map_or(0, |p| p.chip_offset + p.engine.pool().len())
    }

    /// First global chip id of `pool`.
    #[must_use]
    pub fn chip_offset(&self, pool: usize) -> usize {
        self.pools[pool].chip_offset
    }

    /// The fleet's physical accounting: pool-id-order rollup of every
    /// pool's chip cost sheets. Covers **all** pools, healthy or ejected
    /// — the silicon is on the rack whether or not the router sends it
    /// traffic — so the totals are invariant under ejection and
    /// re-admission ordering (see [`crate::accounting`]).
    #[must_use]
    pub fn accounting(&self) -> crate::accounting::FleetAccounting {
        crate::accounting::FleetAccounting::from_pools(
            self.pools.iter().map(|p| p.engine.accounting()).collect(),
        )
    }

    /// The chip with global id `chip`.
    pub(crate) fn chip(&self, chip: usize) -> &C {
        let slot = &self.pools[self.pool_of_chip(chip)];
        &slot.engine.pool().chips()[chip - slot.chip_offset]
    }

    /// The pool that owns global chip id `chip`.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    #[must_use]
    pub fn pool_of_chip(&self, chip: usize) -> usize {
        assert!(chip < self.total_chips(), "global chip id out of range");
        self.pools
            .iter()
            .rposition(|p| p.chip_offset <= chip)
            .expect("offset 0 exists")
    }

    /// The replica set for `key`: the top-`R` ranked healthy pools,
    /// best first (fewer when fewer pools are healthy; empty only when
    /// nothing is healthy).
    #[must_use]
    pub fn replicas(&self, key: &str) -> Vec<usize> {
        self.ranked(router::key_hash(key))
    }

    /// [`Fleet::replicas`] for an already-hashed key.
    fn ranked(&self, key: u64) -> Vec<usize> {
        let healthy = self.healthy();
        let ids: Vec<u64> = healthy.iter().map(|&i| self.pools[i].id).collect();
        router::rank(self.config.seed, key, &ids)
            .into_iter()
            .take(self.config.replication)
            .map(|rank_index| healthy[rank_index])
            .collect()
    }

    /// The primary (top-ranked healthy) pool for `key`, or `None` when
    /// no pool is healthy.
    #[must_use]
    pub fn route(&self, key: &str) -> Option<usize> {
        self.replicas(key).first().copied()
    }

    /// Manually eject `pool` from the routing set (reason `Manual`
    /// unless a signal reason is supplied); a no-op if already ejected.
    pub fn eject(&mut self, pool: usize, reason: EjectReason) {
        let window = self.pools[pool].engine.window();
        let slot = &mut self.pools[pool];
        if slot.health.is_healthy() {
            slot.health = PoolHealth::Ejected { window, reason };
        }
    }

    /// Return `pool` to the routing set (clears manual and automatic
    /// ejections alike); a no-op if already healthy.
    pub fn readmit(&mut self, pool: usize) {
        self.pools[pool].health = PoolHealth::Healthy;
    }

    /// Advance every pool one serving window **without** recalibrating
    /// (see [`Engine::advance_window`]). Returns the common new window.
    ///
    /// # Panics
    ///
    /// Panics if the pools' windows have fallen out of lockstep (only
    /// possible by advancing an engine directly via [`Fleet::engine_mut`]).
    pub fn advance_window(&mut self) -> u64 {
        let windows: Vec<u64> = self
            .pools
            .iter_mut()
            .map(|p| p.engine.advance_window())
            .collect();
        let window = windows[0];
        assert!(
            windows.iter().all(|&w| w == window),
            "fleet pools must advance windows in lockstep"
        );
        window
    }

    /// The fleet-level wear-rotation hook: advance every pool one window
    /// in lockstep, then rebuild each pool's placement as a
    /// [`WearAware`](crate::WearAware) policy frozen from that pool's
    /// current endurance snapshot
    /// ([`Engine::refresh_wear_policy`]) with penalty scale `alpha`.
    /// Within the new window placement is again a pure function of the
    /// request sequence; heavily-written chips shed load until a later
    /// rotation finds the pool rebalanced. Returns `(window, per-pool
    /// wear snapshots in pool order)`.
    ///
    /// # Panics
    ///
    /// As [`Fleet::advance_window`]; also if `alpha` is negative or
    /// non-finite.
    pub fn rotate_wear(&mut self, alpha: f64) -> (u64, Vec<Vec<Option<u64>>>) {
        let window = self.advance_window();
        let snapshots = self
            .pools
            .iter_mut()
            .map(|p| p.engine.refresh_wear_policy(alpha))
            .collect();
        (window, snapshots)
    }

    /// Advance every pool one window **and** recalibrate its cost model
    /// (see [`Engine::recalibrate_window`]), then run the failover state
    /// machine: assess each pool's fresh model against its baseline and
    /// the fleet [`HealthPolicy`], ejecting pools that trip a signal and
    /// re-admitting previously auto-ejected pools that come back clean.
    /// Manual ejections are left alone. Returns the transitions, in
    /// pool order.
    ///
    /// # Panics
    ///
    /// As [`Fleet::advance_window`]; also if `representative` is empty
    /// or `passes` is zero.
    pub fn recalibrate_window(
        &mut self,
        representative: &[Vec<f64>],
        passes: usize,
    ) -> Vec<(usize, Transition)> {
        let mut transitions = Vec::new();
        let mut windows = Vec::with_capacity(self.pools.len());
        for (i, slot) in self.pools.iter_mut().enumerate() {
            windows.push(slot.engine.recalibrate_window(representative, passes));
            let verdict = health::assess(
                slot.engine.cost_model(),
                slot.baseline_cost,
                &self.config.health,
            );
            match (slot.health, verdict) {
                (PoolHealth::Healthy, Some(reason)) => {
                    slot.health = PoolHealth::Ejected {
                        window: slot.engine.window(),
                        reason,
                    };
                    transitions.push((i, Transition::Ejected(reason)));
                }
                (
                    PoolHealth::Ejected {
                        reason: EjectReason::Manual,
                        ..
                    },
                    _,
                ) => {} // operator holds the pool out; signals don't touch it
                (PoolHealth::Ejected { .. }, None) => {
                    slot.health = PoolHealth::Healthy;
                    transitions.push((i, Transition::Readmitted));
                }
                (PoolHealth::Healthy, None) | (PoolHealth::Ejected { .. }, Some(_)) => {}
            }
        }
        let window = windows[0];
        assert!(
            windows.iter().all(|&w| w == window),
            "fleet pools must advance windows in lockstep"
        );
        transitions
    }

    /// Open a routing session for workload `key`: one placement
    /// [`Session`] per pool (created lazily on first use is not worth
    /// the branch — pools are cheap), plus the deterministic replica
    /// rotation counter.
    #[must_use]
    pub fn session(&self, key: &str) -> FleetSession {
        FleetSession {
            key: router::key_hash(key),
            key_name: key.to_string(),
            sequence: 0,
            sessions: self.pools.iter().map(|p| p.engine.session()).collect(),
        }
    }

    /// The session's replica set, which cannot change under `&self`, or
    /// the in-band message when no pool is healthy.
    fn session_replicas(&self, session: &FleetSession) -> Result<Vec<usize>, String> {
        let replicas = self.ranked(session.key);
        if replicas.is_empty() {
            return Err(format!(
                "no healthy pool to serve workload '{}'",
                session.key_name
            ));
        }
        Ok(replicas)
    }

    /// The pool the session's next request will land on. Pure function
    /// of `(fleet seed, key, healthy set, sequence)`.
    ///
    /// # Panics
    ///
    /// Panics if no pool is healthy.
    #[must_use]
    pub fn next_pool(&self, session: &FleetSession) -> usize {
        let replicas = self
            .session_replicas(session)
            .unwrap_or_else(|e| panic!("{e}"));
        replicas[(session.sequence % replicas.len() as u64) as usize]
    }

    /// Serve one request through the session: pick the replica for this
    /// sequence number, serve it on that pool's engine, and report the
    /// **global** chip id.
    ///
    /// # Panics
    ///
    /// Panics if no pool is healthy; re-raises a chip panic as
    /// [`Engine::serve_one`] does.
    pub fn serve_one(&self, session: &mut FleetSession, input: &[f64]) -> Served {
        into_served(self.serve_frame(session, &[input], None))
    }

    /// [`Fleet::serve_one`] behind the target pool's admission gate
    /// (see [`Engine::offer_one`]). The replica rotation advances on a
    /// shed too — the request *was* routed — so the request → pool map
    /// stays a pure function of the sequence number.
    ///
    /// # Panics
    ///
    /// As [`Fleet::serve_one`].
    pub fn offer_one(&self, session: &mut FleetSession, input: &[f64], arrival_secs: f64) -> Offer {
        into_offer(self.serve_frame(session, &[input], Some(arrival_secs)))
    }

    /// Serve a pipelined batch through the session — the wire-protocol
    /// v2 shape. Requests are routed exactly as one-at-a-time
    /// [`Fleet::serve_one`] calls would route them (replica = sequence
    /// mod R) before anything runs, so the items — global chip ids and
    /// output bits — equal that fold, whatever the threading.
    ///
    /// # Panics
    ///
    /// Panics if no pool is healthy.
    pub fn serve_session_batch(
        &self,
        session: &mut FleetSession,
        inputs: &[Vec<f64>],
        arrival_secs: Option<f64>,
    ) -> Vec<BatchItem> {
        self.serve_frame(session, inputs, arrival_secs).0
    }

    /// Plan `inputs` and run them as one [`Round`] on a crew that lives
    /// for the call ([`Round::run_here`]).
    ///
    /// # Panics
    ///
    /// Panics if no pool is healthy.
    fn serve_frame<I: AsRef<[f64]>>(
        &self,
        session: &mut FleetSession,
        inputs: &[I],
        arrival: Option<f64>,
    ) -> (Vec<BatchItem>, Option<Panic>) {
        let round = Round::default();
        let inputs = inputs.iter().map(AsRef::as_ref);
        self.serve_round(session, inputs, arrival, &round, |_| {
            round.run_here(|chip| self.chip(chip));
        })
        .unwrap_or_else(|message| panic!("{message}"))
    }

    /// The body of every fleet serving call: plan `inputs` ([`Fleet::plan`]),
    /// load the plan into `round`, have `run(tasks)` drain it, and fold the
    /// items. The error is the in-band message when no pool is healthy;
    /// nothing is planned or run then.
    pub(crate) fn serve_round<'a>(
        &self,
        session: &mut FleetSession,
        inputs: impl Iterator<Item = &'a [f64]> + Clone,
        arrival: Option<f64>,
        round: &Round,
        run: impl FnOnce(usize),
    ) -> Result<(Vec<BatchItem>, Option<Panic>), String> {
        let steps = self.plan(session, inputs.clone().map(<[f64]>::len), arrival)?;
        run(round.load(steps, self.total_chips(), inputs, None));
        Ok(round.items())
    }

    /// Route requests of the given input lengths across the replica set,
    /// plan each pool's share (in request order) on that pool's session,
    /// and shift the steps to global chip ids — the one place fleet chip
    /// ids are made. The error is the in-band message when no pool is
    /// healthy; the session is untouched then.
    fn plan(
        &self,
        session: &mut FleetSession,
        lens: impl Iterator<Item = usize> + Clone,
        arrival: Option<f64>,
    ) -> Result<Vec<Step>, String> {
        let replicas = self.session_replicas(session)?;
        let pool_of: Vec<usize> = (session.sequence..)
            .zip(lens.clone())
            .map(|(n, _)| replicas[(n % replicas.len() as u64) as usize])
            .collect();
        session.sequence += pool_of.len() as u64;
        // A request's step is the next unclaimed entry of its pool's plan.
        let mut plans: Vec<_> = self
            .pools
            .iter()
            .zip(&mut session.sessions)
            .enumerate()
            .map(|(pool, (slot, pool_session))| {
                let share = pool_of
                    .iter()
                    .zip(lens.clone())
                    .filter(|&(&p, _)| p == pool);
                let share = share.map(|(_, len)| (len, arrival));
                slot.engine.plan(pool_session, share).into_iter()
            })
            .collect();
        Ok(pool_of
            .iter()
            .map(|&pool| {
                let step = plans[pool].next().expect("one step per routed request");
                step.offset(self.pools[pool].chip_offset)
            })
            .collect())
    }

    /// Record a measured capacity point for [`Fleet::pools_for`].
    ///
    /// # Panics
    ///
    /// Panics if the point is degenerate (non-finite or non-positive).
    pub fn record_sla_point(&mut self, point: SlaPoint) {
        assert!(
            point.sla_p99_us.is_finite() && point.sla_p99_us > 0.0,
            "SLA target must be a positive latency"
        );
        assert!(
            point.max_rps_per_pool.is_finite() && point.max_rps_per_pool > 0.0,
            "per-pool rate must be positive"
        );
        self.sla_points.push(point);
    }

    /// The recorded capacity points, in recording order.
    #[must_use]
    pub fn sla_points(&self) -> &[SlaPoint] {
        &self.sla_points
    }

    /// Capacity planner: the pool count needed to serve `target_rps`
    /// with p99 under `sla_p99_us`, from the recorded [`SlaPoint`]s.
    /// Conservative: only points measured at an SLA **at least as
    /// strict** (≤ the requested target) qualify, and the best
    /// qualifying per-pool rate is used. `None` when no recorded point
    /// qualifies (the question is unanswerable from the measurements at
    /// hand).
    #[must_use]
    pub fn pools_for(&self, target_rps: f64, sla_p99_us: f64) -> Option<usize> {
        let best = self
            .sla_points
            .iter()
            .filter(|p| p.sla_p99_us <= sla_p99_us)
            .map(|p| p.max_rps_per_pool)
            .fold(f64::NAN, f64::max);
        if !best.is_finite() || best <= 0.0 || !target_rps.is_finite() || target_rps <= 0.0 {
            return None;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Some(((target_rps / best).ceil() as usize).max(1))
    }
}

/// Streaming routing state for one request source against a [`Fleet`]:
/// the fleet-level mirror of [`Session`]. Carries one placement session
/// per pool (placement within a pool stays a pure per-source fold, as
/// over a single engine) plus the replica-rotation sequence counter.
#[derive(Debug, Clone)]
pub struct FleetSession {
    key: u64,
    key_name: String,
    sequence: u64,
    sessions: Vec<Session>,
}

impl FleetSession {
    /// Requests routed through this session so far (served or shed).
    #[must_use]
    pub fn routed(&self) -> u64 {
        self.sequence
    }

    /// Requests actually served, summed over the per-pool sessions.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.sessions.iter().map(Session::served).sum()
    }

    /// The workload key this session routes.
    #[must_use]
    pub fn key(&self) -> &str {
        &self.key_name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipPool;
    use crate::policy::{CostModel, RoundRobin};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    /// A chip whose output encodes its identity; can be broken so
    /// `infer` panics (what a dead device looks like to calibration).
    struct TaggedChip {
        tag: f64,
        broken: Arc<AtomicBool>,
    }

    impl Chip for TaggedChip {
        fn infer(&self, input: &[f64]) -> Vec<f64> {
            assert!(
                !self.broken.load(Ordering::SeqCst),
                "chip is broken (test fault injection)"
            );
            input.iter().map(|x| x * 10.0 + self.tag).collect()
        }
    }

    fn pool_engine(
        pool_index: usize,
        chips: usize,
        broken: &Arc<AtomicBool>,
    ) -> Engine<TaggedChip> {
        let pool = ChipPool::from_chips(
            (0..chips)
                .map(|c| TaggedChip {
                    tag: (pool_index * 100 + c) as f64,
                    broken: Arc::clone(broken),
                })
                .collect(),
        );
        Engine::new(pool).with_policy(RoundRobin)
    }

    fn fleet_of(pools: usize, chips: usize) -> (Fleet<TaggedChip>, Vec<Arc<AtomicBool>>) {
        let switches: Vec<Arc<AtomicBool>> = (0..pools)
            .map(|_| Arc::new(AtomicBool::new(false)))
            .collect();
        let engines = switches
            .iter()
            .enumerate()
            .map(|(i, s)| pool_engine(i, chips, s))
            .collect();
        let fleet = Fleet::new(engines, FleetConfig::new(42).with_replication(2));
        (fleet, switches)
    }

    #[test]
    fn global_chip_ids_partition_by_pool() {
        let (fleet, _) = fleet_of(3, 2);
        assert_eq!(fleet.total_chips(), 6);
        assert_eq!(fleet.chip_offset(0), 0);
        assert_eq!(fleet.chip_offset(2), 4);
        assert_eq!(fleet.pool_of_chip(0), 0);
        assert_eq!(fleet.pool_of_chip(3), 1);
        assert_eq!(fleet.pool_of_chip(5), 2);
    }

    #[test]
    fn replica_rotation_is_deterministic_and_replicated() {
        let (fleet, _) = fleet_of(4, 1);
        let replicas = fleet.replicas("hot");
        assert_eq!(replicas.len(), 2, "R = 2 over 4 healthy pools");
        let mut session = fleet.session("hot");
        let landed: Vec<usize> = (0..6)
            .map(|_| fleet.pool_of_chip(fleet.serve_one(&mut session, &[1.0]).chip))
            .collect();
        // Request n lands on replica n mod 2.
        assert_eq!(
            landed,
            vec![
                replicas[0],
                replicas[1],
                replicas[0],
                replicas[1],
                replicas[0],
                replicas[1]
            ]
        );
        assert_eq!(session.routed(), 6);
        assert_eq!(session.served(), 6);
    }

    #[test]
    fn batch_serving_matches_the_serve_one_fold() {
        let (fleet, _) = fleet_of(3, 2);
        let inputs: Vec<Vec<f64>> = (0..11).map(|i| vec![f64::from(i)]).collect();
        let mut one = fleet.session("k");
        let folded: Vec<(usize, Vec<f64>)> = inputs
            .iter()
            .map(|input| {
                let served = fleet.serve_one(&mut one, input);
                (served.chip, served.output)
            })
            .collect();
        let mut batch = fleet.session("k");
        let items = fleet.serve_session_batch(&mut batch, &inputs, None);
        let batched: Vec<(usize, Vec<f64>)> = items
            .into_iter()
            .map(|item| match item {
                BatchItem::Served(s) => (s.chip, s.output),
                other => panic!("unexpected item {other:?}"),
            })
            .collect();
        assert_eq!(batched, folded);
    }

    #[test]
    fn ejection_reroutes_and_readmission_restores() {
        let (mut fleet, _) = fleet_of(3, 1);
        let before = fleet.replicas("w");
        let primary = before[0];
        fleet.eject(primary, EjectReason::Manual);
        let after = fleet.replicas("w");
        assert!(!after.contains(&primary), "ejected pool must not serve");
        // Minimal disruption: the surviving replica order is the old
        // ranking with the victim removed.
        assert_eq!(after[0], before[1]);
        fleet.readmit(primary);
        assert_eq!(fleet.replicas("w"), before, "readmission restores routing");
    }

    #[test]
    fn recalibration_ejects_a_broken_pool_and_readmits_on_recovery() {
        let (mut fleet, switches) = fleet_of(2, 2);
        let reps = vec![vec![1.0]];
        // Break every chip in pool 1, recalibrate: quarantine → eject.
        switches[1].store(true, Ordering::SeqCst);
        let transitions = fleet.recalibrate_window(&reps, 1);
        assert_eq!(
            transitions,
            vec![(1, Transition::Ejected(EjectReason::Quarantine))]
        );
        assert_eq!(fleet.healthy(), vec![0]);
        assert!(matches!(
            fleet.health(1),
            PoolHealth::Ejected {
                reason: EjectReason::Quarantine,
                ..
            }
        ));
        // Repair the chips; the next recalibration readmits.
        switches[1].store(false, Ordering::SeqCst);
        let transitions = fleet.recalibrate_window(&reps, 1);
        assert_eq!(transitions, vec![(1, Transition::Readmitted)]);
        assert_eq!(fleet.healthy(), vec![0, 1]);
    }

    #[test]
    fn manual_ejection_is_not_cleared_by_recalibration() {
        let (mut fleet, _) = fleet_of(2, 1);
        fleet.eject(0, EjectReason::Manual);
        let transitions = fleet.recalibrate_window(&[vec![1.0]], 1);
        assert!(transitions.is_empty(), "manual holds survive clean checks");
        assert_eq!(fleet.healthy(), vec![1]);
        fleet.readmit(0);
        assert_eq!(fleet.healthy(), vec![0, 1]);
    }

    #[test]
    fn drift_ejection_uses_the_baseline() {
        // A pool whose model is installed 4× over baseline trips the
        // drift signal without any quarantine.
        let (fleet, _) = fleet_of(1, 2);
        let baseline = fleet.baseline_cost(0);
        let drifted = CostModel::from_coefficients(vec![(baseline * 4.0, 0.0); 2]);
        assert_eq!(
            health::assess(&drifted, baseline, &HealthPolicy::default()),
            Some(EjectReason::Drift)
        );
    }

    #[test]
    fn capacity_planner_is_conservative() {
        let (mut fleet, _) = fleet_of(1, 1);
        assert_eq!(fleet.pools_for(1000.0, 500.0), None, "no points yet");
        fleet.record_sla_point(SlaPoint {
            sla_p99_us: 400.0,
            max_rps_per_pool: 250.0,
        });
        fleet.record_sla_point(SlaPoint {
            sla_p99_us: 800.0,
            max_rps_per_pool: 400.0,
        });
        // 500 µs target: only the 400 µs point qualifies (≤ target).
        assert_eq!(fleet.pools_for(1000.0, 500.0), Some(4));
        // 800 µs target: the looser point's higher rate applies.
        assert_eq!(fleet.pools_for(1000.0, 800.0), Some(3));
        // Stricter than every measurement: unanswerable.
        assert_eq!(fleet.pools_for(1000.0, 100.0), None);
        assert_eq!(fleet.pools_for(1.0, 800.0), Some(1));
    }

    /// A chip whose `infer` returns its input once four chips are inside
    /// `infer` at the same time, and panics if that has not happened
    /// after 5 s.
    struct MeetingChip(Arc<(Mutex<usize>, Condvar)>);

    impl Chip for MeetingChip {
        fn infer(&self, input: &[f64]) -> Vec<f64> {
            let (inside, arrived) = &*self.0;
            let mut count = inside.lock().expect("meeting count");
            *count += 1;
            arrived.notify_all();
            let (count, wait) = arrived
                .wait_timeout_while(count, Duration::from_secs(5), |n| *n < 4)
                .expect("meeting count");
            drop(count);
            assert!(!wait.timed_out(), "not all four chips were inside infer");
            input.to_vec()
        }
    }

    #[test]
    fn every_busy_chip_of_a_frame_runs_at_once() {
        let engine = |chips, meeting: &Arc<_>| {
            let chips = (0..chips).map(|_| MeetingChip(Arc::clone(meeting)));
            Engine::new(ChipPool::from_chips(chips.collect())).with_policy(RoundRobin)
        };
        let inputs: Vec<Vec<f64>> = (0..4).map(|i| vec![f64::from(i)]).collect();
        // 2 pools × 2 chips, R = 2: the frame's four requests land on four
        // chips across both pools, which must all run in one round.
        let meeting = Arc::default();
        let pools = vec![engine(2, &meeting), engine(2, &meeting)];
        let fleet = Fleet::new(pools, FleetConfig::new(42).with_replication(2));
        let items = fleet.serve_session_batch(&mut fleet.session("w"), &inputs, None);
        let served = items.iter().filter(|i| matches!(i, BatchItem::Served(_)));
        assert_eq!(served.count(), 4, "{items:?}");
        // Open loop, one request per chip released at 1 ms: every chip's
        // release wait needs a thread of its own.
        let releases = [Duration::from_millis(1); 4];
        let outcome = engine(4, &Arc::default()).serve_open_loop(&inputs, &releases);
        assert!(outcome.failed.is_empty(), "failed: {:?}", outcome.failed);
    }

    #[test]
    #[should_panic(expected = "no healthy pool")]
    fn serving_with_no_healthy_pool_panics() {
        let (mut fleet, _) = fleet_of(1, 1);
        fleet.eject(0, EjectReason::Manual);
        let mut session = fleet.session("w");
        let _ = fleet.serve_one(&mut session, &[1.0]);
    }
}
