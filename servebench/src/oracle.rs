//! The correctness gate and the post-timing check.
//!
//! The reference is a twin fleet, trained and manufactured from the
//! (twin) seed in process. Before anything is timed, the first frames and
//! the first v1 lines of the request sequence must come back with the
//! chip ids and output bits of an in-process `Fleet::serve_one` fold over
//! the twin; afterwards a deterministic sample of every timed phase is
//! checked against the same reference.
//!
//! Replaying the fold for every timed request would cost as much chip
//! time as the run itself, so the post-timing check uses the fold's
//! closed form: request `n` lands on replica `n mod R`, and within its
//! pool it is that pool's `n div R`-th request, placed as
//! `Engine::assignment` predicts. The gate verifies this closed form
//! against the literal fold before it is trusted.

use std::net::SocketAddr;

use mei::argmax;
use neural::Dataset;
use runtime::net::{Client, ClientV2, NetWorkload};

use crate::load::{Item, Sequence};
use crate::system::{Model, System};

/// Expected `(global chip, output)` of a request, by closed form.
pub struct Oracle<'a> {
    workload: &'a NetWorkload,
    replicas: Vec<usize>,
    /// Per pool: local chip of the pool's `k`-th request.
    assignment: Vec<Vec<usize>>,
    seq: &'a Sequence<'a>,
}

impl<'a> Oracle<'a> {
    /// The closed form over the twin, valid for requests `0..requests`.
    ///
    /// # Panics
    ///
    /// Panics if the twin is not fleet-backed.
    #[must_use]
    pub fn new(twin: &'a NetWorkload, seq: &'a Sequence<'a>, requests: u64) -> Self {
        let fleet = twin.as_fleet().expect("the twin is a fleet");
        let replicas = fleet.replicas(twin.name());
        let per_pool = (requests as usize).div_ceil(replicas.len()) + 1;
        let assignment = (0..fleet.len())
            .map(|p| {
                fleet
                    .engine(p)
                    .assignment(&vec![twin.input_dim(); per_pool])
            })
            .collect();
        Self {
            workload: twin,
            replicas,
            assignment,
            seq,
        }
    }

    /// Pool and local chip of request `n`.
    #[must_use]
    pub fn chip(&self, n: u64) -> (usize, usize) {
        let r = self.replicas.len() as u64;
        let pool = self.replicas[(n % r) as usize];
        let local = self.assignment[pool][(n / r) as usize];
        (pool, local)
    }

    /// Expected global chip id and output of request `n`.
    #[must_use]
    pub fn expect(&self, n: u64) -> (usize, Vec<f64>) {
        let fleet = self.workload.as_fleet().expect("the twin is a fleet");
        let (pool, local) = self.chip(n);
        let output = fleet.engine(pool).pool().chips()[local].infer(self.seq.input(n));
        (fleet.chip_offset(pool) + local, output)
    }

    /// Check the answers to requests `first..first + items.len()`.
    ///
    /// # Errors
    ///
    /// Names the first request whose chip or output bits differ, or that
    /// was not served.
    pub fn check(&self, first: u64, items: &[Item]) -> Result<(), String> {
        for (j, item) in items.iter().enumerate() {
            let n = first + j as u64;
            match item {
                Item::Ok { chip, output } => same(n, (*chip, output), &self.expect(n))?,
                other => return Err(format!("request {n} was not served: {other:?}")),
            }
        }
        Ok(())
    }
}

fn same(n: u64, got: (usize, &[f64]), want: &(usize, Vec<f64>)) -> Result<(), String> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    if got.0 != want.0 || bits(got.1) != bits(&want.1) {
        return Err(format!(
            "request {n}: served chip {} output {:?}, the twin fold gives chip {} output {:?}",
            got.0, got.1, want.0, want.1
        ));
    }
    Ok(())
}

/// The literal in-process fold: a fresh `Fleet::serve_one` session over
/// the twin, requests `0..count`.
#[must_use]
pub fn fold(twin: &NetWorkload, seq: &Sequence<'_>, count: u64) -> Vec<(usize, Vec<f64>)> {
    let fleet = twin.as_fleet().expect("the twin is a fleet");
    let mut session = fleet.session(twin.name());
    (0..count)
        .map(|n| {
            let served = fleet.serve_one(&mut session, seq.input(n));
            (served.chip, served.output)
        })
        .collect()
}

/// Frames and lines the gate sends over the wire.
pub const GATE_FRAMES: u64 = 4;
/// Requests per gate frame.
pub const GATE_FRAME_SIZE: usize = 64;
/// v1 lines the gate sends.
pub const GATE_LINES: u64 = 64;

/// The gate: the closed form agrees with the fold, and the live server's
/// first v2 frames and first v1 lines (each on a fresh connection) agree
/// with the fold.
///
/// # Errors
///
/// Describes the first mismatch or I/O failure.
pub fn gate(addr: SocketAddr, twin: &NetWorkload, seq: &Sequence<'_>) -> Result<(), String> {
    let count = GATE_FRAMES * GATE_FRAME_SIZE as u64;
    let reference = fold(twin, seq, count);
    let oracle = Oracle::new(twin, seq, count);
    for (n, want) in reference.iter().enumerate() {
        let got = oracle.expect(n as u64);
        same(n as u64, (got.0, &got.1), want).map_err(|e| format!("closed-form oracle: {e}"))?;
    }

    let mut v2 = ClientV2::connect(addr).map_err(|e| format!("gate v2 connect: {e}"))?;
    for k in 0..GATE_FRAMES {
        let items = v2
            .request_batch(twin.name(), &seq.frame(k, GATE_FRAME_SIZE))
            .map_err(|e| format!("gate v2 frame {k}: {e}"))?;
        for (j, item) in items.into_iter().enumerate() {
            let n = k * GATE_FRAME_SIZE as u64 + j as u64;
            match Item::from(item) {
                Item::Ok { chip, output } => {
                    same(n, (chip, &output), &reference[n as usize])
                        .map_err(|e| format!("v2 {e}"))?;
                }
                other => return Err(format!("v2 request {n} was not served: {other:?}")),
            }
        }
    }

    let mut v1 = Client::connect(addr).map_err(|e| format!("gate v1 connect: {e}"))?;
    for n in 0..GATE_LINES {
        let response = v1
            .request(twin.name(), seq.input(n))
            .map_err(|e| format!("gate v1 line {n}: {e}"))?;
        match Item::from(response) {
            Item::Ok { chip, output } => {
                same(n, (chip, &output), &reference[n as usize]).map_err(|e| format!("v1 {e}"))?;
            }
            other => return Err(format!("v1 request {n} was not served: {other:?}")),
        }
    }
    Ok(())
}

/// For the CNN: accuracy on `data` served over the wire must equal the
/// twin's digital accuracy on it exactly. Returns the `(served, digital,
/// total)` counts; `Ok(None)` for the MLP.
///
/// # Errors
///
/// Describes an I/O failure, an unserved request or an accuracy mismatch.
pub fn served_accuracy(
    addr: SocketAddr,
    twin: &System,
    data: &Dataset,
    name: &str,
) -> Result<Option<(usize, usize, usize)>, String> {
    let Model::Cnn(cnn) = &twin.model else {
        return Ok(None);
    };
    let mut client = ClientV2::connect(addr).map_err(|e| format!("accuracy connect: {e}"))?;
    let mut served = 0usize;
    for (inputs, targets) in data
        .inputs()
        .chunks(GATE_FRAME_SIZE)
        .zip(data.targets().chunks(GATE_FRAME_SIZE))
    {
        let items = client
            .request_batch(name, inputs)
            .map_err(|e| format!("accuracy frame: {e}"))?;
        for (item, target) in items.into_iter().zip(targets) {
            match Item::from(item) {
                Item::Ok { output, .. } => served += usize::from(argmax(&output) == argmax(target)),
                other => return Err(format!("accuracy request not served: {other:?}")),
            }
        }
    }
    let digital = data
        .iter()
        .filter(|(x, t)| argmax(&cnn.infer_digital(x).expect("held-out input fits")) == argmax(t))
        .count();
    if served != digital {
        return Err(format!(
            "served CNN accuracy {served}/{} differs from the digital twin's {digital}/{}",
            data.len(),
            data.len()
        ));
    }
    Ok(Some((served, digital, data.len())))
}
