//! Hermetic TCP front-end: two wire protocols over `std::net` exposing
//! one or more serving [`Fleet`]s (or single [`Engine`]s) to clients
//! outside the process. No HTTP crate, no async runtime, no `libc`.
//!
//! The module tree:
//!
//! * `net` (this file) — the shared text-protocol pieces: CSV codec,
//!   [`Response`], [`NetWorkload`], request parsing/serving.
//! * [`frame`] — the v2 binary frame codec: length-prefixed batch
//!   request/response/error frames and their incremental decoder.
//! * [`conn`] — the sans-IO per-connection state machine: version
//!   negotiation, v1 line framing and v2 frame decoding over a byte
//!   buffer, with no sockets (unit-testable in memory).
//! * `core` — the sans-IO server core: every connection's machine,
//!   sessions, pending jobs and output, and every rule over them (the
//!   bounds, one job per connection per scan, in-band answers, the idle
//!   wait), driven by method calls, with no socket and no clock.
//! * [`server`] — the [`EventServer`], a socket shell around the core
//!   (v2 with v1 text fallback per connection), and its blocking
//!   clients, [`Client`] (v1) and [`ClientV2`].
//!
//! ## Wire protocol v1 (text)
//!
//! One request per line, one response line per request, in order:
//!
//! ```text
//! request  = workload SP csv LF
//! response = "ok" SP chip-id SP latency-us SP csv LF
//!          | "err" SP message LF
//! csv      = f64 *("," f64)
//! ```
//!
//! `workload` names a registered [`NetWorkload`]; `csv` is the request's
//! input vector (request) or output vector (response); `chip-id` is the
//! (global) chip that served it and `latency-us` the integer microseconds
//! of its `infer` call. Floats are formatted with Rust's shortest
//! round-trip `Display`, so **the output CSV is a bit-exact encoding**:
//! parsing it back yields the identical `f64` bits the in-process engine
//! produced. `chip-id` and the CSV are covered by the determinism
//! contract; `latency-us` is a measurement and is not.
//!
//! Malformed lines, unknown workloads and wrong-arity inputs get an
//! `err` line and the connection keeps serving; a request whose chip
//! panics gets `err chip <id> failed` and the connection keeps serving
//! too. A line with more than [`EventServerConfig::max_line_bytes`] bytes
//! before its `\n` gets an `err` line and a clean close (the stream can
//! no longer be framed); a client disconnect mid-stream closes the
//! connection without disturbing its siblings.
//!
//! ## Wire protocol v2 (binary, pipelined)
//!
//! Negotiated on the first line: a client whose first bytes are `v2 LF`
//! is answered `"ok v2" SP name *("," name) LF` (the registered workload
//! names; a workload's id is its index in that list) and the connection
//! switches to length-prefixed binary frames. Any other first line is
//! served as a v1 request and the connection stays v1 — old clients
//! never notice. See [`frame`] for the grammar.
//!
//! One request frame carries a whole *batch* for one workload; the
//! payload is the concatenated input vectors (`dim` implied by the
//! workload), and the matching response frame answers every request in
//! order. A pipelining client keeps several frames in flight and a
//! single connection saturates the whole fleet: the server runs each
//! batch as one executor round over every pool's chips, on its event
//! thread's long-lived crew ([`Fleet::serve_session_batch`] in process).
//! Malformed frame *bodies* get an in-band error frame and the
//! connection keeps serving; an oversized frame length gets an error
//! frame and a close (the stream can no longer be framed) — sibling
//! connections are never disturbed.
//!
//! ## Admission control
//!
//! Every request's arrival is stamped the moment its line (v1) or frame
//! (v2) is decoded off the socket. When the serving engine has admission
//! enabled ([`Engine::with_admission`]), the session's virtual-time
//! [`Gate`](crate::Gate) is offered the request before it runs. A shed
//! request gets the fixed in-band line `err overloaded` (v1) or a shed
//! record (v2) — the exact bytes carry no measurement, so responses stay
//! deterministic — and the connection keeps serving. Pipelined clients
//! that outrun the engine build real arrival backlog and see sheds;
//! request/response clients never do.
//!
//! ## Determinism
//!
//! Each connection gets its own routing [`FleetSession`] per workload,
//! so the chip sequence a client observes is a pure function of *its
//! own* request sequence — independent of protocol version and of any
//! other connection. That is what makes loopback serving
//! byte-identical (modulo the latency field) to feeding the same
//! sequence through [`Fleet::serve_one`] (or [`Engine::serve_one`]) in
//! process, asserted in `tests/serving_engine.rs`.

pub mod conn;
mod core;
pub mod frame;
pub mod server;

pub use server::{Client, ClientV2, EventServer, EventServerConfig};

use std::fmt::Write as _;

use crate::chip::Chip;
use crate::engine::{BatchItem, Engine, Offer};
use crate::fleet::{Fleet, FleetConfig, FleetSession};

/// Upper bound on a request line's bytes before its terminating `\n`;
/// a trailing `\r` counts as one of them.
pub const DEFAULT_MAX_LINE_BYTES: usize = 64 * 1024;

/// Room reserved per CSV value and its comma: 17 significant digits, a
/// sign, a point and a few leading zeros, the usual width of a served
/// value, so a line is formatted into one allocation. A longer value
/// only grows the buffer.
const CSV_VALUE_BYTES: usize = 24;

/// Room reserved for a response line's `ok <chip> <latency-us> ` prefix.
const OK_PREFIX_BYTES: usize = 32;

/// Render values as the protocol's CSV: shortest round-trip `Display`
/// per element, comma-separated. Injective on bit patterns (NaN payloads
/// aside), so equal CSV strings ⇔ equal `f64` bits.
#[must_use]
pub fn format_csv(values: &[f64]) -> String {
    let mut out = String::with_capacity(values.len() * CSV_VALUE_BYTES);
    write_csv(&mut out, values);
    out
}

/// Append `values` to `out` as the protocol's CSV (see [`format_csv`]).
fn write_csv(out: &mut String, values: &[f64]) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // `{}` on f64 prints the shortest string that parses back to the
        // same bits — the protocol's bit-exactness hinges on this.
        let _ = write!(out, "{v}");
    }
}

/// Parse the protocol's CSV into values.
///
/// # Errors
///
/// Returns the offending token when any element fails to parse as `f64`.
pub fn parse_csv(csv: &str) -> Result<Vec<f64>, String> {
    csv.split(',')
        .map(|tok| {
            tok.parse::<f64>()
                .map_err(|_| format!("malformed number '{tok}'"))
        })
        .collect()
}

/// One response line, parsed.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `ok <chip> <latency-us> <csv>` — the request was served.
    Ok {
        /// Chip id that ran the request.
        chip: usize,
        /// Service latency of the inline `infer`, integer microseconds.
        latency_us: u128,
        /// The output vector, bit-exact.
        output: Vec<f64>,
    },
    /// `err <message>` — the request was rejected; the connection (and
    /// the engine) keep serving.
    Error(String),
}

impl Response {
    /// Render as a protocol line (no trailing newline), in one buffer
    /// with room left for the newline that goes on the wire.
    #[must_use]
    pub fn format(&self) -> String {
        match self {
            Response::Ok {
                chip,
                latency_us,
                output,
            } => {
                let mut line =
                    String::with_capacity(OK_PREFIX_BYTES + output.len() * CSV_VALUE_BYTES + 1);
                let _ = write!(line, "ok {chip} {latency_us} ");
                write_csv(&mut line, output);
                line
            }
            Response::Error(message) => {
                let mut line = String::with_capacity("err ".len() + message.len() + 1);
                line.push_str("err ");
                line.push_str(message);
                line
            }
        }
    }

    /// The protocol line with its newline, as wire bytes.
    pub(crate) fn line_bytes(&self) -> Vec<u8> {
        let mut bytes = self.format().into_bytes();
        bytes.push(b'\n');
        bytes
    }

    /// Parse a protocol line (newline already stripped).
    ///
    /// # Errors
    ///
    /// Returns a description when the line matches neither response form.
    pub fn parse(line: &str) -> Result<Self, String> {
        if let Some(message) = line.strip_prefix("err ") {
            return Ok(Response::Error(message.to_string()));
        }
        let body = line
            .strip_prefix("ok ")
            .ok_or_else(|| format!("unrecognized response line '{line}'"))?;
        let mut parts = body.splitn(3, ' ');
        let chip = parts
            .next()
            .and_then(|t| t.parse::<usize>().ok())
            .ok_or_else(|| "missing chip id".to_string())?;
        let latency_us = parts
            .next()
            .and_then(|t| t.parse::<u128>().ok())
            .ok_or_else(|| "missing latency".to_string())?;
        let output = parse_csv(parts.next().ok_or_else(|| "missing csv".to_string())?)?;
        Ok(Response::Ok {
            chip,
            latency_us,
            output,
        })
    }
}

/// Per-connection serving state for one workload: the routing session
/// of the workload's fleet.
pub type WorkloadSession = FleetSession;

/// A named workload the server exposes: a [`Fleet`] over type-erased
/// chips plus the input arity it validates before letting a request
/// reach `Chip::infer` (chips panic on wrong lengths by contract, so the
/// server must reject, not forward, bad arities).
pub struct NetWorkload {
    name: String,
    input_dim: usize,
    fleet: Fleet<Box<dyn Chip>>,
}

impl NetWorkload {
    /// Register `engine` under `name`, validating requests to
    /// `input_dim` elements: a one-pool, one-replica fleet, so chip ids
    /// on the wire are the engine's own.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or contains whitespace (it must be a
    /// single protocol token), or if `input_dim` is zero.
    #[must_use]
    pub fn new(name: impl Into<String>, input_dim: usize, engine: Engine<Box<dyn Chip>>) -> Self {
        let fleet = Fleet::new(vec![engine], FleetConfig::new(0).with_replication(1));
        Self::fleet(name, input_dim, fleet)
    }

    /// Register a whole `fleet` under `name`: requests route across the
    /// fleet's healthy pools keyed by the workload name, and responses
    /// carry **global** chip ids (`Fleet::chip_offset(pool) + chip`) —
    /// the wire grammar is unchanged.
    ///
    /// # Panics
    ///
    /// As [`NetWorkload::new`].
    #[must_use]
    pub fn fleet(name: impl Into<String>, input_dim: usize, fleet: Fleet<Box<dyn Chip>>) -> Self {
        let name = name.into();
        assert!(
            !name.is_empty() && !name.contains(char::is_whitespace),
            "workload name must be a single non-empty token"
        );
        assert!(input_dim > 0, "workloads take at least one input");
        Self {
            name,
            input_dim,
            fleet,
        }
    }

    /// The protocol token clients address this workload by.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Validated input arity.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The serving fleet (always present: an engine registered with
    /// [`NetWorkload::new`] is a one-pool fleet).
    #[must_use]
    pub fn as_fleet(&self) -> Option<&Fleet<Box<dyn Chip>>> {
        Some(&self.fleet)
    }

    /// Open a fresh per-connection session for this workload.
    #[must_use]
    pub fn open_session(&self) -> WorkloadSession {
        self.fleet.session(&self.name)
    }

    /// Serve one request behind the fleet's admission gates (see
    /// [`Fleet::offer_one`]).
    ///
    /// # Panics
    ///
    /// As [`Fleet::offer_one`]: no healthy pool, or a chip panic, which
    /// is re-raised.
    pub fn offer_one(
        &self,
        session: &mut WorkloadSession,
        input: &[f64],
        arrival_secs: f64,
    ) -> Offer {
        self.fleet.offer_one(session, input, arrival_secs)
    }

    /// Serve a batch through the session, results in request order: the
    /// in-process twin of what the server does for both wire protocols (a
    /// v1 line is a one-request batch), with the same items. The server
    /// runs the round on its event thread's crew; this call builds one
    /// for the call.
    ///
    /// # Panics
    ///
    /// Panics if no pool of the fleet is healthy.
    pub fn serve_batch(
        &self,
        session: &mut WorkloadSession,
        inputs: &[Vec<f64>],
        arrival_secs: Option<f64>,
    ) -> Vec<BatchItem> {
        self.fleet
            .serve_session_batch(session, inputs, arrival_secs)
    }
}

/// Validate one request line: workload lookup, CSV parse, arity check.
/// Returns the workload index and the parsed input, or the in-band
/// `err` response to send back.
pub(crate) fn parse_request(
    line: &str,
    workloads: &[NetWorkload],
) -> Result<(usize, Vec<f64>), Response> {
    let Some((name, csv)) = line.split_once(' ') else {
        return Err(Response::Error(
            "malformed request: expected '<workload> <v1,v2,...>'".to_string(),
        ));
    };
    let Some(index) = workloads.iter().position(|w| w.name == name) else {
        return Err(Response::Error(format!("unknown workload '{name}'")));
    };
    let input = parse_csv(csv).map_err(Response::Error)?;
    if input.len() != workloads[index].input_dim {
        return Err(Response::Error(format!(
            "wrong arity: workload '{name}' expects {} inputs, got {}",
            workloads[index].input_dim,
            input.len()
        )));
    }
    Ok((index, input))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipPool;
    use crate::policy::RoundRobin;

    struct ToyChip {
        offset: f64,
    }

    impl Chip for ToyChip {
        fn infer(&self, input: &[f64]) -> Vec<f64> {
            input.iter().map(|x| x + self.offset).collect()
        }
    }

    fn toy_engine(chips: usize) -> Engine<Box<dyn Chip>> {
        let pool = ChipPool::manufacture(9, chips, |_, seed| ToyChip {
            offset: (seed % 100) as f64,
        });
        Engine::new(pool.boxed()).with_policy(RoundRobin)
    }

    fn toy_server() -> EventServer {
        let workloads = vec![NetWorkload::new("toy", 2, toy_engine(3))];
        EventServer::bind(
            "127.0.0.1:0",
            workloads,
            EventServerConfig {
                max_line_bytes: 256,
                ..EventServerConfig::default()
            },
        )
        .expect("bind ephemeral")
    }

    #[test]
    fn csv_round_trips_bit_exactly() {
        let values = vec![0.1 + 0.2, -0.0, f64::MIN_POSITIVE, 1.0 / 3.0, 6.02214076e23];
        let parsed = parse_csv(&format_csv(&values)).expect("round trip");
        let bits: Vec<u64> = parsed.iter().map(|v| v.to_bits()).collect();
        let expect: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, expect);
        assert!(parse_csv("1.0,zzz").is_err());
    }

    #[test]
    fn response_lines_round_trip() {
        let ok = Response::Ok {
            chip: 2,
            latency_us: 41,
            output: vec![0.5, -1.25],
        };
        assert_eq!(ok.format(), "ok 2 41 0.5,-1.25");
        assert_eq!(Response::parse(&ok.format()), Ok(ok));
        let err = Response::Error("wrong arity".to_string());
        assert_eq!(Response::parse(&err.format()), Ok(err));
        assert!(Response::parse("what 1 2 3").is_err());
    }

    #[test]
    fn loopback_round_trip_matches_in_process_bits() {
        let server = toy_server();
        let local = toy_engine(3);
        let mut session = local.session();
        let mut client = Client::connect(server.addr()).expect("connect");
        for i in 0..7 {
            let input = vec![i as f64 * 0.31, 1.5 - i as f64];
            let expect = local.serve_one(&mut session, &input);
            match client.request("toy", &input).expect("round trip") {
                Response::Ok { chip, output, .. } => {
                    assert_eq!(chip, expect.chip, "request {i} chip");
                    let bits: Vec<u64> = output.iter().map(|v| v.to_bits()).collect();
                    let expect_bits: Vec<u64> = expect.output.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(bits, expect_bits, "request {i} bits");
                }
                Response::Error(e) => panic!("unexpected err: {e}"),
            }
        }
        server.shutdown();
    }

    #[test]
    fn protocol_errors_are_in_band_and_do_not_kill_the_connection() {
        let server = toy_server();
        let mut client = Client::connect(server.addr()).expect("connect");
        client.send_raw("garbage-without-space").expect("send");
        assert!(matches!(client.recv().expect("recv"), Response::Error(_)));
        client.send_raw("nosuch 1,2").expect("send");
        match client.recv().expect("recv") {
            Response::Error(message) => assert!(message.contains("unknown workload")),
            other => panic!("expected err, got {other:?}"),
        }
        client.send("toy", &[1.0, 2.0, 3.0]).expect("send");
        match client.recv().expect("recv") {
            Response::Error(message) => assert!(message.contains("wrong arity")),
            other => panic!("expected err, got {other:?}"),
        }
        client.send_raw("toy 1.0,zzz").expect("send");
        assert!(matches!(client.recv().expect("recv"), Response::Error(_)));
        // After all that abuse the connection still serves.
        assert!(matches!(
            client.request("toy", &[0.5, 0.5]).expect("round trip"),
            Response::Ok { .. }
        ));
        server.shutdown();
    }

    #[test]
    fn oversized_line_closes_cleanly_and_siblings_survive() {
        let server = toy_server();
        let mut sibling = Client::connect(server.addr()).expect("connect sibling");
        assert!(matches!(
            sibling.request("toy", &[1.0, 1.0]).expect("warm up"),
            Response::Ok { .. }
        ));
        let mut abuser = Client::connect(server.addr()).expect("connect abuser");
        let huge = format!("toy {}", "9,".repeat(400));
        abuser.send_raw(&huge).expect("send oversized");
        match abuser.recv().expect("err line before close") {
            Response::Error(message) => assert!(message.contains("exceeds")),
            other => panic!("expected err, got {other:?}"),
        }
        assert!(abuser.recv().is_err(), "connection must be closed");
        // The sibling connection was never disturbed.
        assert!(matches!(
            sibling.request("toy", &[2.0, 2.0]).expect("round trip"),
            Response::Ok { .. }
        ));
        server.shutdown();
    }

    #[test]
    fn mid_stream_disconnect_leaves_engine_serving() {
        let server = toy_server();
        {
            let mut doomed = Client::connect(server.addr()).expect("connect");
            doomed.send("toy", &[1.0, 2.0]).expect("send");
            // Drop without reading the response: disconnect mid-stream.
        }
        let mut client = Client::connect(server.addr()).expect("reconnect");
        assert!(matches!(
            client.request("toy", &[3.0, 4.0]).expect("round trip"),
            Response::Ok { .. }
        ));
        server.shutdown();
    }

    fn gated_server(chips: usize, max_delay_secs: f64, secs_per_cost: f64) -> EventServer {
        let engine = toy_engine(chips).with_admission(crate::AdmissionConfig {
            max_delay_secs,
            secs_per_cost,
        });
        let workloads = vec![NetWorkload::new("toy", 2, engine)];
        EventServer::bind(
            "127.0.0.1:0",
            workloads,
            EventServerConfig {
                max_line_bytes: 256,
                ..EventServerConfig::default()
            },
        )
        .expect("bind ephemeral")
    }

    #[test]
    fn gated_request_response_client_is_never_shed_and_bits_match_ungated() {
        // A request/response client waits for each answer, so its virtual
        // queue drains ahead of every offer under a generous bound.
        let server = gated_server(3, 10.0, 1e-9);
        let local = toy_engine(3);
        let mut session = local.session();
        let mut client = Client::connect(server.addr()).expect("connect");
        for i in 0..5 {
            let input = vec![i as f64, 0.5];
            let expect = local.serve_one(&mut session, &input);
            match client.request("toy", &input).expect("round trip") {
                Response::Ok { chip, output, .. } => {
                    assert_eq!(chip, expect.chip, "request {i} chip");
                    assert_eq!(output, expect.output, "request {i} bits");
                }
                Response::Error(e) => panic!("unexpected shed/err: {e}"),
            }
        }
        server.shutdown();
    }

    #[test]
    fn gated_pipelined_overload_sheds_in_band_and_keeps_serving() {
        // One chip, zero tolerance, an absurd cost→seconds conversion:
        // the first request books the chip's virtual horizon ~2×10⁶ s
        // out, so every pipelined follow-up is shed with the fixed
        // `overloaded` line.
        let server = gated_server(1, 0.0, 1e6);
        let mut client = Client::connect(server.addr()).expect("connect");
        for _ in 0..3 {
            client.send("toy", &[1.0, 2.0]).expect("pipeline send");
        }
        assert!(matches!(client.recv().expect("first"), Response::Ok { .. }));
        for i in 1..3 {
            match client.recv().expect("shed response") {
                Response::Error(message) => assert_eq!(message, "overloaded", "response {i}"),
                other => panic!("expected shed, got {other:?}"),
            }
        }
        // Protocol errors still work in-band on a gated connection.
        client.send_raw("nosuch 1,2").expect("send");
        match client.recv().expect("recv") {
            Response::Error(message) => assert!(message.contains("unknown workload")),
            other => panic!("expected err, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn fresh_connections_get_fresh_sessions() {
        let server = toy_server();
        let probe = |client: &mut Client| -> usize {
            match client.request("toy", &[1.0, 1.0]).expect("round trip") {
                Response::Ok { chip, .. } => chip,
                Response::Error(e) => panic!("unexpected err: {e}"),
            }
        };
        let mut a = Client::connect(server.addr()).expect("connect");
        let first_a = probe(&mut a);
        let second_a = probe(&mut a);
        drop(a);
        let mut b = Client::connect(server.addr()).expect("connect");
        let first_b = probe(&mut b);
        // Round-robin per session: a fresh connection restarts at chip 0.
        assert_eq!(first_a, 0);
        assert_eq!(second_a, 1);
        assert_eq!(first_b, 0, "sessions must not leak across connections");
        server.shutdown();
    }
}
