//! Cross-crate serving-engine equivalences: the acceptance matrix for the
//! policy-driven engine and its TCP front-end.
//!
//! For a fixed root seed and request sequence, the response bits must be
//! identical across every way of driving the same pool:
//!
//! * the in-process `Engine` vs the loopback TCP front-end, over v1 text
//!   lines and v2 binary frames;
//! * two fresh servers (placement sessions are per-connection, so nothing
//!   a server shares across its connections can move a request to a
//!   different chip).
//!
//! Latency fields are explicitly *outside* the determinism contract —
//! only chip ids and output bits are compared.

use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use mei::{manufacture_chips, MeiConfig, MeiRcs};
use neural::Dataset;
use prng::rngs::StdRng;
use prng::{Rng, SeedableRng};
use runtime::net::frame::ItemResponse;
use runtime::net::{
    format_csv, Client, ClientV2, EventServer, EventServerConfig, NetWorkload, Response,
};
use runtime::{
    AdmissionConfig, Chip, ChipPool, DriftProfile, DriftingChip, Engine, Fleet, FleetConfig,
    RoundRobin,
};

const ROOT_SEED: u64 = 42;
const CHIPS: usize = 3;
const WRITE_SIGMA: f64 = 0.05;

fn trained_mei() -> MeiRcs {
    let mut rng = StdRng::seed_from_u64(7);
    let data = Dataset::generate(200, &mut rng, |r| {
        let x: f64 = r.gen();
        (vec![x], vec![(-x * x).exp()])
    })
    .unwrap();
    MeiRcs::train(&data, &MeiConfig::quick_test()).unwrap()
}

fn request_sequence() -> Vec<Vec<f64>> {
    (0..17).map(|i| vec![f64::from(i) / 17.0]).collect()
}

/// Serve the fixed sequence as v1 text lines over one TCP connection
/// against a fresh event server; return `(chip, output)` pairs.
fn serve_over_tcp(mei: &MeiRcs) -> Vec<(usize, Vec<f64>)> {
    let engine = Engine::new(manufacture_chips(mei, CHIPS, WRITE_SIGMA, ROOT_SEED).boxed());
    let server = EventServer::bind(
        "127.0.0.1:0",
        vec![NetWorkload::new("expfit", 1, engine)],
        EventServerConfig::default(),
    )
    .expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut served = Vec::new();
    for input in request_sequence() {
        match client.request("expfit", &input).expect("round trip") {
            Response::Ok { chip, output, .. } => served.push((chip, output)),
            Response::Error(e) => panic!("request rejected: {e}"),
        }
    }
    drop(client);
    server.shutdown();
    served
}

#[test]
fn tcp_front_end_serves_the_same_bits_as_the_in_process_engine() {
    let mei = trained_mei();
    // In-process reference: a streaming session over the boxed engine —
    // the exact code path the server runs per connection.
    let engine = Engine::new(manufacture_chips(&mei, CHIPS, WRITE_SIGMA, ROOT_SEED).boxed());
    let mut session = engine.session();
    let reference: Vec<(usize, Vec<f64>)> = request_sequence()
        .iter()
        .map(|input| {
            let served = engine.serve_one(&mut session, input);
            (served.chip, served.output)
        })
        .collect();

    let over_tcp = serve_over_tcp(&mei);
    assert_eq!(
        reference.len(),
        over_tcp.len(),
        "every request must be answered"
    );
    for (i, (in_proc, wire)) in reference.iter().zip(&over_tcp).enumerate() {
        assert_eq!(in_proc.0, wire.0, "request {i} placed on a different chip");
        assert_eq!(
            format_csv(&in_proc.1),
            format_csv(&wire.1),
            "request {i} bits differ across the wire"
        );
        assert_eq!(in_proc.1, wire.1, "request {i} outputs differ");
    }
}

#[test]
fn server_thread_count_cannot_change_response_bits() {
    let mei = trained_mei();
    let first = serve_over_tcp(&mei);
    let second = serve_over_tcp(&mei);
    assert_eq!(
        first, second,
        "per-connection sessions make bits independent of the server"
    );
}

/// The drifted deployment under test: the standard manufactured pool,
/// each chip wrapped in a [`DriftingChip`]
/// under its own `(ROOT_SEED, chip)` substream (exactly what
/// `mei::manufacture_drifting_engine` does, but boxed so the TCP
/// front-end can serve it), aged `windows` windows, with optional
/// admission control.
fn drifted_boxed_engine(
    mei: &MeiRcs,
    windows: u64,
    admission: Option<AdmissionConfig>,
) -> Engine<Box<dyn Chip>> {
    let profile = DriftProfile {
        latency_per_drift: 0.0,
        ..DriftProfile::aggressive()
    };
    let chips: Vec<Box<dyn Chip>> = manufacture_chips(mei, CHIPS, WRITE_SIGMA, ROOT_SEED)
        .into_chips()
        .into_iter()
        .enumerate()
        .map(|(i, chip)| {
            let seed = prng::substream(ROOT_SEED, i as u64);
            Box::new(DriftingChip::new(chip, profile, seed)) as Box<dyn Chip>
        })
        .collect();
    let mut engine = Engine::new(ChipPool::from_chips(chips));
    if let Some(config) = admission {
        engine = engine.with_admission(config);
    }
    for _ in 0..windows {
        engine.advance_window();
    }
    engine
}

/// An admission bound so generous nothing is ever shed: the gate is on
/// the wire path but every request passes it.
fn generous_admission() -> AdmissionConfig {
    AdmissionConfig {
        max_delay_secs: 1e9,
        secs_per_cost: 1.0,
    }
}

/// Serve the fixed sequence over one connection against a *gated*
/// server whose engine drifted two windows; panic on any shed.
fn serve_drifted_gated_over_tcp(mei: &MeiRcs) -> Vec<(usize, Vec<f64>)> {
    let engine = drifted_boxed_engine(mei, 2, Some(generous_admission()));
    let server = EventServer::bind(
        "127.0.0.1:0",
        vec![NetWorkload::new("expfit", 1, engine)],
        EventServerConfig::default(),
    )
    .expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut served = Vec::new();
    for input in request_sequence() {
        match client.request("expfit", &input).expect("round trip") {
            Response::Ok { chip, output, .. } => served.push((chip, output)),
            Response::Error(e) => panic!("generously gated request shed: {e}"),
        }
    }
    drop(client);
    server.shutdown();
    served
}

#[test]
fn drifted_gated_server_threads_cannot_change_bits() {
    let mei = trained_mei();
    // In-process reference: an ungated twin of the drifted pool, driven
    // through a streaming session — drift is per-window state, so the
    // admission gate and the wire must not perturb the bits.
    let reference = drifted_boxed_engine(&mei, 2, None);
    let mut session = reference.session();
    let in_proc: Vec<(usize, Vec<f64>)> = request_sequence()
        .iter()
        .map(|input| {
            let served = reference.serve_one(&mut session, input);
            (served.chip, served.output)
        })
        .collect();

    let first = serve_drifted_gated_over_tcp(&mei);
    let second = serve_drifted_gated_over_tcp(&mei);
    assert_eq!(first, second, "the server must not move drifted bits");
    assert_eq!(first, in_proc, "the gate must be bit-transparent");
    // Sanity: the pool really is drifted — window 0 serves other bits.
    let fresh = drifted_boxed_engine(&mei, 0, None);
    let mut fresh_session = fresh.session();
    let fresh_bits: Vec<(usize, Vec<f64>)> = request_sequence()
        .iter()
        .map(|input| {
            let served = fresh.serve_one(&mut fresh_session, input);
            (served.chip, served.output)
        })
        .collect();
    assert_ne!(first, fresh_bits, "two windows of drift must show");
}

#[test]
fn admission_decisions_and_bits_replay_identically() {
    let mei = trained_mei();
    // A bound tight enough that simultaneous arrivals overflow it: each
    // admitted unit of cost books 0.1 simulated seconds, and anything
    // estimated to wait more than 0.05 s is shed.
    let tight = AdmissionConfig {
        max_delay_secs: 0.05,
        secs_per_cost: 0.1,
    };
    let engine = drifted_boxed_engine(&mei, 1, Some(tight));
    let inputs = request_sequence();
    let arrivals = vec![Duration::ZERO; inputs.len()];

    let first = engine.serve_open_loop_admitted(&inputs, &arrivals);
    assert!(!first.admitted.is_empty(), "the bound admits a front rank");
    assert!(!first.shed.is_empty(), "simultaneous arrivals must shed");
    assert_eq!(
        first.gate_stats.offered as usize,
        inputs.len(),
        "every request is offered to the gate"
    );

    // Rerun on the same engine and on an identically-built twin: the
    // decision stream and the served bits are pure functions of
    // (inputs, arrivals), so both must replay exactly.
    for rerun in [
        engine.serve_open_loop_admitted(&inputs, &arrivals),
        drifted_boxed_engine(&mei, 1, Some(tight)).serve_open_loop_admitted(&inputs, &arrivals),
    ] {
        assert_eq!(rerun.admitted, first.admitted);
        assert_eq!(rerun.shed, first.shed);
        assert_eq!(rerun.gate_stats, first.gate_stats);
        assert_eq!(
            rerun.outcome.as_ref().map(|o| &o.outputs),
            first.outcome.as_ref().map(|o| &o.outputs),
            "admitted bits must replay"
        );
    }
}

#[test]
fn generous_admission_is_bit_transparent_end_to_end() {
    let mei = trained_mei();
    let engine = drifted_boxed_engine(&mei, 1, Some(generous_admission()));
    let inputs = request_sequence();
    let arrivals = vec![Duration::ZERO; inputs.len()];
    let gated = engine.serve_open_loop_admitted(&inputs, &arrivals);
    assert!(gated.shed.is_empty(), "a generous bound sheds nothing");
    assert_eq!(gated.admitted, (0..inputs.len()).collect::<Vec<_>>());
    let outcome = gated.outcome.expect("everything admitted");
    // The admitted batch is the whole batch: bits equal the ungated serve.
    assert_eq!(outcome.outputs, engine.serve(&inputs).outputs);
}

/// Bind an event-driven server over the standard manufactured pool.
fn bind_event_server(mei: &MeiRcs) -> EventServer {
    let engine = Engine::new(manufacture_chips(mei, CHIPS, WRITE_SIGMA, ROOT_SEED).boxed());
    EventServer::bind(
        "127.0.0.1:0",
        vec![NetWorkload::new("expfit", 1, engine)],
        EventServerConfig::default(),
    )
    .expect("bind event server")
}

/// Serve the fixed sequence over protocol v2 against a fresh event
/// server, split into deliberately uneven pipelined frames; return
/// `(chip, output)` pairs in request order.
fn serve_over_v2(mei: &MeiRcs, splits: &[usize]) -> Vec<(usize, Vec<f64>)> {
    let inputs = request_sequence();
    assert_eq!(
        splits.iter().sum::<usize>(),
        inputs.len(),
        "splits cover all"
    );
    let server = bind_event_server(mei);
    let mut client = ClientV2::connect(server.addr()).expect("negotiate v2");
    assert_eq!(client.workloads(), ["expfit".to_string()]);
    // Pipeline: all frames go out before any response is read.
    let mut offset = 0usize;
    for &count in splits {
        client
            .send_batch("expfit", &inputs[offset..offset + count])
            .expect("send frame");
        offset += count;
    }
    let mut served = Vec::new();
    for _ in splits {
        for item in client.recv_batch().expect("recv frame") {
            match item {
                ItemResponse::Ok { chip, output, .. } => {
                    served.push((usize::try_from(chip).unwrap(), output));
                }
                other => panic!("ungated request not served: {other:?}"),
            }
        }
    }
    drop(client);
    server.shutdown();
    served
}

#[test]
fn v2_frames_serve_the_same_bits_as_v1_lines() {
    let mei = trained_mei();
    // v1 reference: strict text round trips over the v1 fallback.
    let v1 = serve_over_tcp(&mei);
    // v2: one pipelined connection, uneven frame boundaries — framing
    // must not leak into placement or payload bits.
    let v2 = serve_over_v2(&mei, &[5, 1, 8, 3]);
    assert_eq!(v1.len(), v2.len(), "every request must be answered");
    for (i, (a, b)) in v1.iter().zip(&v2).enumerate() {
        assert_eq!(a.0, b.0, "request {i} placed on a different chip");
        let a_bits: Vec<u64> = a.1.iter().map(|x| x.to_bits()).collect();
        let b_bits: Vec<u64> = b.1.iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            a_bits, b_bits,
            "request {i} payload bits differ across protocols"
        );
    }
}

#[test]
fn fresh_event_servers_serve_identical_v2_bits() {
    let mei = trained_mei();
    let first = serve_over_v2(&mei, &[4, 4, 4, 5]);
    let second = serve_over_v2(&mei, &[4, 4, 4, 5]);
    assert_eq!(
        first, second,
        "per-connection sessions make v2 bits independent of the server"
    );
}

/// `ClientV2` resolves workload names client-side against the
/// negotiation directory (`ok v2 name0,name1,…`): an unknown name fails
/// before a single byte hits the wire, the error names both the bad
/// workload and the announced directory, and the connection stays fully
/// usable — proof no partial frame leaked out.
#[test]
fn v2_unknown_workload_is_rejected_client_side() {
    let mei = trained_mei();
    let server = bind_event_server(&mei);
    let mut client = ClientV2::connect(server.addr()).expect("negotiate v2");
    let err = client
        .send_batch("nosuch", &[vec![0.5]])
        .expect_err("unknown workload must fail client-side");
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    let message = err.to_string();
    assert!(message.contains("'nosuch'"), "names the culprit: {message}");
    assert!(message.contains("expfit"), "lists the directory: {message}");
    // Nothing was sent, so the very same connection still serves.
    let items = client
        .request_batch("expfit", &[vec![0.5]])
        .expect("connection unharmed");
    assert!(matches!(items[0], ItemResponse::Ok { .. }));
    drop(client);
    server.shutdown();
}

#[test]
fn corrupt_v2_frame_answers_in_band_and_spares_siblings() {
    let mei = trained_mei();
    let server = bind_event_server(&mei);
    let mut sibling = ClientV2::connect(server.addr()).expect("sibling connects");
    let mut client = ClientV2::connect(server.addr()).expect("negotiate v2");
    // An unknown frame kind: framed but undecodable → in-band error.
    client
        .send_raw(&[2, 0, 0, 0, 0xEE, 0x00])
        .expect("send garbage");
    match client.recv_frame().expect("error frame") {
        runtime::net::frame::Frame::Error(message) => {
            assert!(message.contains("kind"), "got: {message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // The same connection keeps serving…
    let after = client
        .request_batch("expfit", &[vec![0.25]])
        .expect("post-corruption batch");
    assert!(matches!(after[0], ItemResponse::Ok { .. }));
    // …and so does the sibling.
    let alive = sibling
        .request_batch("expfit", &[vec![0.5]])
        .expect("sibling batch");
    assert!(matches!(alive[0], ItemResponse::Ok { .. }));
    // An unknown workload id is a whole-frame error, also in-band.
    client
        .send_raw(
            &runtime::net::frame::Frame::Request(runtime::net::frame::RequestFrame::from_inputs(
                7,
                &[vec![0.5]],
            ))
            .encode(),
        )
        .expect("send unknown workload");
    match client.recv_frame().expect("error frame") {
        runtime::net::frame::Frame::Error(message) => {
            assert!(message.contains("unknown workload"), "got: {message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    drop(client);
    drop(sibling);
    server.shutdown();
}

#[test]
fn event_server_holds_hundreds_of_idle_connections() {
    use std::io::{BufRead, BufReader, Write};

    const IDLE: usize = 512;
    let mei = trained_mei();
    let server = bind_event_server(&mei);
    let addr = server.addr();

    // Open all idle connections first and negotiate v2 in bulk — writes
    // first, then reads — so negotiation is pipelined across the fleet
    // rather than one blocking round trip at a time.
    let mut idle: Vec<std::net::TcpStream> = (0..IDLE)
        .map(|i| {
            let stream = std::net::TcpStream::connect(addr)
                .unwrap_or_else(|e| panic!("idle connect {i}: {e}"));
            stream.set_nodelay(true).expect("nodelay");
            stream
        })
        .collect();
    for stream in &mut idle {
        stream.write_all(b"v2\n").expect("negotiate");
    }
    let mut readers: Vec<BufReader<std::net::TcpStream>> = idle
        .iter()
        .map(|s| BufReader::new(s.try_clone().expect("clone")))
        .collect();
    for (i, reader) in readers.iter_mut().enumerate() {
        let mut line = String::new();
        reader.read_line(&mut line).expect("negotiation reply");
        assert!(
            line.starts_with("ok v2 "),
            "idle connection {i} negotiated '{line}'"
        );
    }

    // With the whole fleet parked, one pipelined client still gets the
    // full deterministic service.
    let reference = serve_over_v2(&mei, &[5, 1, 8, 3]);
    let mut active = ClientV2::connect(addr).expect("active client");
    let inputs = request_sequence();
    active.send_batch("expfit", &inputs).expect("send batch");
    let items = active.recv_batch().expect("recv batch");
    assert_eq!(items.len(), inputs.len());
    for (i, (item, want)) in items.iter().zip(&reference).enumerate() {
        match item {
            ItemResponse::Ok { chip, output, .. } => {
                assert_eq!(*chip as usize, want.0, "request {i} chip");
                assert_eq!(output, &want.1, "request {i} bits");
            }
            other => panic!("request {i} not served: {other:?}"),
        }
    }

    // The parked connections are still live afterwards: spot-check a few
    // with a real batch each.
    for index in [0, IDLE / 2, IDLE - 1] {
        let stream = idle[index].try_clone().expect("clone");
        let mut writer = stream;
        let frame = runtime::net::frame::Frame::Request(
            runtime::net::frame::RequestFrame::from_inputs(0, &[vec![0.125]]),
        );
        writer
            .write_all(&frame.encode())
            .expect("send on idle conn");
        // Read the response frame through the buffered reader half.
        let reader = &mut readers[index];
        let mut header = [0u8; 4];
        std::io::Read::read_exact(reader, &mut header).expect("frame header");
        let len = u32::from_le_bytes(header) as usize;
        let mut body = vec![0u8; len];
        std::io::Read::read_exact(reader, &mut body).expect("frame body");
        let mut whole = header.to_vec();
        whole.extend_from_slice(&body);
        match runtime::net::frame::decode(&whole, usize::MAX) {
            runtime::net::frame::DecodeStep::Frame(
                runtime::net::frame::Frame::Response(response),
                _,
            ) => {
                assert_eq!(response.items.len(), 1, "idle connection {index}");
                assert!(matches!(response.items[0], ItemResponse::Ok { .. }));
            }
            other => panic!("idle connection {index}: {other:?}"),
        }
    }

    drop(active);
    drop(readers);
    drop(idle);
    server.shutdown();
}

#[test]
fn batch_and_streaming_assignments_agree_end_to_end() {
    let mei = trained_mei();
    let inputs = request_sequence();
    let engine = Engine::new(manufacture_chips(&mei, CHIPS, WRITE_SIGMA, ROOT_SEED).boxed());
    let lens: Vec<usize> = inputs.iter().map(Vec::len).collect();
    let batch = engine.assignment(&lens);
    let mut session = engine.session();
    let streamed: Vec<usize> = inputs
        .iter()
        .map(|input| engine.serve_one(&mut session, input).chip)
        .collect();
    assert_eq!(batch, streamed);
    // Sanity: work is actually spread, not funneled to one chip.
    let mut seen = batch.clone();
    seen.sort_unstable();
    seen.dedup();
    assert!(seen.len() > 1, "a {CHIPS}-chip pool must use several chips");
}

/// The threads that ran `infer`, and the running count of `infer` calls.
#[derive(Default)]
struct Census {
    state: Mutex<(HashSet<ThreadId>, usize)>,
    arrived: Condvar,
}

/// A chip that records which thread runs it, then waits (5 s deadline)
/// until the running call count reaches the next multiple of four: every
/// four-request frame needs four chips inside `infer` at once.
struct CensusChip(Arc<Census>);

impl Chip for CensusChip {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        let census = &*self.0;
        let mut state = census.state.lock().expect("census");
        state.0.insert(std::thread::current().id());
        state.1 += 1;
        let target = state.1.next_multiple_of(4);
        census.arrived.notify_all();
        let (_state, wait) = census
            .arrived
            .wait_timeout_while(state, Duration::from_secs(5), |s| s.1 < target)
            .expect("census");
        assert!(
            !wait.timed_out(),
            "four chips were not inside infer at once"
        );
        input.to_vec()
    }
}

#[test]
fn event_thread_reuses_one_executor_crew() {
    const FRAMES: usize = 50;
    let census = Arc::new(Census::default());
    let pool = || {
        let chips: Vec<Box<dyn Chip>> = (0..2)
            .map(|_| Box::new(CensusChip(Arc::clone(&census))) as Box<dyn Chip>)
            .collect();
        Engine::new(ChipPool::from_chips(chips)).with_policy(RoundRobin)
    };
    // 2 pools × 2 chips, R = 2, round-robin: a four-request frame lands
    // on all four chips.
    let fleet = Fleet::new(
        vec![pool(), pool()],
        FleetConfig::new(42).with_replication(2),
    );
    let total_chips = fleet.total_chips();
    let server = EventServer::bind(
        "127.0.0.1:0",
        vec![NetWorkload::fleet("w", 1, fleet)],
        EventServerConfig::default(),
    )
    .expect("bind event server");
    let mut client = ClientV2::connect(server.addr()).expect("negotiate v2");
    let inputs: Vec<Vec<f64>> = (0..4).map(|i| vec![f64::from(i)]).collect();
    for frame in 0..FRAMES {
        let items = client.request_batch("w", &inputs).expect("round trip");
        assert_eq!(items.len(), inputs.len(), "frame {frame}");
        for item in &items {
            assert!(
                matches!(item, ItemResponse::Ok { .. }),
                "frame {frame}: {item:?}"
            );
        }
    }
    drop(client);
    server.shutdown();
    let (threads, calls) = &*census.state.lock().expect("census");
    assert_eq!(*calls, FRAMES * inputs.len());
    // The event thread's crew serves every frame: no thread is started
    // per frame.
    assert!(
        threads.len() <= total_chips,
        "{} threads ran infer, more than {total_chips} chips",
        threads.len()
    );
}
