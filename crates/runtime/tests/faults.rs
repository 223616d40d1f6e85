//! Fault injection: chips whose `infer` panics mid-window.
//!
//! The contract under test (DESIGN.md, "Degraded-mode serving"):
//!
//! 1. a panicking chip never deadlocks the pool — every other request in
//!    the batch completes and the serve returns;
//! 2. the failure is *visible*: `ChipStats::failures` counts it and
//!    `ServeOutcome::failed` names the requests;
//! 3. after a window recalibration the broken chip is quarantined and
//!    subsequent placement routes around it — deterministically, so two
//!    identically-built engines degrade identically;
//! 4. over the wire, a request whose chip panics is answered in band and
//!    costs the server neither its event thread nor the connection — and
//!    so is a request that panics anywhere else in its job (a fleet with
//!    no healthy pool);
//! 5. a client that sends without reading its answers stalls against the
//!    server's bounded per-connection buffers instead of growing them.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use runtime::net::frame::{self, DecodeStep, Frame, ItemResponse, RequestFrame};
use runtime::net::{EventServer, EventServerConfig, NetWorkload, Response};
use runtime::{
    Chip, ChipPool, EjectReason, Engine, Fleet, FleetConfig, RoundRobin, SizeAware, QUARANTINE_COST,
};

/// Healthy chip: output is a pure function of the input and its offset.
struct GoodChip {
    offset: f64,
}

impl Chip for GoodChip {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        input.iter().map(|x| x + self.offset).collect()
    }
}

/// A chip that works until the serving window reaches `breaks_at`, then
/// panics on every `infer` — the "dies mid-deployment" fault model.
struct BreaksAtWindow {
    offset: f64,
    breaks_at: u64,
    window: AtomicU64,
}

impl BreaksAtWindow {
    fn new(offset: f64, breaks_at: u64) -> Self {
        Self {
            offset,
            breaks_at,
            window: AtomicU64::new(0),
        }
    }
}

impl Chip for BreaksAtWindow {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        assert!(
            self.window.load(Ordering::SeqCst) < self.breaks_at,
            "injected fault: chip hardware failed"
        );
        input.iter().map(|x| x + self.offset).collect()
    }

    fn set_window(&self, window: u64) {
        self.window.store(window, Ordering::SeqCst);
    }
}

/// A chip that panics on every single request.
struct DeadChip;

impl Chip for DeadChip {
    fn infer(&self, _input: &[f64]) -> Vec<f64> {
        panic!("injected fault: chip is dead on arrival");
    }
}

#[test]
fn panicking_chip_neither_deadlocks_nor_hides() {
    let chips: Vec<Box<dyn Chip>> = vec![
        Box::new(GoodChip { offset: 10.0 }),
        Box::new(DeadChip),
        Box::new(GoodChip { offset: 30.0 }),
    ];
    let engine = Engine::new(ChipPool::from_chips(chips)).with_policy(RoundRobin);
    let inputs: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64]).collect();
    // Must return (no deadlock) with every healthy request served.
    let outcome = engine.serve(&inputs);
    assert_eq!(outcome.outputs.len(), 9);
    // Round-robin sends requests 1, 4, 7 to the dead chip.
    assert_eq!(outcome.failed, vec![1, 4, 7]);
    for (i, out) in outcome.outputs.iter().enumerate() {
        if outcome.failed.contains(&i) {
            assert!(out.is_empty(), "failed request {i} must have no output");
        } else {
            let offset = if i % 3 == 0 { 10.0 } else { 30.0 };
            assert_eq!(out, &vec![i as f64 + offset], "healthy request {i}");
        }
    }
    // The failure surfaces in the per-chip stats.
    assert_eq!(outcome.stats.per_chip[0].failures, 0);
    assert_eq!(outcome.stats.per_chip[1].failures, 3);
    assert_eq!(outcome.stats.per_chip[2].failures, 0);
    // The engine is not poisoned: it serves the next batch too.
    let again = engine.serve(&inputs);
    assert_eq!(again.failed, vec![1, 4, 7]);
}

#[test]
fn recalibration_quarantines_and_replaces_deterministically() {
    let build = || {
        let chips: Vec<Box<dyn Chip>> = vec![
            Box::new(GoodChip { offset: 1.0 }),
            Box::new(BreaksAtWindow::new(2.0, 1)),
            Box::new(GoodChip { offset: 3.0 }),
        ];
        Engine::new(ChipPool::from_chips(chips)).with_policy(SizeAware)
    };
    let reps: Vec<Vec<f64>> = vec![vec![0.5; 2], vec![0.5; 8]];
    let inputs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64, -0.5]).collect();

    let mut engine = build();
    // Window 0: all three chips healthy, all three get work.
    let healthy = engine.serve(&inputs);
    assert!(healthy.failed.is_empty());
    assert!(healthy.stats.per_chip.iter().all(|c| c.served > 0));

    // Window 1: chip 1's hardware dies. Recalibration catches its panic,
    // quarantines it, and placement stops sending it anything.
    let window = engine.recalibrate_window(&reps, 1);
    assert_eq!(window, 1);
    assert_eq!(engine.cost_model().version(), 1);
    assert!(
        engine.cost_model().is_quarantined(1),
        "dead chip quarantined"
    );
    assert!(!engine.cost_model().is_quarantined(0));
    assert_eq!(engine.cost_model().coefficients()[1].0, QUARANTINE_COST);
    let lens: Vec<usize> = inputs.iter().map(Vec::len).collect();
    let assignment = engine.assignment(&lens);
    assert!(
        assignment.iter().all(|&chip| chip != 1),
        "placement must route around the quarantined chip: {assignment:?}"
    );
    let degraded = engine.serve(&inputs);
    assert!(
        degraded.failed.is_empty(),
        "no request may reach the dead chip after recalibration"
    );
    assert_eq!(degraded.stats.per_chip[1].served, 0);

    // Determinism of degradation. The recalibration pass itself is a
    // measurement (wall-time coefficients differ run to run), but an
    // independently recalibrated twin still quarantines the same chip
    // and routes around it...
    let mut twin = build();
    let _ = twin.recalibrate_window(&reps, 1);
    assert!(twin.cost_model().is_quarantined(1));
    assert!(twin.assignment(&lens).iter().all(|&chip| chip != 1));
    assert_eq!(twin.serve(&inputs).outputs, twin.serve(&inputs).outputs);
    // ...and placement is a pure function of the *frozen snapshot*:
    // replaying the engine's snapshot on a fresh pool reproduces its
    // degraded assignment and output bits exactly.
    let replay = build().with_cost_model(engine.cost_model().clone());
    assert_eq!(replay.assignment(&lens), assignment);
    assert_eq!(replay.serve(&inputs).outputs, degraded.outputs);
}

#[test]
fn calibration_of_an_all_dead_pool_still_terminates() {
    // Even a pool where *every* chip panics calibrates (all quarantined)
    // and a serve reports every request failed rather than hanging.
    let chips: Vec<Box<dyn Chip>> = vec![Box::new(DeadChip), Box::new(DeadChip)];
    let mut engine = Engine::new(ChipPool::from_chips(chips)).with_policy(SizeAware);
    let _ = engine.recalibrate_window(&[vec![0.0; 4]], 1);
    assert!(engine.cost_model().is_quarantined(0));
    assert!(engine.cost_model().is_quarantined(1));
    let inputs: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
    let outcome = engine.serve(&inputs);
    assert_eq!(outcome.failed, vec![0, 1, 2, 3]);
    assert!(outcome.outputs.iter().all(Vec::is_empty));
    let total_failures: usize = outcome.stats.per_chip.iter().map(|c| c.failures).sum();
    assert_eq!(total_failures, 4);
}

/// A chip that panics on negative inputs: a request-dependent fault.
struct PanicsOnNegative;

impl Chip for PanicsOnNegative {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        assert!(input[0] >= 0.0, "injected fault: negative input");
        input.to_vec()
    }
}

/// Panicking requests sent in a row on one connection.
const PANICS: usize = 3;

/// A raw connection: its buffered read half and its write half.
type Conn = (BufReader<TcpStream>, TcpStream);

/// Connect with a 10 s read timeout: a stranded request fails the test
/// instead of hanging it.
fn connect(addr: SocketAddr) -> Conn {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    (BufReader::new(stream.try_clone().expect("clone")), stream)
}

/// One v1 line and its answer.
fn round_trip((reader, writer): &mut Conn, line: &str) -> Response {
    writeln!(writer, "{line}").expect("send");
    let mut reply = String::new();
    reader
        .read_line(&mut reply)
        .expect("an answer before the timeout");
    Response::parse(reply.trim_end()).expect("a protocol line")
}

/// A raw connection that has negotiated v2.
fn connect_v2(addr: SocketAddr) -> Conn {
    let mut conn = connect(addr);
    writeln!(conn.1, "v2").expect("send negotiation");
    let mut reply = String::new();
    conn.0
        .read_line(&mut reply)
        .expect("negotiation before the timeout");
    assert!(reply.starts_with("ok v2 "), "got: {reply}");
    conn
}

/// One v2 request frame and the frame that answers it.
fn frame_round_trip((reader, writer): &mut Conn, request: RequestFrame) -> Frame {
    writer
        .write_all(&Frame::Request(request).encode())
        .expect("send");
    read_frame(reader)
}

/// The next frame off the connection.
fn read_frame(reader: &mut impl Read) -> Frame {
    let mut header = [0u8; 4];
    reader
        .read_exact(&mut header)
        .expect("an answer before the timeout");
    let mut bytes = header.to_vec();
    bytes.resize(4 + u32::from_le_bytes(header) as usize, 0);
    reader.read_exact(&mut bytes[4..]).expect("the frame body");
    match frame::decode(&bytes, bytes.len()) {
        DecodeStep::Frame(frame, _) => frame,
        other => panic!("undecodable answer: {other:?}"),
    }
}

#[test]
fn chip_panics_on_v1_lines_answer_in_band_and_spare_the_event_thread() {
    let chips: Vec<Box<dyn Chip>> = vec![Box::new(PanicsOnNegative)];
    let server = EventServer::bind(
        "127.0.0.1:0",
        vec![NetWorkload::new(
            "fragile",
            1,
            Engine::new(ChipPool::from_chips(chips)),
        )],
        EventServerConfig::default(),
    )
    .expect("bind event server");

    let mut conn = connect(server.addr());
    // Several panicking lines in a row: each is answered.
    for i in 0..PANICS {
        assert_eq!(
            round_trip(&mut conn, "fragile -1"),
            Response::Error("chip 0 failed".to_string()),
            "panicking line {i}"
        );
    }
    // The same connection and a fresh one still serve healthy lines.
    for conn in [&mut conn, &mut connect(server.addr())] {
        match round_trip(conn, "fragile 0.5") {
            Response::Ok { chip, output, .. } => assert_eq!((chip, output), (0, vec![0.5])),
            other => panic!("healthy line not served: {other:?}"),
        }
    }
    drop(conn);
    server.shutdown();
}

#[test]
fn no_healthy_pool_answers_in_band_and_spares_the_event_thread() {
    let engine = || {
        let chips: Vec<Box<dyn Chip>> = vec![Box::new(GoodChip { offset: 1.0 })];
        Engine::new(ChipPool::from_chips(chips))
    };
    let mut ejected = Fleet::new(vec![engine(), engine()], FleetConfig::new(0));
    for pool in 0..ejected.len() {
        ejected.eject(pool, EjectReason::Manual);
    }
    let server = EventServer::bind(
        "127.0.0.1:0",
        vec![
            NetWorkload::fleet("ejected", 1, ejected),
            NetWorkload::new("healthy", 1, engine()),
        ],
        EventServerConfig::default(),
    )
    .expect("bind event server");
    let no_pool = "no healthy pool to serve workload 'ejected'".to_string();

    // Several panicking requests in a row: each is answered in band, as
    // an `err` line on v1 and an error frame on v2.
    let mut v1 = connect(server.addr());
    for i in 0..PANICS {
        assert_eq!(
            round_trip(&mut v1, "ejected 0.5"),
            Response::Error(no_pool.clone()),
            "ejected line {i}"
        );
    }
    let mut v2 = connect_v2(server.addr());
    assert_eq!(
        frame_round_trip(&mut v2, RequestFrame::from_inputs(0, &[vec![0.5]])),
        Frame::Error(no_pool)
    );

    // The healthy workload serves on the same connections and fresh ones.
    for conn in [&mut v1, &mut connect(server.addr())] {
        match round_trip(conn, "healthy 0.5") {
            Response::Ok { chip, output, .. } => assert_eq!((chip, output), (0, vec![1.5])),
            other => panic!("healthy line not served: {other:?}"),
        }
    }
    for conn in [&mut v2, &mut connect_v2(server.addr())] {
        match frame_round_trip(conn, RequestFrame::from_inputs(1, &[vec![0.5]])) {
            Frame::Response(response) => match &response.items[..] {
                [ItemResponse::Ok { chip, output, .. }] => {
                    assert_eq!((*chip, output), (0, &vec![1.5]));
                }
                other => panic!("healthy frame not served: {other:?}"),
            },
            other => panic!("healthy frame not served: {other:?}"),
        }
    }
    drop((v1, v2));
    server.shutdown();
}

#[test]
fn a_client_that_never_reads_stalls_instead_of_growing_the_server() {
    flood_stalls_before(16, 64 * 1024 * 1024);
}

#[test]
fn a_client_that_never_reads_big_frames_stalls_within_a_few_frames() {
    // 64 KiB frames: 1,024 pending would hold 64 MiB, but the pending
    // jobs stop decoding at one frame cap (1 MiB) of request bytes.
    flood_stalls_before(8 * 1024, 32 * 1024 * 1024);
}

/// Send frames of `batch` requests to a one-chip server without ever
/// reading an answer, until the writes make no progress for half a
/// second, and assert that the server's bounded buffers and then the
/// kernel's pushed back before `limit` bytes. Then read every answer:
/// each frame is answered, in order, with its own outputs.
fn flood_stalls_before(batch: usize, limit: usize) {
    const STALL: Duration = Duration::from_millis(500);
    let chips: Vec<Box<dyn Chip>> = vec![Box::new(GoodChip { offset: 1.0 })];
    let server = EventServer::bind(
        "127.0.0.1:0",
        vec![NetWorkload::new(
            "toy",
            1,
            Engine::new(ChipPool::from_chips(chips)),
        )],
        EventServerConfig::default(),
    )
    .expect("bind event server");
    let (reader, mut writer) = connect_v2(server.addr());
    // Frame k carries the inputs batch·k, …, batch·k + batch − 1.
    let request = |k: usize| {
        let inputs: Vec<Vec<f64>> = (0..batch).map(|j| vec![(k * batch + j) as f64]).collect();
        Frame::Request(RequestFrame::from_inputs(0, &inputs)).encode()
    };

    writer.set_nonblocking(true).expect("nonblocking");
    let (mut frames, mut bytes, mut offset) = (0, request(0), 0);
    let mut written = 0;
    let mut last_progress = Instant::now();
    while written < limit && last_progress.elapsed() < STALL {
        match writer.write(&bytes[offset..]) {
            Ok(n) => {
                written += n;
                offset += n;
                last_progress = Instant::now();
                if offset == bytes.len() {
                    frames += 1;
                    (bytes, offset) = (request(frames), 0);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(e) => panic!("flood write: {e}"),
        }
    }
    assert!(
        written < limit,
        "the server took {written} bytes from a client that never reads"
    );

    // Finish the frame in progress while another thread reads every
    // answer.
    let sent = frames + 1;
    writer.set_nonblocking(false).expect("blocking");
    let answers = std::thread::spawn(move || {
        let mut reader = reader;
        for k in 0..sent {
            let Frame::Response(response) = read_frame(&mut reader) else {
                panic!("frame {k} not answered with a response");
            };
            assert_eq!(response.items.len(), batch, "frame {k}");
            for (j, item) in response.items.iter().enumerate() {
                let want = (k * batch + j) as f64 + 1.0;
                match item {
                    ItemResponse::Ok {
                        chip: 0, output, ..
                    } if output == &[want] => {}
                    other => panic!("frame {k} item {j}: {other:?}, want {want}"),
                }
            }
        }
    });
    writer
        .write_all(&bytes[offset..])
        .expect("finish the frame in progress");
    answers.join().expect("every frame answered in order");
    drop(writer);
    server.shutdown();
}
