//! The traced in-process replay: the workload's exact request sequence
//! pushed through the serving stack's public entry points in server
//! order, each layer timed from outside.
//!
//! 1. `ConnMachine::feed`/`poll` (`frame.decode`);
//! 2. `RequestFrame::inputs`, or the v1 CSV parse (`frame.unpack`);
//! 3. `NetWorkload::serve_batch`, or `offer_one` for a v1 line
//!    (`fleet.batch`);
//! 4. `Engine::serve_session_batch` (or `offer_one`) on each pool's
//!    sub-batch, split by `Fleet::replicas` and the documented `n mod R`
//!    rotation (`engine.batch`), with `Fleet::next_pool` timed per
//!    request (`fleet.route`);
//! 5. `Chip::infer` (the `chip.infer` spans the timed chips record, as
//!    children of the fleet or engine span that caused them) and the
//!    chip stages ([`chip_stages`]);
//! 6. `Frame::encode`, or the v1 response line (`frame.encode`).
//!
//! A counting pass repeats steps 1–3 and 6 with the allocator counting
//! and span recording off, so the counts are exact and unpolluted.

use std::hint::black_box;
use std::time::Instant;

use crossbar::ConvWorkspace;
use mei::{AnalogWorkspace, CnnRcs, CnnWorkspace, MeiRcs};
use runtime::net::conn::{ConnEvent, ConnMachine};
use runtime::net::frame::{
    Frame, ItemResponse, RequestFrame, ResponseFrame, DEFAULT_MAX_FRAME_BYTES,
};
use runtime::net::{parse_csv, NetWorkload, Response, DEFAULT_MAX_LINE_BYTES};
use runtime::{BatchItem, Chip, Offer};
use servebench::trace::{self, next_id, now_ns, record_with, set_context};
use servebench::{alloc, latency};

use crate::load::Sequence;

/// Allocation counts per request, by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Allocs {
    /// Frame (or line) decode and unpack.
    pub decode: f64,
    /// The backend call (fleet, engines, chips, thread fan-out).
    pub backend: f64,
    /// One `Chip::infer`.
    pub chip: f64,
    /// Response encode.
    pub encode: f64,
}

/// Wire bytes per request (request plus response).
#[derive(Debug, Clone, Copy, Default)]
pub struct Bytes(pub f64);

fn served_items(items: Vec<BatchItem>) -> Vec<ItemResponse> {
    // The event server's own BatchItem → wire mapping.
    items
        .into_iter()
        .map(|item| match item {
            BatchItem::Served(served) => ItemResponse::Ok {
                chip: u32::try_from(served.chip).unwrap_or(u32::MAX),
                latency_us: u32::try_from(served.latency.as_micros()).unwrap_or(u32::MAX),
                output: served.output,
            },
            BatchItem::Shed { .. } => ItemResponse::Shed,
            BatchItem::Failed { chip } => ItemResponse::Err(format!("chip {chip} failed")),
        })
        .collect()
}

fn v1_response(offer: Offer) -> Response {
    match offer {
        Offer::Served(served) => Response::Ok {
            chip: served.chip,
            latency_us: served.latency.as_micros(),
            output: served.output,
        },
        Offer::Shed { .. } => Response::Error("overloaded".to_string()),
    }
}

/// A span around `f`, under the current context; returns `f`'s value.
fn span<R>(name: &'static str, frame: u64, f: impl FnOnce() -> R) -> R {
    let start = now_ns();
    let out = f();
    record_with(next_id(), 0, frame, name, start, now_ns());
    out
}

/// Replay `frames` frames of `frame_size` requests (v2) or `frames` v1
/// lines through the stack twice — timed, then counted. Spans land in
/// the trace buffers (recording must be on for the timed pass); the
/// counting pass's results are returned.
///
/// # Panics
///
/// Panics if the twin is not fleet-backed or the stack rejects a
/// request the gate accepted (a benchmark bug).
pub fn stack(
    twin: &NetWorkload,
    seq: &Sequence<'_>,
    v1: bool,
    frame_size: usize,
    frames: u64,
) -> (Allocs, Bytes) {
    timed_pass(twin, seq, v1, frame_size, frames);
    engine_pass(twin, seq, v1, frame_size, frames);
    counting_pass(twin, seq, v1, frame_size, frames)
}

fn request_bytes(seq: &Sequence<'_>, v1: bool, name: &str, k: u64, frame_size: usize) -> Vec<u8> {
    if v1 {
        format!("{name} {}\n", runtime::net::format_csv(seq.input(k))).into_bytes()
    } else {
        Frame::Request(RequestFrame::from_inputs(0, &seq.frame(k, frame_size))).encode()
    }
}

fn new_machine(v1: bool) -> ConnMachine {
    let mut machine = ConnMachine::new(DEFAULT_MAX_LINE_BYTES, DEFAULT_MAX_FRAME_BYTES);
    if !v1 {
        machine.feed(b"v2\n");
        assert_eq!(machine.poll(), Some(ConnEvent::NegotiatedV2));
    }
    machine
}

/// Decoded request: v2 frame or v1 line.
enum Decoded {
    Frame(RequestFrame),
    Line(String),
}

fn decode(machine: &mut ConnMachine, bytes: &[u8]) -> Decoded {
    machine.feed(bytes);
    match machine.poll() {
        Some(ConnEvent::Request(request)) => Decoded::Frame(request),
        Some(ConnEvent::Line(line)) => Decoded::Line(line),
        other => panic!("replayed request did not decode: {other:?}"),
    }
}

fn unpack(decoded: &Decoded) -> Vec<Vec<f64>> {
    match decoded {
        Decoded::Frame(request) => request.inputs(),
        Decoded::Line(line) => {
            let (_, csv) = line.split_once(' ').expect("replayed line has a payload");
            vec![parse_csv(csv).expect("replayed line parses")]
        }
    }
}

/// One request's worth of server work: backend then encode bytes.
fn serve(
    twin: &NetWorkload,
    session: &mut runtime::net::WorkloadSession,
    inputs: &[Vec<f64>],
    arrival: f64,
    v1: bool,
) -> Encodable {
    if v1 {
        Encodable::Line(v1_response(twin.offer_one(session, &inputs[0], arrival)))
    } else {
        Encodable::Frame(Frame::Response(ResponseFrame {
            workload: 0,
            items: served_items(twin.serve_batch(session, inputs, Some(arrival))),
        }))
    }
}

enum Encodable {
    Frame(Frame),
    Line(Response),
}

fn encode(response: &Encodable) -> Vec<u8> {
    match response {
        Encodable::Frame(frame) => frame.encode(),
        Encodable::Line(line) => {
            let mut bytes = line.format().into_bytes();
            bytes.push(b'\n');
            bytes
        }
    }
}

fn timed_pass(twin: &NetWorkload, seq: &Sequence<'_>, v1: bool, frame_size: usize, frames: u64) {
    let mut machine = new_machine(v1);
    let mut session = twin.open_session();
    let epoch = Instant::now();
    let per = if v1 { 1 } else { frame_size };
    for k in 0..frames {
        // Frame ids start at 1; 0 marks spans of the live server.
        let frame = k + 1;
        let bytes = request_bytes(seq, v1, twin.name(), k, per);
        let decoded = span("frame.decode", frame, || decode(&mut machine, &bytes));
        let arrival = epoch.elapsed().as_secs_f64();
        let inputs = span("frame.unpack", frame, || unpack(&decoded));
        let id = next_id();
        set_context(frame, id);
        let start = now_ns();
        let response = serve(twin, &mut session, &inputs, arrival, v1);
        record_with(id, 0, frame, "fleet.batch", start, now_ns());
        set_context(0, 0);
        let out = span("frame.encode", frame, || encode(&response));
        black_box(out);
    }
}

fn engine_pass(twin: &NetWorkload, seq: &Sequence<'_>, v1: bool, frame_size: usize, frames: u64) {
    let fleet = twin.as_fleet().expect("the twin is a fleet");
    let replicas = fleet.replicas(twin.name());
    let probe = fleet.session(twin.name());
    let mut sessions: Vec<_> = (0..fleet.len())
        .map(|p| fleet.engine(p).session())
        .collect();
    let per = if v1 { 1 } else { frame_size };
    let epoch = Instant::now();
    let mut n = 0u64;
    for k in 0..frames {
        let inputs = seq.frame(k, per);
        let arrival = epoch.elapsed().as_secs_f64();
        let mut per_pool: Vec<Vec<Vec<f64>>> = vec![Vec::new(); fleet.len()];
        let route_start = now_ns();
        for input in inputs {
            black_box(fleet.next_pool(black_box(&probe)));
            per_pool[replicas[(n % replicas.len() as u64) as usize]].push(input);
            n += 1;
        }
        record_with(next_id(), 0, k + 1, "fleet.route", route_start, now_ns());
        for (pool, sub) in per_pool.iter().enumerate() {
            if sub.is_empty() {
                continue;
            }
            let engine = fleet.engine(pool);
            let id = next_id();
            set_context(k + 1, id);
            let start = now_ns();
            if v1 {
                black_box(engine.offer_one(&mut sessions[pool], &sub[0], arrival));
            } else {
                black_box(engine.serve_session_batch(&mut sessions[pool], sub, Some(arrival)));
            }
            record_with(id, 0, k + 1, "engine.batch", start, now_ns());
            set_context(0, 0);
        }
    }
}

fn counting_pass(
    twin: &NetWorkload,
    seq: &Sequence<'_>,
    v1: bool,
    frame_size: usize,
    frames: u64,
) -> (Allocs, Bytes) {
    let was_recording = trace::recording();
    trace::set_recording(false);
    let mut machine = new_machine(v1);
    let mut session = twin.open_session();
    let epoch = Instant::now();
    let per = if v1 { 1 } else { frame_size };
    let mut allocs = Allocs::default();
    let mut bytes_total = 0usize;
    for k in 0..frames {
        let bytes = request_bytes(seq, v1, twin.name(), k, per);
        let (inputs, decode_allocs) = alloc::count(|| {
            let decoded = decode(&mut machine, &bytes);
            unpack(&decoded)
        });
        let arrival = epoch.elapsed().as_secs_f64();
        let (response, backend_allocs) =
            alloc::count(|| serve(twin, &mut session, &inputs, arrival, v1));
        let (out, encode_allocs) = alloc::count(|| encode(&response));
        allocs.decode += decode_allocs as f64;
        allocs.backend += backend_allocs as f64;
        allocs.encode += encode_allocs as f64;
        bytes_total += bytes.len() + out.len();
    }
    let fleet = twin.as_fleet().expect("the twin is a fleet");
    let chip = &fleet.engine(0).pool().chips()[0];
    let chip_calls = (frames as usize * per).min(4096) as u64;
    for n in 0..chip_calls {
        let input = seq.input(n);
        allocs.chip += alloc::count(|| black_box(chip.infer(input))).1 as f64;
    }
    trace::set_recording(was_recording);
    let requests = (frames as usize * per) as f64;
    (
        Allocs {
            decode: allocs.decode / requests,
            backend: allocs.backend / requests,
            chip: allocs.chip / chip_calls as f64,
            encode: allocs.encode / requests,
        },
        Bytes(bytes_total as f64 / requests),
    )
}

/// Per-call nanoseconds of each chip stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// MLP input interface encode (`InterfaceSpec::encode`).
    pub encode_ns: f64,
    /// MLP crossbar network (`AnalogMlp::forward_with`).
    pub forward_ns: f64,
    /// MLP sensing: `infer_bits_with` minus `forward_with`.
    pub sense_ns: f64,
    /// MLP output interface decode.
    pub decode_ns: f64,
    /// CNN conv tiles (`TiledConv::forward_with`).
    pub tiles_ns: f64,
    /// CNN analog head (`AnalogMlp::forward_with`).
    pub head_ns: f64,
    /// CNN remainder: infer minus tiles minus head.
    pub other_ns: f64,
}

/// Passes over the held-out inputs; every stage runs once per pass, so
/// the stages of one pass see the same host conditions, and each stage
/// reports its median pass.
const STAGE_PASSES: usize = 31;

/// Mean per-call nanoseconds of `f(i)` over `i in 0..n`, recorded as one
/// `name` span.
fn pass_ns(name: &'static str, n: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = now_ns();
    for i in 0..n {
        f(i);
    }
    let end = now_ns();
    record_with(next_id(), 0, 0, name, start, end);
    (end - start) as f64 / n as f64
}

/// Time the MEI stages of `mlp` and the CNN stages of `cnn` over their
/// held-out inputs. Differences (`sense`, `other`) are taken within a
/// pass before the median.
#[must_use]
pub fn chip_stages(
    mlp: &MeiRcs,
    mlp_inputs: &[Vec<f64>],
    cnn: &CnnRcs,
    cnn_inputs: &[Vec<f64>],
) -> Stages {
    let in_spec = mlp.input_spec();
    let out_spec = mlp.output_spec();
    let mut ws = AnalogWorkspace::new();
    let bits: Vec<Vec<f64>> = mlp_inputs.iter().map(|x| in_spec.encode(x)).collect();
    let out_bits: Vec<Vec<f64>> = bits
        .iter()
        .map(|b| {
            mlp.infer_bits_with(b, &mut ws)
                .expect("held-out input fits")
        })
        .collect();
    let mut conv_ws = ConvWorkspace::new();
    let mut head_ws = AnalogWorkspace::new();
    let mut cnn_ws = CnnWorkspace::new();
    let features: Vec<Vec<f64>> = cnn_inputs
        .iter()
        .map(|x| {
            cnn.conv()
                .forward(x)
                .into_iter()
                .map(neural::conv::binarize)
                .collect()
        })
        .collect();
    let (n, m) = (mlp_inputs.len(), cnn_inputs.len());
    let mut passes: Vec<Stages> = Vec::with_capacity(STAGE_PASSES);
    for _ in 0..STAGE_PASSES {
        let encode_ns = pass_ns("stage.interface.encode", n, |i| {
            black_box(in_spec.encode(&mlp_inputs[i]));
        });
        let forward_ns = pass_ns("stage.crossbar.forward", n, |i| {
            black_box(mlp.analog().forward_with(&bits[i], &mut ws));
        });
        let bits_ns = pass_ns("stage.mei.infer_bits", n, |i| {
            black_box(
                mlp.infer_bits_with(&bits[i], &mut ws)
                    .expect("held-out input fits"),
            );
        });
        let decode_ns = pass_ns("stage.interface.decode", n, |i| {
            black_box(out_spec.decode(&out_bits[i]));
        });
        let tiles_ns = pass_ns("stage.conv.tiles", m, |i| {
            black_box(cnn.conv().forward_with(&cnn_inputs[i], &mut conv_ws));
        });
        let head_ns = pass_ns("stage.conv.head", m, |i| {
            black_box(cnn.head().forward_with(&features[i], &mut head_ws));
        });
        let infer_ns = pass_ns("stage.conv.infer", m, |i| {
            black_box(
                cnn.infer_with(&cnn_inputs[i], &mut cnn_ws)
                    .expect("held-out input fits"),
            );
        });
        passes.push(Stages {
            encode_ns,
            forward_ns,
            sense_ns: bits_ns - forward_ns,
            decode_ns,
            tiles_ns,
            head_ns,
            other_ns: infer_ns - tiles_ns - head_ns,
        });
    }
    let med = |f: fn(&Stages) -> f64| latency::median(&passes.iter().map(f).collect::<Vec<f64>>());
    Stages {
        encode_ns: med(|s| s.encode_ns),
        forward_ns: med(|s| s.forward_ns),
        sense_ns: med(|s| s.sense_ns),
        decode_ns: med(|s| s.decode_ns),
        tiles_ns: med(|s| s.tiles_ns),
        head_ns: med(|s| s.head_ns),
        other_ns: med(|s| s.other_ns),
    }
}
