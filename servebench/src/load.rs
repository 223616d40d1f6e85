//! Load generation over loopback: one client process, at most two
//! threads and two connections.
//!
//! * [`closed_v2`] — one `ClientV2`, `depth` request frames in flight.
//! * [`open_loop`] — a paced sender thread and a receiving thread on one
//!   connection (v2 frames or v1 lines); each request is timed from its
//!   frame's due time. The sender stops once its unanswered backlog
//!   passes [`BACKLOG_FRAMES`]; the phase then counts as a miss and the
//!   connection is abandoned.
//! * [`roundtrip_v1`] — one v1 `Client`, strict request/response.
//! * [`null_round_trips`] — requests a worker rejects in band without
//!   touching the backend.
//!
//! Every outcome is counted ([`Tally`]); an I/O error ends its phase and
//! is reported, never panics.

use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use runtime::net::frame::{self, Frame, ItemResponse, RequestFrame};
use runtime::net::{format_csv, Client, ClientV2, Response};
use servebench::latency::{due_latency_us, lag_us, schedule};

/// Unanswered frames after which an open-loop sender gives up.
pub const BACKLOG_FRAMES: u64 = 128;

/// How long a receiver waits for outstanding answers once sending ends.
const DRAIN_LIMIT: Duration = Duration::from_secs(3);

/// Socket read timeout, so receivers can notice a finished or abandoned
/// phase.
const READ_POLL: Duration = Duration::from_millis(50);

/// One answered request.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// Served: global chip id and output bits.
    Ok {
        /// Global chip id.
        chip: usize,
        /// Output vector.
        output: Vec<f64>,
    },
    /// Shed by admission control.
    Shed,
    /// A chip panicked on the request.
    Failed,
    /// Rejected in band with a message.
    Err(String),
}

impl From<ItemResponse> for Item {
    fn from(item: ItemResponse) -> Self {
        match item {
            ItemResponse::Ok { chip, output, .. } => Item::Ok {
                chip: chip as usize,
                output,
            },
            ItemResponse::Shed => Item::Shed,
            // The server's only per-item error for a healthy request is
            // a contained chip panic, rendered as `chip <id> failed`.
            ItemResponse::Err(message)
                if message.starts_with("chip ") && message.ends_with(" failed") =>
            {
                Item::Failed
            }
            ItemResponse::Err(message) => Item::Err(message),
        }
    }
}

impl From<Response> for Item {
    fn from(response: Response) -> Self {
        match response {
            Response::Ok { chip, output, .. } => Item::Ok { chip, output },
            Response::Error(message) if message == "overloaded" => Item::Shed,
            Response::Error(message) => Item::Err(message),
        }
    }
}

/// Outcome counts of one phase. `attempted` counts requests sent;
/// everything not served lands in exactly one failure bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Served.
    pub served: u64,
    /// Shed by admission control.
    pub shed: u64,
    /// Rejected in band.
    pub err: u64,
    /// Chip panics.
    pub failed: u64,
    /// Sent but unanswered when the phase ended.
    pub missing: u64,
    /// Unanswered because the connection died.
    pub lost: u64,
}

impl Tally {
    /// Count one answered request.
    pub fn note(&mut self, item: &Item) {
        match item {
            Item::Ok { .. } => self.served += 1,
            Item::Shed => self.shed += 1,
            Item::Failed => self.failed += 1,
            Item::Err(_) => self.err += 1,
        }
    }

    /// Requests that were not served.
    #[must_use]
    pub fn failures(&self) -> u64 {
        self.shed + self.err + self.failed + self.missing + self.lost
    }

    /// Sum two tallies.
    #[must_use]
    pub fn plus(self, other: Tally) -> Tally {
        Tally {
            attempted: self.attempted + other.attempted,
            served: self.served + other.served,
            shed: self.shed + other.shed,
            err: self.err + other.err,
            failed: self.failed + other.failed,
            missing: self.missing + other.missing,
            lost: self.lost + other.lost,
        }
    }
}

/// The deterministic request sequence: request `n` carries held-out
/// input `n mod H`, on every connection and at every frame size.
pub struct Sequence<'a> {
    inputs: &'a [Vec<f64>],
}

impl<'a> Sequence<'a> {
    /// The sequence over a held-out set.
    #[must_use]
    pub fn new(inputs: &'a [Vec<f64>]) -> Self {
        assert!(!inputs.is_empty(), "the held-out set is empty");
        Self { inputs }
    }

    /// Input of request `n`.
    #[must_use]
    pub fn input(&self, n: u64) -> &'a [f64] {
        &self.inputs[(n % self.inputs.len() as u64) as usize]
    }

    /// The inputs of frame `k` at `frame_size` requests per frame.
    #[must_use]
    pub fn frame(&self, k: u64, frame_size: usize) -> Vec<Vec<f64>> {
        let first = k * frame_size as u64;
        (0..frame_size as u64)
            .map(|j| self.input(first + j).to_vec())
            .collect()
    }
}

/// Every distinct encoded frame of a sequence at one frame size (frame
/// `k` is `encoded[k mod len]`), built once so the client spends its time
/// sending, not encoding.
pub struct Wire {
    encoded: Vec<Vec<u8>>,
    /// Requests per frame (1 for v1 lines).
    pub frame_size: usize,
    v1: bool,
}

impl Wire {
    /// v2 request frames for workload id 0.
    #[must_use]
    pub fn v2(seq: &Sequence<'_>, frame_size: usize) -> Self {
        let held = seq.inputs.len();
        let period = held / gcd(held, frame_size);
        let encoded = (0..period as u64)
            .map(|k| {
                Frame::Request(RequestFrame::from_inputs(0, &seq.frame(k, frame_size))).encode()
            })
            .collect();
        Self {
            encoded,
            frame_size,
            v1: false,
        }
    }

    /// v1 request lines for workload `name`.
    #[must_use]
    pub fn v1(seq: &Sequence<'_>, name: &str) -> Self {
        let encoded = seq
            .inputs
            .iter()
            .map(|input| format!("{name} {}\n", format_csv(input)).into_bytes())
            .collect();
        Self {
            encoded,
            frame_size: 1,
            v1: true,
        }
    }

    /// The bytes of frame `k`.
    #[must_use]
    pub fn bytes(&self, k: u64) -> &[u8] {
        &self.encoded[(k % self.encoded.len() as u64) as usize]
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Answers recorded for the post-timing oracle check: `(first request
/// index of the frame, its items)`.
pub type Samples = Vec<(u64, Vec<Item>)>;

/// A closed phase's result.
pub struct Closed {
    /// Outcome counts.
    pub tally: Tally,
    /// Per answered frame: seconds since the phase start, requests served.
    pub answers: Vec<(f64, u64)>,
    /// Wall seconds from the first send to the last answer.
    pub secs: f64,
    /// Every `sample_every`-th frame's answers.
    pub samples: Samples,
}

impl Closed {
    /// Served requests per second.
    #[must_use]
    pub fn rps(&self) -> f64 {
        self.tally.served as f64 / self.secs.max(f64::MIN_POSITIVE)
    }
}

/// Closed loop over one `ClientV2`: keep `depth` frames in flight until
/// `duration` elapses, then drain.
#[must_use]
pub fn closed_v2(
    addr: SocketAddr,
    wire: &Wire,
    depth: usize,
    duration: Duration,
    sample_every: u64,
) -> Closed {
    let mut tally = Tally::default();
    let mut samples = Samples::new();
    let Ok(mut client) = ClientV2::connect(addr) else {
        return Closed {
            tally: Tally {
                lost: 1,
                attempted: 1,
                ..Tally::default()
            },
            answers: Vec::new(),
            secs: duration.as_secs_f64(),
            samples,
        };
    };
    let f = wire.frame_size as u64;
    let start = Instant::now();
    let (mut sent, mut received) = (0u64, 0u64);
    let mut last_answer = start;
    let mut answers = Vec::new();
    loop {
        while sent - received < depth as u64 && start.elapsed() < duration {
            if client.send_raw(wire.bytes(sent)).is_err() {
                break;
            }
            sent += 1;
            tally.attempted += f;
        }
        if sent == received {
            break;
        }
        match client.recv_batch() {
            Ok(items) => {
                last_answer = Instant::now();
                let items: Vec<Item> = items.into_iter().map(Item::from).collect();
                let served_before = tally.served;
                for item in &items {
                    tally.note(item);
                }
                answers.push((
                    last_answer.duration_since(start).as_secs_f64(),
                    tally.served - served_before,
                ));
                if received.is_multiple_of(sample_every) {
                    samples.push((received * f, items));
                }
                received += 1;
            }
            Err(_) => {
                tally.lost += (sent - received) * f;
                break;
            }
        }
    }
    Closed {
        tally,
        answers,
        secs: last_answer.duration_since(start).as_secs_f64(),
        samples,
    }
}

/// An open phase's result.
pub struct Open {
    /// Outcome counts.
    pub tally: Tally,
    /// Per served request: its due time (seconds since the phase start)
    /// and its latency from that due time, µs.
    pub latencies: Vec<(f64, f64)>,
    /// Per-frame generator lag, µs.
    pub lags_us: Vec<f64>,
    /// The sender gave up on a growing backlog.
    pub abandoned: bool,
    /// Every `sample_every`-th frame's answers.
    pub samples: Samples,
    /// Wall seconds of the phase.
    pub secs: f64,
}

impl Open {
    /// Whether every request sent was served and nothing was abandoned.
    #[must_use]
    pub fn clean(&self) -> bool {
        !self.abandoned && self.tally.failures() == 0
    }
}

/// Connect for an open loop: negotiate v2 when `v2`, then hand back the
/// stream with the bytes read past the negotiation line.
fn connect_open(addr: SocketAddr, v2: bool) -> io::Result<(TcpStream, Vec<u8>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut leftover = Vec::new();
    if v2 {
        (&stream).write_all(b"v2\n")?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut line = String::new();
        reader.read_line(&mut line)?;
        if !line.starts_with("ok v2 ") {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("no v2 negotiation: '{line}'"),
            ));
        }
        leftover.extend_from_slice(reader.buffer());
    }
    stream.set_read_timeout(Some(READ_POLL))?;
    Ok((stream, leftover))
}

/// Pull one answer (a v2 response frame or a v1 line) off `buf`.
fn take_answer(buf: &mut Vec<u8>, v1: bool) -> io::Result<Option<Vec<Item>>> {
    if v1 {
        let Some(pos) = buf.iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        let line: Vec<u8> = buf.drain(..=pos).collect();
        let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
        let response = Response::parse(text.trim_end_matches('\r'))
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?;
        return Ok(Some(vec![Item::from(response)]));
    }
    match frame::decode(buf, usize::MAX / 2) {
        frame::DecodeStep::Incomplete => Ok(None),
        frame::DecodeStep::Frame(Frame::Response(response), consumed) => {
            buf.drain(..consumed);
            Ok(Some(response.items.into_iter().map(Item::from).collect()))
        }
        frame::DecodeStep::Frame(other, _) => Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("unexpected frame {other:?}"),
        )),
        frame::DecodeStep::Corrupt(message, _) | frame::DecodeStep::Fatal(message) => {
            Err(io::Error::new(ErrorKind::InvalidData, message))
        }
    }
}

/// Open loop on one connection: a sender thread offers `rate` req/s in
/// evenly spaced frames of `wire.frame_size` for `duration`
/// ([`schedule`]); this thread receives and times each request from its
/// frame's due time.
#[must_use]
pub fn open_loop(
    addr: SocketAddr,
    wire: &Wire,
    rate: f64,
    duration: Duration,
    sample_every: u64,
) -> Open {
    let v1 = wire.v1;
    let f = wire.frame_size as u64;
    let due_times = schedule(duration, wire.frame_size, rate);
    let frames = due_times.len() as u64;
    let mut result = Open {
        tally: Tally::default(),
        latencies: Vec::with_capacity((frames * f) as usize),
        lags_us: Vec::new(),
        abandoned: false,
        samples: Samples::new(),
        secs: 0.0,
    };
    let (stream, mut buf) = match connect_open(addr, !v1) {
        Ok(conn) => conn,
        Err(_) => {
            result.tally.attempted = f;
            result.tally.lost = f;
            return result;
        }
    };
    let Ok(writer) = stream.try_clone() else {
        result.tally.attempted = f;
        result.tally.lost = f;
        return result;
    };
    let received = AtomicU64::new(0);
    let sent = AtomicU64::new(0);
    let sending = AtomicBool::new(true);
    let abandoned = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let epoch = Instant::now();

    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut writer = writer;
            let mut lags = Vec::with_capacity(frames as usize);
            for k in 0..frames {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                if k - received.load(Ordering::SeqCst) > BACKLOG_FRAMES {
                    abandoned.store(true, Ordering::SeqCst);
                    break;
                }
                let due = due_times[k as usize];
                let now = epoch.elapsed();
                if due > now {
                    std::thread::sleep(due - now);
                }
                lags.push(lag_us(due, epoch.elapsed()));
                if writer.write_all(wire.bytes(k)).is_err() {
                    break;
                }
                sent.store(k + 1, Ordering::SeqCst);
            }
            sending.store(false, Ordering::SeqCst);
            lags
        });

        let mut chunk = [0u8; 64 * 1024];
        let mut reader = &stream;
        let mut k = 0u64;
        let mut drain_deadline: Option<Instant> = None;
        loop {
            while let Some(items) = match take_answer(&mut buf, v1) {
                Ok(answer) => answer,
                Err(_) => {
                    stop.store(true, Ordering::SeqCst);
                    None
                }
            } {
                let due = due_times[k as usize];
                let latency = due_latency_us(due, epoch.elapsed());
                for item in &items {
                    result.tally.note(item);
                    if matches!(item, Item::Ok { .. }) {
                        result.latencies.push((due.as_secs_f64(), latency));
                    }
                }
                if k.is_multiple_of(sample_every) {
                    result.samples.push((k * f, items));
                }
                k += 1;
                received.store(k, Ordering::SeqCst);
            }
            if stop.load(Ordering::SeqCst) || abandoned.load(Ordering::SeqCst) {
                break;
            }
            if !sending.load(Ordering::SeqCst) {
                if k == sent.load(Ordering::SeqCst) {
                    break;
                }
                let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_LIMIT);
                if Instant::now() > deadline {
                    break;
                }
            }
            match reader.read(&mut chunk) {
                Ok(0) => {
                    stop.store(true, Ordering::SeqCst);
                    break;
                }
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(_) => {
                    stop.store(true, Ordering::SeqCst);
                    break;
                }
            }
        }
        // Abandon the connection: the sender (if still writing) sees the
        // shutdown, and the server drops what it still owes.
        let _ = stream.shutdown(Shutdown::Both);
        result.lags_us = sender.join().unwrap_or_default();
        result.secs = epoch.elapsed().as_secs_f64();
        let sent = sent.load(Ordering::SeqCst);
        result.tally.attempted = sent * f;
        let unanswered = (sent - k.min(sent)) * f;
        if stop.load(Ordering::SeqCst) {
            result.tally.lost += unanswered;
        } else {
            result.tally.missing += unanswered;
        }
        result.abandoned = abandoned.load(Ordering::SeqCst);
    });
    result
}

/// A strict round-trip phase's result.
pub struct RoundTrips {
    /// Outcome counts.
    pub tally: Tally,
    /// Per served round trip: its send time (seconds since the phase
    /// start) and its latency, µs.
    pub latencies: Vec<(f64, f64)>,
    /// Wall seconds.
    pub secs: f64,
    /// Every `sample_every`-th answer.
    pub samples: Samples,
}

/// Upper bound of the client's think time between round trips. Two loop
/// sleep periods and more, so request arrivals sweep every phase of the
/// server's 500 µs readiness-loop sleep instead of locking onto one.
pub const THINK_MAX_US: u64 = 1_000;

/// Think time before round trip `n`: uniform in `[0, THINK_MAX_US)` µs,
/// drawn from the seed.
#[must_use]
pub fn think_time(seed: u64, n: u64) -> Duration {
    Duration::from_micros(prng::substream(seed, n) % THINK_MAX_US)
}

/// Strict request/response over one v1 `Client` until `duration`
/// elapses, with a seeded think time ([`think_time`]) before each
/// request. A zero think time would phase-lock the client to the
/// server's readiness loop: the round trip then settles on one or two
/// loop sleeps per run, a coin flip between runs.
#[must_use]
pub fn roundtrip_v1(
    addr: SocketAddr,
    name: &str,
    seq: &Sequence<'_>,
    duration: Duration,
    think_seed: u64,
    sample_every: u64,
) -> RoundTrips {
    let mut result = RoundTrips {
        tally: Tally::default(),
        latencies: Vec::new(),
        secs: 0.0,
        samples: Samples::new(),
    };
    let Ok(mut client) = Client::connect(addr) else {
        result.tally = Tally {
            attempted: 1,
            lost: 1,
            ..Tally::default()
        };
        return result;
    };
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed() < duration {
        std::thread::sleep(think_time(think_seed, n));
        let sent = Instant::now();
        result.tally.attempted += 1;
        match client.request(name, seq.input(n)) {
            Ok(response) => {
                let latency = sent.elapsed().as_secs_f64() * 1e6;
                let item = Item::from(response);
                if matches!(item, Item::Ok { .. }) {
                    result
                        .latencies
                        .push((sent.duration_since(start).as_secs_f64(), latency));
                }
                result.tally.note(&item);
                if n.is_multiple_of(sample_every) {
                    result.samples.push((n, vec![item]));
                }
            }
            Err(_) => {
                result.tally.lost += 1;
                break;
            }
        }
        n += 1;
    }
    result.secs = start.elapsed().as_secs_f64();
    result
}

/// Round trips of requests a worker rejects in band without touching the
/// backend: a v2 frame for an unannounced workload id, or a v1 line for
/// an unknown workload name, each after a seeded think time
/// ([`think_time`]). Returns µs per round trip (a dead connection ends
/// the probe early).
#[must_use]
pub fn null_round_trips(addr: SocketAddr, v2: bool, count: usize, think_seed: u64) -> Vec<f64> {
    let mut out = Vec::with_capacity(count);
    let think = |n: usize| std::thread::sleep(think_time(think_seed, n as u64));
    if v2 {
        let Ok(mut client) = ClientV2::connect(addr) else {
            return out;
        };
        let bytes = Frame::Request(RequestFrame::from_inputs(u16::MAX, &[vec![0.0]])).encode();
        for n in 0..count {
            think(n);
            let start = Instant::now();
            let answered = client.send_raw(&bytes).is_ok()
                && matches!(client.recv_frame(), Ok(Frame::Error(_)));
            if !answered {
                break;
            }
            out.push(start.elapsed().as_secs_f64() * 1e6);
        }
    } else {
        let Ok(mut client) = Client::connect(addr) else {
            return out;
        };
        for n in 0..count {
            think(n);
            let start = Instant::now();
            let answered = client.send_raw("servebench-null 0").is_ok()
                && matches!(client.recv(), Ok(Response::Error(_)));
            if !answered {
                break;
            }
            out.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    out
}
