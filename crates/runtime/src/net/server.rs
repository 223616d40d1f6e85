//! The server and its clients.
//!
//! * [`EventServer`] — the event-driven connection layer: nonblocking
//!   sockets driven by one thread that scans them and serves their jobs
//!   itself, so thousands of idle connections cost one thread, not one
//!   each. Speaks v2 binary frames with transparent v1 text fallback per
//!   connection.
//! * [`Client`] — a blocking v1 text client; [`ClientV2`] — a blocking
//!   v2 client that negotiates binary frames on connect.
//!
//! ## The readiness loop
//!
//! ```text
//!            ┌────────────────────────────── event thread ───┐
//!            │ accept → slab of connections                  │
//! sockets ──▶│ read (nonblocking) → ConnMachine → events     │
//!            │ stamp arrivals at decode, queue jobs          │
//!            │ serve one job per connection → write buffers  │──▶ Fleet plan ──▶ Round ──▶ Crew::run
//!            │ flush (nonblocking)                           │
//!            └───────────────────────────────────────────────┘
//!              its crew: max-chips − 1 helpers, asleep between frames
//! ```
//!
//! The scan is a level-triggered readiness loop over nonblocking
//! sockets in plain `std` — the workspace forbids `unsafe` (and thus
//! `epoll(7)` FFI), so socket readiness is discovered by trying the
//! socket. A scan that serves a job has made progress, so the next scan
//! starts at once. When a scan makes no progress the loop sleeps, for
//! how long depends on what the scan found. While some connection is
//! listening (open, with no EOF), only polling its socket can find its
//! next request, so the loop sleeps 9× the scan that found nothing,
//! never more than 500 µs: polling then takes about a tenth of the event
//! thread, whatever the connection count. While none is listening, the
//! loop sleeps the whole 500 µs, which bounds how late it notices a new
//! connection. This loop is the seam where an epoll/kqueue backend
//! would slot in: everything above it (the [`ConnMachine`], the jobs and
//! how they are served) is readiness-agnostic.
//!
//! ## Serving
//!
//! The event thread runs its loop inside one [`Crew`] that lives as long
//! as the thread, sized to the largest registered fleet's chip count,
//! and each scan serves at most one pending job per connection, inline,
//! before it flushes. A job's requests are planned by the workload's
//! fleet (routing, placement, admission) and loaded into the executor
//! round — the busy chips' queues and the inputs, a v2 frame's flat
//! payload copied in — and the frame runs as one [`Crew::run`] over its
//! busy chips, each on a thread of its own, the event thread among them.
//! No thread starts per frame, and a one-chip round (every v1 line) runs
//! on the event thread without waking a helper. The server therefore
//! runs at most `max chips` threads. While a job runs, the event thread
//! neither reads, decodes nor flushes: another connection waits for up
//! to one job per busy connection before its turn.
//!
//! ## Determinism
//!
//! Each connection owns its routing sessions, and its jobs (a v1 line or
//! a whole v2 batch each) run one at a time in decode order. Responses
//! therefore come back in request order and the chip sequence is a pure
//! function of the connection's own request sequence — independent of
//! any other connection, asserted in `tests/serving_engine.rs`. Both
//! protocols serve through the same round (a v1 line is a one-request
//! batch), with the same items as the in-process
//! [`NetWorkload::serve_batch`], so a chip panic is contained and
//! answered in band on either. A fleet with no healthy pool is answered
//! in band without unwinding (`err` line or error frame, the planner's
//! message); any other panic while a job runs is caught around the whole
//! job and answered the same way, and the connection keeps serving.

use std::any::Any;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::conn::{ConnEvent, ConnMachine, ConnMode};
use super::frame::{self, Frame, ItemResponse, RequestFrame, ResponseFrame};
use super::WorkloadSession;
use super::{format_csv, parse_request, NetWorkload, Response, DEFAULT_MAX_LINE_BYTES};
use crate::crew::Crew;
use crate::engine::{BatchItem, Round};
use crate::pool::ThreadPool;

/// Per-connection cap on decoded-but-unserved jobs; past this, or once
/// they hold `max_frame_bytes` of request bytes, the loop stops reading
/// and decoding that connection. The caps push back on the client (TCP
/// backpressure) only together with the connection's other bounds (see
/// [`EventServerConfig`]): reads stop at one whole frame or line of
/// undecoded bytes, and no job is served while a frame's worth of output
/// is unflushed. Backpressure only *delays* arrival stamps — admission
/// decisions remain a pure function of the stamped sequence.
const EVENT_PENDING_CAP: usize = 1024;

/// The longest the event loop sleeps when one full scan makes no
/// progress, and its whole sleep while no connection is listening. This
/// bounds how late the loop notices a new connection while none is
/// listening, and how long it sleeps between polls of a listening one
/// (see [`idle_wait`]).
const EVENT_IDLE_SLEEP: Duration = Duration::from_micros(500);

/// While a connection is listening, the loop waits this many times the
/// scan that found nothing before it scans again, so polling takes about
/// a tenth of the event thread.
const EVENT_WAIT_PER_SCAN: u32 = 9;

/// How long the event loop sleeps after a scan that made no progress and
/// took `scan`: [`EVENT_WAIT_PER_SCAN`] scans, at most
/// [`EVENT_IDLE_SLEEP`], while some connection is `listening` (open, with
/// no EOF, so only polling can find its next request); the whole period
/// otherwise.
fn idle_wait(scan: Duration, listening: bool) -> Duration {
    if listening {
        scan.saturating_mul(EVENT_WAIT_PER_SCAN)
            .min(EVENT_IDLE_SLEEP)
    } else {
        EVENT_IDLE_SLEEP
    }
}

/// Event server tuning knobs.
///
/// The server runs one event thread, which serves every job on an
/// executor crew sized to the largest registered fleet's chip count
/// ([`Fleet::total_chips`](crate::Fleet::total_chips)), so it runs at
/// most `max chips` threads. The connection count is unbounded by
/// threads — idle connections cost a slab slot, not a thread.
///
/// # Per-connection bounds
///
/// Every buffer a connection owns is bounded, so a client that sends
/// without reading its answers stalls in the kernel's socket buffers
/// instead of growing the server:
///
/// * **undecoded input:** the loop stops reading once the undecoded
///   bytes hold one whole frame (`max_frame_bytes` plus its 4-byte
///   length) or line (`max_line_bytes` plus its `\n`), so they stay
///   below that plus one 8 KiB read;
/// * **decoded jobs:** the loop stops decoding once 1,024 jobs wait or
///   they hold `max_frame_bytes` of request bytes, so they hold less
///   than that plus one frame or line;
/// * **unflushed output:** the loop serves the connection's next job
///   only while its unflushed response bytes are under
///   `max_frame_bytes`, so they reach at most that plus one response.
#[derive(Debug, Clone)]
pub struct EventServerConfig {
    /// Hard cap on one v2 frame; longer frames get an error frame and a
    /// close (the stream can no longer be framed).
    pub max_frame_bytes: usize,
    /// Hard cap on a v1 request line's bytes before its `\n` (a trailing
    /// `\r` counts); longer lines get an `err` line and a close.
    pub max_line_bytes: usize,
}

impl Default for EventServerConfig {
    fn default() -> Self {
        Self {
            max_frame_bytes: frame::DEFAULT_MAX_FRAME_BYTES,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
        }
    }
}

/// A decoded unit of work for one connection, processed in order.
enum JobKind {
    /// Bytes to echo to the connection verbatim (negotiation replies,
    /// in-band protocol errors) — routed through the queue so they stay
    /// ordered with real responses.
    Reply(Vec<u8>),
    /// One v1 request line with its arrival stamp.
    V1Line { line: String, arrival: f64 },
    /// One v2 request batch with its arrival stamp.
    V2Batch { frame: RequestFrame, arrival: f64 },
}

impl JobKind {
    /// The bytes the job holds while it waits: its reply, its line or
    /// its frame's payload.
    fn bytes(&self) -> usize {
        match self {
            JobKind::Reply(bytes) => bytes.len(),
            JobKind::V1Line { line, .. } => line.len(),
            JobKind::V2Batch { frame, .. } => std::mem::size_of_val(&frame.values[..]),
        }
    }
}

/// One connection's state in the event loop's slab.
struct EventConn {
    stream: TcpStream,
    machine: ConnMachine,
    sessions: Vec<WorkloadSession>,
    pending: VecDeque<JobKind>,
    /// The bytes the pending jobs hold (see [`JobKind::bytes`]).
    pending_bytes: usize,
    out: Vec<u8>,
    /// Close once the out buffer flushes and nothing is pending.
    closing: bool,
    /// Peer sent EOF; close once pending work drains.
    eof: bool,
}

impl EventConn {
    /// Open for requests: only polling its socket can find its next one.
    fn listening(&self) -> bool {
        !(self.closing || self.eof)
    }

    /// Its pending jobs reach a bound (see [`EVENT_PENDING_CAP`]), so the
    /// loop neither reads nor decodes it.
    fn backlogged(&self, max_frame_bytes: usize) -> bool {
        self.pending.len() >= EVENT_PENDING_CAP || self.pending_bytes >= max_frame_bytes
    }

    fn push(&mut self, job: JobKind) {
        self.pending_bytes += job.bytes();
        self.pending.push_back(job);
    }

    fn pop(&mut self) -> Option<JobKind> {
        let job = self.pending.pop_front()?;
        self.pending_bytes -= job.bytes();
        Some(job)
    }

    fn drained(&self) -> bool {
        self.out.is_empty() && self.pending.is_empty()
    }
}

/// The event-driven server: one thread that scans nonblocking sockets
/// and serves their jobs on its executor crew. Speaks wire protocol v2
/// with transparent per-connection v1 fallback. Dropping the handle
/// leaks the thread — call [`EventServer::shutdown`].
pub struct EventServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    event_thread: JoinHandle<()>,
}

impl EventServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `workloads`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty, more than `u16::MAX` workloads are
    /// registered (v2 ids are u16), or a workload name contains a comma
    /// (the negotiation line is comma-separated).
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        workloads: Vec<NetWorkload>,
        config: EventServerConfig,
    ) -> io::Result<Self> {
        assert!(!workloads.is_empty(), "a server needs a workload");
        assert!(
            workloads.len() <= usize::from(u16::MAX),
            "v2 workload ids are u16"
        );
        assert!(
            workloads.iter().all(|w| !w.name().contains(',')),
            "workload names must not contain commas (negotiation list)"
        );
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let event_stop = Arc::clone(&stop);
        let event_thread =
            std::thread::spawn(move || event_thread(&listener, &workloads, &config, &event_stop));
        Ok(Self {
            addr,
            stop,
            event_thread,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: let the job in progress finish, stop the event
    /// loop (closing the listener and every connection), and join the
    /// event thread and its crew.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.event_thread.join();
    }
}

/// The event thread's life: one executor crew, sized to the largest
/// registered fleet, standing by for the whole event loop. Each served
/// batch is one [`Crew::run`] over its busy chips, reading the frame the
/// loop loaded into its [`Round`]; the round's `arg` is the workload
/// index, so the task finds each chip by workload and global chip id.
fn event_thread(
    listener: &TcpListener,
    workloads: &[NetWorkload],
    config: &EventServerConfig,
    stop: &AtomicBool,
) {
    // `bind` registers at least one workload, and every pool has a chip.
    let max_chips = workloads.iter().map(|w| w.fleet.total_chips()).max();
    let round = Round::default();
    ThreadPool::new(max_chips.unwrap_or(1)).crew(
        |workload, task| round.drain(task, |chip| workloads[workload].fleet.chip(chip)),
        |crew| {
            let executor = Executor {
                workloads,
                round: &round,
                crew,
            };
            event_loop(listener, &executor, config, stop);
        },
    );
}

/// The event thread's executor: the registered workloads, the round it
/// loads frames into, and the crew that drains them.
struct Executor<'a, 'c> {
    workloads: &'a [NetWorkload],
    round: &'a Round,
    crew: &'a Crew<'c>,
}

impl Executor<'_, '_> {
    /// Serve `inputs` through workload `index`'s fleet as one crew round.
    /// The error is the in-band message when no pool of the fleet is
    /// healthy; nothing unwinds on that path.
    fn serve<'a>(
        &self,
        index: usize,
        session: &mut WorkloadSession,
        inputs: impl Iterator<Item = &'a [f64]> + Clone,
        arrival: f64,
    ) -> Result<Vec<BatchItem>, String> {
        let run = |tasks| self.crew.run(index, tasks);
        let fleet = &self.workloads[index].fleet;
        let (items, _) = fleet.serve_round(session, inputs, Some(arrival), self.round, run)?;
        Ok(items)
    }
}

/// An in-band error answer in the connection's protocol: an error frame
/// on v2, an `err` line otherwise.
fn error_reply(v2: bool, message: String) -> Vec<u8> {
    if v2 {
        Frame::Error(message).encode()
    } else {
        Response::Error(message).line_bytes()
    }
}

/// The text of a caught panic: its message when the payload is a
/// string, otherwise `internal error`.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "internal error".to_string())
}

/// Execute one job against the connection's sessions.
fn run_job(job: JobKind, sessions: &mut [WorkloadSession], executor: &Executor<'_, '_>) -> Vec<u8> {
    match job {
        JobKind::Reply(bytes) => bytes,
        JobKind::V1Line { line, arrival } => {
            let response = match parse_request(&line, executor.workloads) {
                Ok((index, input)) => {
                    let session = &mut sessions[index];
                    let input = std::iter::once(input.as_slice());
                    match executor.serve(index, session, input, arrival) {
                        Ok(mut items) => match items.pop().expect("one request, one item") {
                            BatchItem::Served(served) => Response::Ok {
                                chip: served.chip,
                                latency_us: served.latency.as_micros(),
                                output: served.output,
                            },
                            // Fixed text: the bytes carry no measurement.
                            BatchItem::Shed { .. } => Response::Error("overloaded".to_string()),
                            BatchItem::Failed { chip } => {
                                Response::Error(format!("chip {chip} failed"))
                            }
                        },
                        Err(message) => Response::Error(message),
                    }
                }
                Err(response) => response,
            };
            response.line_bytes()
        }
        JobKind::V2Batch { frame, arrival } => {
            serve_frame(&frame, arrival, sessions, executor).encode()
        }
    }
}

/// Serve one v2 request batch: workload lookup, arity check, then one
/// executor round over the whole batch, read straight from the frame's
/// flat payload. The arrival stamp (taken at frame decode) rides into the
/// session's admission gate when one is configured.
fn serve_frame(
    request: &RequestFrame,
    arrival: f64,
    sessions: &mut [WorkloadSession],
    executor: &Executor<'_, '_>,
) -> Frame {
    let index = usize::from(request.workload);
    let Some(workload) = executor.workloads.get(index) else {
        return Frame::Error(format!("unknown workload id {}", request.workload));
    };
    let dim = request.dim().expect("decoder guarantees divisibility");
    if dim != workload.input_dim() {
        let message = format!(
            "wrong arity: workload '{}' expects {} inputs, got {dim}",
            workload.name(),
            workload.input_dim()
        );
        return Frame::Response(ResponseFrame {
            workload: request.workload,
            items: vec![ItemResponse::Err(message); request.count as usize],
        });
    }
    let inputs = request.values.chunks(dim);
    let items = match executor.serve(index, &mut sessions[index], inputs, arrival) {
        Ok(items) => items,
        Err(message) => return Frame::Error(message),
    };
    let items = items
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
        .collect();
    Frame::Response(ResponseFrame {
        workload: request.workload,
        items,
    })
}

/// The readiness-scan loop: accept, read, decode, serve, flush — then,
/// if the whole scan made no progress, sleep for as long as
/// [`idle_wait`] sizes from the scan.
fn event_loop(
    listener: &TcpListener,
    executor: &Executor<'_, '_>,
    config: &EventServerConfig,
    stop: &AtomicBool,
) {
    let workloads = executor.workloads;
    let negotiation_reply = {
        let names: Vec<&str> = workloads.iter().map(NetWorkload::name).collect();
        format!("ok v2 {}\n", names.join(",")).into_bytes()
    };
    let mut slab: Vec<Option<EventConn>> = Vec::new();
    let epoch = Instant::now();
    let mut read_buf = [0u8; 8192];

    while !stop.load(Ordering::SeqCst) {
        let scan = Instant::now();
        let mut progress = false;
        let mut listening = false;

        // Accept every pending connection.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let conn = EventConn {
                        stream,
                        machine: ConnMachine::new(config.max_line_bytes, config.max_frame_bytes),
                        sessions: workloads.iter().map(NetWorkload::open_session).collect(),
                        pending: VecDeque::new(),
                        pending_bytes: 0,
                        out: Vec::new(),
                        closing: false,
                        eof: false,
                    };
                    let slot = slab.iter().position(Option::is_none);
                    match slot {
                        Some(slot) => slab[slot] = Some(conn),
                        None => slab.push(Some(conn)),
                    }
                    progress = true;
                }
                Err(ref e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        // Read every connection that has room for more work, until its
        // undecoded bytes hold one whole frame or line, then decode
        // whatever is buffered. Decode is deliberately NOT tied to a
        // successful read: a burst may leave complete frames in the
        // machine after a pending bound interrupts decoding, and they
        // must still come out on later scans even if the socket stays
        // quiet.
        for conn in slab.iter_mut().flatten() {
            if !(conn.closing || conn.eof || conn.backlogged(config.max_frame_bytes)) {
                while conn.machine.wants_input() {
                    match conn.stream.read(&mut read_buf) {
                        Ok(0) => {
                            conn.eof = true;
                            progress = true;
                            break;
                        }
                        Ok(n) => {
                            progress = true;
                            conn.machine.feed(&read_buf[..n]);
                        }
                        Err(ref e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(ref e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => {
                            conn.eof = true;
                            progress = true;
                            break;
                        }
                    }
                }
            }
            while !(conn.closing || conn.backlogged(config.max_frame_bytes)) {
                // Arrival is stamped here — at decode, when the frame
                // (or line) is framed off the connection's buffer.
                let arrival = epoch.elapsed().as_secs_f64();
                let Some(event) = conn.machine.poll() else {
                    break;
                };
                progress = true;
                let job = match event {
                    ConnEvent::NegotiatedV2 => JobKind::Reply(negotiation_reply.clone()),
                    ConnEvent::Line(line) => JobKind::V1Line { line, arrival },
                    ConnEvent::Request(frame) => JobKind::V2Batch { frame, arrival },
                    ConnEvent::Corrupt(message) => {
                        let v2 = conn.machine.mode() == ConnMode::BinaryV2;
                        JobKind::Reply(error_reply(v2, message))
                    }
                    ConnEvent::TooLong => {
                        let message =
                            format!("request line exceeds {} bytes", config.max_line_bytes);
                        conn.closing = true;
                        JobKind::Reply(Response::Error(message).line_bytes())
                    }
                    ConnEvent::Fatal(message) => {
                        conn.closing = true;
                        JobKind::Reply(Frame::Error(message).encode())
                    }
                };
                conn.push(job);
            }
        }

        // Serve: one job per connection, in order, while the
        // connection's unflushed output is under one frame. A panic
        // anywhere in the job is answered in band.
        for conn in slab.iter_mut().flatten() {
            if conn.out.len() >= config.max_frame_bytes {
                continue;
            }
            let Some(job) = conn.pop() else {
                continue;
            };
            let v2 = matches!(job, JobKind::V2Batch { .. });
            let bytes = catch_unwind(AssertUnwindSafe(|| {
                run_job(job, &mut conn.sessions, executor)
            }))
            .unwrap_or_else(|payload| error_reply(v2, panic_message(&*payload)));
            conn.out.extend_from_slice(&bytes);
            progress = true;
        }

        // Flush write buffers; drop connections that are finished.
        for entry in &mut slab {
            let Some(conn) = entry.as_mut() else {
                continue;
            };
            while !conn.out.is_empty() {
                match conn.stream.write(&conn.out) {
                    Ok(0) => {
                        // Undeliverable: drop the buffer so the slot can
                        // still drain and free.
                        conn.out.clear();
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.out.drain(..n);
                        progress = true;
                    }
                    Err(ref e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.out.clear();
                        conn.eof = true;
                        break;
                    }
                }
            }
            // EOF only stops reads; responses already owed (pending)
            // still go out before the slot frees.
            let finished = (conn.closing || conn.eof) && conn.drained();
            listening |= conn.listening();
            if finished {
                let _ = conn.stream.shutdown(Shutdown::Both);
                *entry = None;
                progress = true;
            }
        }

        if !progress {
            std::thread::sleep(idle_wait(scan.elapsed(), listening));
        }
    }

    // Shutdown: close every connection so peers see EOF promptly.
    for conn in slab.iter().flatten() {
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
}

/// A blocking protocol client over one connection. Supports strict
/// request/response ([`Client::request`]) and pipelining
/// ([`Client::send`] several lines, then [`Client::recv`] in order).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to a server.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Send one request line (flushes).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send(&mut self, workload: &str, input: &[f64]) -> io::Result<()> {
        writeln!(self.writer, "{workload} {}", format_csv(input))?;
        self.writer.flush()
    }

    /// Send a raw line verbatim (for protocol tests — malformed lines,
    /// oversized payloads).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()
    }

    /// Read one response line.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the server closed the connection;
    /// `InvalidData` when the line matches neither response form.
    pub fn recv(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Response::parse(line.trim_end_matches(['\r', '\n']))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// One round trip: [`Client::send`] then [`Client::recv`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors (see [`Client::recv`]).
    pub fn request(&mut self, workload: &str, input: &[f64]) -> io::Result<Response> {
        self.send(workload, input)?;
        self.recv()
    }
}

/// Cap on a frame the client will accept from a server. Response frames
/// can legitimately exceed the server's *request* cap (outputs are
/// larger than inputs), so this bound is generous.
const CLIENT_MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// A blocking wire-protocol-v2 client over one connection: negotiates
/// v2 on connect, then exchanges binary batch frames. Supports strict
/// batch round trips ([`ClientV2::request_batch`]) and pipelining
/// ([`ClientV2::send_batch`] several frames, then
/// [`ClientV2::recv_batch`] in order).
pub struct ClientV2 {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    workloads: Vec<String>,
}

impl ClientV2 {
    /// Connect and negotiate v2: send `v2 LF`, parse the
    /// `"ok v2" SP names LF` reply, and record the workload name list
    /// (a workload's id is its index in that list).
    ///
    /// # Errors
    ///
    /// Propagates socket errors; `InvalidData` when the server does not
    /// speak v2.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        writer.write_all(b"v2\n")?;
        writer.flush()?;
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed during negotiation",
            ));
        }
        let line = line.trim_end_matches(['\r', '\n']);
        let names = line.strip_prefix("ok v2 ").ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("server did not negotiate v2: '{line}'"),
            )
        })?;
        let workloads = names.split(',').map(str::to_string).collect();
        Ok(Self {
            reader,
            writer,
            workloads,
        })
    }

    /// The server's workload names, in id order.
    #[must_use]
    pub fn workloads(&self) -> &[String] {
        &self.workloads
    }

    /// The v2 id of a workload name from the negotiated directory. This
    /// is a **client-side** check against the `ok v2 name0,name1,…`
    /// list recorded at connect — an unknown name is rejected here with
    /// the announced names in the message, without burning a server
    /// round trip on a request that could only come back `err`.
    ///
    /// # Errors
    ///
    /// `NotFound` when the server did not announce the workload; the
    /// connection remains usable.
    pub fn workload_id(&self, workload: &str) -> io::Result<u16> {
        self.workloads
            .iter()
            .position(|name| name == workload)
            .map(|index| u16::try_from(index).expect("ids fit u16 by server contract"))
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!(
                        "workload '{workload}' not announced by the server \
                         (announced: {})",
                        self.workloads.join(", ")
                    ),
                )
            })
    }

    /// Send one request frame carrying `inputs` as a batch (flushes).
    /// Several frames may be sent before receiving — responses come
    /// back in frame order.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (see [`ClientV2::workload_id`]).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or the vectors have differing
    /// lengths (a frame shares one arity).
    pub fn send_batch(&mut self, workload: &str, inputs: &[Vec<f64>]) -> io::Result<()> {
        let id = self.workload_id(workload)?;
        let frame = Frame::Request(RequestFrame::from_inputs(id, inputs));
        self.writer.write_all(&frame.encode())?;
        self.writer.flush()
    }

    /// Send raw bytes verbatim (for protocol tests — corrupt frames,
    /// oversized lengths).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Read one frame off the connection.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the server closed the connection;
    /// `InvalidData` on an undecodable frame.
    pub fn recv_frame(&mut self) -> io::Result<Frame> {
        let mut header = [0u8; 4];
        self.reader.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header) as usize;
        if len == 0 || len > CLIENT_MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("untrustworthy frame length {len}"),
            ));
        }
        let mut buf = vec![0u8; 4 + len];
        buf[..4].copy_from_slice(&header);
        self.reader.read_exact(&mut buf[4..])?;
        match frame::decode(&buf, CLIENT_MAX_FRAME_BYTES) {
            frame::DecodeStep::Frame(frame, consumed) => {
                debug_assert_eq!(consumed, buf.len());
                Ok(frame)
            }
            frame::DecodeStep::Corrupt(message, _) | frame::DecodeStep::Fatal(message) => {
                Err(io::Error::new(io::ErrorKind::InvalidData, message))
            }
            frame::DecodeStep::Incomplete => unreachable!("whole frame was read"),
        }
    }

    /// Read one response frame and return its per-request items.
    ///
    /// # Errors
    ///
    /// As [`ClientV2::recv_frame`]; additionally `InvalidData` when the
    /// server answered a whole-frame [`Frame::Error`] (the message is
    /// preserved) or an unexpected frame kind.
    pub fn recv_batch(&mut self) -> io::Result<Vec<ItemResponse>> {
        match self.recv_frame()? {
            Frame::Response(response) => Ok(response.items),
            Frame::Error(message) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("server error: {message}"),
            )),
            Frame::Request(_) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unexpected request frame from the server",
            )),
        }
    }

    /// One batch round trip: [`ClientV2::send_batch`] then
    /// [`ClientV2::recv_batch`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors (see [`ClientV2::recv_batch`]).
    pub fn request_batch(
        &mut self,
        workload: &str,
        inputs: &[Vec<f64>],
    ) -> io::Result<Vec<ItemResponse>> {
        self.send_batch(workload, inputs)?;
        self.recv_batch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_wait_is_the_full_period_when_nothing_is_listening() {
        for scan in [
            Duration::ZERO,
            Duration::from_micros(3),
            Duration::from_secs(1),
        ] {
            assert_eq!(idle_wait(scan, false), EVENT_IDLE_SLEEP, "{scan:?}");
        }
    }

    #[test]
    fn idle_wait_is_nine_scans_when_something_is_listening() {
        assert_eq!(idle_wait(Duration::ZERO, true), Duration::ZERO);
        assert_eq!(
            idle_wait(Duration::from_micros(3), true),
            Duration::from_micros(27)
        );
        assert_eq!(
            idle_wait(Duration::from_nanos(55_500), true),
            Duration::from_nanos(499_500)
        );
    }

    #[test]
    fn idle_wait_never_exceeds_the_period() {
        for scan in [
            Duration::from_nanos(55_556),
            Duration::from_micros(500),
            Duration::from_secs(1),
            Duration::MAX,
        ] {
            assert_eq!(idle_wait(scan, true), EVENT_IDLE_SLEEP, "{scan:?}");
        }
    }
}
