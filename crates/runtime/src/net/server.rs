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
//!            ┌──────────────────────────────── event thread ───┐
//!            │ shell: accept, read, write, close, sleep        │
//! sockets ──▶│   ▲ what happened          │ what to do next    │
//!            │   │                        ▼                    │
//!            │ ServerCore: ConnMachine → pending → serve → out │──▶ Fleet plan ──▶ Round ──▶ Crew::run
//!            └─────────────────────────────────────────────────┘
//!              its crew: max-chips − 1 helpers, asleep between frames
//! ```
//!
//! The scan is a level-triggered readiness loop over nonblocking
//! sockets in plain `std` — the workspace forbids `unsafe` (and thus
//! `epoll(7)` FFI), so socket readiness is discovered by trying the
//! socket. The loop is a shell around the server core (`net/core.rs`),
//! which holds every per-connection rule and never touches a socket or a
//! clock: the shell accepts, reads what the core wants read, stamps
//! arrivals as the core decodes, writes what the core owes each peer,
//! closes what it has finished, and after a scan that changed nothing
//! sleeps as long as the core says. This shell is the seam where an
//! epoll/kqueue backend would slot in.
//!
//! ## Serving
//!
//! The event thread runs its loop inside one [`Crew`] that lives as long
//! as the thread, sized to the largest registered fleet's chip count. A
//! job's requests are planned by the workload's fleet (routing,
//! placement, admission) and loaded into the executor round — the busy
//! chips' queues and the inputs, a v2 frame's flat payload copied in —
//! and the frame runs as one [`Crew::run`] over its busy chips, each on a
//! thread of its own, the event thread among them. No thread starts per
//! frame, a one-chip round (every v1 line) wakes no helper, and the
//! server runs at most `max chips` threads. While a job runs, the event
//! thread neither reads nor flushes: another connection waits for up to
//! one job per busy connection before its turn. Both protocols serve
//! through the same round, with the same items as the in-process
//! [`NetWorkload::serve_batch`]: a v1 line is a one-request batch,
//! answered from its v2 item.

use std::io::{self, BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use super::core::{Runner, ServerCore};
use super::frame::{self, Frame, ItemResponse, RequestFrame, ResponseFrame};
use super::WorkloadSession;
use super::{format_csv, parse_request, NetWorkload, Response, DEFAULT_MAX_LINE_BYTES};
use crate::crew::Crew;
use crate::engine::{BatchItem, Round};
use crate::pool::ThreadPool;

/// Event server tuning knobs. The server runs at most `max chips`
/// threads ([`Fleet::total_chips`](crate::Fleet::total_chips)) whatever
/// its connection count: an idle connection costs a slab slot.
///
/// # Per-connection bounds
///
/// Every buffer a connection owns is bounded, so a client that sends
/// without reading its answers stalls in the kernel's socket buffers
/// instead of growing the server:
///
/// * **undecoded input:** reads stop once it holds one whole frame
///   (`max_frame_bytes` plus its 4-byte length) or line
///   (`max_line_bytes` plus its `\n`), so it stays below that plus one
///   8 KiB read;
/// * **decoded jobs:** decoding stops once 1,024 jobs wait or they hold
///   `max_frame_bytes` of request bytes, so they hold less than that
///   plus one frame or line;
/// * **unflushed output:** the next job is served only while it is under
///   `max_frame_bytes`, so it reaches at most that plus one response.
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
/// registered fleet, standing by for the whole event loop. A served
/// batch is one [`Crew::run`] over its busy chips, whose `arg` is the
/// workload index: the task finds each chip by workload and global id.
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
            let names: Vec<&str> = workloads.iter().map(NetWorkload::name).collect();
            event_loop(listener, ServerCore::new(&executor, &names, config), stop);
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
    /// Serve `inputs` through workload `index`'s fleet as one crew round,
    /// each item as it goes on the wire. The error is the in-band message
    /// when no pool of the fleet is healthy; nothing unwinds on that path.
    fn serve<'a>(
        &self,
        index: usize,
        session: &mut WorkloadSession,
        inputs: impl Iterator<Item = &'a [f64]> + Clone,
        arrival: f64,
    ) -> Result<Vec<ItemResponse>, String> {
        let run = |tasks| self.crew.run(index, tasks);
        let fleet = &self.workloads[index].fleet;
        let (items, _) = fleet.serve_round(session, inputs, Some(arrival), self.round, run)?;
        let item = |item| match item {
            BatchItem::Served(served) => ItemResponse::Ok {
                chip: u32::try_from(served.chip).unwrap_or(u32::MAX),
                latency_us: u32::try_from(served.latency.as_micros()).unwrap_or(u32::MAX),
                output: served.output,
            },
            BatchItem::Shed { .. } => ItemResponse::Shed,
            BatchItem::Failed { chip } => ItemResponse::Err(format!("chip {chip} failed")),
        };
        Ok(items.into_iter().map(item).collect())
    }
}

impl Runner for Executor<'_, '_> {
    type Sessions = Vec<WorkloadSession>;

    fn open(&self) -> Self::Sessions {
        self.workloads.iter().map(|w| w.open_session()).collect()
    }

    /// Workload lookup, CSV parse and arity check, then a one-request
    /// round, answered from its v2 item.
    fn line(&self, sessions: &mut Self::Sessions, line: &str, arrival: f64) -> Response {
        let (index, input) = match parse_request(line, self.workloads) {
            Ok(request) => request,
            Err(response) => return response,
        };
        let input = std::iter::once(input.as_slice());
        match self.serve(index, &mut sessions[index], input, arrival) {
            Ok(mut items) => match items.pop().expect("one request, one item") {
                ItemResponse::Ok {
                    chip,
                    latency_us,
                    output,
                } => Response::Ok {
                    chip: usize::try_from(chip).unwrap_or(usize::MAX),
                    latency_us: latency_us.into(),
                    output,
                },
                // Fixed text: the bytes carry no measurement.
                ItemResponse::Shed => Response::Error("overloaded".to_string()),
                ItemResponse::Err(message) => Response::Error(message),
            },
            Err(message) => Response::Error(message),
        }
    }

    /// Workload lookup and arity check, then one round over the whole
    /// batch, read straight from the frame's flat payload.
    fn frame(&self, sessions: &mut Self::Sessions, request: &RequestFrame, arrival: f64) -> Frame {
        let index = usize::from(request.workload);
        let Some(workload) = self.workloads.get(index) else {
            return Frame::Error(format!("unknown workload id {}", request.workload));
        };
        let dim = request.dim().expect("decoder guarantees divisibility");
        let items = if dim == workload.input_dim() {
            let inputs = request.values.chunks(dim);
            match self.serve(index, &mut sessions[index], inputs, arrival) {
                Ok(items) => items,
                Err(message) => return Frame::Error(message),
            }
        } else {
            let message = format!(
                "wrong arity: workload '{}' expects {} inputs, got {dim}",
                workload.name(),
                workload.input_dim()
            );
            vec![ItemResponse::Err(message); request.count as usize]
        };
        Frame::Response(ResponseFrame {
            workload: request.workload,
            items,
        })
    }
}

/// The readiness-scan loop, a shell around `core`: accept, read, write
/// and close sockets as the core says, stamp arrivals at decode, and
/// sleep for as long as the core says after a scan that changed nothing.
fn event_loop<R: Runner>(listener: &TcpListener, mut core: ServerCore<'_, R>, stop: &AtomicBool) {
    // Slot `id` holds the socket of the core's connection `id`.
    let mut streams: Vec<Option<TcpStream>> = Vec::new();
    let epoch = Instant::now();
    let mut read_buf = [0u8; 8192];

    while !stop.load(Ordering::SeqCst) {
        let scan = Instant::now();
        while let Ok((stream, _)) = listener.accept() {
            if stream.set_nonblocking(true).is_ok() {
                let _ = stream.set_nodelay(true);
                let id = core.accept();
                streams.resize_with(streams.len().max(id + 1), || None);
                streams[id] = Some(stream);
            }
        }

        for (id, slot) in streams.iter_mut().enumerate() {
            let Some(stream) = slot else { continue };
            while core.wants_input(id) {
                match stream.read(&mut read_buf) {
                    Ok(0) => core.eof(id),
                    Ok(n) => core.read(id, &read_buf[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => core.eof(id),
                }
            }
            core.decode(id, || epoch.elapsed().as_secs_f64());
        }

        core.serve();

        for (id, slot) in streams.iter_mut().enumerate() {
            let Some(stream) = slot else { continue };
            while !core.output(id).is_empty() {
                match stream.write(core.output(id)) {
                    Ok(0) => core.failed(id),
                    Ok(n) => core.wrote(id, n),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => core.failed(id),
                }
            }
            if core.reap(id) {
                let _ = stream.shutdown(Shutdown::Both);
                *slot = None;
            }
        }

        if let Some(wait) = core.end_scan(scan.elapsed()) {
            std::thread::sleep(wait);
        }
    }

    // Shutdown: close every connection so peers see EOF promptly.
    for stream in streams.iter().flatten() {
        let _ = stream.shutdown(Shutdown::Both);
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
        let line = self.recv_line("server closed the connection")?;
        Response::parse(&line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Read one line, its line ending stripped; `UnexpectedEof` with the
    /// message `closed` when the server closed the connection.
    fn recv_line(&mut self, closed: &str) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, closed));
        }
        line.truncate(line.trim_end_matches(['\r', '\n']).len());
        Ok(line)
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
    client: Client,
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
        let mut client = Client::connect(addr)?;
        client.send_raw("v2")?;
        let line = client.recv_line("server closed during negotiation")?;
        let names = line.strip_prefix("ok v2 ").ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("server did not negotiate v2: '{line}'"),
            )
        })?;
        let workloads = names.split(',').map(str::to_string).collect();
        Ok(Self { client, workloads })
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
        self.send_raw(&Frame::Request(RequestFrame::from_inputs(id, inputs)).encode())
    }

    /// Send raw bytes verbatim (for protocol tests — corrupt frames,
    /// oversized lengths).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.client.writer.write_all(bytes)?;
        self.client.writer.flush()
    }

    /// Read one frame off the connection.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the server closed the connection;
    /// `InvalidData` on an undecodable frame.
    pub fn recv_frame(&mut self) -> io::Result<Frame> {
        let reader = &mut self.client.reader;
        let mut header = [0u8; 4];
        reader.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header) as usize;
        if len == 0 || len > CLIENT_MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("untrustworthy frame length {len}"),
            ));
        }
        let mut buf = vec![0u8; 4 + len];
        buf[..4].copy_from_slice(&header);
        reader.read_exact(&mut buf[4..])?;
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
