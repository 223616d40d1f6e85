//! The sans-IO server core: every per-connection rule of the event
//! server, with no socket and no clock.
//!
//! [`ServerCore`] owns the connection slab: each connection's
//! [`ConnMachine`], routing sessions, queue of decoded events, unflushed
//! output and EOF state. The event loop is a shell around it: it reports
//! what the sockets did (a connection accepted, bytes read and their
//! arrival stamps, bytes written, EOF or error, a scan's duration) and
//! carries out the core's answers (read this connection, write these
//! bytes, close it, sleep this long). The core runs each job itself
//! through a [`Runner`], so no job is in flight between two calls.
//!
//! The rules, each checked after every step of this module's property
//! test: a connection's events are answered one at a time in decode
//! order; one [`serve`](ServerCore::serve) runs at most one job per
//! connection, and none while `max_frame_bytes` of its output is
//! unflushed; reads and decoding stop at the bounds
//! [`EventServerConfig`] states; negotiation, protocol errors and a
//! panicking job are answered in band; and a connection is finished once
//! it stops listening (its peer sent EOF, or its stream can no longer be
//! framed) and everything it is owed has been written.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use super::conn::{ConnEvent, ConnMachine};
use super::frame::{Frame, RequestFrame};
use super::{EventServerConfig, Response};

/// Per-connection cap on decoded events waiting for their answer.
/// Backpressure only *delays* arrival stamps — admission decisions
/// remain a pure function of the stamped sequence.
const EVENT_PENDING_CAP: usize = 1024;

/// The longest the event loop sleeps after a scan that changed nothing,
/// and its whole sleep while no connection is listening.
const EVENT_IDLE_SLEEP: Duration = Duration::from_micros(500);

/// While a connection is listening, the loop waits this many times the
/// scan that found nothing, so polling takes about a tenth of its thread.
const EVENT_WAIT_PER_SCAN: u32 = 9;

/// How long the event loop sleeps after a scan that changed nothing and
/// took `scan`. While some connection is `listening` (open, with no EOF,
/// so only polling can find its next request), [`EVENT_WAIT_PER_SCAN`]
/// scans, at most [`EVENT_IDLE_SLEEP`]; otherwise the whole period, which
/// bounds how late the loop notices a new connection.
fn idle_wait(scan: Duration, listening: bool) -> Duration {
    if listening {
        scan.saturating_mul(EVENT_WAIT_PER_SCAN)
            .min(EVENT_IDLE_SLEEP)
    } else {
        EVENT_IDLE_SLEEP
    }
}

/// What answers a connection's requests: the event server's executor,
/// which serves them on its fleets, or a fake in tests.
pub(crate) trait Runner {
    /// One connection's serving state: its routing sessions.
    type Sessions;
    /// The state of a new connection.
    fn open(&self) -> Self::Sessions;
    /// The answer to a v1 request line that arrived at `arrival` seconds.
    fn line(&self, sessions: &mut Self::Sessions, line: &str, arrival: f64) -> Response;
    /// The answer to a v2 request frame that arrived at `arrival` seconds.
    fn frame(&self, sessions: &mut Self::Sessions, request: &RequestFrame, arrival: f64) -> Frame;
}

/// One connection in the slab.
struct Conn<S> {
    machine: ConnMachine,
    sessions: S,
    /// Decoded events and their arrival stamps, answered in order.
    pending: VecDeque<(ConnEvent, f64)>,
    /// The bytes the pending events hold (see [`held_bytes`]).
    pending_bytes: usize,
    /// Answer bytes not yet written.
    out: Vec<u8>,
    /// The peer sent EOF or the socket failed: read no more.
    eof: bool,
    /// The last decode left no whole frame or line in the machine, and
    /// nothing was read since.
    drained: bool,
}

impl<S> Conn<S> {
    /// Open for requests: only reading its socket can find its next one.
    fn listening(&self) -> bool {
        !(self.eof || self.machine.is_dead())
    }

    /// Its pending events reach a bound: it is neither read nor decoded.
    fn backlogged(&self, max_frame_bytes: usize) -> bool {
        self.pending.len() >= EVENT_PENDING_CAP || self.pending_bytes >= max_frame_bytes
    }
}

/// The bytes a decoded event holds while it waits: its line, its frame's
/// payload or its error message.
fn held_bytes(event: &ConnEvent) -> usize {
    match event {
        ConnEvent::Line(text) | ConnEvent::Corrupt(text) | ConnEvent::Fatal(text) => text.len(),
        ConnEvent::Request(request) => std::mem::size_of_val(&request.values[..]),
        ConnEvent::NegotiatedV2 | ConnEvent::TooLong => 0,
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

const LIVE: &str = "the shell names only live connections";

/// Every connection's state and rules, driven by method calls. A
/// connection's id is its slot in the slab, valid from
/// [`accept`](ServerCore::accept) until [`reap`](ServerCore::reap)
/// frees it.
pub(crate) struct ServerCore<'r, R: Runner> {
    runner: &'r R,
    slab: Vec<Option<Conn<R::Sessions>>>,
    /// The answer to a v2 negotiation: `ok v2` and the workload names.
    negotiation: Vec<u8>,
    max_line_bytes: usize,
    max_frame_bytes: usize,
    /// Whether anything changed since the last scan ended.
    progress: bool,
}

impl<'r, R: Runner> ServerCore<'r, R> {
    /// A core with no connection, serving through `runner` the workloads
    /// `names` (in v2 id order) under `config`'s caps.
    pub(crate) fn new(runner: &'r R, names: &[&str], config: &EventServerConfig) -> Self {
        Self {
            runner,
            slab: Vec::new(),
            negotiation: format!("ok v2 {}\n", names.join(",")).into_bytes(),
            max_line_bytes: config.max_line_bytes,
            max_frame_bytes: config.max_frame_bytes,
            progress: false,
        }
    }

    /// A connection was accepted: its id, the lowest free slot.
    pub(crate) fn accept(&mut self) -> usize {
        let conn = Conn {
            machine: ConnMachine::new(self.max_line_bytes, self.max_frame_bytes),
            sessions: self.runner.open(),
            pending: VecDeque::new(),
            pending_bytes: 0,
            out: Vec::new(),
            eof: false,
            drained: true,
        };
        self.progress = true;
        let id = self.slab.iter().position(Option::is_none);
        let id = id.unwrap_or_else(|| {
            self.slab.push(None);
            self.slab.len() - 1
        });
        self.slab[id] = Some(conn);
        id
    }

    /// Whether the shell should read connection `id`: it is listening,
    /// its pending events are under their bounds, and its undecoded bytes
    /// may still fall short of one whole frame or line.
    pub(crate) fn wants_input(&self, id: usize) -> bool {
        let conn = self.slab[id].as_ref().expect(LIVE);
        conn.listening() && !conn.backlogged(self.max_frame_bytes) && conn.machine.wants_input()
    }

    /// `bytes` were read off connection `id`.
    pub(crate) fn read(&mut self, id: usize, bytes: &[u8]) {
        let conn = self.slab[id].as_mut().expect(LIVE);
        conn.machine.feed(bytes);
        conn.drained = false;
        self.progress = true;
    }

    /// Connection `id`'s peer sent EOF, or reading its socket failed: it
    /// is read no more, but what it is owed is still answered and written.
    pub(crate) fn eof(&mut self, id: usize) {
        self.slab[id].as_mut().expect(LIVE).eof = true;
        self.progress = true;
    }

    /// Decode connection `id`'s buffered bytes into its pending queue
    /// until a pending bound, stamping each event with `arrival()`
    /// (seconds) as it is framed off the buffer. Decoding is not tied to
    /// a read: events a bound left in the machine come out on a later
    /// scan even if the socket stays quiet.
    pub(crate) fn decode(&mut self, id: usize, mut arrival: impl FnMut() -> f64) {
        let conn = self.slab[id].as_mut().expect(LIVE);
        while !conn.backlogged(self.max_frame_bytes) {
            let stamp = arrival();
            let Some(event) = conn.machine.poll() else {
                conn.drained = true;
                break;
            };
            conn.pending_bytes += held_bytes(&event);
            conn.pending.push_back((event, stamp));
            self.progress = true;
        }
    }

    /// Answer at most one pending event per connection, the oldest, while
    /// the connection's unflushed output is under `max_frame_bytes`. A
    /// panic while a job runs is answered in band.
    pub(crate) fn serve(&mut self) {
        for conn in self.slab.iter_mut().flatten() {
            if conn.out.len() >= self.max_frame_bytes {
                continue;
            }
            let Some((event, arrival)) = conn.pending.pop_front() else {
                continue;
            };
            conn.pending_bytes -= held_bytes(&event);
            // Corrupt and Fatal come only from v2 streams and TooLong only
            // from text ones, so no event needs the connection's mode.
            let v2 = matches!(event, ConnEvent::Request(_));
            let sessions = &mut conn.sessions;
            let answer = catch_unwind(AssertUnwindSafe(|| match event {
                ConnEvent::NegotiatedV2 => self.negotiation.clone(),
                ConnEvent::Line(line) => self.runner.line(sessions, &line, arrival).line_bytes(),
                ConnEvent::Request(request) => {
                    self.runner.frame(sessions, &request, arrival).encode()
                }
                ConnEvent::Corrupt(message) | ConnEvent::Fatal(message) => {
                    Frame::Error(message).encode()
                }
                ConnEvent::TooLong => {
                    let message = format!("request line exceeds {} bytes", self.max_line_bytes);
                    Response::Error(message).line_bytes()
                }
            }))
            .unwrap_or_else(|payload| match panic_message(&*payload) {
                message if v2 => Frame::Error(message).encode(),
                message => Response::Error(message).line_bytes(),
            });
            conn.out.extend_from_slice(&answer);
            self.progress = true;
        }
    }

    /// Connection `id`'s unflushed output.
    pub(crate) fn output(&self, id: usize) -> &[u8] {
        &self.slab[id].as_ref().expect(LIVE).out
    }

    /// The first `n` bytes of connection `id`'s output were written.
    pub(crate) fn wrote(&mut self, id: usize, n: usize) {
        self.slab[id].as_mut().expect(LIVE).out.drain(..n);
        self.progress = true;
    }

    /// Connection `id`'s output cannot be delivered: drop it, its pending
    /// events and its undecoded bytes, and read no more. No job of the
    /// connection runs again, and the next [`reap`](Self::reap) frees its
    /// slot.
    pub(crate) fn failed(&mut self, id: usize) {
        let conn = self.slab[id].as_mut().expect(LIVE);
        conn.machine.abandon();
        conn.pending.clear();
        conn.pending_bytes = 0;
        conn.out.clear();
        conn.eof = true;
        conn.drained = true;
    }

    /// Whether connection `id` is finished: it is not listening, and
    /// everything it is owed — its whole frames or lines still in the
    /// machine included — has been answered and written. A finished
    /// connection's slot is freed; the shell closes its socket.
    pub(crate) fn reap(&mut self, id: usize) -> bool {
        let conn = self.slab[id].as_ref().expect(LIVE);
        let owed = !conn.drained || !conn.pending.is_empty() || !conn.out.is_empty();
        let finished = !conn.listening() && !owed;
        if finished {
            self.slab[id] = None;
            self.progress = true;
        }
        finished
    }

    /// End a scan that took `scan`: `None` when anything changed during
    /// it (scan again at once), otherwise how long to sleep first (see
    /// [`idle_wait`]).
    pub(crate) fn end_scan(&mut self, scan: Duration) -> Option<Duration> {
        let listening = self.slab.iter().flatten().any(Conn::listening);
        (!std::mem::take(&mut self.progress)).then(|| idle_wait(scan, listening))
    }
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};
    use std::collections::VecDeque;

    use prng::prop::Gen;

    use super::super::frame::{decode, DecodeStep, ItemResponse, ResponseFrame};
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

    /// The message of every panic the fake runner raises.
    const PANIC: &str = "chip exploded";
    /// The fake's failed-request message.
    const FAILED: &str = "chip 3 failed";
    /// The most bytes one read of the property's shell delivers.
    const MAX_READ: usize = 512;

    /// A runner whose answers are a pure function of the request, so the
    /// property can predict every byte. A line `<code> <seq> …`, and each
    /// item of a workload-0 frame (whose first value is the code), is
    /// served (code 0), shed (1), failed (2) or rejected (3); code 4 and
    /// workload 2 panic, and workload 1 is unknown.
    #[derive(Default)]
    struct Fake {
        opened: Cell<usize>,
        /// The connections, numbered in open order, whose jobs ran.
        ran: RefCell<Vec<usize>>,
    }

    impl Runner for Fake {
        type Sessions = usize;

        fn open(&self) -> usize {
            self.opened.replace(self.opened.get() + 1)
        }

        fn line(&self, conn: &mut usize, line: &str, _: f64) -> Response {
            self.ran.borrow_mut().push(*conn);
            fake_line(line).unwrap_or_else(|| panic!("{PANIC}"))
        }

        fn frame(&self, conn: &mut usize, request: &RequestFrame, _: f64) -> Frame {
            self.ran.borrow_mut().push(*conn);
            fake_frame(request).unwrap_or_else(|| panic!("{PANIC}"))
        }
    }

    /// The fake's answer to a line; `None` where it panics.
    fn fake_line(line: &str) -> Option<Response> {
        let mut words = line.split(' ');
        let code = words.next().expect("a code");
        let seq: usize = words.next().and_then(|w| w.parse().ok()).expect("a seq");
        Some(match code {
            "0" => Response::Ok {
                chip: seq % 7,
                latency_us: 0,
                output: vec![seq as f64],
            },
            "1" => Response::Error("overloaded".to_string()),
            "2" => Response::Error(FAILED.to_string()),
            "3" => Response::Error("malformed request".to_string()),
            _ => return None,
        })
    }

    /// The fake's answer to a frame; `None` where it panics.
    fn fake_frame(request: &RequestFrame) -> Option<Frame> {
        let item = |input: Vec<f64>| match input[0] as u8 {
            0 => ItemResponse::Ok {
                chip: 1,
                latency_us: 0,
                output: input,
            },
            1 => ItemResponse::Shed,
            2 => ItemResponse::Err(FAILED.to_string()),
            _ => ItemResponse::Err("wrong arity".to_string()),
        };
        match request.workload {
            0 => Some(Frame::Response(ResponseFrame {
                workload: 0,
                items: request.inputs().into_iter().map(item).collect(),
            })),
            1 => Some(Frame::Error("unknown workload id 1".to_string())),
            _ => None,
        }
    }

    /// One thing a client sends: its bytes, the answer it is owed, the
    /// requests it offers, and whether it ends the stream's framing.
    struct Unit {
        bytes: Vec<u8>,
        answer: Vec<u8>,
        requests: usize,
        kills: bool,
    }

    fn line_unit(line: String) -> Unit {
        let answer = fake_line(&line).unwrap_or_else(|| Response::Error(PANIC.to_string()));
        Unit {
            bytes: format!("{line}\n").into_bytes(),
            answer: answer.line_bytes(),
            requests: 1,
            kills: false,
        }
    }

    fn frame_unit(request: RequestFrame) -> Unit {
        let answer = fake_frame(&request).unwrap_or_else(|| Frame::Error(PANIC.to_string()));
        Unit {
            requests: request.count as usize,
            bytes: Frame::Request(request).encode(),
            answer: answer.encode(),
            kills: false,
        }
    }

    /// A frame the decoder refuses, answered with the decoder's message.
    fn bad_frame_unit(bytes: Vec<u8>, max_frame: usize) -> Unit {
        let (message, kills) = match decode(&bytes, max_frame) {
            DecodeStep::Corrupt(message, _) => (message, false),
            DecodeStep::Fatal(message) => (message, true),
            other => panic!("not a bad frame: {other:?}"),
        };
        Unit {
            bytes,
            answer: Frame::Error(message).encode(),
            requests: 1,
            kills,
        }
    }

    /// A client's units: v2 (negotiation, request frames, the odd corrupt
    /// frame, perhaps a last fatal one) or v1 (lines, perhaps a last
    /// over-long one). A flood sends thousands of short lines or frames.
    fn client_units(g: &mut Gen, config: &EventServerConfig, flood: bool) -> Vec<Unit> {
        let max_frame = config.max_frame_bytes;
        let max_line = config.max_line_bytes;
        let v2 = g.bool_any();
        let mut units = Vec::new();
        if v2 {
            units.push(Unit {
                bytes: b"v2\n".to_vec(),
                answer: b"ok v2 toy\n".to_vec(),
                requests: 0,
                kills: false,
            });
        }
        let count = g.usize_in(0, if flood { 3000 } else { 60 });
        for seq in 0..count {
            let roll = g.usize_in(0, 100);
            let unit = match (v2, roll) {
                (true, 0..=2) => bad_frame_unit(vec![2, 0, 0, 0, 0xEE, 0], max_frame),
                (true, 3) if !flood => {
                    let len = u32::try_from(max_frame + 1).expect("a small cap");
                    bad_frame_unit(len.to_le_bytes().to_vec(), max_frame)
                }
                (true, _) => {
                    let workload = [0, 0, 0, 0, 0, 0, 0, 0, 1, 2][g.usize_in(0, 10)];
                    let dim = g.usize_in(1, 3);
                    let inputs: Vec<Vec<f64>> = (0..g.usize_in(1, 4))
                        .map(|_| {
                            let mut input = g.vec_f64(-1.0, 1.0, dim);
                            input[0] = g.usize_in(0, 4) as f64;
                            input
                        })
                        .collect();
                    frame_unit(RequestFrame::from_inputs(workload, &inputs))
                }
                (false, 0) if !flood => Unit {
                    bytes: [vec![b'y'; max_line + 1 + g.usize_in(0, 64)], vec![b'\n']].concat(),
                    answer: Response::Error(format!("request line exceeds {max_line} bytes"))
                        .line_bytes(),
                    requests: 1,
                    kills: true,
                },
                (false, _) => {
                    let code = if roll < 80 { 0 } else { roll % 5 };
                    let line = format!("{code} {seq} ");
                    let pad = if flood {
                        0
                    } else {
                        g.usize_in(0, max_line - line.len() + 1)
                    };
                    line_unit(line + &"x".repeat(pad))
                }
            };
            let kills = unit.kills;
            units.push(unit);
            if kills {
                break;
            }
        }
        units
    }

    /// One client of the property: its units, what it sent and what it
    /// received.
    struct Client {
        /// Its connection's id in the core while `live`.
        id: usize,
        live: bool,
        units: Vec<Unit>,
        sent: usize,
        /// The answers owed for the units sent, concatenated.
        owed: Vec<u8>,
        /// Bytes sent that the shell has not read yet.
        wire: VecDeque<u8>,
        eof: bool,
        received: Vec<u8>,
        /// A write failed: answers after it are lost.
        broken: bool,
    }

    impl Client {
        /// Send the next `count` units, stopping after one that kills.
        fn send(&mut self, count: usize) {
            for _ in 0..count {
                let done = self.eof || self.units[..self.sent].last().is_some_and(|u| u.kills);
                let Some(unit) = self.units.get(self.sent).filter(|_| !done) else {
                    return;
                };
                self.wire.extend(&unit.bytes);
                self.owed.extend_from_slice(&unit.answer);
                self.sent += 1;
            }
        }

        /// One read of at most `limit` bytes, and EOF once the client has
        /// sent everything, as a shell finds them; then decode.
        fn read(&mut self, core: &mut ServerCore<'_, Fake>, limit: usize, stamp: f64) {
            if core.wants_input(self.id) {
                if self.wire.is_empty() && self.sent == self.units.len() {
                    core.eof(self.id);
                    self.eof = true;
                } else if !self.wire.is_empty() {
                    let n = limit.clamp(1, MAX_READ).min(self.wire.len());
                    let bytes: Vec<u8> = self.wire.drain(..n).collect();
                    core.read(self.id, &bytes);
                }
            }
            core.decode(self.id, || stamp);
        }

        /// Write up to `limit` bytes of the connection's output: they must
        /// be the next answers the client is owed, in request order. Once
        /// a write failed, every later one fails too.
        fn write(&mut self, core: &mut ServerCore<'_, Fake>, limit: usize) {
            if self.broken {
                return core.failed(self.id);
            }
            let out = core.output(self.id);
            let n = limit.min(out.len());
            let start = self.received.len();
            assert_eq!(
                &out[..n],
                &self.owed[start..start + n],
                "answers leave in request order"
            );
            self.received.extend_from_slice(&out[..n]);
            core.wrote(self.id, n);
        }
    }

    /// One serve step, checking that at most one job per connection runs
    /// and none while the connection's output is at its bound.
    fn serve(core: &mut ServerCore<'_, Fake>, fake: &Fake) {
        let before: Vec<Option<(usize, usize)>> = core
            .slab
            .iter()
            .map(|conn| conn.as_ref().map(|c| (c.pending.len(), c.out.len())))
            .collect();
        fake.ran.borrow_mut().clear();
        core.serve();
        for (conn, before) in core.slab.iter().zip(before) {
            if let (Some(conn), Some((pending, out))) = (conn, before) {
                let jobs = pending - conn.pending.len();
                assert!(jobs <= 1, "{jobs} jobs of one connection in one scan");
                assert!(
                    jobs == 0 || out < core.max_frame_bytes,
                    "a job ran with {out} bytes unflushed"
                );
            }
        }
        let mut ran = fake.ran.borrow().clone();
        let jobs = ran.len();
        ran.dedup();
        assert_eq!(ran.len(), jobs, "a connection's runner ran twice in a scan");
    }

    /// The bounds every connection keeps after every step.
    fn check_bounds(core: &ServerCore<'_, Fake>) {
        let whole = core.max_frame_bytes.max(core.max_line_bytes) + 4;
        for conn in core.slab.iter().flatten() {
            assert!(
                conn.machine.buffered() <= whole + MAX_READ,
                "undecoded bytes"
            );
            assert!(conn.pending.len() <= EVENT_PENDING_CAP, "pending jobs");
            let held: usize = conn
                .pending
                .iter()
                .map(|(event, _)| held_bytes(event))
                .sum();
            assert_eq!(conn.pending_bytes, held, "pending byte count");
            assert!(
                conn.pending_bytes < core.max_frame_bytes + whole,
                "{} pending bytes",
                conn.pending_bytes
            );
        }
    }

    /// Each request's outcome in the bytes a client received, as
    /// `[served, shed, failed, rejected]`.
    fn tally(units: &[Unit], received: &[u8]) -> [usize; 4] {
        let outcome = |message: &str| match message {
            "overloaded" => 1,
            m if m.starts_with("chip ") && m.ends_with(" failed") => 2,
            _ => 3,
        };
        let v2 = units.first().is_some_and(|unit| unit.requests == 0);
        let mut counts = [0; 4];
        let mut rest = received;
        for unit in units {
            if unit.requests == 0 {
                rest = rest.strip_prefix(b"ok v2 toy\n").expect("negotiation");
            } else if v2 {
                let DecodeStep::Frame(frame, used) = decode(rest, usize::MAX) else {
                    panic!("a whole answer frame");
                };
                rest = &rest[used..];
                match frame {
                    Frame::Response(response) => {
                        for item in response.items {
                            counts[match item {
                                ItemResponse::Ok { .. } => 0,
                                ItemResponse::Shed => 1,
                                ItemResponse::Err(message) => outcome(&message),
                            }] += 1;
                        }
                    }
                    _ => counts[3] += unit.requests,
                }
            } else {
                let end = rest.iter().position(|&b| b == b'\n').expect("a line");
                let line = std::str::from_utf8(&rest[..end]).expect("utf-8");
                rest = &rest[end + 1..];
                counts[match Response::parse(line).expect("an answer line") {
                    Response::Ok { .. } => 0,
                    Response::Error(message) => outcome(&message),
                }] += 1;
            }
        }
        assert!(rest.is_empty(), "bytes past the last answer");
        counts
    }

    /// Drive a core through one random interleaving of accepts, reads,
    /// EOFs, scans, writes, failed writes and reaps, then let every
    /// client finish; the bytes each client received.
    fn run_case(g: &mut Gen) -> Vec<Vec<u8>> {
        // Small caps make every bound bind often; a flood's large frame cap
        // lets its thousands of short lines reach the job cap first.
        let flood = g.usize_in(0, 8) == 0;
        let config = EventServerConfig {
            max_frame_bytes: if flood {
                1 << 14
            } else {
                64 << g.usize_in(0, 6)
            },
            max_line_bytes: g.usize_in(16, 96),
        };
        let fake = Fake::default();
        let mut core = ServerCore::new(&fake, &["toy"], &config);
        let mut clients: Vec<Client> = Vec::new();
        let max_clients = g.usize_in(1, 7);
        // accept, send, read, EOF (in read), serve, write, fail, reap, end scan
        let weights = [
            1,
            g.usize_in(1, 20),
            g.usize_in(1, 20),
            if flood { 1 } else { g.usize_in(1, 20) },
            g.usize_in(1, 20),
            usize::from(!flood && g.usize_in(0, 4) == 0),
            g.usize_in(1, 8),
            2,
        ];
        let total: usize = weights.iter().sum();
        for step in 0..g.usize_in(0, if flood { 4000 } else { 600 }) {
            let mut roll = g.usize_in(0, total);
            let kind = weights
                .iter()
                .position(|&w| {
                    let hit = roll < w;
                    roll = roll.saturating_sub(w);
                    hit
                })
                .expect("a step kind");
            let live: Vec<usize> = (0..clients.len()).filter(|&c| clients[c].live).collect();
            let pick = (!live.is_empty()).then(|| live[g.usize_in(0, live.len())]);
            match (kind, pick) {
                (0, _) if clients.len() < max_clients => {
                    let units = client_units(g, &config, flood);
                    clients.push(Client {
                        id: core.accept(),
                        live: true,
                        units,
                        sent: 0,
                        owed: Vec::new(),
                        wire: VecDeque::new(),
                        eof: false,
                        received: Vec::new(),
                        broken: false,
                    });
                }
                (1, Some(c)) => clients[c].send(g.usize_in(1, if flood { 400 } else { 4 })),
                (2, Some(c)) => clients[c].read(&mut core, g.usize_in(1, MAX_READ), step as f64),
                (3, _) => serve(&mut core, &fake),
                (4, Some(c)) => clients[c].write(&mut core, g.usize_in(1, 256)),
                (5, Some(c)) => {
                    core.failed(clients[c].id);
                    clients[c].broken = true;
                }
                (6, _) => {
                    for client in clients.iter_mut().filter(|c| c.live) {
                        client.live = !core.reap(client.id);
                    }
                }
                (7, _) => {
                    let scan = Duration::from_micros(g.usize_in(0, 100) as u64);
                    let _ = core.end_scan(scan);
                    let listening = core.slab.iter().flatten().any(Conn::listening);
                    let again = core.end_scan(scan);
                    assert_eq!(again, Some(idle_wait(scan, listening)), "an idle scan");
                }
                _ => {}
            }
            check_bounds(&core);
        }

        // Every client sends the rest and hangs up; the shell serves until
        // every connection is finished.
        for client in clients.iter_mut().filter(|c| c.live) {
            client.send(usize::MAX);
        }
        let mut scans = 0;
        while clients.iter().any(|c| c.live) {
            scans += 1;
            assert!(scans < 100_000, "a connection never finished");
            for client in clients.iter_mut().filter(|c| c.live) {
                client.read(&mut core, MAX_READ, -1.0);
            }
            serve(&mut core, &fake);
            for client in clients.iter_mut().filter(|c| c.live) {
                client.write(&mut core, usize::MAX);
                client.live = !core.reap(client.id);
            }
            check_bounds(&core);
        }
        for client in clients.iter().filter(|c| !c.broken) {
            assert_eq!(client.received, client.owed, "every answer, in order");
            let offered: usize = client.units[..client.sent].iter().map(|u| u.requests).sum();
            let counts = tally(&client.units[..client.sent], &client.received);
            assert_eq!(
                counts.iter().sum::<usize>(),
                offered,
                "offered = served + shed + failed + rejected {counts:?}"
            );
        }
        clients.into_iter().map(|c| c.received).collect()
    }

    /// The core keeps every connection rule under random interleavings of
    /// its inputs over many connections, and the same inputs give the
    /// same output bytes.
    #[test]
    fn core_keeps_every_connection_rule_under_random_interleavings() {
        prng::prop_check!(|g| {
            let mut replay = g.clone();
            let first = run_case(g);
            assert_eq!(first, run_case(&mut replay), "same seed, same bytes");
        });
    }

    /// A whole line left in the machine when the peer hangs up is still
    /// answered, also when the one event before it reached the pending
    /// byte bound alone (a line outgrows `max_frame_bytes` when
    /// `max_line_bytes` is the larger cap). The scans run in the shell's
    /// order: decode, serve, write, reap.
    #[test]
    fn lines_left_in_the_machine_at_eof_are_still_answered() {
        let fake = Fake::default();
        let config = EventServerConfig {
            max_frame_bytes: 64,
            max_line_bytes: 256,
        };
        let mut core = ServerCore::new(&fake, &["toy"], &config);
        let id = core.accept();
        let long = format!("0 1 {}", "x".repeat(96));
        core.read(id, format!("{long}\n0 2 \n").as_bytes());
        core.eof(id);
        let mut received = Vec::new();
        loop {
            core.decode(id, || 0.0);
            core.serve();
            received.extend_from_slice(core.output(id));
            core.wrote(id, core.output(id).len());
            if core.reap(id) {
                break;
            }
        }
        let answers =
            [fake_line(&long), fake_line("0 2 ")].map(|r| r.expect("served").line_bytes());
        assert_eq!(received, answers.concat());
    }

    /// After a failed write the connection's queued jobs are not run:
    /// neither its pending events nor the whole lines still in its
    /// machine, whose answers could not be delivered either. Its slot is
    /// freed at the next reap.
    #[test]
    fn a_failed_write_runs_no_more_jobs_and_frees_the_slot() {
        let fake = Fake::default();
        let config = EventServerConfig {
            max_frame_bytes: 64,
            max_line_bytes: 32,
        };
        let mut core = ServerCore::new(&fake, &["toy"], &config);
        let id = core.accept();
        let lines: String = (0..40).map(|seq| format!("0 {seq} \n")).collect();
        core.read(id, lines.as_bytes());
        core.decode(id, || 0.0);
        core.serve();
        assert_eq!(fake.ran.borrow().len(), 1, "one job per scan");
        let conn = core.slab[id].as_ref().expect("live");
        assert!(!conn.pending.is_empty() && conn.machine.buffered() > 0);
        core.failed(id);
        fake.ran.borrow_mut().clear();
        for _ in 0..3 {
            core.decode(id, || 0.0);
            core.serve();
        }
        assert_eq!(fake.ran.borrow().len(), 0, "jobs ran after the failure");
        assert!(core.reap(id), "the slot is freed at once");
    }

    #[test]
    fn a_scan_that_changed_nothing_sleeps_as_idle_wait_says() {
        let fake = Fake::default();
        let mut core = ServerCore::new(&fake, &["toy"], &EventServerConfig::default());
        let scan = Duration::from_micros(3);
        assert_eq!(core.end_scan(scan), Some(EVENT_IDLE_SLEEP), "none listens");
        let id = core.accept();
        assert_eq!(core.end_scan(scan), None, "an accept is progress");
        assert_eq!(core.end_scan(scan), Some(idle_wait(scan, true)));
        core.eof(id);
        assert_eq!(core.end_scan(scan), None, "an EOF is progress");
        assert_eq!(core.end_scan(scan), Some(EVENT_IDLE_SLEEP), "none listens");
        assert!(core.reap(id), "an EOF with nothing owed finishes");
        assert_eq!(core.accept(), id, "a freed slot is reused");
    }
}
