//! Sans-IO per-connection protocol state machine: version negotiation,
//! v1 line framing and v2 frame decoding over a plain byte buffer.
//!
//! The machine owns no socket — callers [`feed`](ConnMachine::feed) it
//! whatever bytes arrived and [`poll`](ConnMachine::poll) decoded
//! events out, which is what lets the event-driven server drive
//! hundreds of connections from one thread and lets every protocol
//! corner be unit-tested without a TCP stack.
//!
//! A fresh connection starts [`ConnMode::Negotiating`]: the first line
//! decides the protocol. Exactly `v2` switches the connection to
//! [`ConnMode::BinaryV2`] (the caller answers the negotiation line);
//! anything else is a v1 request line and the connection stays
//! [`ConnMode::TextV1`] forever — old clients pay nothing.

use super::frame::{self, DecodeStep, RequestFrame};

/// Protocol state of one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnMode {
    /// Waiting for the first line to pick a protocol.
    Negotiating,
    /// The v1 text protocol (the fallback — also the mode v1-only
    /// clients land in without knowing negotiation exists).
    TextV1,
    /// The v2 binary frame protocol.
    BinaryV2,
}

/// One decoded protocol event.
#[derive(Debug, Clone, PartialEq)]
pub enum ConnEvent {
    /// The client negotiated v2; answer the negotiation line.
    NegotiatedV2,
    /// A v1 request line (newline stripped), served as a one-request batch.
    Line(String),
    /// A v2 request batch.
    Request(RequestFrame),
    /// A recoverable protocol error: answer in-band (error frame on v2,
    /// `err` line on v1) and keep serving.
    Corrupt(String),
    /// A v1 line exceeded the line cap; answer an `err` line and close
    /// (the stream can no longer be framed).
    TooLong,
    /// The v2 stream can no longer be framed; answer an error frame and
    /// close.
    Fatal(String),
}

/// The per-connection protocol state machine. Feed bytes in, poll
/// events out; the machine never blocks and never touches a socket.
///
/// Decoding advances a read offset instead of shifting the buffer, and
/// the consumed prefix is dropped only once it is at least as long as
/// the unread bytes, so draining a backlog of k frames costs O(buffered
/// bytes), not O(k × buffered bytes).
#[derive(Debug)]
pub struct ConnMachine {
    mode: ConnMode,
    buf: Vec<u8>,
    /// Start of the undecoded bytes in `buf`.
    read: usize,
    max_line: usize,
    max_frame: usize,
    dead: bool,
}

impl ConnMachine {
    /// A fresh machine in [`ConnMode::Negotiating`].
    #[must_use]
    pub fn new(max_line: usize, max_frame: usize) -> Self {
        Self {
            mode: ConnMode::Negotiating,
            buf: Vec::new(),
            read: 0,
            max_line,
            max_frame,
            dead: false,
        }
    }

    /// The connection's current protocol mode.
    #[must_use]
    pub fn mode(&self) -> ConnMode {
        self.mode
    }

    /// Whether the stream can no longer be framed (see [`poll`](Self::poll)).
    pub(crate) fn is_dead(&self) -> bool {
        self.dead
    }

    /// Give the stream up: drop every undecoded byte, and decode and
    /// buffer nothing more (its answers could not be delivered).
    pub(crate) fn abandon(&mut self) {
        self.buf = Vec::new();
        self.read = 0;
        self.dead = true;
    }

    /// Append bytes read off the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        if !self.dead {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Buffered bytes not yet decoded.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.read
    }

    /// Whether the undecoded bytes may still fall short of one whole
    /// frame or line at the mode's cap (its 4-byte length or its `\n`
    /// included), so that more input could be needed to complete it.
    /// Once this is false, [`poll`](ConnMachine::poll) yields an event
    /// for the bytes already buffered; a reader that stops feeding here
    /// bounds the buffer at one whole frame or line plus its last read.
    #[must_use]
    pub(crate) fn wants_input(&self) -> bool {
        let whole = match self.mode {
            ConnMode::Negotiating | ConnMode::TextV1 => self.max_line.saturating_add(1),
            ConnMode::BinaryV2 => self.max_frame.saturating_add(4),
        };
        self.buffered() < whole
    }

    /// Mark `n` undecoded bytes as decoded, compacting once the decoded
    /// prefix is at least as long as what is left.
    fn consume(&mut self, n: usize) {
        self.read += n;
        if self.read >= self.buffered() {
            self.buf.drain(..self.read);
            self.read = 0;
        }
    }

    /// Decode the next event, if a full line/frame is buffered.
    ///
    /// After [`ConnEvent::TooLong`] or [`ConnEvent::Fatal`] the machine
    /// is dead: it discards further input and yields no more events
    /// (the caller is expected to close once its error reply flushes).
    pub fn poll(&mut self) -> Option<ConnEvent> {
        if self.dead {
            return None;
        }
        match self.mode {
            ConnMode::Negotiating => {
                let line = self.take_line()?;
                match line {
                    Ok(line) => {
                        if line.trim() == "v2" {
                            self.mode = ConnMode::BinaryV2;
                            Some(ConnEvent::NegotiatedV2)
                        } else {
                            // Not a negotiation — the first v1 request.
                            self.mode = ConnMode::TextV1;
                            Some(ConnEvent::Line(line))
                        }
                    }
                    Err(()) => {
                        self.dead = true;
                        Some(ConnEvent::TooLong)
                    }
                }
            }
            ConnMode::TextV1 => match self.take_line()? {
                Ok(line) => Some(ConnEvent::Line(line)),
                Err(()) => {
                    self.dead = true;
                    Some(ConnEvent::TooLong)
                }
            },
            ConnMode::BinaryV2 => match frame::decode(&self.buf[self.read..], self.max_frame) {
                DecodeStep::Incomplete => None,
                DecodeStep::Frame(frame::Frame::Request(request), consumed) => {
                    self.consume(consumed);
                    Some(ConnEvent::Request(request))
                }
                DecodeStep::Frame(other, consumed) => {
                    self.consume(consumed);
                    let kind = match other {
                        frame::Frame::Response(_) => "response",
                        frame::Frame::Error(_) => "error",
                        frame::Frame::Request(_) => unreachable!("matched above"),
                    };
                    Some(ConnEvent::Corrupt(format!(
                        "unexpected {kind} frame from a client"
                    )))
                }
                DecodeStep::Corrupt(message, consumed) => {
                    self.consume(consumed);
                    Some(ConnEvent::Corrupt(message))
                }
                DecodeStep::Fatal(message) => {
                    self.dead = true;
                    Some(ConnEvent::Fatal(message))
                }
            },
        }
    }

    /// Extract the next `\n`-terminated line: `None` = need more bytes,
    /// `Some(Err(()))` = more than `max_line` bytes before the `\n` (a
    /// trailing `\r` counts as one), or buffered with no `\n` yet,
    /// `Some(Ok(line))` = a line with `\r\n`/`\n` stripped.
    fn take_line(&mut self) -> Option<Result<String, ()>> {
        let unread = &self.buf[self.read..];
        match unread.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if pos > self.max_line {
                    return Some(Err(()));
                }
                let line = unread[..pos].strip_suffix(b"\r").unwrap_or(&unread[..pos]);
                let line = String::from_utf8_lossy(line).into_owned();
                self.consume(pos + 1);
                Some(Ok(line))
            }
            None => {
                if unread.len() > self.max_line {
                    return Some(Err(()));
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::frame::{Frame, DEFAULT_MAX_FRAME_BYTES};
    use super::*;

    fn machine() -> ConnMachine {
        ConnMachine::new(256, DEFAULT_MAX_FRAME_BYTES)
    }

    #[test]
    fn first_line_v2_negotiates_and_switches_to_frames() {
        let mut m = machine();
        assert_eq!(m.mode(), ConnMode::Negotiating);
        m.feed(b"v2\n");
        assert_eq!(m.poll(), Some(ConnEvent::NegotiatedV2));
        assert_eq!(m.mode(), ConnMode::BinaryV2);
        let frame = Frame::Request(RequestFrame::from_inputs(0, &[vec![1.0, 2.0]]));
        m.feed(&frame.encode());
        match m.poll() {
            Some(ConnEvent::Request(request)) => assert_eq!(request.count, 1),
            other => panic!("expected a request, got {other:?}"),
        }
        assert_eq!(m.poll(), None);
    }

    #[test]
    fn first_line_other_than_v2_falls_back_to_text() {
        let mut m = machine();
        m.feed(b"toy 1.0,2.0\r\n");
        assert_eq!(m.poll(), Some(ConnEvent::Line("toy 1.0,2.0".to_string())));
        assert_eq!(m.mode(), ConnMode::TextV1);
        m.feed(b"toy 3.0,4.0\n");
        assert_eq!(m.poll(), Some(ConnEvent::Line("toy 3.0,4.0".to_string())));
    }

    #[test]
    fn partial_input_yields_no_event_until_complete() {
        let mut m = machine();
        m.feed(b"v2");
        assert_eq!(m.poll(), None);
        m.feed(b"\n");
        assert_eq!(m.poll(), Some(ConnEvent::NegotiatedV2));
        let bytes = Frame::Request(RequestFrame::from_inputs(1, &[vec![0.5]])).encode();
        for &byte in &bytes[..bytes.len() - 1] {
            m.feed(&[byte]);
            assert_eq!(m.poll(), None);
        }
        m.feed(&bytes[bytes.len() - 1..]);
        assert!(matches!(m.poll(), Some(ConnEvent::Request(_))));
    }

    #[test]
    fn pipelined_frames_come_out_in_order() {
        let mut m = machine();
        m.feed(b"v2\n");
        let _ = m.poll();
        let mut bytes = Vec::new();
        for i in 0..4u16 {
            bytes.extend(
                Frame::Request(RequestFrame::from_inputs(i, &[vec![f64::from(i)]])).encode(),
            );
        }
        m.feed(&bytes);
        for i in 0..4u16 {
            match m.poll() {
                Some(ConnEvent::Request(request)) => assert_eq!(request.workload, i),
                other => panic!("frame {i}: {other:?}"),
            }
        }
        assert_eq!(m.poll(), None);
        assert_eq!(m.buffered(), 0);
    }

    #[test]
    fn corrupt_frames_are_recoverable_in_band() {
        let mut m = machine();
        m.feed(b"v2\n");
        let _ = m.poll();
        // Unknown kind byte: framed, skipped, connection keeps going.
        m.feed(&[2, 0, 0, 0, 0xEE, 0x00]);
        assert!(matches!(m.poll(), Some(ConnEvent::Corrupt(_))));
        let good = Frame::Request(RequestFrame::from_inputs(0, &[vec![1.0]])).encode();
        m.feed(&good);
        assert!(
            matches!(m.poll(), Some(ConnEvent::Request(_))),
            "sibling frame must survive"
        );
    }

    #[test]
    fn oversized_frame_is_fatal_and_kills_the_machine() {
        let mut m = machine();
        m.feed(b"v2\n");
        let _ = m.poll();
        m.feed(&u32::MAX.to_le_bytes());
        assert!(matches!(m.poll(), Some(ConnEvent::Fatal(_))));
        m.feed(b"anything");
        assert_eq!(m.poll(), None, "a dead machine yields nothing");
    }

    #[test]
    fn over_cap_v1_line_is_too_long() {
        let mut m = ConnMachine::new(16, DEFAULT_MAX_FRAME_BYTES);
        m.feed(b"toy 1,2\n");
        assert!(matches!(m.poll(), Some(ConnEvent::Line(_))));
        m.feed(&[b'x'; 64]);
        assert_eq!(m.poll(), Some(ConnEvent::TooLong));
        assert_eq!(m.poll(), None);
    }

    #[test]
    fn wants_input_until_one_whole_frame_or_line_is_buffered() {
        let mut line = ConnMachine::new(4, 16);
        line.feed(b"abcd");
        assert!(line.wants_input(), "a line at the cap may still end");
        line.feed(b"\n");
        assert!(!line.wants_input());
        assert_eq!(line.poll(), Some(ConnEvent::Line("abcd".into())));

        let mut m = ConnMachine::new(4, 16);
        m.feed(b"v2\n");
        assert_eq!(m.poll(), Some(ConnEvent::NegotiatedV2));
        assert!(m.wants_input());
        // A frame at the cap: 4 length bytes, then 16 more.
        let mut bytes = 16u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0xEE; 16]);
        m.feed(&bytes[..19]);
        assert!(m.wants_input(), "one byte short of a whole frame");
        assert_eq!(m.poll(), None);
        m.feed(&bytes[19..]);
        assert!(!m.wants_input());
        assert!(matches!(m.poll(), Some(ConnEvent::Corrupt(_))));
        assert!(m.wants_input());
    }

    #[test]
    fn line_cap_counts_the_bytes_before_the_newline() {
        let poll = |bytes: &[u8]| {
            let mut m = ConnMachine::new(4, DEFAULT_MAX_FRAME_BYTES);
            m.feed(bytes);
            m.poll()
        };
        assert_eq!(poll(b"abcd\n"), Some(ConnEvent::Line("abcd".into())));
        assert_eq!(poll(b"abc\r\n"), Some(ConnEvent::Line("abc".into())));
        assert_eq!(poll(b"abcd"), None, "a line at the cap may still end");
        for over in [&b"abcde\n"[..], b"abcde", b"abcd\r\n"] {
            assert_eq!(poll(over), Some(ConnEvent::TooLong), "{over:?}");
        }
    }
}
