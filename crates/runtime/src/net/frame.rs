//! Wire protocol v2 frame codec: length-prefixed binary frames carrying
//! a *batch* of requests or responses, plus an incremental decoder for
//! event-driven readers.
//!
//! All integers are little-endian. The grammar (see the module docs of
//! [`net`](crate::net) for the prose version):
//!
//! ```text
//! frame    = len:u32 kind:u8 body              ; len = 1 + len(body)
//! request  = workload:u16 count:u32 count*dim × f64    ; kind 0x01
//! response = workload:u16 count:u32 count × record     ; kind 0x02
//! record   = 0x00 chip:u32 latency-us:u32 out-len:u32 out-len × f64
//!          | 0x01                              ; shed by admission
//!          | 0x02 msg-len:u32 msg-len × utf8
//! error    = utf8 message                      ; kind 0x03
//! ```
//!
//! A request frame's payload is the concatenation of `count` input
//! vectors; the per-request dimension is implied by the workload the
//! frame addresses, so the payload length alone determines `dim =
//! values / count`. `f64` values travel as raw `to_bits` little-endian
//! bytes — the encoding is bit-exact by construction, including NaN
//! payloads (which the v1 text protocol cannot carry).
//!
//! The decoder distinguishes three failure shapes:
//!
//! * [`DecodeStep::Incomplete`] — not enough bytes yet (not an error);
//! * [`DecodeStep::Corrupt`] — the frame *body* is malformed but the
//!   length prefix framed it, so the connection can skip the frame,
//!   answer an in-band [`Frame::Error`], and keep serving;
//! * [`DecodeStep::Fatal`] — the length prefix itself is untrustworthy
//!   (over [`decode`]'s `max_frame` or shorter than the kind byte); the
//!   stream can no longer be framed and the connection must close after
//!   an error frame.

/// Request-batch frame kind byte.
pub const KIND_REQUEST: u8 = 0x01;
/// Response-batch frame kind byte.
pub const KIND_RESPONSE: u8 = 0x02;
/// Whole-frame error kind byte.
pub const KIND_ERROR: u8 = 0x03;

/// Default cap on one frame (`len` field), matching a ~16k-request
/// batch of small inputs. Oversized frames are a [`DecodeStep::Fatal`].
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1024 * 1024;

/// Cap on `count` in one request frame, so a corrupt count cannot make
/// the server allocate per-request state unboundedly.
pub const MAX_BATCH_REQUESTS: u32 = 65_536;

/// The fixed bytes of a request frame: workload id and request count.
const REQUEST_HEADER_BYTES: usize = 6;

/// One decoded v2 frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A batch of requests for one workload (kind 0x01).
    Request(RequestFrame),
    /// A batch of responses for one workload (kind 0x02).
    Response(ResponseFrame),
    /// A whole-frame error message (kind 0x03): the server could not
    /// answer per-request (malformed body, unknown workload id). The
    /// connection keeps serving unless the transport is broken.
    Error(String),
}

impl Frame {
    /// Encode as wire bytes (length prefix included).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let body = match self {
            Frame::Request(request) => request.encode_body(),
            Frame::Response(response) => response.encode_body(),
            Frame::Error(message) => message.as_bytes().to_vec(),
        };
        let kind = match self {
            Frame::Request(_) => KIND_REQUEST,
            Frame::Response(_) => KIND_RESPONSE,
            Frame::Error(_) => KIND_ERROR,
        };
        let len = u32::try_from(1 + body.len()).expect("frame fits in u32");
        let mut out = Vec::with_capacity(4 + 1 + body.len());
        out.extend_from_slice(&len.to_le_bytes());
        out.push(kind);
        out.extend_from_slice(&body);
        out
    }
}

/// A batch of requests for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Workload id: the workload's index in the negotiated name list.
    pub workload: u16,
    /// Number of requests in the batch (> 0).
    pub count: u32,
    /// The concatenated input vectors, `count × dim` values.
    pub values: Vec<f64>,
}

impl RequestFrame {
    /// Build a request frame from per-request input vectors.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty, the vectors have differing lengths,
    /// or there are more than [`MAX_BATCH_REQUESTS`] of them.
    #[must_use]
    pub fn from_inputs(workload: u16, inputs: &[Vec<f64>]) -> Self {
        assert!(!inputs.is_empty(), "a request frame carries requests");
        let dim = inputs[0].len();
        assert!(
            inputs.iter().all(|input| input.len() == dim),
            "all inputs in a frame share the workload's arity"
        );
        let count = u32::try_from(inputs.len()).expect("count fits in u32");
        assert!(
            count <= MAX_BATCH_REQUESTS,
            "batch exceeds MAX_BATCH_REQUESTS"
        );
        Self {
            workload,
            count,
            values: inputs.iter().flatten().copied().collect(),
        }
    }

    /// The per-request input dimension implied by the payload, or `None`
    /// when the payload length is not divisible by `count`.
    #[must_use]
    pub fn dim(&self) -> Option<usize> {
        let count = self.count as usize;
        (count > 0 && self.values.len().is_multiple_of(count)).then(|| self.values.len() / count)
    }

    /// Split the payload back into per-request input vectors.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not divisible by `count` (the decoder
    /// never produces such a frame).
    #[must_use]
    pub fn inputs(&self) -> Vec<Vec<f64>> {
        let dim = self.dim().expect("payload divisible by count");
        self.values
            .chunks(dim.max(1))
            .map(<[f64]>::to_vec)
            .collect()
    }

    fn encode_body(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(REQUEST_HEADER_BYTES + self.values.len() * 8);
        body.extend_from_slice(&self.workload.to_le_bytes());
        body.extend_from_slice(&self.count.to_le_bytes());
        for value in &self.values {
            body.extend_from_slice(&value.to_bits().to_le_bytes());
        }
        body
    }

    fn decode_body(body: &[u8]) -> Result<Self, String> {
        if body.len() < REQUEST_HEADER_BYTES {
            return Err(format!(
                "request body is {} bytes, need at least {REQUEST_HEADER_BYTES}",
                body.len()
            ));
        }
        let workload = u16::from_le_bytes([body[0], body[1]]);
        let count = u32::from_le_bytes([body[2], body[3], body[4], body[5]]);
        if count == 0 {
            return Err("request frame carries an empty batch".to_string());
        }
        if count > MAX_BATCH_REQUESTS {
            return Err(format!(
                "request count {count} exceeds the {MAX_BATCH_REQUESTS}-request cap"
            ));
        }
        let payload = &body[REQUEST_HEADER_BYTES..];
        if !payload.len().is_multiple_of(8) {
            return Err(format!(
                "request payload is {} bytes, not a whole number of f64s",
                payload.len()
            ));
        }
        let values: Vec<f64> = payload
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
            .collect();
        if !values.len().is_multiple_of(count as usize) {
            return Err(format!(
                "payload of {} values is not divisible by request count {count}",
                values.len()
            ));
        }
        Ok(Self {
            workload,
            count,
            values,
        })
    }
}

/// One request's result inside a response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ItemResponse {
    /// Served: which chip, the inline `infer` latency, and the output
    /// bits.
    Ok {
        /// Chip id that ran the request.
        chip: u32,
        /// Service latency, integer microseconds (saturating).
        latency_us: u32,
        /// The output vector, bit-exact.
        output: Vec<f64>,
    },
    /// Shed by admission control; nothing ran.
    Shed,
    /// Rejected or failed with a per-request message; sibling requests
    /// in the batch are unaffected.
    Err(String),
}

/// A batch of responses: one [`ItemResponse`] per request, in request
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// The workload id the requests addressed.
    pub workload: u16,
    /// Per-request results, in request order.
    pub items: Vec<ItemResponse>,
}

const STATUS_OK: u8 = 0x00;
const STATUS_SHED: u8 = 0x01;
const STATUS_ERR: u8 = 0x02;

impl ResponseFrame {
    fn encode_body(&self) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&self.workload.to_le_bytes());
        let count = u32::try_from(self.items.len()).expect("count fits in u32");
        body.extend_from_slice(&count.to_le_bytes());
        for item in &self.items {
            match item {
                ItemResponse::Ok {
                    chip,
                    latency_us,
                    output,
                } => {
                    body.push(STATUS_OK);
                    body.extend_from_slice(&chip.to_le_bytes());
                    body.extend_from_slice(&latency_us.to_le_bytes());
                    let out_len = u32::try_from(output.len()).expect("output fits in u32");
                    body.extend_from_slice(&out_len.to_le_bytes());
                    for value in output {
                        body.extend_from_slice(&value.to_bits().to_le_bytes());
                    }
                }
                ItemResponse::Shed => body.push(STATUS_SHED),
                ItemResponse::Err(message) => {
                    body.push(STATUS_ERR);
                    let msg_len = u32::try_from(message.len()).expect("message fits in u32");
                    body.extend_from_slice(&msg_len.to_le_bytes());
                    body.extend_from_slice(message.as_bytes());
                }
            }
        }
        body
    }

    fn decode_body(body: &[u8]) -> Result<Self, String> {
        let mut cursor = Cursor::new(body);
        let workload = cursor.u16()?;
        let count = cursor.u32()?;
        if count > MAX_BATCH_REQUESTS {
            return Err(format!(
                "response count {count} exceeds the {MAX_BATCH_REQUESTS}-request cap"
            ));
        }
        let mut items = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let status = cursor.u8()?;
            let item = match status {
                STATUS_OK => {
                    let chip = cursor.u32()?;
                    let latency_us = cursor.u32()?;
                    let out_len = cursor.u32()? as usize;
                    let mut output = Vec::with_capacity(out_len.min(4096));
                    for _ in 0..out_len {
                        output.push(cursor.f64()?);
                    }
                    ItemResponse::Ok {
                        chip,
                        latency_us,
                        output,
                    }
                }
                STATUS_SHED => ItemResponse::Shed,
                STATUS_ERR => {
                    let msg_len = cursor.u32()? as usize;
                    let bytes = cursor.bytes(msg_len)?;
                    ItemResponse::Err(String::from_utf8_lossy(bytes).into_owned())
                }
                other => return Err(format!("unknown response record status {other:#04x}")),
            };
            items.push(item);
        }
        if !cursor.at_end() {
            return Err("trailing bytes after the last response record".to_string());
        }
        Ok(Self { workload, items })
    }
}

/// Byte-walking helper for response decoding.
struct Cursor<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(body: &'a [u8]) -> Self {
        Self { body, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.body.len())
            .ok_or_else(|| "response body truncated".to_string())?;
        let slice = &self.body[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(
            self.bytes(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        )))
    }

    fn at_end(&self) -> bool {
        self.pos == self.body.len()
    }
}

/// One step of incremental decoding over a growing byte buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeStep {
    /// Not enough bytes buffered yet; read more and retry.
    Incomplete,
    /// A frame was decoded; `usize` is the bytes consumed (drain them
    /// before the next step).
    Frame(Frame, usize),
    /// The frame body is malformed but the length prefix framed it:
    /// consume the given bytes, answer an in-band error frame, keep
    /// serving.
    Corrupt(String, usize),
    /// The length prefix itself cannot be trusted; the stream can no
    /// longer be framed. Answer an error frame and close.
    Fatal(String),
}

/// Decode one frame off the front of `buf`.
///
/// `max_frame` bounds the `len` field; longer frames are
/// [`DecodeStep::Fatal`] (the decoder refuses to buffer them).
#[must_use]
pub fn decode(buf: &[u8], max_frame: usize) -> DecodeStep {
    if buf.len() < 4 {
        return DecodeStep::Incomplete;
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    if len == 0 {
        return DecodeStep::Fatal("frame length 0 leaves no room for the kind byte".to_string());
    }
    if len > max_frame {
        return DecodeStep::Fatal(format!(
            "frame length {len} exceeds the {max_frame}-byte cap"
        ));
    }
    if buf.len() < 4 + len {
        return DecodeStep::Incomplete;
    }
    let consumed = 4 + len;
    let kind = buf[4];
    let body = &buf[5..consumed];
    let frame = match kind {
        KIND_REQUEST => RequestFrame::decode_body(body).map(Frame::Request),
        KIND_RESPONSE => ResponseFrame::decode_body(body).map(Frame::Response),
        KIND_ERROR => Ok(Frame::Error(String::from_utf8_lossy(body).into_owned())),
        other => Err(format!("unknown frame kind {other:#04x}")),
    };
    match frame {
        Ok(frame) => DecodeStep::Frame(frame, consumed),
        Err(message) => DecodeStep::Corrupt(message, consumed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frames_round_trip_bit_exactly() {
        let inputs = vec![
            vec![0.1 + 0.2, -0.0],
            vec![f64::NAN, f64::MIN_POSITIVE],
            vec![f64::INFINITY, 1.0 / 3.0],
        ];
        let frame = RequestFrame::from_inputs(7, &inputs);
        assert_eq!(frame.count, 3);
        assert_eq!(frame.dim(), Some(2));
        let bytes = Frame::Request(frame.clone()).encode();
        match decode(&bytes, DEFAULT_MAX_FRAME_BYTES) {
            DecodeStep::Frame(Frame::Request(decoded), consumed) => {
                assert_eq!(consumed, bytes.len());
                assert_eq!(decoded.workload, 7);
                let bits: Vec<u64> = decoded.values.iter().map(|v| v.to_bits()).collect();
                let expect: Vec<u64> = frame.values.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    bits, expect,
                    "binary payloads carry exact bits, NaN included"
                );
                assert_eq!(decoded.inputs().len(), 3);
            }
            other => panic!("expected a request frame, got {other:?}"),
        }
    }

    #[test]
    fn response_frames_round_trip_every_status() {
        let frame = ResponseFrame {
            workload: 3,
            items: vec![
                ItemResponse::Ok {
                    chip: 2,
                    latency_us: 41,
                    output: vec![0.5, -1.25, f64::NAN],
                },
                ItemResponse::Shed,
                ItemResponse::Err("wrong arity".to_string()),
            ],
        };
        let bytes = Frame::Response(frame.clone()).encode();
        match decode(&bytes, DEFAULT_MAX_FRAME_BYTES) {
            DecodeStep::Frame(Frame::Response(decoded), consumed) => {
                assert_eq!(consumed, bytes.len());
                assert_eq!(decoded.workload, 3);
                assert_eq!(decoded.items.len(), 3);
                match (&decoded.items[0], &frame.items[0]) {
                    (
                        ItemResponse::Ok {
                            output: a,
                            chip: ca,
                            latency_us: la,
                        },
                        ItemResponse::Ok {
                            output: b,
                            chip: cb,
                            latency_us: lb,
                        },
                    ) => {
                        assert_eq!((ca, la), (cb, lb));
                        let bits_a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                        let bits_b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(bits_a, bits_b);
                    }
                    other => panic!("expected ok records, got {other:?}"),
                }
                assert_eq!(decoded.items[1], ItemResponse::Shed);
                assert_eq!(decoded.items[2], frame.items[2]);
            }
            other => panic!("expected a response frame, got {other:?}"),
        }
    }

    #[test]
    fn error_frames_round_trip() {
        let bytes = Frame::Error("unknown workload id 9".to_string()).encode();
        match decode(&bytes, DEFAULT_MAX_FRAME_BYTES) {
            DecodeStep::Frame(Frame::Error(message), consumed) => {
                assert_eq!(consumed, bytes.len());
                assert_eq!(message, "unknown workload id 9");
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_are_incomplete_not_errors() {
        let bytes = Frame::Request(RequestFrame::from_inputs(0, &[vec![1.0, 2.0]])).encode();
        for cut in 0..bytes.len() {
            assert_eq!(
                decode(&bytes[..cut], DEFAULT_MAX_FRAME_BYTES),
                DecodeStep::Incomplete,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_length_is_fatal() {
        let mut bytes = vec![0u8; 8];
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode(&bytes, DEFAULT_MAX_FRAME_BYTES),
            DecodeStep::Fatal(_)
        ));
        assert!(matches!(
            decode(&[0, 0, 0, 0, 1], DEFAULT_MAX_FRAME_BYTES),
            DecodeStep::Fatal(_)
        ));
    }

    #[test]
    fn garbage_bodies_are_corrupt_and_consumed() {
        // Unknown kind byte.
        let mut bytes = vec![2, 0, 0, 0, 0xEE, 0xFF];
        assert!(matches!(
            decode(&bytes, DEFAULT_MAX_FRAME_BYTES),
            DecodeStep::Corrupt(_, 6)
        ));
        // Request body too short for its header.
        bytes = vec![3, 0, 0, 0, KIND_REQUEST, 1, 2];
        assert!(matches!(
            decode(&bytes, DEFAULT_MAX_FRAME_BYTES),
            DecodeStep::Corrupt(_, 7)
        ));
        // Zero-count batch.
        let mut frame = RequestFrame::from_inputs(0, &[vec![1.0]]);
        frame.count = 0;
        let encoded = Frame::Request(frame).encode();
        assert!(matches!(
            decode(&encoded, DEFAULT_MAX_FRAME_BYTES),
            DecodeStep::Corrupt(_, _)
        ));
        // Payload not divisible by count.
        let mut frame = RequestFrame::from_inputs(0, &[vec![1.0, 2.0], vec![3.0, 4.0]]);
        frame.count = 3;
        let encoded = Frame::Request(frame).encode();
        assert!(matches!(
            decode(&encoded, DEFAULT_MAX_FRAME_BYTES),
            DecodeStep::Corrupt(_, _)
        ));
    }

    #[test]
    fn decoding_consumes_exactly_one_frame() {
        let first = Frame::Request(RequestFrame::from_inputs(1, &[vec![1.0]])).encode();
        let second = Frame::Request(RequestFrame::from_inputs(2, &[vec![2.0]])).encode();
        let mut buf = first.clone();
        buf.extend_from_slice(&second);
        match decode(&buf, DEFAULT_MAX_FRAME_BYTES) {
            DecodeStep::Frame(Frame::Request(frame), consumed) => {
                assert_eq!(consumed, first.len());
                assert_eq!(frame.workload, 1);
            }
            other => panic!("expected the first frame, got {other:?}"),
        }
    }
}
