//! The ingress wire protocol: length-prefixed frames over TCP.
//!
//! Every message is one *frame*: a little-endian `u32` body length followed
//! by the body. Bodies start with a one-byte opcode and use the same
//! bounds-checked [`ByteWriter`]/[`ByteReader`] primitives as every
//! persistence format in the workspace:
//!
//! ```text
//! frame       := u32 body_len | body             (body_len ≤ WIRE_MAX_FRAME)
//! REQUEST     := 0x01 | u64 id | u8 space | bytes genotype | u32 device | str model
//!                [ u8 flags | u32 deadline_ms ]  (flags bit 0 = deadline present)
//! RESPONSE    := 0x02 | u64 id | u64 model_version | f32 score
//! ERROR       := 0x03 | u64 id | u8 code | u32 retry_after_ms | str detail
//! METRICS_REQ := 0x06 | u64 id
//! METRICS     := 0x07 | u64 id | str text        (Prometheus-style exposition;
//!                                                 body_len ≤ WIRE_MAX_METRICS_FRAME)
//! ```
//!
//! The REQUEST trailer is optional for compatibility in both directions:
//! clients without a deadline omit the flags byte entirely (an old server
//! accepts the frame unchanged), and a decoder only reads the trailer when
//! bytes remain after `model` (an old client's frames decode as
//! best-effort). The deadline is a *relative* budget in milliseconds — no
//! wall-clock crosses the wire. Every frame rejects trailing bytes as
//! malformed.
//!
//! Opcodes 0x04 and 0x05 (the retired STATS probe and its snapshot) are
//! unassigned: they decode as an unknown opcode. Everything STATS carried
//! is a family of the METRICS exposition.
//!
//! Request ids are chosen by the client (any nonzero value; responses echo
//! them), which is what makes pipelining possible: a client may keep many
//! requests in flight and match answers by id. Id `0` is reserved for
//! *connection-level* errors — faults not attributable to a single request
//! (malformed frame, admission refusal, shutdown); on receiving one the
//! client must treat every outstanding request as failed.
//!
//! The declared body length is validated against [`WIRE_MAX_FRAME`]
//! **before any body-sized allocation or read**, so a hostile 4-byte header
//! cannot make the server allocate gigabytes.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use nasflat_space::{Arch, Space};
use nasflat_tensor::{ByteReader, ByteWriter};

use crate::error::ServeError;
use crate::request::{ServeRequest, ServeResponse};

/// Largest admissible frame body, bytes. Far above any real request (a
/// FBNet request is under 64 bytes) while keeping the pre-allocation bound
/// tight.
pub const WIRE_MAX_FRAME: usize = 4096;

/// Largest admissible METRICS frame body, bytes. The text exposition is the
/// one frame that outgrows [`WIRE_MAX_FRAME`] (a page of histogram families
/// is tens of kilobytes); clients read the metrics reply under this larger
/// bound. Server-inbound frames keep the tight [`WIRE_MAX_FRAME`] limit.
pub const WIRE_MAX_METRICS_FRAME: usize = 1 << 20;

const OP_REQUEST: u8 = 0x01;
const OP_RESPONSE: u8 = 0x02;
const OP_ERROR: u8 = 0x03;
const OP_METRICS_REQUEST: u8 = 0x06;
const OP_METRICS: u8 = 0x07;

const CODE_UNKNOWN_MODEL: u8 = 1;
const CODE_BAD_QUERY: u8 = 2;
const CODE_BUSY: u8 = 3;
const CODE_SHUTDOWN: u8 = 4;
const CODE_WIRE: u8 = 5;
const CODE_INTERNAL: u8 = 6;
const CODE_DEADLINE: u8 = 7;

/// REQUEST flags bit 0: a `u32 deadline_ms` follows the flags byte.
const REQ_FLAG_DEADLINE: u8 = 0x01;

/// Why reading or decoding a frame failed.
#[non_exhaustive]
#[derive(Debug)]
pub enum WireFault {
    /// The peer declared a body larger than [`WIRE_MAX_FRAME`]; rejected
    /// before allocating or reading the body.
    Oversized {
        /// Body length the peer declared.
        declared: usize,
        /// The limit it exceeded.
        limit: usize,
    },
    /// The body did not decode as a known frame (bad opcode, truncated
    /// fields, invalid UTF-8, zero-length frame).
    Malformed(String),
    /// The connection closed cleanly at a frame boundary.
    Closed,
    /// A transport I/O error below the framing layer.
    Io(std::io::Error),
}

impl core::fmt::Display for WireFault {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireFault::Oversized { declared, limit } => {
                write!(
                    f,
                    "frame of {declared} bytes exceeds the {limit}-byte limit"
                )
            }
            WireFault::Malformed(detail) => write!(f, "malformed frame: {detail}"),
            WireFault::Closed => write!(f, "connection closed"),
            WireFault::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireFault {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireFault::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl WireFault {
    /// A structurally identical fault (ersatz `Clone`; [`std::io::Error`]
    /// is not `Clone`, so the I/O payload is rebuilt from kind + message).
    fn duplicate(&self) -> WireFault {
        match self {
            WireFault::Oversized { declared, limit } => WireFault::Oversized {
                declared: *declared,
                limit: *limit,
            },
            WireFault::Malformed(d) => WireFault::Malformed(d.clone()),
            WireFault::Closed => WireFault::Closed,
            WireFault::Io(e) => WireFault::Io(std::io::Error::new(e.kind(), e.to_string())),
        }
    }
}

/// A query as it travels the wire: the raw, not-yet-validated form of
/// `(id, `[`ServeRequest`]`)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Client-chosen nonzero id echoed by the matching response.
    pub id: u64,
    /// [`Space::wire_code`] of the architecture's search space.
    pub space: u8,
    /// Raw genotype bytes (validated against the space on
    /// [`RequestFrame::into_request`]).
    pub genotype: Vec<u8>,
    /// Device index into the model's device list.
    pub device: u32,
    /// Registry name of the target model.
    pub model: String,
    /// Relative deadline budget, milliseconds; `None` = best-effort.
    /// Travels as an optional flags-byte trailer, so deadline-free frames
    /// are byte-identical to the pre-deadline protocol.
    pub deadline_ms: Option<u32>,
}

impl RequestFrame {
    /// Encodes a [`ServeRequest`] for the wire under the given id.
    pub fn from_request(id: u64, req: &ServeRequest) -> Self {
        RequestFrame {
            id,
            space: req.arch.space().wire_code(),
            genotype: req.arch.genotype().to_vec(),
            device: req.device as u32,
            model: req.model.clone(),
            deadline_ms: req.deadline_ms,
        }
    }

    /// Validates the untrusted payload into a [`ServeRequest`].
    ///
    /// # Errors
    /// [`ServeError::BadQuery`] when the space code is unknown, the id is
    /// the reserved `0`, or the genotype is out of range for the space.
    pub fn into_request(self) -> Result<(u64, ServeRequest), ServeError> {
        let RequestFrame {
            id,
            space,
            genotype,
            device,
            model,
            deadline_ms,
        } = self;
        if id == 0 {
            return Err(ServeError::BadQuery(
                "request id 0 is reserved for connection-level errors".into(),
            ));
        }
        let space = Space::from_wire_code(space)
            .ok_or_else(|| ServeError::BadQuery(format!("unknown space code {space}")))?;
        let arch = Arch::try_new(space, genotype).ok_or_else(|| {
            ServeError::BadQuery(format!(
                "genotype is not a valid {} architecture",
                space.short_name()
            ))
        })?;
        let mut req = ServeRequest::new(model, arch, device as usize);
        req.deadline_ms = deadline_ms;
        Ok((id, req))
    }
}

/// A successful answer on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseFrame {
    /// Echo of the request id.
    pub id: u64,
    /// Registry version of the model that answered.
    pub model_version: u64,
    /// Predicted score, bit-exact over the wire.
    pub score: f32,
}

/// A failure on the wire: per-request when `id` echoes a request,
/// connection-level when `id == 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorFrame {
    /// Echo of the request id, or `0` for connection-level faults.
    pub id: u64,
    /// Stable failure code (see [`ErrorFrame::to_error`] for the mapping).
    pub code: u8,
    /// Millisecond payload of the code: the retry hint of a busy
    /// rejection, or how late a deadline-exceeded request was (`0` for
    /// every other code).
    pub retry_after_ms: u32,
    /// Human-readable detail.
    pub detail: String,
}

impl ErrorFrame {
    /// Encodes a [`ServeError`] for the wire under the given id.
    pub fn from_error(id: u64, err: &ServeError) -> Self {
        let (code, retry_after_ms, detail) = match err {
            ServeError::UnknownModel(name) => (CODE_UNKNOWN_MODEL, 0, name.clone()),
            ServeError::BadQuery(detail) => (CODE_BAD_QUERY, 0, detail.clone()),
            ServeError::Busy { retry_after_ms } => (CODE_BUSY, *retry_after_ms, String::new()),
            ServeError::Shutdown => (CODE_SHUTDOWN, 0, String::new()),
            ServeError::DeadlineExceeded { missed_by_ms } => {
                (CODE_DEADLINE, *missed_by_ms, String::new())
            }
            ServeError::Wire(fault) => (CODE_WIRE, 0, fault.to_string()),
            // Bundle/Io and any future variant: internal fault, detail only.
            other => (CODE_INTERNAL, 0, other.to_string()),
        };
        ErrorFrame {
            id,
            code,
            retry_after_ms,
            detail,
        }
    }

    /// Decodes the frame back into a [`ServeError`]. Unknown codes (a newer
    /// server) surface as [`ServeError::Wire`] faults.
    pub fn to_error(&self) -> ServeError {
        match self.code {
            CODE_UNKNOWN_MODEL => ServeError::UnknownModel(self.detail.clone()),
            CODE_BAD_QUERY => ServeError::BadQuery(self.detail.clone()),
            CODE_BUSY => ServeError::Busy {
                retry_after_ms: self.retry_after_ms,
            },
            CODE_SHUTDOWN => ServeError::Shutdown,
            CODE_DEADLINE => ServeError::DeadlineExceeded {
                missed_by_ms: self.retry_after_ms,
            },
            CODE_WIRE => ServeError::Wire(WireFault::Malformed(self.detail.clone())),
            CODE_INTERNAL => ServeError::Io(std::io::Error::other(self.detail.clone())),
            other => ServeError::Wire(WireFault::Malformed(format!(
                "unknown error code {other}: {}",
                self.detail
            ))),
        }
    }
}

/// A metrics-exposition frame (server → client answer to a metrics
/// request): the full Prometheus-style text page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsFrame {
    /// Echo of the metrics-request id.
    pub id: u64,
    /// The text exposition (`# TYPE` headers plus sample lines).
    pub text: String,
}

/// One decoded wire message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server query.
    Request(RequestFrame),
    /// Server → client answer.
    Response(ResponseFrame),
    /// Server → client failure.
    Error(ErrorFrame),
    /// Client → server metrics probe (body: opcode + id only).
    MetricsRequest(u64),
    /// Server → client metrics text exposition.
    Metrics(MetricsFrame),
}

impl Frame {
    /// Encodes the frame, length prefix included.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = ByteWriter::with_capacity(64);
        match self {
            Frame::Request(r) => {
                body.put_u8(OP_REQUEST);
                body.put_u64(r.id);
                body.put_u8(r.space);
                body.put_bytes(&r.genotype);
                body.put_u32(r.device);
                body.put_str(&r.model);
                // Deadline-free requests omit the trailer entirely, keeping
                // the frame byte-identical to the pre-deadline protocol.
                if let Some(ms) = r.deadline_ms {
                    body.put_u8(REQ_FLAG_DEADLINE);
                    body.put_u32(ms);
                }
            }
            Frame::Response(r) => {
                body.put_u8(OP_RESPONSE);
                body.put_u64(r.id);
                body.put_u64(r.model_version);
                body.put_f32(r.score);
            }
            Frame::Error(e) => {
                body.put_u8(OP_ERROR);
                body.put_u64(e.id);
                body.put_u8(e.code);
                body.put_u32(e.retry_after_ms);
                body.put_str(&e.detail);
            }
            Frame::MetricsRequest(id) => {
                body.put_u8(OP_METRICS_REQUEST);
                body.put_u64(*id);
            }
            Frame::Metrics(m) => {
                body.put_u8(OP_METRICS);
                body.put_u64(m.id);
                body.put_str(&m.text);
            }
        }
        let body = body.into_vec();
        let mut out = ByteWriter::with_capacity(4 + body.len());
        out.put_len(body.len());
        out.put_raw(&body);
        out.into_vec()
    }
}

/// Decodes one frame body (the bytes *after* the length prefix).
fn decode_frame(body: &[u8]) -> Result<Frame, WireFault> {
    let malformed = |e: nasflat_tensor::WireError| WireFault::Malformed(e.to_string());
    let mut r = ByteReader::new(body);
    let op = r.get_u8().map_err(malformed)?;
    let frame = match op {
        OP_REQUEST => {
            let id = r.get_u64().map_err(malformed)?;
            let space = r.get_u8().map_err(malformed)?;
            let genotype = r.get_bytes().map_err(malformed)?.to_vec();
            let device = r.get_u32().map_err(malformed)?;
            let model = r.get_str().map_err(malformed)?.to_string();
            // Optional trailer: old clients end the frame at `model`.
            let deadline_ms = if r.is_empty() {
                None
            } else {
                let flags = r.get_u8().map_err(malformed)?;
                if flags & !REQ_FLAG_DEADLINE != 0 {
                    return Err(WireFault::Malformed(format!(
                        "unknown request flags {flags:#04x}"
                    )));
                }
                if flags & REQ_FLAG_DEADLINE != 0 {
                    Some(r.get_u32().map_err(malformed)?)
                } else {
                    None
                }
            };
            Frame::Request(RequestFrame {
                id,
                space,
                genotype,
                device,
                model,
                deadline_ms,
            })
        }
        OP_RESPONSE => Frame::Response(ResponseFrame {
            id: r.get_u64().map_err(malformed)?,
            model_version: r.get_u64().map_err(malformed)?,
            score: r.get_f32().map_err(malformed)?,
        }),
        OP_ERROR => Frame::Error(ErrorFrame {
            id: r.get_u64().map_err(malformed)?,
            code: r.get_u8().map_err(malformed)?,
            retry_after_ms: r.get_u32().map_err(malformed)?,
            detail: r.get_str().map_err(malformed)?.to_string(),
        }),
        OP_METRICS_REQUEST => Frame::MetricsRequest(r.get_u64().map_err(malformed)?),
        OP_METRICS => Frame::Metrics(MetricsFrame {
            id: r.get_u64().map_err(malformed)?,
            text: r.get_str().map_err(malformed)?.to_string(),
        }),
        other => return Err(WireFault::Malformed(format!("unknown opcode {other:#x}"))),
    };
    if !r.is_empty() {
        return Err(WireFault::Malformed(format!(
            "{} trailing bytes after frame",
            r.remaining()
        )));
    }
    Ok(frame)
}

/// Writes one frame (single `write_all`, so small frames leave in one
/// segment with `TCP_NODELAY`).
///
/// # Errors
/// Any transport error from the underlying writer.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&frame.encode())
}

/// Reads one frame, blocking until it is complete (client side; the server
/// uses an incremental, timeout-tolerant reader internally).
///
/// # Errors
/// [`WireFault::Closed`] on clean EOF at a frame boundary,
/// [`WireFault::Oversized`] before the body is read, [`WireFault::Malformed`]
/// on undecodable bodies or mid-frame EOF, [`WireFault::Io`] otherwise.
pub fn read_frame<R: Read>(r: &mut R, max_frame: usize) -> Result<Frame, WireFault> {
    let mut len4 = [0u8; 4];
    if let Err(e) = r.read_exact(&mut len4) {
        return Err(if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireFault::Closed
        } else {
            WireFault::Io(e)
        });
    }
    let declared = u32::from_le_bytes(len4) as usize;
    if declared == 0 {
        return Err(WireFault::Malformed("zero-length frame".into()));
    }
    if declared > max_frame {
        return Err(WireFault::Oversized {
            declared,
            limit: max_frame,
        });
    }
    let mut body = vec![0u8; declared];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireFault::Malformed("frame truncated by peer".into())
        } else {
            WireFault::Io(e)
        }
    })?;
    decode_frame(&body)
}

/// Incremental frame reader for sockets polled with a read timeout.
///
/// The server's connection readers must notice a shutdown flag while idle,
/// so their sockets carry a short read timeout. A timeout can strike
/// mid-frame; a blocking `read_exact` would then lose the bytes already
/// consumed and desynchronize the stream. `FrameReader` instead accumulates
/// partial bytes across polls: [`FrameReader::poll`] returns `Ok(None)` on
/// timeout and resumes exactly where it left off. The declared length is
/// still checked against the limit as soon as the 4-byte prefix is
/// buffered — before the body accumulates.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty reader, ready to accumulate its first frame.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Tries to complete one frame: `Ok(Some)` when a full frame is
    /// buffered, `Ok(None)` when the read timed out first (call again),
    /// `Err` on a protocol or transport fault.
    ///
    /// # Errors
    /// [`WireFault::Oversized`] as soon as the 4-byte prefix declares a
    /// body over `max_frame`, [`WireFault::Closed`] on clean EOF at a
    /// frame boundary, [`WireFault::Malformed`] on undecodable bodies or
    /// mid-frame EOF, [`WireFault::Io`] on transport errors other than a
    /// timeout.
    pub fn poll<R: Read>(
        &mut self,
        r: &mut R,
        max_frame: usize,
    ) -> Result<Option<Frame>, WireFault> {
        loop {
            if self.buf.len() >= 4 {
                let declared =
                    u32::from_le_bytes(self.buf[..4].try_into().expect("length checked")) as usize;
                if declared == 0 {
                    return Err(WireFault::Malformed("zero-length frame".into()));
                }
                if declared > max_frame {
                    return Err(WireFault::Oversized {
                        declared,
                        limit: max_frame,
                    });
                }
                if self.buf.len() >= 4 + declared {
                    let frame = decode_frame(&self.buf[4..4 + declared])?;
                    self.buf.drain(..4 + declared);
                    return Ok(Some(frame));
                }
            }
            let mut chunk = [0u8; 512];
            match r.read(&mut chunk) {
                Ok(0) => {
                    return Err(if self.buf.is_empty() {
                        WireFault::Closed
                    } else {
                        WireFault::Malformed("connection closed mid-frame".into())
                    });
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(WireFault::Io(e)),
            }
        }
    }
}

/// A blocking client for the ingress wire protocol.
///
/// Speaks the same [`ServeRequest`]/[`ServeResponse`] pair as the
/// in-process registry entry points, over one TCP connection. Supports
/// strict request/response ([`IngressClient::predict`]) and windowed
/// pipelining ([`IngressClient::predict_many`]).
#[derive(Debug)]
pub struct IngressClient {
    stream: TcpStream,
}

impl IngressClient {
    /// Connects to an ingress server.
    ///
    /// # Errors
    /// [`ServeError::Io`] when the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(IngressClient { stream })
    }

    /// Fetches the server's Prometheus-style text metrics exposition:
    /// per-stage latency histograms (queue wait, batch assembly, tape
    /// evaluation, response write), batch/group-size histograms, live
    /// queue-depth and inflight gauges, the ingress ledger, and per-model
    /// serve/hit/miss counters. Answered inline by the connection reader,
    /// so it never queues behind admission. One round trip; must not be interleaved with outstanding
    /// [`IngressClient::predict_many`] calls.
    ///
    /// # Errors
    /// Whatever the server answered with (e.g. [`ServeError::Shutdown`]) or
    /// a local [`ServeError::Wire`] fault.
    pub fn metrics(&mut self) -> Result<String, ServeError> {
        const METRICS_ID: u64 = 1;
        write_frame(&mut self.stream, &Frame::MetricsRequest(METRICS_ID))
            .map_err(|e| ServeError::Wire(WireFault::Io(e)))?;
        // The exposition is the one frame allowed past WIRE_MAX_FRAME.
        match read_frame(&mut self.stream, WIRE_MAX_METRICS_FRAME) {
            Ok(Frame::Metrics(m)) if m.id == METRICS_ID => Ok(m.text),
            Ok(Frame::Metrics(m)) => Err(ServeError::Wire(WireFault::Malformed(format!(
                "metrics response for unknown id {}",
                m.id
            )))),
            Ok(Frame::Error(e)) => Err(e.to_error()),
            Ok(_) => Err(ServeError::Wire(WireFault::Malformed(
                "unexpected frame while awaiting metrics".into(),
            ))),
            Err(fault) => Err(ServeError::Wire(fault)),
        }
    }

    /// One query, one round trip.
    ///
    /// # Errors
    /// Whatever the server answered with (unknown model, bad query, busy,
    /// shutdown) or a local [`ServeError::Wire`] fault.
    pub fn predict(&mut self, req: &ServeRequest) -> Result<ServeResponse, ServeError> {
        self.predict_many(std::slice::from_ref(req), 1)
            .pop()
            .expect("one request yields one result")
    }

    /// Pipelined queries: keeps up to `window` requests in flight and
    /// matches responses by id. Results are returned in input order; a
    /// per-request failure (e.g. a busy rejection) fails only its slot,
    /// while a connection-level fault fails every slot still unanswered.
    pub fn predict_many(
        &mut self,
        reqs: &[ServeRequest],
        window: usize,
    ) -> Vec<Result<ServeResponse, ServeError>> {
        enum Abort {
            Frame(ErrorFrame),
            Fault(WireFault),
        }
        let window = window.max(1);
        let mut out: Vec<Option<Result<ServeResponse, ServeError>>> =
            reqs.iter().map(|_| None).collect();
        let mut sent = 0usize;
        let mut outstanding = 0usize;
        let mut abort: Option<Abort> = None;
        while abort.is_none() && (sent < reqs.len() || outstanding > 0) {
            while sent < reqs.len() && outstanding < window {
                // Ids are input index + 1: nonzero, and trivially invertible.
                let frame =
                    Frame::Request(RequestFrame::from_request(sent as u64 + 1, &reqs[sent]));
                if let Err(e) = write_frame(&mut self.stream, &frame) {
                    abort = Some(Abort::Fault(WireFault::Io(e)));
                    break;
                }
                sent += 1;
                outstanding += 1;
            }
            if abort.is_some() || outstanding == 0 {
                break;
            }
            let slot_of = |id: u64| -> Option<usize> {
                let idx = (id as usize).checked_sub(1)?;
                (idx < sent && out[idx].is_none()).then_some(idx)
            };
            match read_frame(&mut self.stream, WIRE_MAX_FRAME) {
                Ok(Frame::Response(r)) => match slot_of(r.id) {
                    Some(idx) => {
                        out[idx] = Some(Ok(ServeResponse::new(r.score, r.model_version)));
                        outstanding -= 1;
                    }
                    None => {
                        abort = Some(Abort::Fault(WireFault::Malformed(format!(
                            "response for unknown request id {}",
                            r.id
                        ))));
                    }
                },
                Ok(Frame::Error(e)) if e.id == 0 => abort = Some(Abort::Frame(e)),
                Ok(Frame::Error(e)) => match slot_of(e.id) {
                    Some(idx) => {
                        out[idx] = Some(Err(e.to_error()));
                        outstanding -= 1;
                    }
                    None => {
                        abort = Some(Abort::Fault(WireFault::Malformed(format!(
                            "error for unknown request id {}",
                            e.id
                        ))));
                    }
                },
                Ok(Frame::Request(_) | Frame::MetricsRequest(_)) => {
                    abort = Some(Abort::Fault(WireFault::Malformed(
                        "server sent a request frame".into(),
                    )));
                }
                Ok(Frame::Metrics(m)) => {
                    abort = Some(Abort::Fault(WireFault::Malformed(format!(
                        "unsolicited metrics frame (id {})",
                        m.id
                    ))));
                }
                Err(fault) => abort = Some(Abort::Fault(fault)),
            }
        }
        // Unanswered (and unsent) slots inherit the abort reason.
        out.into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    Err(match &abort {
                        Some(Abort::Frame(e)) => e.to_error(),
                        Some(Abort::Fault(f)) => ServeError::Wire(f.duplicate()),
                        None => ServeError::Wire(WireFault::Closed),
                    })
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasflat_space::{Arch, Space};

    fn sample_request() -> ServeRequest {
        ServeRequest::new("prod", Arch::nb201_from_index(4321), 2)
    }

    #[test]
    fn frames_round_trip_through_the_wire() {
        let frames = [
            Frame::Request(RequestFrame::from_request(9, &sample_request())),
            Frame::Request(RequestFrame::from_request(
                10,
                &sample_request().with_deadline_ms(250),
            )),
            Frame::Response(ResponseFrame {
                id: 9,
                model_version: 3,
                score: -0.0, // sign bit must survive
            }),
            Frame::Error(ErrorFrame::from_error(
                0,
                &ServeError::Busy { retry_after_ms: 12 },
            )),
            Frame::MetricsRequest(23),
            Frame::Metrics(MetricsFrame {
                id: 23,
                text: "# TYPE nasflat_queue_depth gauge\nnasflat_queue_depth 0\n".into(),
            }),
        ];
        let mut pipe = Vec::new();
        for f in &frames {
            write_frame(&mut pipe, f).unwrap();
        }
        let mut r = &pipe[..];
        for f in &frames {
            let got = read_frame(&mut r, WIRE_MAX_FRAME).unwrap();
            assert_eq!(&got, f);
            if let (Frame::Response(a), Frame::Response(b)) = (&got, f) {
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
        assert!(matches!(
            read_frame(&mut r, WIRE_MAX_FRAME).unwrap_err(),
            WireFault::Closed
        ));
    }

    #[test]
    fn request_validation_rejects_garbage() {
        let (id, req) = RequestFrame::from_request(5, &sample_request())
            .into_request()
            .unwrap();
        assert_eq!((id, &req.model[..], req.device), (5, "prod", 2));
        assert_eq!(req.arch, Arch::nb201_from_index(4321));

        let bad_space = RequestFrame {
            space: 200,
            ..RequestFrame::from_request(5, &sample_request())
        };
        assert!(matches!(
            bad_space.into_request().unwrap_err(),
            ServeError::BadQuery(d) if d.contains("space code")
        ));
        let bad_genotype = RequestFrame {
            genotype: vec![9; Space::Nb201.genotype_len()], // op 9 > 4
            ..RequestFrame::from_request(5, &sample_request())
        };
        assert!(matches!(
            bad_genotype.into_request().unwrap_err(),
            ServeError::BadQuery(_)
        ));
        let zero_id = RequestFrame::from_request(0, &sample_request());
        assert!(matches!(
            zero_id.into_request().unwrap_err(),
            ServeError::BadQuery(d) if d.contains("reserved")
        ));
    }

    #[test]
    fn oversized_frames_are_rejected_from_the_header_alone() {
        // A 4-byte header declaring a huge body: rejected before any body
        // bytes exist to read (blocking path) or accumulate (poll path).
        let header = (WIRE_MAX_FRAME as u32 + 1).to_le_bytes();
        assert!(matches!(
            read_frame(&mut &header[..], WIRE_MAX_FRAME).unwrap_err(),
            WireFault::Oversized { declared, limit }
                if declared == WIRE_MAX_FRAME + 1 && limit == WIRE_MAX_FRAME
        ));
        let mut fr = FrameReader::new();
        assert!(matches!(
            fr.poll(&mut &header[..], WIRE_MAX_FRAME).unwrap_err(),
            WireFault::Oversized { .. }
        ));
        // Zero-length frames are equally dead on arrival.
        let zero = 0u32.to_le_bytes();
        assert!(matches!(
            read_frame(&mut &zero[..], WIRE_MAX_FRAME).unwrap_err(),
            WireFault::Malformed(_)
        ));
    }

    #[test]
    fn malformed_bodies_are_faults_not_panics() {
        // Unknown opcode.
        let mut w = ByteWriter::new();
        w.put_len(1);
        w.put_u8(0x7F);
        let bytes = w.into_vec();
        assert!(matches!(
            read_frame(&mut &bytes[..], WIRE_MAX_FRAME).unwrap_err(),
            WireFault::Malformed(d) if d.contains("opcode")
        ));
        // Truncated request body (declared length covers only the opcode).
        let mut w = ByteWriter::new();
        w.put_len(1);
        w.put_u8(OP_REQUEST);
        let bytes = w.into_vec();
        assert!(matches!(
            read_frame(&mut &bytes[..], WIRE_MAX_FRAME).unwrap_err(),
            WireFault::Malformed(_)
        ));
        // Trailing junk after a valid body.
        let mut inner = ByteWriter::new();
        inner.put_u8(OP_RESPONSE);
        inner.put_u64(1);
        inner.put_u64(1);
        inner.put_f32(0.5);
        inner.put_u8(0xAA); // extra byte
        let body = inner.into_vec();
        let mut w = ByteWriter::new();
        w.put_len(body.len());
        w.put_raw(&body);
        let bytes = w.into_vec();
        assert!(matches!(
            read_frame(&mut &bytes[..], WIRE_MAX_FRAME).unwrap_err(),
            WireFault::Malformed(d) if d.contains("trailing")
        ));
    }

    /// A reader that delivers its script one item at a time: bytes arrive
    /// in dribs, `None` entries simulate a read timeout.
    struct Script(std::collections::VecDeque<Option<Vec<u8>>>);
    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                Some(Some(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(None) => Err(std::io::ErrorKind::WouldBlock.into()),
                None => Ok(0),
            }
        }
    }

    #[test]
    fn frame_reader_survives_timeouts_mid_frame() {
        let frame = Frame::Response(ResponseFrame {
            id: 7,
            model_version: 1,
            score: 1.25,
        });
        let encoded = frame.encode();
        // Split mid-length-prefix and mid-body, with timeouts interleaved.
        let script: std::collections::VecDeque<Option<Vec<u8>>> = [
            Some(encoded[..2].to_vec()),
            None,
            Some(encoded[2..9].to_vec()),
            None,
            None,
            Some(encoded[9..].to_vec()),
        ]
        .into_iter()
        .collect();
        let mut r = Script(script);
        let mut fr = FrameReader::new();
        let mut polls = 0;
        loop {
            polls += 1;
            match fr.poll(&mut r, WIRE_MAX_FRAME).unwrap() {
                Some(got) => {
                    assert_eq!(got, frame);
                    break;
                }
                None => assert!(polls < 10, "reader never completed the frame"),
            }
        }
        // Clean EOF at the boundary is Closed; mid-frame EOF is Malformed.
        assert!(matches!(
            fr.poll(&mut r, WIRE_MAX_FRAME).unwrap_err(),
            WireFault::Closed
        ));
        let mut short = Script([Some(encoded[..6].to_vec())].into_iter().collect());
        let mut fr = FrameReader::new();
        assert!(matches!(
            fr.poll(&mut short, WIRE_MAX_FRAME).unwrap_err(),
            WireFault::Malformed(d) if d.contains("mid-frame")
        ));
    }

    #[test]
    fn error_frames_round_trip_every_serve_error() {
        let cases = [
            ServeError::UnknownModel("m".into()),
            ServeError::BadQuery("device 9 out of range".into()),
            ServeError::Busy { retry_after_ms: 42 },
            ServeError::Shutdown,
            ServeError::DeadlineExceeded { missed_by_ms: 8 },
        ];
        for err in &cases {
            let frame = ErrorFrame::from_error(3, err);
            let back = frame.to_error();
            // Structural equality: same variant, same payload.
            assert_eq!(format!("{err}"), format!("{back}"));
        }
        // Busy keeps its retry hint through the round trip.
        let busy = ErrorFrame::from_error(1, &ServeError::Busy { retry_after_ms: 42 });
        assert_eq!(busy.retry_after_ms, 42);
        assert!(matches!(
            busy.to_error(),
            ServeError::Busy { retry_after_ms: 42 }
        ));
        // Unknown codes from a newer server degrade to a wire fault.
        let future = ErrorFrame {
            id: 1,
            code: 99,
            retry_after_ms: 0,
            detail: "quota exceeded".into(),
        };
        assert!(matches!(future.to_error(), ServeError::Wire(_)));
        // DeadlineExceeded carries its lateness through the retry slot.
        let late = ErrorFrame::from_error(2, &ServeError::DeadlineExceeded { missed_by_ms: 77 });
        assert_eq!(late.retry_after_ms, 77);
        assert!(matches!(
            late.to_error(),
            ServeError::DeadlineExceeded { missed_by_ms: 77 }
        ));
    }

    #[test]
    fn deadline_trailer_is_backward_and_forward_compatible() {
        // A deadline-free request encodes byte-identically to the
        // pre-deadline protocol: no flags byte at all.
        let plain = Frame::Request(RequestFrame::from_request(5, &sample_request()));
        let with_deadline = Frame::Request(RequestFrame::from_request(
            5,
            &sample_request().with_deadline_ms(100),
        ));
        assert_eq!(plain.encode().len() + 5, with_deadline.encode().len());
        let decoded = read_frame(&mut &plain.encode()[..], WIRE_MAX_FRAME).unwrap();
        assert!(matches!(decoded, Frame::Request(r) if r.deadline_ms.is_none()));
        // The deadline survives frame → ServeRequest validation.
        let Frame::Request(rf) =
            read_frame(&mut &with_deadline.encode()[..], WIRE_MAX_FRAME).unwrap()
        else {
            panic!("request frame expected")
        };
        let (_, req) = rf.into_request().unwrap();
        assert_eq!(req.deadline_ms, Some(100));
        // A flags byte with unknown bits set is rejected, not ignored —
        // a future protocol extension must not silently decode wrong.
        let mut bytes = with_deadline.encode();
        let flags_at = plain.encode().len(); // first trailer byte
        bytes[flags_at] |= 0x80;
        assert!(matches!(
            read_frame(&mut &bytes[..], WIRE_MAX_FRAME).unwrap_err(),
            WireFault::Malformed(d) if d.contains("flags")
        ));
    }

    #[test]
    fn retired_stats_opcodes_decode_as_unknown() {
        // 0x04 (STATS request) and 0x05 (STATS snapshot) carried an id
        // first; with the op retired, the opcode alone already fails.
        for op in [0x04u8, 0x05] {
            let mut w = ByteWriter::new();
            w.put_len(9);
            w.put_u8(op);
            w.put_u64(1);
            let bytes = w.into_vec();
            assert!(matches!(
                read_frame(&mut &bytes[..], WIRE_MAX_FRAME).unwrap_err(),
                WireFault::Malformed(d) if d.starts_with("unknown opcode")
            ));
        }
    }
}
