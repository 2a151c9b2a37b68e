//! The saardb wire protocol: length-prefixed, CRC-framed request/response
//! messages with a versioned hello.
//!
//! ```text
//! frame   := [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! payload := [tag: u8] fields…
//! ```
//!
//! The frame shape is deliberately the WAL record shape (same checksum,
//! [`xmldb_storage::crc32`]): one framing discipline across the system.
//! Integers are little-endian; strings are `[len: u32 LE] [UTF-8 bytes]`.
//!
//! The decoder never panics and never allocates ahead of validation: a
//! frame longer than [`MAX_FRAME_LEN`] is rejected from its header alone,
//! a CRC mismatch is rejected before the payload is parsed, and every
//! field read is bounds-checked ([`ProtoError`] enumerates the failure
//! modes). A session that receives garbage answers with a typed
//! [`Response::Error`] and the *listener* keeps serving other sessions —
//! the fuzz tests in `tests/proto_fuzz.rs` hold the decoder to this.
//!
//! The first frame on a connection must be [`Request::Hello`] carrying
//! the client's [`PROTOCOL_VERSION`]; the server answers
//! [`Response::HelloAck`] echoing that same version (or a typed
//! [`Response::Busy`] when admission control rejects the connection, or
//! `Error{VersionSkew}` when the peer speaks any other version — there is
//! no negotiation, both ends must be the same protocol).
//!
//! Any message may travel in a [`Request::Tagged`]/[`Response::Tagged`]
//! envelope: a client-generated 8-byte request id wrapped around the
//! message, echoed back on the response.

use std::io::{self, Read, Write};
use xmldb_core::EngineKind;
use xmldb_storage::crc32;

/// Protocol version spoken by this build. Bumped on any wire change; a
/// hello announcing any other version is refused with `VersionSkew`.
pub const PROTOCOL_VERSION: u32 = 3;

/// Hard ceiling on one frame's payload (requests carry whole documents
/// for `load`, so this is generous — but a hostile length prefix must
/// never cause an allocation anywhere near it without a CRC check).
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Wire sentinel for "use the server's default engine".
pub const ENGINE_DEFAULT: u8 = 255;

/// Everything that can go wrong decoding a frame or a payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The stream ended mid-frame or a field read ran past the payload.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The declared payload length.
        len: u64,
    },
    /// A zero-length payload (every message carries at least its tag).
    EmptyFrame,
    /// The payload checksum did not match the frame header.
    BadCrc {
        /// CRC the frame header declared.
        expected: u32,
        /// CRC computed over the received payload.
        got: u32,
    },
    /// An unknown message tag.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// The payload had bytes left after the last field of its message.
    TrailingBytes {
        /// How many undecoded bytes remained.
        extra: usize,
    },
    /// The peer speaks a different protocol version.
    VersionSkew {
        /// The version the peer announced.
        theirs: u32,
    },
    /// A field value outside its domain (unknown engine code, …).
    BadValue(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::Oversized { len } => {
                write!(f, "frame length {len} exceeds maximum {MAX_FRAME_LEN}")
            }
            ProtoError::EmptyFrame => write!(f, "empty frame (no message tag)"),
            ProtoError::BadCrc { expected, got } => {
                write!(
                    f,
                    "payload CRC mismatch (header {expected:08x}, computed {got:08x})"
                )
            }
            ProtoError::BadTag(tag) => write!(f, "unknown message tag 0x{tag:02x}"),
            ProtoError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtoError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after message")
            }
            ProtoError::VersionSkew { theirs } => write!(
                f,
                "protocol version skew: peer speaks v{theirs}, this build speaks \
                 only v{PROTOCOL_VERSION}"
            ),
            ProtoError::BadValue(what) => write!(f, "invalid field value: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Typed error codes carried by [`Response::Error`]. Stable on the wire
/// (`u16`); [`ErrorCode::Unknown`] absorbs codes from newer peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Malformed frame or message (the session closes after sending this).
    Proto = 1,
    /// Hello version mismatch.
    VersionSkew = 2,
    /// No document by that name.
    NoSuchDocument = 3,
    /// Document name already in use.
    DocumentExists = 4,
    /// XQ parse/validation failure (or XML parse failure on load).
    Query = 5,
    /// Storage-layer failure.
    Storage = 6,
    /// Runtime evaluation failure.
    Exec = 7,
    /// The request was cancelled by its governor.
    Cancelled = 8,
    /// The request ran past its (session or request) deadline.
    DeadlineExceeded = 9,
    /// The request exhausted its memory budget.
    MemoryExceeded = 10,
    /// The session's transaction was rolled back as a deadlock victim
    /// (retryable: begin again and re-run).
    Deadlock = 11,
    /// Transaction-state misuse (begin inside a transaction, commit
    /// outside one).
    TxnState = 12,
    /// `ExecPrepared` named an unknown statement id.
    NoSuchPrepared = 13,
    /// The server is shutting down.
    ShuttingDown = 14,
    /// Anything else (the message says what).
    Internal = 15,
    /// The server's storage is in read-only degraded mode (disk full):
    /// writes are refused, reads still work. Not auto-retried — backoff
    /// would just hammer a full volume; the mode clears once a checkpoint
    /// reclaims space.
    ReadOnly = 16,
    /// The response would exceed [`MAX_FRAME_LEN`] (the message gives its
    /// size). Nothing of it was sent; the session stays usable.
    ResultTooLarge = 17,
    /// A code this build does not know (forward compatibility).
    Unknown = 0,
}

impl ErrorCode {
    /// Decodes a wire code (unknown codes map to [`ErrorCode::Unknown`]).
    pub fn from_wire(v: u16) -> ErrorCode {
        match v {
            1 => ErrorCode::Proto,
            2 => ErrorCode::VersionSkew,
            3 => ErrorCode::NoSuchDocument,
            4 => ErrorCode::DocumentExists,
            5 => ErrorCode::Query,
            6 => ErrorCode::Storage,
            7 => ErrorCode::Exec,
            8 => ErrorCode::Cancelled,
            9 => ErrorCode::DeadlineExceeded,
            10 => ErrorCode::MemoryExceeded,
            11 => ErrorCode::Deadlock,
            12 => ErrorCode::TxnState,
            13 => ErrorCode::NoSuchPrepared,
            14 => ErrorCode::ShuttingDown,
            15 => ErrorCode::Internal,
            16 => ErrorCode::ReadOnly,
            17 => ErrorCode::ResultTooLarge,
            _ => ErrorCode::Unknown,
        }
    }

    /// Stable lowercase name (metrics labels, CLI rendering).
    pub fn name(&self) -> &'static str {
        match self {
            ErrorCode::Proto => "proto",
            ErrorCode::VersionSkew => "version-skew",
            ErrorCode::NoSuchDocument => "no-such-document",
            ErrorCode::DocumentExists => "document-exists",
            ErrorCode::Query => "query",
            ErrorCode::Storage => "storage",
            ErrorCode::Exec => "exec",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::MemoryExceeded => "memory-exceeded",
            ErrorCode::Deadlock => "deadlock",
            ErrorCode::TxnState => "txn-state",
            ErrorCode::NoSuchPrepared => "no-such-prepared",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal",
            ErrorCode::ReadOnly => "read-only",
            ErrorCode::ResultTooLarge => "result-too-large",
            ErrorCode::Unknown => "unknown",
        }
    }

    /// True for errors that mark scheduling bad luck, not a broken
    /// request: the client should retry (deadlock victims must `begin`
    /// again first).
    pub fn is_retryable(&self) -> bool {
        matches!(self, ErrorCode::Deadlock | ErrorCode::ShuttingDown)
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Handshake; must be the first frame on a connection.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Evaluate a query. Zero-valued limits mean "session default".
    Query {
        /// Document name.
        doc: String,
        /// XQ text.
        query: String,
        /// Engine code ([`engine_to_code`]) or [`ENGINE_DEFAULT`].
        engine: u8,
        /// Per-request deadline in milliseconds (0 = session default).
        timeout_ms: u64,
        /// Per-request memory budget in bytes (0 = session default).
        mem_limit: u64,
    },
    /// Parse/compile/plan once; execute later by id.
    Prepare {
        /// Document name.
        doc: String,
        /// XQ text.
        query: String,
        /// Engine code or [`ENGINE_DEFAULT`].
        engine: u8,
    },
    /// Execute a prepared statement.
    ExecPrepared {
        /// Id from [`Response::Prepared`].
        id: u64,
    },
    /// Begin a session-scoped transaction.
    Begin,
    /// Commit the session's transaction.
    Commit,
    /// Roll back the session's transaction.
    Rollback,
    /// Load (shred) a document.
    Load {
        /// Document name.
        name: String,
        /// XML text.
        xml: String,
    },
    /// Drop a document.
    DropDoc {
        /// Document name.
        name: String,
    },
    /// List loaded documents.
    ListDocs,
    /// Liveness probe.
    Ping,
    /// Orderly goodbye (an open transaction rolls back).
    Close,
    /// Any other request wrapped with a client-generated request id.
    /// The server unwraps it, threads the id through execution (session
    /// table, governor, spans, flight record, slow-query log) and echoes
    /// it on the response envelope. Nesting is rejected.
    Tagged {
        /// Client-generated 8-byte id, unique per attempt.
        request_id: u64,
        /// The actual request.
        inner: Box<Request>,
    },
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Handshake accepted.
    HelloAck {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
        /// This session's id (diagnostics, log correlation).
        session_id: u64,
    },
    /// Admission control rejected the connection — typed, immediate, never
    /// accept-and-stall. Retry later.
    Busy {
        /// Sessions currently being served.
        active: u32,
        /// Connections waiting in the admission queue.
        queued: u32,
        /// Human-readable explanation.
        message: String,
    },
    /// A request failed.
    Error {
        /// Typed code (see [`ErrorCode`]).
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Query result.
    Items {
        /// Number of result items.
        count: u64,
        /// Server-side evaluation time in microseconds.
        elapsed_us: u64,
        /// The items serialized as XML.
        xml: String,
    },
    /// A statement that returns no items succeeded.
    Done {
        /// What happened ("began transaction 7", "loaded doc", …).
        info: String,
    },
    /// A statement was prepared.
    Prepared {
        /// Id to pass to [`Request::ExecPrepared`].
        id: u64,
    },
    /// Document listing.
    Docs {
        /// Committed document names, in name order.
        names: Vec<String>,
    },
    /// Liveness answer.
    Pong,
    /// Any other response wrapped with the request id it answers.
    Tagged {
        /// The id from the [`Request::Tagged`] envelope being answered.
        request_id: u64,
        /// The actual response.
        inner: Box<Response>,
    },
}

// --- primitive codec -------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked payload reader; every method fails with
/// [`ProtoError::Truncated`] instead of panicking.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.buf.len() {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        let raw = self.bytes(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| ProtoError::BadUtf8)
    }

    /// Bytes not yet consumed (a tagged envelope hands them to the inner
    /// message's decoder).
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts every payload byte was consumed — a message with trailing
    /// garbage is rejected, not silently truncated.
    fn finish(self) -> Result<(), ProtoError> {
        let extra = self.buf.len() - self.pos;
        if extra != 0 {
            return Err(ProtoError::TrailingBytes { extra });
        }
        Ok(())
    }
}

// --- message codec ---------------------------------------------------------

impl Request {
    /// Serializes to a frame payload (tag + fields, no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Hello { version } => {
                put_u8(&mut out, 0x01);
                put_u32(&mut out, *version);
            }
            Request::Query {
                doc,
                query,
                engine,
                timeout_ms,
                mem_limit,
            } => {
                put_u8(&mut out, 0x02);
                put_str(&mut out, doc);
                put_str(&mut out, query);
                put_u8(&mut out, *engine);
                put_u64(&mut out, *timeout_ms);
                put_u64(&mut out, *mem_limit);
            }
            Request::Prepare { doc, query, engine } => {
                put_u8(&mut out, 0x03);
                put_str(&mut out, doc);
                put_str(&mut out, query);
                put_u8(&mut out, *engine);
            }
            Request::ExecPrepared { id } => {
                put_u8(&mut out, 0x04);
                put_u64(&mut out, *id);
            }
            Request::Begin => put_u8(&mut out, 0x05),
            Request::Commit => put_u8(&mut out, 0x06),
            Request::Rollback => put_u8(&mut out, 0x07),
            Request::Load { name, xml } => {
                put_u8(&mut out, 0x08);
                put_str(&mut out, name);
                put_str(&mut out, xml);
            }
            Request::DropDoc { name } => {
                put_u8(&mut out, 0x09);
                put_str(&mut out, name);
            }
            Request::ListDocs => put_u8(&mut out, 0x0A),
            Request::Ping => put_u8(&mut out, 0x0B),
            Request::Close => put_u8(&mut out, 0x0C),
            Request::Tagged { request_id, inner } => {
                put_u8(&mut out, 0x0D);
                put_u64(&mut out, *request_id);
                out.extend_from_slice(&inner.encode());
            }
        }
        out
    }

    /// Serializes `self` wrapped in a [`Request::Tagged`] envelope —
    /// what a tracing client sends without building (and cloning into) the
    /// envelope variant itself.
    pub fn encode_tagged(&self, request_id: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_u8(&mut out, 0x0D);
        put_u64(&mut out, request_id);
        out.extend_from_slice(&self.encode());
        out
    }

    /// Parses a frame payload. Never panics; rejects trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let mut r = Reader::new(payload);
        let tag = r.u8().map_err(|_| ProtoError::EmptyFrame)?;
        let req = match tag {
            0x01 => Request::Hello { version: r.u32()? },
            0x02 => Request::Query {
                doc: r.str()?,
                query: r.str()?,
                engine: r.u8()?,
                timeout_ms: r.u64()?,
                mem_limit: r.u64()?,
            },
            0x03 => Request::Prepare {
                doc: r.str()?,
                query: r.str()?,
                engine: r.u8()?,
            },
            0x04 => Request::ExecPrepared { id: r.u64()? },
            0x05 => Request::Begin,
            0x06 => Request::Commit,
            0x07 => Request::Rollback,
            0x08 => Request::Load {
                name: r.str()?,
                xml: r.str()?,
            },
            0x09 => Request::DropDoc { name: r.str()? },
            0x0A => Request::ListDocs,
            0x0B => Request::Ping,
            0x0C => Request::Close,
            0x0D => {
                let request_id = r.u64()?;
                let inner = Request::decode(r.bytes(r.remaining())?)?;
                if matches!(inner, Request::Tagged { .. }) {
                    return Err(ProtoError::BadValue("nested tagged request"));
                }
                Request::Tagged {
                    request_id,
                    inner: Box::new(inner),
                }
            }
            other => return Err(ProtoError::BadTag(other)),
        };
        r.finish()?;
        Ok(req)
    }

    /// Short operation name for metrics labels.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::Query { .. } => "query",
            Request::Prepare { .. } => "prepare",
            Request::ExecPrepared { .. } => "exec-prepared",
            Request::Begin => "begin",
            Request::Commit => "commit",
            Request::Rollback => "rollback",
            Request::Load { .. } => "load",
            Request::DropDoc { .. } => "drop",
            Request::ListDocs => "ls",
            Request::Ping => "ping",
            Request::Close => "close",
            Request::Tagged { inner, .. } => inner.op_name(),
        }
    }
}

impl Response {
    /// Serializes to a frame payload (tag + fields, no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::HelloAck {
                version,
                session_id,
            } => {
                put_u8(&mut out, 0x81);
                put_u32(&mut out, *version);
                put_u64(&mut out, *session_id);
            }
            Response::Busy {
                active,
                queued,
                message,
            } => {
                put_u8(&mut out, 0x82);
                put_u32(&mut out, *active);
                put_u32(&mut out, *queued);
                put_str(&mut out, message);
            }
            Response::Error { code, message } => {
                put_u8(&mut out, 0x83);
                put_u16(&mut out, *code as u16);
                put_str(&mut out, message);
            }
            Response::Items {
                count,
                elapsed_us,
                xml,
            } => {
                put_u8(&mut out, 0x84);
                put_u64(&mut out, *count);
                put_u64(&mut out, *elapsed_us);
                put_str(&mut out, xml);
            }
            Response::Done { info } => {
                put_u8(&mut out, 0x85);
                put_str(&mut out, info);
            }
            Response::Prepared { id } => {
                put_u8(&mut out, 0x86);
                put_u64(&mut out, *id);
            }
            Response::Docs { names } => {
                put_u8(&mut out, 0x87);
                put_u32(&mut out, names.len() as u32);
                for n in names {
                    put_str(&mut out, n);
                }
            }
            Response::Pong => put_u8(&mut out, 0x88),
            Response::Tagged { request_id, inner } => {
                put_u8(&mut out, 0x89);
                put_u64(&mut out, *request_id);
                out.extend_from_slice(&inner.encode());
            }
        }
        out
    }

    /// Parses a frame payload. Never panics; rejects trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let mut r = Reader::new(payload);
        let tag = r.u8().map_err(|_| ProtoError::EmptyFrame)?;
        let resp = match tag {
            0x81 => Response::HelloAck {
                version: r.u32()?,
                session_id: r.u64()?,
            },
            0x82 => Response::Busy {
                active: r.u32()?,
                queued: r.u32()?,
                message: r.str()?,
            },
            0x83 => Response::Error {
                code: ErrorCode::from_wire(r.u16()?),
                message: r.str()?,
            },
            0x84 => Response::Items {
                count: r.u64()?,
                elapsed_us: r.u64()?,
                xml: r.str()?,
            },
            0x85 => Response::Done { info: r.str()? },
            0x86 => Response::Prepared { id: r.u64()? },
            0x87 => {
                let n = r.u32()? as usize;
                // Bound the pre-allocation by what the payload could
                // actually hold (≥ 4 bytes per entry), so a hostile count
                // cannot balloon memory before the reads fail.
                let mut names = Vec::with_capacity(n.min(payload.len() / 4 + 1));
                for _ in 0..n {
                    names.push(r.str()?);
                }
                Response::Docs { names }
            }
            0x88 => Response::Pong,
            0x89 => {
                let request_id = r.u64()?;
                let inner = Response::decode(r.bytes(r.remaining())?)?;
                if matches!(inner, Response::Tagged { .. }) {
                    return Err(ProtoError::BadValue("nested tagged response"));
                }
                Response::Tagged {
                    request_id,
                    inner: Box::new(inner),
                }
            }
            other => return Err(ProtoError::BadTag(other)),
        };
        r.finish()?;
        Ok(resp)
    }

    /// Strips a [`Response::Tagged`] envelope, returning the id (if
    /// any) and the inner response.
    pub fn untag(self) -> (Option<u64>, Response) {
        match self {
            Response::Tagged { request_id, inner } => (Some(request_id), *inner),
            other => (None, other),
        }
    }
}

// --- engine codes ----------------------------------------------------------

/// Engine → stable wire code.
pub fn engine_to_code(engine: EngineKind) -> u8 {
    match engine {
        EngineKind::M1InMemory => 0,
        EngineKind::NaiveScan => 1,
        EngineKind::M2Storage => 2,
        EngineKind::M3Algebraic => 3,
        EngineKind::M4CostBased => 4,
        EngineKind::M4Pipelined => 5,
    }
}

/// Wire code → engine ([`ENGINE_DEFAULT`] and unknown codes return
/// `None`; the server substitutes its configured default for the former
/// and rejects the latter).
pub fn engine_from_code(code: u8) -> Option<EngineKind> {
    match code {
        0 => Some(EngineKind::M1InMemory),
        1 => Some(EngineKind::NaiveScan),
        2 => Some(EngineKind::M2Storage),
        3 => Some(EngineKind::M3Algebraic),
        4 => Some(EngineKind::M4CostBased),
        5 => Some(EngineKind::M4Pipelined),
        _ => None,
    }
}

// --- frame I/O -------------------------------------------------------------

/// What [`read_frame`] can report besides a good payload.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection at a frame boundary (orderly).
    Eof,
    /// Transport failure (includes the peer dying mid-frame).
    Io(io::Error),
    /// The frame itself was malformed (length, CRC, …). The stream can no
    /// longer be trusted to be frame-aligned; close it after answering.
    Proto(ProtoError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "I/O error: {e}"),
            FrameError::Proto(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

impl From<ProtoError> for FrameError {
    fn from(e: ProtoError) -> FrameError {
        FrameError::Proto(e)
    }
}

/// Writes one frame: header (length + CRC) then payload, then flush. A
/// payload over [`MAX_FRAME_LEN`], which no reader would accept, is
/// refused with [`io::ErrorKind::InvalidInput`] before a byte is written.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds maximum {MAX_FRAME_LEN}",
                payload.len()
            ),
        ));
    }
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// A validated frame header: declared payload length (already checked
/// against the caller's ceiling) and the CRC the payload must match.
#[derive(Debug, Clone, Copy)]
pub struct FrameHeader {
    /// Declared payload length in bytes (`0 < len <= max_len`).
    pub len: usize,
    /// CRC-32 the payload must hash to.
    pub crc: u32,
}

/// Reads and validates one frame's 8-byte header. A clean close *before*
/// the first header byte is [`FrameError::Eof`]; a close mid-header is
/// [`FrameError::Io`]. Split out from [`read_frame`] so a server can
/// start a per-frame deadline clock the moment a header arrives — a peer
/// trickling the payload one byte a second is then bounded by the frame
/// deadline, not trusted indefinitely.
pub fn read_frame_header(r: &mut impl Read, max_len: usize) -> Result<FrameHeader, FrameError> {
    let mut header = [0u8; 8];
    // First byte decides Eof vs mid-frame truncation.
    let mut got = 0usize;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(FrameError::Eof),
            Ok(0) => return Err(FrameError::Io(io::ErrorKind::UnexpectedEof.into())),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
    if len > max_len {
        return Err(FrameError::Proto(ProtoError::Oversized { len: len as u64 }));
    }
    if len == 0 {
        return Err(FrameError::Proto(ProtoError::EmptyFrame));
    }
    Ok(FrameHeader { len, crc })
}

/// Reads the payload a validated [`FrameHeader`] announced and checks its
/// CRC. Any short read is [`FrameError::Io`].
pub fn read_frame_body(r: &mut impl Read, header: FrameHeader) -> Result<Vec<u8>, FrameError> {
    let mut payload = vec![0u8; header.len];
    r.read_exact(&mut payload).map_err(FrameError::Io)?;
    let got_crc = crc32(&payload);
    if got_crc != header.crc {
        return Err(FrameError::Proto(ProtoError::BadCrc {
            expected: header.crc,
            got: got_crc,
        }));
    }
    Ok(payload)
}

/// Reads one frame's payload, verifying length and CRC.
///
/// A clean close *between* frames is [`FrameError::Eof`]; a close (or any
/// transport error) mid-frame is [`FrameError::Io`]; a malformed header
/// or checksum is [`FrameError::Proto`] — the caller answers with a typed
/// error and drops the connection, because after framing garbage the byte
/// stream cannot be re-aligned.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<Vec<u8>, FrameError> {
    let header = read_frame_header(r, max_len)?;
    read_frame_body(r, header)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let payload = req.encode();
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let payload = resp.encode();
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Hello {
            version: PROTOCOL_VERSION,
        });
        roundtrip_req(Request::Query {
            doc: "dblp".into(),
            query: "//author".into(),
            engine: ENGINE_DEFAULT,
            timeout_ms: 250,
            mem_limit: 1 << 20,
        });
        roundtrip_req(Request::Prepare {
            doc: "d".into(),
            query: "//n".into(),
            engine: engine_to_code(EngineKind::M4Pipelined),
        });
        roundtrip_req(Request::ExecPrepared { id: 42 });
        roundtrip_req(Request::Begin);
        roundtrip_req(Request::Commit);
        roundtrip_req(Request::Rollback);
        roundtrip_req(Request::Load {
            name: "x".into(),
            xml: "<a>ü</a>".into(),
        });
        roundtrip_req(Request::DropDoc { name: "x".into() });
        roundtrip_req(Request::ListDocs);
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Close);
        roundtrip_req(Request::Tagged {
            request_id: 0xDEAD_BEEF_0000_0001,
            inner: Box::new(Request::Query {
                doc: "d".into(),
                query: "//x".into(),
                engine: ENGINE_DEFAULT,
                timeout_ms: 0,
                mem_limit: 0,
            }),
        });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::HelloAck {
            version: PROTOCOL_VERSION,
            session_id: 7,
        });
        roundtrip_resp(Response::Busy {
            active: 64,
            queued: 16,
            message: "server at capacity".into(),
        });
        roundtrip_resp(Response::Error {
            code: ErrorCode::Deadlock,
            message: "deadlock victim".into(),
        });
        roundtrip_resp(Response::Items {
            count: 3,
            elapsed_us: 1234,
            xml: "<n/><n/><n/>".into(),
        });
        roundtrip_resp(Response::Done {
            info: "began transaction 9".into(),
        });
        roundtrip_resp(Response::Prepared { id: 5 });
        roundtrip_resp(Response::Docs {
            names: vec!["a".into(), "b".into()],
        });
        roundtrip_resp(Response::Pong);
        roundtrip_resp(Response::Tagged {
            request_id: 7,
            inner: Box::new(Response::Done { info: "ok".into() }),
        });
    }

    #[test]
    fn tagged_envelopes_carry_op_names_and_untag() {
        let req = Request::Tagged {
            request_id: 9,
            inner: Box::new(Request::Begin),
        };
        assert_eq!(req.op_name(), "begin");
        let (id, inner) = Response::Tagged {
            request_id: 9,
            inner: Box::new(Response::Pong),
        }
        .untag();
        assert_eq!(id, Some(9));
        assert_eq!(inner, Response::Pong);
        assert_eq!(Response::Pong.untag(), (None, Response::Pong));
    }

    #[test]
    fn nested_tagged_envelopes_rejected() {
        let nested = Request::Tagged {
            request_id: 1,
            inner: Box::new(Request::Tagged {
                request_id: 2,
                inner: Box::new(Request::Ping),
            }),
        };
        assert_eq!(
            Request::decode(&nested.encode()),
            Err(ProtoError::BadValue("nested tagged request"))
        );
        let nested = Response::Tagged {
            request_id: 1,
            inner: Box::new(Response::Tagged {
                request_id: 2,
                inner: Box::new(Response::Pong),
            }),
        };
        assert_eq!(
            Response::decode(&nested.encode()),
            Err(ProtoError::BadValue("nested tagged response"))
        );
    }

    #[test]
    fn frame_roundtrip_over_a_buffer() {
        let req = Request::Query {
            doc: "d".into(),
            query: "//x".into(),
            engine: 4,
            timeout_ms: 0,
            mem_limit: 0,
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        let payload = read_frame(&mut wire.as_slice(), MAX_FRAME_LEN).unwrap();
        assert_eq!(Request::decode(&payload).unwrap(), req);
        // Nothing left: the next read is a clean EOF.
        let mut rest = &wire[wire.len()..];
        assert!(matches!(
            read_frame(&mut rest, MAX_FRAME_LEN),
            Err(FrameError::Eof)
        ));
    }

    #[test]
    fn bad_crc_is_typed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Ping.encode()).unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut wire.as_slice(), MAX_FRAME_LEN),
            Err(FrameError::Proto(ProtoError::BadCrc { .. }))
        ));
    }

    #[test]
    fn oversized_length_rejected_from_header() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut wire.as_slice(), MAX_FRAME_LEN),
            Err(FrameError::Proto(ProtoError::Oversized { .. }))
        ));
    }

    #[test]
    fn truncated_payload_is_io() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Ping.encode()).unwrap();
        wire.pop();
        assert!(matches!(
            read_frame(&mut wire.as_slice(), MAX_FRAME_LEN),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Request::Ping.encode();
        payload.push(0);
        assert_eq!(
            Request::decode(&payload),
            Err(ProtoError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn engine_codes_roundtrip() {
        for engine in EngineKind::ALL {
            assert_eq!(engine_from_code(engine_to_code(engine)), Some(engine));
        }
        assert_eq!(engine_from_code(ENGINE_DEFAULT), None);
        // Code 6 is retired: a client still sending it gets the typed
        // unknown-engine error, never some other engine.
        assert_eq!(engine_from_code(6), None);
    }
}
