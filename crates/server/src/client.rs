//! Blocking protocol client — what `saardb shell --connect` and the load
//! generator speak.
//!
//! A [`Client`] owns one TCP connection and one protocol session. The
//! constructor performs the versioned hello handshake, so a successfully
//! built client is known to speak the server's exact protocol version.
//! All methods are strictly request/response (the protocol has no
//! pipelining), which keeps error attribution trivial: an [`Err`] always
//! belongs to the call that returned it.

use crate::proto::{
    read_frame, write_frame, ErrorCode, FrameError, Request, Response, ENGINE_DEFAULT,
    MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Everything a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, or the server hung up).
    Io(io::Error),
    /// The bytes on the wire didn't parse as a protocol frame/response.
    Proto(String),
    /// The server rejected the connection at admission: `(active, queued,
    /// message)`. The connection is closed; retry later, against policy.
    Busy(u32, u32, String),
    /// A typed error response from the server.
    Server(ErrorCode, String),
    /// The server answered, but with a response type this call didn't
    /// expect (protocol desync or a server bug).
    Unexpected(String),
    /// A [`RetryingClient`] spent its whole attempt budget on a failure
    /// its policy considers retryable; `last` is the final attempt's
    /// error.
    RetriesExhausted {
        /// Attempts made (the first try plus every retry).
        attempts: u32,
        /// The error the final attempt failed with.
        last: Box<ClientError>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Proto(m) => write!(f, "protocol error: {m}"),
            ClientError::Busy(active, queued, m) => {
                write!(f, "server busy ({active} active, {queued} queued): {m}")
            }
            ClientError::Server(code, m) => write!(f, "server error [{}]: {m}", code.name()),
            ClientError::Unexpected(m) => write!(f, "unexpected response: {m}"),
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempt(s): {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = Result<T, ClientError>;

/// A query's answer: item count, server-side elapsed time, and the
/// serialized items.
#[derive(Debug, Clone)]
pub struct QueryReply {
    /// Number of result items.
    pub count: u64,
    /// Server-side evaluation time in microseconds.
    pub elapsed_us: u64,
    /// The result serialized as XML, one line per item.
    pub xml: String,
}

/// Per-request knobs; zero fields mean "server default".
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryParams {
    /// Engine code ([`crate::proto::engine_to_code`]); `None` = server
    /// default engine.
    pub engine: Option<u8>,
    /// Wall-clock deadline in milliseconds.
    pub timeout_ms: u64,
    /// Memory budget in bytes.
    pub mem_limit: u64,
}

/// A blocking saardb protocol client (one connection, one session).
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    session_id: u64,
    /// Wire request id to stamp on the next request; consumed by the next
    /// round trip.
    pending_tag: Option<u64>,
}

impl Client {
    /// Connects and performs the hello handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Client> {
        let stream = TcpStream::connect(addr)?;
        Client::handshake(stream)
    }

    /// Like [`Client::connect`] but bounds the TCP connect (useful for
    /// load generators probing a saturated server).
    pub fn connect_timeout(addr: &std::net::SocketAddr, timeout: Duration) -> ClientResult<Client> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        Client::handshake(stream)
    }

    fn handshake(stream: TcpStream) -> ClientResult<Client> {
        let _ = stream.set_nodelay(true);
        let mut client = Client {
            stream,
            session_id: 0,
            pending_tag: None,
        };
        match client.roundtrip(&Request::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Response::HelloAck { session_id, .. } => {
                client.session_id = session_id;
                Ok(client)
            }
            Response::Busy {
                active,
                queued,
                message,
            } => Err(ClientError::Busy(active, queued, message)),
            Response::Error { code, message } => Err(ClientError::Server(code, message)),
            other => Err(ClientError::Unexpected(format!(
                "{other:?} in response to Hello"
            ))),
        }
    }

    /// The server-assigned session id.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Stamps the *next* request with a wire request id (a tracing
    /// envelope): the server threads the id through its governor, trace
    /// spans, flight recorder and slow-query log, and echoes it on the
    /// response.
    pub fn tag_next(&mut self, request_id: u64) {
        self.pending_tag = Some(request_id);
    }

    /// Sets a read timeout on the connection (`None` = block forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> ClientResult<()> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    fn roundtrip(&mut self, request: &Request) -> ClientResult<Response> {
        let tag = self.pending_tag.take();
        let payload = match tag {
            Some(request_id) => request.encode_tagged(request_id),
            None => request.encode(),
        };
        write_frame(&mut self.stream, &payload)?;
        let payload = read_frame(&mut self.stream, MAX_FRAME_LEN).map_err(|e| match e {
            FrameError::Eof => ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::Proto(e) => ClientError::Proto(e.to_string()),
        })?;
        let response = Response::decode(&payload).map_err(|e| ClientError::Proto(e.to_string()))?;
        // Strip the echo envelope. A response tagged with a *different*
        // id than the request means the stream desynced — that is a
        // protocol error, not something to paper over.
        let (echoed, response) = response.untag();
        if let (Some(sent), Some(echo)) = (tag, echoed) {
            if sent != echo {
                return Err(ClientError::Proto(format!(
                    "response request-id mismatch: sent {sent:016x}, got {echo:016x}"
                )));
            }
        }
        Ok(response)
    }

    /// As [`Client::roundtrip`], then maps the typed failure responses
    /// every call can receive.
    fn call(&mut self, request: &Request) -> ClientResult<Response> {
        match self.roundtrip(request)? {
            Response::Error { code, message } => Err(ClientError::Server(code, message)),
            Response::Busy {
                active,
                queued,
                message,
            } => Err(ClientError::Busy(active, queued, message)),
            ok => Ok(ok),
        }
    }

    fn expect_done(&mut self, request: &Request) -> ClientResult<String> {
        match self.call(request)? {
            Response::Done { info } => Ok(info),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    fn expect_items(&mut self, request: &Request) -> ClientResult<QueryReply> {
        match self.call(request)? {
            Response::Items {
                count,
                elapsed_us,
                xml,
            } => Ok(QueryReply {
                count,
                elapsed_us,
                xml,
            }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Round-trip liveness probe.
    pub fn ping(&mut self) -> ClientResult<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Evaluates `query` against `doc`.
    pub fn query(
        &mut self,
        doc: &str,
        query: &str,
        params: QueryParams,
    ) -> ClientResult<QueryReply> {
        self.expect_items(&Request::Query {
            doc: doc.to_string(),
            query: query.to_string(),
            engine: params.engine.unwrap_or(ENGINE_DEFAULT),
            timeout_ms: params.timeout_ms,
            mem_limit: params.mem_limit,
        })
    }

    /// Compiles `query` server-side; returns the session-scoped statement
    /// id for [`Client::exec_prepared`].
    pub fn prepare(&mut self, doc: &str, query: &str, engine: Option<u8>) -> ClientResult<u64> {
        match self.call(&Request::Prepare {
            doc: doc.to_string(),
            query: query.to_string(),
            engine: engine.unwrap_or(ENGINE_DEFAULT),
        })? {
            Response::Prepared { id } => Ok(id),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Executes a statement previously prepared in this session.
    pub fn exec_prepared(&mut self, id: u64) -> ClientResult<QueryReply> {
        self.expect_items(&Request::ExecPrepared { id })
    }

    /// Begins the session transaction.
    pub fn begin(&mut self) -> ClientResult<String> {
        self.expect_done(&Request::Begin)
    }

    /// Commits the session transaction.
    pub fn commit(&mut self) -> ClientResult<String> {
        self.expect_done(&Request::Commit)
    }

    /// Rolls back the session transaction.
    pub fn rollback(&mut self) -> ClientResult<String> {
        self.expect_done(&Request::Rollback)
    }

    /// Loads `xml` as document `name`.
    pub fn load(&mut self, name: &str, xml: &str) -> ClientResult<String> {
        self.expect_done(&Request::Load {
            name: name.to_string(),
            xml: xml.to_string(),
        })
    }

    /// Drops document `name`.
    pub fn drop_doc(&mut self, name: &str) -> ClientResult<String> {
        self.expect_done(&Request::DropDoc {
            name: name.to_string(),
        })
    }

    /// Lists the server's documents.
    pub fn list_docs(&mut self) -> ClientResult<Vec<String>> {
        match self.call(&Request::ListDocs)? {
            Response::Docs { names } => Ok(names),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Polite goodbye; the server acknowledges and both sides close.
    pub fn close(mut self) -> ClientResult<()> {
        let _ = self.expect_done(&Request::Close)?;
        Ok(())
    }
}

// --- retry layer -----------------------------------------------------------

/// How a [`RetryingClient`] responds to retryable failures: a budget of
/// attempts with capped, jittered exponential backoff between them, and
/// whether a lost connection may be re-dialed.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempt budget (the first try counts; minimum 1). When a
    /// retryable failure burns the whole budget the call returns
    /// [`ClientError::RetriesExhausted`] carrying the last error.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub initial_backoff: Duration,
    /// Backoff ceiling (the doubling stops here).
    pub max_backoff: Duration,
    /// Whether a broken connection may be re-dialed. Even with this set,
    /// non-idempotent statements whose connection died mid-call are NOT
    /// retried — the client cannot know whether the server applied them.
    pub reconnect: bool,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            initial_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            reconnect: true,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries and never reconnects — [`RetryingClient`]
    /// behaves like a plain [`Client`] with state tracking.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            initial_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            reconnect: false,
        }
    }

    /// Backoff before retry number `retry` (0-based): capped exponential
    /// with full jitter in the upper half, so a thundering herd of
    /// rejected clients decorrelates instead of re-arriving in lockstep.
    fn backoff(&self, retry: u32, seed: &mut u64) -> Duration {
        let exp = self
            .initial_backoff
            .saturating_mul(1u32 << retry.min(16))
            .min(self.max_backoff);
        let half = exp / 2;
        let jitter_range = exp.saturating_sub(half).as_millis() as u64;
        let jitter = if jitter_range == 0 {
            0
        } else {
            xorshift64(seed) % (jitter_range + 1)
        };
        half + Duration::from_millis(jitter)
    }
}

/// Cheap deterministic PRNG for backoff jitter (no external dependency;
/// cryptographic quality is irrelevant here).
fn xorshift64(seed: &mut u64) -> u64 {
    let mut x = *seed;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *seed = x;
    x
}

/// Whether an error aborts the call or earns another attempt.
enum Disposition {
    Fatal,
    Retry,
}

/// A [`Client`] wrapped in a [`RetryPolicy`]: typed retryable failures
/// (admission `Busy`, queue timeouts, deadlock victims) are retried with
/// capped jittered backoff, and a lost connection is re-dialed — with one
/// hard rule: a non-idempotent statement whose connection died mid-call,
/// or any statement inside an open transaction the server has since lost,
/// is *never* silently replayed. Those surface immediately so the caller
/// can decide (re-`begin` and replay, or give up).
///
/// The wrapper tracks the transaction state (`begin`/`commit`/`rollback`)
/// itself, because retry safety depends on it: reads outside a
/// transaction reconnect-and-retry freely; anything inside one cannot.
#[derive(Debug)]
pub struct RetryingClient {
    addr: std::net::SocketAddr,
    policy: RetryPolicy,
    client: Option<Client>,
    in_txn: bool,
    seed: u64,
    retries: u64,
    connect_timeout: Duration,
    /// The wire request id of the most recent attempt (see
    /// [`RetryingClient::last_request_id`]).
    last_request_id: Option<u64>,
}

impl RetryingClient {
    /// Resolves `addr` and dials it (connect failures already go through
    /// the retry policy, so a briefly unreachable server is tolerated).
    pub fn connect(addr: impl ToSocketAddrs, policy: RetryPolicy) -> ClientResult<RetryingClient> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ))
        })?;
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
            | 1;
        let mut client = RetryingClient {
            addr,
            policy,
            client: None,
            in_txn: false,
            seed,
            retries: 0,
            connect_timeout: Duration::from_secs(5),
            last_request_id: None,
        };
        client.run(true, |_| Ok(()))?;
        Ok(client)
    }

    /// True while this client believes it holds an open server-side
    /// transaction.
    pub fn in_txn(&self) -> bool {
        self.in_txn
    }

    /// Retries performed over this client's lifetime (attempts beyond
    /// each call's first) — the chaos bench's convergence measure.
    pub fn total_retries(&self) -> u64 {
        self.retries
    }

    /// The server-assigned id of the current session, if connected.
    pub fn session_id(&self) -> Option<u64> {
        self.client.as_ref().map(Client::session_id)
    }

    /// The wire request id of the most recent attempt this client made:
    /// the handle for joining a client-side failure (including
    /// [`ClientError::RetriesExhausted`]) to the server's flight record,
    /// span tree and slow-query log for that exact attempt. The low 16
    /// bits are the attempt number, so every retry of one statement is a
    /// distinct, correlated id.
    pub fn last_request_id(&self) -> Option<u64> {
        self.last_request_id
    }

    fn ensure_connected(&mut self) -> ClientResult<&mut Client> {
        if self.client.is_none() {
            self.client = Some(Client::connect_timeout(&self.addr, self.connect_timeout)?);
        }
        Ok(self.client.as_mut().expect("just connected"))
    }

    /// The retry loop every call runs through. `idempotent` marks calls
    /// that may be blindly replayed after a connection died mid-call;
    /// connect-phase failures are always replayable (the statement never
    /// ran).
    fn run<T>(
        &mut self,
        idempotent: bool,
        mut op: impl FnMut(&mut Client) -> ClientResult<T>,
    ) -> ClientResult<T> {
        let budget = self.policy.max_attempts.max(1);
        let mut attempt = 0u32;
        // One random statement id per call; each attempt appends its
        // ordinal in the low 16 bits, so every wire request id is unique
        // AND all attempts of one statement share a common prefix an
        // operator can grep the server's flight recorder for.
        let statement = xorshift64(&mut self.seed) & 0xFFFF_FFFF_FFFF;
        loop {
            let request_id = (statement << 16) | u64::from(attempt & 0xFFFF);
            let (err, connecting) = match self.ensure_connected() {
                Ok(client) => {
                    client.tag_next(request_id);
                    match op(client) {
                        Ok(v) => {
                            self.last_request_id = Some(request_id);
                            return Ok(v);
                        }
                        Err(e) => (e, false),
                    }
                }
                Err(e) => (e, true),
            };
            self.last_request_id = Some(request_id);
            match self.classify(&err, idempotent, connecting) {
                Disposition::Fatal => return Err(err),
                Disposition::Retry => {
                    attempt += 1;
                    if attempt >= budget {
                        eprintln!(
                            "saardb-client: req={request_id:016x} giving up after {attempt} attempt(s): {err}"
                        );
                        return Err(ClientError::RetriesExhausted {
                            attempts: attempt,
                            last: Box::new(err),
                        });
                    }
                    self.retries += 1;
                    eprintln!(
                        "saardb-client: req={request_id:016x} attempt {attempt} failed ({err}); retrying"
                    );
                    std::thread::sleep(self.policy.backoff(attempt - 1, &mut self.seed));
                }
            }
        }
    }

    /// The retry rules, with their side effects on connection and
    /// transaction state.
    fn classify(&mut self, e: &ClientError, idempotent: bool, connecting: bool) -> Disposition {
        match e {
            // Admission rejection (queue full or queue-wait timeout): the
            // server closed the connection after answering; nothing ran.
            // Always retryable — that is the whole point of the typed
            // Busy answer.
            ClientError::Busy(..) => {
                self.client = None;
                Disposition::Retry
            }
            ClientError::Server(code, _) => match code {
                // The server rolled the victim back. Outside a
                // transaction (a bare statement) retrying is safe; inside
                // one the client's statements are gone — surface so the
                // caller re-begins and replays.
                ErrorCode::Deadlock => {
                    if self.in_txn {
                        self.in_txn = false;
                        Disposition::Fatal
                    } else {
                        Disposition::Retry
                    }
                }
                ErrorCode::ShuttingDown => {
                    self.client = None;
                    if self.in_txn {
                        self.in_txn = false;
                        Disposition::Fatal
                    } else {
                        Disposition::Retry
                    }
                }
                // Read-only degraded mode is not backed off against:
                // hammering a full disk helps nobody. Callers see the
                // typed code and decide.
                _ => Disposition::Fatal,
            },
            ClientError::Io(_) => {
                self.client = None;
                if connecting {
                    // The statement never reached the server.
                    if self.policy.reconnect {
                        Disposition::Retry
                    } else {
                        Disposition::Fatal
                    }
                } else if self.in_txn {
                    // Connection died mid-transaction: the server rolls
                    // the transaction back on disconnect. Surface it.
                    self.in_txn = false;
                    Disposition::Fatal
                } else if self.policy.reconnect && idempotent {
                    Disposition::Retry
                } else {
                    // Mid-call death of a non-idempotent statement: the
                    // server may or may not have applied it. Never guess.
                    Disposition::Fatal
                }
            }
            ClientError::Proto(_) | ClientError::Unexpected(_) => {
                self.client = None;
                Disposition::Fatal
            }
            ClientError::RetriesExhausted { .. } => Disposition::Fatal,
        }
    }

    /// Round-trip liveness probe (idempotent).
    pub fn ping(&mut self) -> ClientResult<()> {
        self.run(true, |c| c.ping())
    }

    /// Evaluates `query` against `doc` (idempotent: reads reconnect and
    /// retry freely outside a transaction).
    pub fn query(
        &mut self,
        doc: &str,
        query: &str,
        params: QueryParams,
    ) -> ClientResult<QueryReply> {
        self.run(true, |c| c.query(doc, query, params))
    }

    /// Compiles `query` server-side. Re-preparing is harmless, so this
    /// retries like a read; note the returned id dies with its session —
    /// after a reconnect, prepare again.
    pub fn prepare(&mut self, doc: &str, query: &str, engine: Option<u8>) -> ClientResult<u64> {
        self.run(true, |c| c.prepare(doc, query, engine))
    }

    /// Executes a prepared statement. The execution is a read, but the id
    /// is session-scoped: after a reconnect the server answers
    /// `NoSuchPrepared` (fatal) — prepare again on this client.
    pub fn exec_prepared(&mut self, id: u64) -> ClientResult<QueryReply> {
        self.run(true, |c| c.exec_prepared(id))
    }

    /// Begins the session transaction. Safe to retry: a reconnect opens a
    /// fresh session with no transaction.
    pub fn begin(&mut self) -> ClientResult<String> {
        let info = self.run(true, |c| c.begin())?;
        self.in_txn = true;
        Ok(info)
    }

    /// Commits the session transaction. Never auto-retried: a connection
    /// that dies after the commit frame was sent leaves the outcome
    /// unknowable from here. On *any* error the transaction is gone
    /// server-side (failed commits roll back; disconnects roll back), so
    /// the client leaves transaction state either way.
    pub fn commit(&mut self) -> ClientResult<String> {
        let r = self.run(false, |c| c.commit());
        self.in_txn = false;
        r
    }

    /// Rolls back the session transaction. Like [`RetryingClient::commit`],
    /// leaves transaction state whatever happens — a dead connection gets
    /// the same rollback from the server's disconnect path.
    pub fn rollback(&mut self) -> ClientResult<String> {
        let r = self.run(false, |c| c.rollback());
        self.in_txn = false;
        r
    }

    /// Loads `xml` as document `name`. Not idempotent (a blind replay of
    /// a load whose connection died mid-call could double-apply): only
    /// connect-phase failures and typed pre-execution rejections retry.
    pub fn load(&mut self, name: &str, xml: &str) -> ClientResult<String> {
        self.run(false, |c| c.load(name, xml))
    }

    /// Drops document `name` (not idempotent, same rules as `load`).
    pub fn drop_doc(&mut self, name: &str) -> ClientResult<String> {
        self.run(false, |c| c.drop_doc(name))
    }

    /// Lists the server's documents (idempotent).
    pub fn list_docs(&mut self) -> ClientResult<Vec<String>> {
        self.run(true, |c| c.list_docs())
    }

    /// Polite goodbye (best effort — a dead connection is already closed).
    pub fn close(mut self) -> ClientResult<()> {
        match self.client.take() {
            Some(c) => c.close(),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod retry_tests {
    use super::*;

    #[test]
    fn backoff_is_capped_and_jittered() {
        let policy = RetryPolicy {
            max_attempts: 10,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(80),
            reconnect: true,
        };
        let mut seed = 0x5AA2_DB01u64;
        for retry in 0..12 {
            let b = policy.backoff(retry, &mut seed);
            assert!(b <= policy.max_backoff, "retry {retry}: {b:?}");
            // Never collapses to zero once the exponent is non-trivial.
            if retry >= 1 {
                assert!(b >= Duration::from_millis(10), "retry {retry}: {b:?}");
            }
        }
    }

    #[test]
    fn none_policy_has_one_attempt() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts, 1);
        assert!(!p.reconnect);
    }
}
