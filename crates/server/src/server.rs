//! The saardb daemon: a TCP listener, admission control in front of a
//! bounded session pool, and a thread-per-session request loop.
//!
//! # Admission control
//!
//! Connections pass three gates, cheapest first:
//!
//! 1. **Hard session limit** ([`ServerConfig::max_sessions`]): while a
//!    slot is free the connection is admitted immediately.
//! 2. **Bounded queue** ([`ServerConfig::queue_depth`]): with all slots
//!    busy, up to `queue_depth` connections wait (each on its own
//!    just-spawned session thread, so the *listener* never blocks) for at
//!    most [`ServerConfig::queue_timeout`].
//! 3. **Typed rejection**: a full queue or an expired wait answers with
//!    [`Response::Busy`] — carrying the live active/queued counts — and
//!    closes. The server never accept-and-stalls: a client always learns
//!    its fate within the queue timeout.
//!
//! Queue depth, wait time, rejections and live sessions all feed the
//! environment's metrics registry (`saardb_server_*`), which `saardb
//! stats` and the Prometheus endpoint already expose.
//!
//! # Sessions
//!
//! Each session owns: an optional [`Txn`] (so `begin`/`commit`/`rollback`
//! frames give the client the same transaction scope the embedded shell
//! has), a bounded cache of prepared statements, and the server's default
//! per-request budgets (deadline, memory) — every request runs under a
//! governor built from those unless the request carries tighter ones. A
//! client that dies mid-transaction gets its transaction rolled back the
//! moment the server notices the broken connection.

use crate::proto::{
    engine_from_code, read_frame_body, read_frame_header, write_frame, ErrorCode, FrameError,
    ProtoError, Request, Response, ENGINE_DEFAULT, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use xmldb_core::{Database, EngineKind, Error, QueryOptions, Txn};
use xmldb_obs::{Counter, Gauge, Histogram};

/// Server knobs. The defaults suit tests and small deployments; `saardb
/// serve` exposes each as a flag.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Hard cap on concurrently served sessions.
    pub max_sessions: usize,
    /// Connections allowed to wait for a session slot before typed
    /// rejection (0 = reject the moment all slots are busy).
    pub queue_depth: usize,
    /// Longest a queued connection waits before a typed `Busy`.
    pub queue_timeout: Duration,
    /// Default per-request wall-clock deadline (a request's own
    /// `timeout_ms` overrides; `None` = unlimited).
    pub default_timeout: Option<Duration>,
    /// Default per-request memory budget in bytes (`None` = unlimited).
    pub default_mem_limit: Option<usize>,
    /// Engine used when a request says [`ENGINE_DEFAULT`].
    pub default_engine: EngineKind,
    /// Prepared statements cached per session before the oldest is
    /// evicted.
    pub max_prepared_per_session: usize,
    /// Longest a fresh connection may take to complete the Hello
    /// handshake: a peer that connects and never speaks is severed by the
    /// watchdog instead of pinning its session slot forever.
    pub handshake_timeout: Duration,
    /// Total deadline for one request frame, measured from the moment its
    /// header arrives: a peer trickling the payload one byte a second is
    /// bounded by this, not trusted indefinitely.
    pub frame_timeout: Duration,
    /// Idle-in-transaction reaper: a session holding an open transaction
    /// that sends nothing for this long is severed, its transaction rolled
    /// back and its document locks freed (`None` = never reap).
    pub idle_txn_timeout: Option<Duration>,
    /// Plain idle sessions (no open transaction) severed after this much
    /// silence (`None` = keep idle sessions forever, the default).
    pub idle_timeout: Option<Duration>,
    /// Per-write timeout on session streams, so a peer that stops reading
    /// cannot block a session thread in `write` forever.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_sessions: 64,
            queue_depth: 64,
            queue_timeout: Duration::from_secs(2),
            default_timeout: Some(Duration::from_secs(30)),
            default_mem_limit: None,
            default_engine: EngineKind::M4CostBased,
            max_prepared_per_session: 256,
            handshake_timeout: Duration::from_secs(10),
            frame_timeout: Duration::from_secs(30),
            idle_txn_timeout: Some(Duration::from_secs(60)),
            idle_timeout: None,
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Admission bookkeeping (gate 1 and 2 of the module docs).
struct Admission {
    state: Mutex<AdmState>,
    cv: Condvar,
}

#[derive(Debug, Clone, Copy)]
struct AdmState {
    active: usize,
    queued: usize,
}

/// The listener's verdict for a fresh connection.
enum Admit {
    /// Serve now.
    Active,
    /// Wait (on the session thread) for a slot.
    Queued,
    /// Queue full — reject with the counts at decision time.
    Busy(AdmState),
}

/// Server-side metric instruments, resolved once against the database's
/// registry.
struct Metrics {
    connections_total: Arc<Counter>,
    rejected_total: Arc<Counter>,
    rejected_timeout_total: Arc<Counter>,
    sessions_active: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    queue_wait_us: Arc<Histogram>,
    requests_total: Arc<Counter>,
    request_errors_total: Arc<Counter>,
    request_us: Arc<Histogram>,
    disconnect_rollbacks_total: Arc<Counter>,
    accept_errors_total: Arc<Counter>,
    watchdog_severed_handshake: Arc<Counter>,
    watchdog_severed_frame: Arc<Counter>,
    watchdog_severed_idle_txn: Arc<Counter>,
    watchdog_severed_idle: Arc<Counter>,
    watchdog_reclaims_total: Arc<Counter>,
    /// Per-statement-type service-time histogram and in-flight gauge,
    /// keyed by the wire op name; the last entry ("other") absorbs every
    /// op without a dedicated series.
    statements: [(&'static str, Arc<Histogram>, Arc<Gauge>); 6],
    /// Live sessions by lifecycle phase, one gauge per [`Phase`].
    phase_sessions: [Arc<Gauge>; 7],
}

impl Metrics {
    fn new(db: &Database) -> Metrics {
        let r = db.env().registry();
        r.help(
            "saardb_server_connections_total",
            "TCP connections accepted by the listener",
        );
        r.help(
            "saardb_server_rejected_total",
            "Connections rejected with a typed Busy (by reason)",
        );
        r.help(
            "saardb_server_sessions_active",
            "Sessions currently being served",
        );
        r.help(
            "saardb_server_admission_queue_depth",
            "Connections waiting for a session slot",
        );
        r.help(
            "saardb_server_admission_wait_us",
            "Time queued connections waited for a slot (microseconds)",
        );
        r.help("saardb_server_requests_total", "Requests served");
        r.help(
            "saardb_server_request_errors_total",
            "Requests answered with a typed error",
        );
        r.help(
            "saardb_server_request_us",
            "Per-request service time (microseconds)",
        );
        r.help(
            "saardb_server_disconnect_rollbacks_total",
            "Open transactions rolled back because the client vanished",
        );
        r.help(
            "saardb_server_accept_errors_total",
            "accept() failures on the listener (answered with capped backoff)",
        );
        r.help(
            "saardb_server_watchdog_severed_total",
            "Sessions severed by the watchdog (by reason)",
        );
        r.help(
            "saardb_server_watchdog_reclaims_total",
            "Times the watchdog recovered the storage from read-only degraded mode",
        );
        r.help(
            "saardb_server_statement_us",
            "Per-statement-type service time in microseconds (by op)",
        );
        r.help(
            "saardb_server_inflight",
            "Requests currently executing (by op)",
        );
        r.help(
            "saardb_server_sessions_phase",
            "Live sessions by lifecycle phase",
        );
        const STATEMENT_OPS: [&str; 6] = ["query", "load", "begin", "commit", "rollback", "other"];
        let statements = STATEMENT_OPS.map(|op| {
            (
                op,
                r.histogram("saardb_server_statement_us", &[("op", op)]),
                r.gauge("saardb_server_inflight", &[("op", op)]),
            )
        });
        let phase_sessions =
            Phase::ALL.map(|p| r.gauge("saardb_server_sessions_phase", &[("phase", p.label())]));
        Metrics {
            connections_total: r.counter("saardb_server_connections_total", &[]),
            rejected_total: r.counter("saardb_server_rejected_total", &[("reason", "queue_full")]),
            rejected_timeout_total: r.counter(
                "saardb_server_rejected_total",
                &[("reason", "queue_timeout")],
            ),
            sessions_active: r.gauge("saardb_server_sessions_active", &[]),
            queue_depth: r.gauge("saardb_server_admission_queue_depth", &[]),
            queue_wait_us: r.histogram("saardb_server_admission_wait_us", &[]),
            requests_total: r.counter("saardb_server_requests_total", &[]),
            request_errors_total: r.counter("saardb_server_request_errors_total", &[]),
            request_us: r.histogram("saardb_server_request_us", &[]),
            disconnect_rollbacks_total: r.counter("saardb_server_disconnect_rollbacks_total", &[]),
            accept_errors_total: r.counter("saardb_server_accept_errors_total", &[]),
            watchdog_severed_handshake: r.counter(
                "saardb_server_watchdog_severed_total",
                &[("reason", "handshake")],
            ),
            watchdog_severed_frame: r.counter(
                "saardb_server_watchdog_severed_total",
                &[("reason", "frame")],
            ),
            watchdog_severed_idle_txn: r.counter(
                "saardb_server_watchdog_severed_total",
                &[("reason", "idle_txn")],
            ),
            watchdog_severed_idle: r.counter(
                "saardb_server_watchdog_severed_total",
                &[("reason", "idle")],
            ),
            watchdog_reclaims_total: r.counter("saardb_server_watchdog_reclaims_total", &[]),
            statements,
            phase_sessions,
        }
    }

    /// The instruments for a wire op: its own series for the five
    /// statement types worth a dashboard panel, "other" for the rest.
    fn statement(&self, op: &str) -> &(&'static str, Arc<Histogram>, Arc<Gauge>) {
        self.statements
            .iter()
            .find(|(name, _, _)| *name == op)
            .unwrap_or_else(|| self.statements.last().expect("statement instruments"))
    }

    fn phase_gauge(&self, phase: Phase) -> &Arc<Gauge> {
        &self.phase_sessions[phase.index()]
    }
}

struct Shared {
    db: Database,
    config: ServerConfig,
    shutdown: AtomicBool,
    admission: Admission,
    metrics: Metrics,
    next_session_id: AtomicU64,
    /// Live session streams (for shutdown to sever) and finished-thread
    /// reaping.
    sessions: Mutex<SessionTable>,
}

/// What a session is doing right now — the watchdog's clock starts over
/// at every phase change, and only some phases carry a deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for an admission slot (bounded by the queue timeout).
    Queued,
    /// Waiting for the Hello frame (bounded by the handshake timeout).
    Handshake,
    /// Waiting for the next request header, no open transaction
    /// (bounded by the idle timeout, if configured).
    Idle,
    /// Waiting for the next request header while holding an open
    /// transaction — and therefore document locks other sessions may need
    /// (bounded by the idle-in-transaction timeout).
    IdleInTxn,
    /// A request header arrived; the body is being received (bounded by
    /// the frame timeout, so tricklers cannot stall forever).
    MidFrame,
    /// Executing a request (bounded by the request's own governor).
    Busy,
    /// The watchdog cut the connection; the session thread is unwinding.
    /// Latched so a session is never severed (or counted) twice.
    Severed,
}

impl Phase {
    const ALL: [Phase; 7] = [
        Phase::Queued,
        Phase::Handshake,
        Phase::Idle,
        Phase::IdleInTxn,
        Phase::MidFrame,
        Phase::Busy,
        Phase::Severed,
    ];

    fn index(self) -> usize {
        match self {
            Phase::Queued => 0,
            Phase::Handshake => 1,
            Phase::Idle => 2,
            Phase::IdleInTxn => 3,
            Phase::MidFrame => 4,
            Phase::Busy => 5,
            Phase::Severed => 6,
        }
    }

    /// Label value for the `saardb_server_sessions_phase` gauge family.
    fn label(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Handshake => "handshake",
            Phase::Idle => "idle",
            Phase::IdleInTxn => "idle_txn",
            Phase::MidFrame => "mid_frame",
            Phase::Busy => "busy",
            Phase::Severed => "severed",
        }
    }
}

/// A live session as the watchdog sees it: the stream to sever, the
/// current phase, and when that phase began.
struct SessionEntry {
    stream: TcpStream,
    phase: Phase,
    since: Instant,
    /// The wire request id of the last tagged request this session served
    /// (tagging clients only). Stamped into watchdog sever lines so an
    /// operator can join a killed session to the client's own trace.
    last_request_id: Option<u64>,
}

#[derive(Default)]
struct SessionTable {
    sessions: HashMap<u64, SessionEntry>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Moves a session to `phase`, restarting its watchdog clock. A
    /// session the watchdog already severed stays severed — the session
    /// thread may race one last phase change while its read unwinds, and
    /// that must not resurrect the entry.
    fn set_phase(&self, id: u64, phase: Phase) {
        let mut table = self.sessions.lock().expect("session table");
        if let Some(entry) = table.sessions.get_mut(&id) {
            if entry.phase != Phase::Severed {
                if entry.phase != phase {
                    self.metrics.phase_gauge(entry.phase).add(-1);
                    self.metrics.phase_gauge(phase).add(1);
                }
                entry.phase = phase;
                entry.since = Instant::now();
            }
        }
    }

    /// Remembers the wire request id a session is serving, so watchdog
    /// sever lines can name the request that was in flight (or last
    /// completed) when the connection was cut.
    fn note_request_id(&self, id: u64, request_id: u64) {
        let mut table = self.sessions.lock().expect("session table");
        if let Some(entry) = table.sessions.get_mut(&id) {
            entry.last_request_id = Some(request_id);
        }
    }

    /// Removes a session's table entry, keeping the phase gauges honest.
    fn remove_session(&self, id: u64) -> Option<SessionEntry> {
        let mut table = self.sessions.lock().expect("session table");
        let entry = table.sessions.remove(&id);
        if let Some(entry) = &entry {
            self.metrics.phase_gauge(entry.phase).add(-1);
        }
        entry
    }

    /// One watchdog pass: sever every session that sat in a deadline-
    /// carrying phase past its limit. The sever is a TCP shutdown on the
    /// registered stream clone — the session thread's blocked read
    /// returns, and its normal cleanup path rolls back any open
    /// transaction and releases the slot.
    fn watchdog_tick(&self) {
        let config = &self.config;
        let mut table = self.sessions.lock().expect("session table");
        for (id, entry) in table.sessions.iter_mut() {
            let expired = match entry.phase {
                Phase::Handshake => Some((
                    config.handshake_timeout,
                    &self.metrics.watchdog_severed_handshake,
                    "handshake",
                )),
                Phase::MidFrame => Some((
                    config.frame_timeout,
                    &self.metrics.watchdog_severed_frame,
                    "frame",
                )),
                Phase::IdleInTxn => config
                    .idle_txn_timeout
                    .map(|d| (d, &self.metrics.watchdog_severed_idle_txn, "idle_txn")),
                Phase::Idle => config
                    .idle_timeout
                    .map(|d| (d, &self.metrics.watchdog_severed_idle, "idle")),
                Phase::Queued | Phase::Busy | Phase::Severed => None,
            };
            if let Some((limit, counter, reason)) = expired {
                if entry.since.elapsed() >= limit {
                    let _ = entry.stream.shutdown(Shutdown::Both);
                    self.metrics.phase_gauge(entry.phase).add(-1);
                    self.metrics.phase_gauge(Phase::Severed).add(1);
                    entry.phase = Phase::Severed;
                    entry.since = Instant::now();
                    counter.inc();
                    let req = entry
                        .last_request_id
                        .map_or_else(String::new, |r| format!(" last_req={r:016x}"));
                    eprintln!("saardb: watchdog severed session {id} (reason={reason}){req}");
                }
            }
        }
    }

    /// Gate 1/2/3 decision. Never blocks.
    fn admit(&self) -> Admit {
        let mut state = self.admission.state.lock().expect("admission state");
        if state.active < self.config.max_sessions {
            state.active += 1;
            self.metrics.sessions_active.set(state.active as i64);
            Admit::Active
        } else if state.queued < self.config.queue_depth {
            state.queued += 1;
            self.metrics.queue_depth.set(state.queued as i64);
            Admit::Queued
        } else {
            Admit::Busy(*state)
        }
    }

    /// Waits (bounded) for a session slot; called on the session thread
    /// for `Admit::Queued` connections. Returns the wait duration on
    /// grant, or `Err(state)` on timeout/shutdown.
    fn wait_for_slot(&self) -> Result<Duration, AdmState> {
        let started = Instant::now();
        let deadline = started + self.config.queue_timeout;
        let mut state = self.admission.state.lock().expect("admission state");
        loop {
            if self.shutting_down() {
                state.queued -= 1;
                self.metrics.queue_depth.set(state.queued as i64);
                return Err(*state);
            }
            if state.active < self.config.max_sessions {
                state.active += 1;
                state.queued -= 1;
                self.metrics.sessions_active.set(state.active as i64);
                self.metrics.queue_depth.set(state.queued as i64);
                return Ok(started.elapsed());
            }
            let now = Instant::now();
            if now >= deadline {
                state.queued -= 1;
                self.metrics.queue_depth.set(state.queued as i64);
                return Err(*state);
            }
            let (s, _) = self
                .admission
                .cv
                .wait_timeout(state, deadline - now)
                .expect("admission wait");
            state = s;
        }
    }

    /// Releases a session slot (session ended) and wakes one queued
    /// waiter.
    fn release_slot(&self) {
        let mut state = self.admission.state.lock().expect("admission state");
        state.active -= 1;
        self.metrics.sessions_active.set(state.active as i64);
        drop(state);
        self.admission.cv.notify_all();
    }

    fn admission_state(&self) -> AdmState {
        *self.admission.state.lock().expect("admission state")
    }
}

/// A running saardb server. Dropping the handle shuts it down.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    listener_thread: Option<std::thread::JoinHandle<()>>,
    watchdog_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:4455"`, or port 0 for an ephemeral
    /// port) and starts accepting. The returned handle owns the listener
    /// thread; [`Server::shutdown`] (or drop) stops it.
    pub fn start(
        db: Database,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let metrics = Metrics::new(&db);
        let shared = Arc::new(Shared {
            db,
            config,
            shutdown: AtomicBool::new(false),
            admission: Admission {
                state: Mutex::new(AdmState {
                    active: 0,
                    queued: 0,
                }),
                cv: Condvar::new(),
            },
            metrics,
            next_session_id: AtomicU64::new(1),
            sessions: Mutex::new(SessionTable::default()),
        });
        let accept_shared = Arc::clone(&shared);
        let listener_thread = std::thread::Builder::new()
            .name("saardb-listener".into())
            .spawn(move || accept_loop(&accept_shared, listener))
            .expect("spawn listener thread");
        let watchdog_shared = Arc::clone(&shared);
        let watchdog_thread = std::thread::Builder::new()
            .name("saardb-watchdog".into())
            .spawn(move || watchdog_loop(&watchdog_shared))
            .expect("spawn watchdog thread");
        Ok(Server {
            shared,
            addr: local,
            listener_thread: Some(listener_thread),
            watchdog_thread: Some(watchdog_thread),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sessions currently being served.
    pub fn active_sessions(&self) -> usize {
        self.shared.admission_state().active
    }

    /// Connections waiting in the admission queue.
    pub fn queued_connections(&self) -> usize {
        self.shared.admission_state().queued
    }

    /// Stops accepting, severs every live session (open transactions roll
    /// back), joins all threads and flushes the database. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake queued admission waiters so they reject promptly.
        self.shared.admission.cv.notify_all();
        // Unblock accept(): the listener checks the flag per connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.watchdog_thread.take() {
            let _ = t.join();
        }
        // Sever session streams: blocked reads return, sessions unwind
        // their state (rolling back open transactions) and exit.
        let handles = {
            let mut table = self.shared.sessions.lock().expect("session table");
            for entry in table.sessions.values() {
                let _ = entry.stream.shutdown(Shutdown::Both);
            }
            std::mem::take(&mut table.handles)
        };
        for h in handles {
            let _ = h.join();
        }
        let _ = self.shared.db.flush();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Watchdog: every tick, sever expired sessions (slow handshakes,
/// mid-frame tricklers, idle-in-transaction lock holders) and — when the
/// storage latched read-only on a full disk — probe for recovery, so the
/// server exits degraded mode by itself once a checkpoint reclaims space.
fn watchdog_loop(shared: &Arc<Shared>) {
    while !shared.shutting_down() {
        std::thread::sleep(Duration::from_millis(25));
        shared.watchdog_tick();
        let env = shared.db.env();
        if env.is_read_only() {
            if let Ok(true) = env.try_exit_read_only() {
                shared.metrics.watchdog_reclaims_total.inc();
            }
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    let mut backoff = Duration::from_millis(1);
    for stream in listener.incoming() {
        if shared.shutting_down() {
            break;
        }
        let stream = match stream {
            Ok(s) => {
                backoff = Duration::from_millis(1);
                s
            }
            // Transient accept errors (EMFILE under load, aborted
            // handshakes) must never kill the listener — but persistent
            // ones must not hot-spin it either: sleep with a capped
            // doubling backoff, reset on the next successful accept.
            Err(_) => {
                shared.metrics.accept_errors_total.inc();
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(500));
                continue;
            }
        };
        shared.metrics.connections_total.inc();
        let _ = stream.set_nodelay(true);
        match shared.admit() {
            Admit::Busy(state) => {
                shared.metrics.rejected_total.inc();
                reject_busy(stream, state, "admission queue full");
            }
            verdict @ (Admit::Active | Admit::Queued) => {
                let queued = matches!(verdict, Admit::Queued);
                spawn_session(shared, stream, queued);
            }
        }
    }
}

/// Answers `Busy` (typed, never a stall) and closes. Runs on a detached
/// thread so neither the listener nor a session thread waits on a hostile
/// peer; read and write are both deadline-bounded.
fn reject_busy(stream: TcpStream, state: AdmState, why: &'static str) {
    let deliver = move || {
        let mut stream = stream;
        let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        let busy = Response::Busy {
            active: state.active as u32,
            queued: state.queued as u32,
            message: why.to_string(),
        };
        let _ = write_frame(&mut stream, &busy.encode());
        let _ = stream.shutdown(Shutdown::Write);
        // Drain what the peer already sent (its Hello, typically): closing
        // with unread bytes turns into a TCP reset that can destroy the
        // Busy answer in the peer's receive buffer before it reads it.
        // Bounded in both bytes and time — a peer that keeps sending must
        // not keep this thread reading forever.
        const DRAIN_MAX_BYTES: usize = 64 << 10;
        let drain_deadline = Instant::now() + Duration::from_secs(2);
        let mut sink = [0u8; 512];
        let mut drained = 0usize;
        while drained < DRAIN_MAX_BYTES && Instant::now() < drain_deadline {
            match io::Read::read(&mut stream, &mut sink) {
                Ok(0) | Err(_) => break,
                Ok(n) => drained += n,
            }
        }
    };
    if std::thread::Builder::new()
        .name("saardb-reject".into())
        .spawn(deliver)
        .is_err()
    {
        // Out of threads: nothing left to protect; the connection drops
        // without its typed answer, which the client sees as an I/O error.
    }
}

fn spawn_session(shared: &Arc<Shared>, stream: TcpStream, queued: bool) {
    let id = shared.next_session_id.fetch_add(1, Ordering::Relaxed);
    let thread_shared = Arc::clone(shared);
    let registered = stream.try_clone().ok();
    {
        let mut table = shared.sessions.lock().expect("session table");
        if let Some(clone) = registered {
            let phase = if queued {
                Phase::Queued
            } else {
                Phase::Handshake
            };
            shared.metrics.phase_gauge(phase).add(1);
            table.sessions.insert(
                id,
                SessionEntry {
                    stream: clone,
                    phase,
                    since: Instant::now(),
                    last_request_id: None,
                },
            );
        }
        // Opportunistic reaping keeps the handle list bounded by the live
        // session count instead of the server's lifetime total.
        table.handles.retain(|h| !h.is_finished());
    }
    let spawned = std::thread::Builder::new()
        .name(format!("saardb-session-{id}"))
        .spawn(move || {
            run_session(&thread_shared, stream, id, queued);
        });
    match spawned {
        Ok(handle) => {
            let mut table = shared.sessions.lock().expect("session table");
            table.handles.push(handle);
        }
        Err(_) => {
            // Could not even spawn a thread: treat as capacity exhaustion.
            if let Some(entry) = shared.remove_session(id) {
                shared.metrics.rejected_total.inc();
                let state = shared.admission_state();
                reject_busy(entry.stream, state, "out of session threads");
            }
            if queued {
                let mut state = shared.admission.state.lock().expect("admission state");
                state.queued -= 1;
                shared.metrics.queue_depth.set(state.queued as i64);
            } else {
                shared.release_slot();
            }
        }
    }
}

/// Session entry point: admission wait (if queued), hello handshake,
/// request loop, cleanup. All error paths roll back the session's open
/// transaction and release its admission slot.
fn run_session(shared: &Arc<Shared>, mut stream: TcpStream, id: u64, queued: bool) {
    if queued {
        match shared.wait_for_slot() {
            Ok(waited) => {
                shared
                    .metrics
                    .queue_wait_us
                    .record(waited.as_micros() as u64);
                shared.set_phase(id, Phase::Handshake);
            }
            Err(state) => {
                shared.metrics.rejected_timeout_total.inc();
                shared.remove_session(id);
                reject_busy(stream, state, "admission queue wait timed out");
                return;
            }
        }
    }
    // A peer that stops reading must not park this thread in write().
    let _ = stream.set_write_timeout(shared.config.write_timeout);
    let mut session = Session {
        shared: Arc::clone(shared),
        id,
        txn: None,
        prepared: HashMap::new(),
        prepared_order: Vec::new(),
        next_prepared: 1,
        current_request_id: None,
    };
    session.serve(&mut stream);
    // Cleanup: a client that vanished mid-transaction must not keep its
    // document locks — roll back now, not at some later GC.
    if let Some(txn) = session.txn.take() {
        let _ = txn.rollback();
        // Counted only once the rollback is done: a scrape that sees the
        // count sees its effects.
        shared.metrics.disconnect_rollbacks_total.inc();
    }
    shared.remove_session(id);
    shared.release_slot();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Per-connection state: the session-scoped transaction, the prepared-
/// statement cache, and budget defaults inherited from the server config.
struct Session {
    shared: Arc<Shared>,
    id: u64,
    txn: Option<Txn>,
    prepared: HashMap<u64, xmldb_core::PreparedQuery>,
    /// Insertion order for bounded eviction (oldest first).
    prepared_order: Vec<u64>,
    next_prepared: u64,
    /// The wire request id of the request being handled right now (set
    /// from a [`Request::Tagged`] envelope, `None` for untagged traffic).
    /// Threaded into [`QueryOptions`] so the id reaches the governor,
    /// trace spans, flight records and the slow-query log.
    current_request_id: Option<u64>,
}

impl Session {
    /// Handshake + request loop. Returns when the client closes, dies, or
    /// sends framing garbage.
    fn serve(&mut self, stream: &mut TcpStream) {
        // Handshake: first frame must be a Hello announcing exactly this
        // build's version, which the ack echoes; any other version is a
        // typed `VersionSkew`. The watchdog bounds how long the Hello may
        // take.
        match self.read_request(stream, Phase::Handshake) {
            Some(Request::Hello { version }) if version == PROTOCOL_VERSION => {
                let ack = Response::HelloAck {
                    version: PROTOCOL_VERSION,
                    session_id: self.id,
                };
                if write_frame(stream, &ack.encode()).is_err() {
                    return;
                }
            }
            Some(Request::Hello { version }) => {
                let err = Response::Error {
                    code: ErrorCode::VersionSkew,
                    message: ProtoError::VersionSkew { theirs: version }.to_string(),
                };
                let _ = write_frame(stream, &err.encode());
                return;
            }
            Some(_) => {
                let err = Response::Error {
                    code: ErrorCode::Proto,
                    message: "first frame must be Hello".into(),
                };
                let _ = write_frame(stream, &err.encode());
                return;
            }
            None => return,
        }
        loop {
            if self.shared.shutting_down() {
                let err = Response::Error {
                    code: ErrorCode::ShuttingDown,
                    message: "server is shutting down".into(),
                };
                let _ = write_frame(stream, &err.encode());
                return;
            }
            // Idle phase choice is what the idle-in-transaction reaper
            // keys on: silence while holding document locks has a (usually
            // much tighter) deadline of its own.
            let waiting = if self.txn.is_some() {
                Phase::IdleInTxn
            } else {
                Phase::Idle
            };
            let Some(request) = self.read_request(stream, waiting) else {
                return;
            };
            // Strip the tracing envelope (nested envelopes were already
            // rejected at decode). The id is remembered in the session
            // table so a watchdog sever can name the request it killed,
            // and echoed on the response — errors included — so a client
            // retry log line joins to this server-side attempt.
            let (request_id, request) = match request {
                Request::Tagged { request_id, inner } => (Some(request_id), *inner),
                other => (None, other),
            };
            if let Some(rid) = request_id {
                self.shared.note_request_id(self.id, rid);
            }
            self.shared.set_phase(self.id, Phase::Busy);
            let closing = matches!(request, Request::Close);
            let shared = Arc::clone(&self.shared);
            let (_, statement_us, inflight) = shared.metrics.statement(request.op_name());
            inflight.add(1);
            let op_started = Instant::now();
            self.current_request_id = request_id;
            let response = self.handle(&request);
            self.current_request_id = None;
            let elapsed_us = op_started.elapsed().as_micros() as u64;
            inflight.add(-1);
            statement_us.record(elapsed_us);
            self.shared.metrics.requests_total.inc();
            self.shared.metrics.request_us.record(elapsed_us);
            if matches!(response, Response::Error { .. }) {
                self.shared.metrics.request_errors_total.inc();
            }
            let response = match request_id {
                Some(request_id) => Response::Tagged {
                    request_id,
                    inner: Box::new(response),
                },
                None => response,
            };
            if write_frame(stream, &response.encode()).is_err() || closing {
                return;
            }
        }
    }

    /// Reads and decodes one request. `None` means the session is over —
    /// clean close, dead peer, watchdog sever, or framing garbage (which
    /// gets a typed error first; after garbage the stream cannot be
    /// re-aligned, so the connection closes — but the *server* keeps
    /// serving everyone else).
    ///
    /// The wait for the next frame *header* runs under `waiting` (an
    /// idle/handshake phase, each with its own watchdog deadline); the
    /// moment a header arrives the session moves to [`Phase::MidFrame`],
    /// so receiving the body is bounded by the frame timeout no matter
    /// how slowly the peer trickles it.
    fn read_request(&mut self, stream: &mut TcpStream, waiting: Phase) -> Option<Request> {
        self.shared.set_phase(self.id, waiting);
        // Wait in `waiting` until the first byte of the next frame shows
        // up (peek does not consume it), then switch to the deadline-ed
        // `MidFrame` phase *before* reading the header — a slow-loris
        // client trickling half a header must not idle forever under a
        // disabled idle timeout.
        let mut first = [0u8; 1];
        match stream.peek(&mut first) {
            Ok(0) | Err(_) => return None,
            Ok(_) => {}
        }
        self.shared.set_phase(self.id, Phase::MidFrame);
        let header = match read_frame_header(stream, MAX_FRAME_LEN) {
            Ok(h) => h,
            Err(FrameError::Eof) | Err(FrameError::Io(_)) => return None,
            Err(FrameError::Proto(e)) => {
                let err = Response::Error {
                    code: ErrorCode::Proto,
                    message: e.to_string(),
                };
                let _ = write_frame(stream, &err.encode());
                self.shared.metrics.request_errors_total.inc();
                return None;
            }
        };
        let payload = match read_frame_body(stream, header) {
            Ok(p) => p,
            Err(FrameError::Eof) | Err(FrameError::Io(_)) => return None,
            Err(FrameError::Proto(e)) => {
                let err = Response::Error {
                    code: ErrorCode::Proto,
                    message: e.to_string(),
                };
                let _ = write_frame(stream, &err.encode());
                self.shared.metrics.request_errors_total.inc();
                return None;
            }
        };
        match Request::decode(&payload) {
            Ok(req) => Some(req),
            Err(e) => {
                // The frame was well-formed (length + CRC passed) but the
                // message inside wasn't. Framing is still aligned, so the
                // session survives: answer typed and keep reading.
                let err = Response::Error {
                    code: ErrorCode::Proto,
                    message: e.to_string(),
                };
                self.shared.metrics.request_errors_total.inc();
                if write_frame(stream, &err.encode()).is_err() {
                    return None;
                }
                self.read_request(stream, waiting)
            }
        }
    }

    fn engine_for(&self, code: u8) -> Result<EngineKind, Response> {
        if code == ENGINE_DEFAULT {
            return Ok(self.shared.config.default_engine);
        }
        engine_from_code(code).ok_or(Response::Error {
            code: ErrorCode::Proto,
            message: format!("unknown engine code {code}"),
        })
    }

    /// Budget resolution: request-supplied limits win; zero means "use
    /// the session default from the server config".
    fn options(&self, timeout_ms: u64, mem_limit: u64) -> QueryOptions {
        let config = &self.shared.config;
        QueryOptions {
            timeout: if timeout_ms > 0 {
                Some(Duration::from_millis(timeout_ms))
            } else {
                config.default_timeout
            },
            mem_limit: if mem_limit > 0 {
                Some(mem_limit as usize)
            } else {
                config.default_mem_limit
            },
            txn: self.txn.clone(),
            request_id: self.current_request_id,
            ..QueryOptions::default()
        }
    }

    fn handle(&mut self, request: &Request) -> Response {
        match request {
            Request::Hello { .. } => Response::Error {
                code: ErrorCode::Proto,
                message: "duplicate Hello".into(),
            },
            // Envelopes are stripped in the serve loop before dispatch and
            // nesting is rejected at decode, so this arm is unreachable in
            // practice — answer typed rather than panic if it ever isn't.
            Request::Tagged { .. } => Response::Error {
                code: ErrorCode::Proto,
                message: "unexpected tagged envelope".into(),
            },
            Request::Ping => Response::Pong,
            Request::Close => Response::Done {
                info: "goodbye".into(),
            },
            Request::ListDocs => match self.shared.db.documents() {
                Ok(names) => Response::Docs { names },
                Err(e) => self.error_response(&e),
            },
            Request::Query {
                doc,
                query,
                engine,
                timeout_ms,
                mem_limit,
            } => {
                let engine = match self.engine_for(*engine) {
                    Ok(e) => e,
                    Err(resp) => return resp,
                };
                let options = self.options(*timeout_ms, *mem_limit);
                let started = Instant::now();
                match self.shared.db.query_with(doc, query, engine, &options) {
                    Ok(result) => Response::Items {
                        count: result.len() as u64,
                        elapsed_us: started.elapsed().as_micros() as u64,
                        xml: result.into_xml(),
                    },
                    Err(e) => self.error_response(&e),
                }
            }
            Request::Prepare { doc, query, engine } => {
                let engine = match self.engine_for(*engine) {
                    Ok(e) => e,
                    Err(resp) => return resp,
                };
                // A prepared statement outlives the transaction it was
                // prepared in: it must not capture that transaction. Each
                // execution runs under whatever transaction the session
                // has open then (installed in `ExecPrepared` below); the
                // one open now is installed only while preparing, so the
                // statement can name a document it loaded.
                let options = QueryOptions {
                    txn: None,
                    ..self.options(0, 0)
                };
                let _scope = self.txn.as_ref().map(Txn::install);
                match self.shared.db.prepare_with(doc, query, engine, &options) {
                    Ok(prepared) => {
                        let id = self.next_prepared;
                        self.next_prepared += 1;
                        if self.prepared_order.len() >= self.shared.config.max_prepared_per_session
                        {
                            let oldest = self.prepared_order.remove(0);
                            self.prepared.remove(&oldest);
                        }
                        self.prepared.insert(id, prepared);
                        self.prepared_order.push(id);
                        Response::Prepared { id }
                    }
                    Err(e) => self.error_response(&e),
                }
            }
            Request::ExecPrepared { id } => {
                let Some(prepared) = self.prepared.get(id) else {
                    return Response::Error {
                        code: ErrorCode::NoSuchPrepared,
                        message: format!("no prepared statement {id} in this session"),
                    };
                };
                // The prepared plan carries the session's default budgets;
                // the session transaction is installed thread-locally so
                // the execution's page accesses honor it.
                let _scope = self.txn.as_ref().map(Txn::install);
                let started = Instant::now();
                match prepared.execute() {
                    Ok(result) => Response::Items {
                        count: result.len() as u64,
                        elapsed_us: started.elapsed().as_micros() as u64,
                        xml: result.into_xml(),
                    },
                    Err(e) => self.error_response(&e),
                }
            }
            Request::Begin => match &self.txn {
                Some(t) => Response::Error {
                    code: ErrorCode::TxnState,
                    message: format!("already in transaction {}", t.id()),
                },
                None => {
                    let txn = self.shared.db.begin();
                    let info = format!("began transaction {}", txn.id());
                    self.txn = Some(txn);
                    Response::Done { info }
                }
            },
            Request::Commit => match self.txn.take() {
                Some(txn) => {
                    let id = txn.id();
                    match txn.commit() {
                        Ok(()) => Response::Done {
                            info: format!("committed transaction {id}"),
                        },
                        Err(e) => {
                            // A failed commit leaves the transaction
                            // active (WAL append/sync error, full disk):
                            // roll it back now so its document locks free
                            // immediately — not just on handle drop.
                            let _ = txn.rollback();
                            self.error_response(&Error::Storage(e))
                        }
                    }
                }
                None => Response::Error {
                    code: ErrorCode::TxnState,
                    message: "no open transaction".into(),
                },
            },
            Request::Rollback => match self.txn.take() {
                Some(txn) => {
                    let id = txn.id();
                    match txn.rollback() {
                        Ok(()) => Response::Done {
                            info: format!("rolled back transaction {id}"),
                        },
                        Err(e) => self.error_response(&Error::Storage(e)),
                    }
                }
                None => Response::Error {
                    code: ErrorCode::TxnState,
                    message: "no open transaction".into(),
                },
            },
            Request::Load { name, xml } => {
                // Outside a transaction the load is durable when it
                // returns; inside one it commits or rolls back with it.
                let _scope = self.txn.as_ref().map(Txn::install);
                match self.shared.db.load_document(name, xml) {
                    Ok(()) => Response::Done {
                        info: format!("loaded {name}"),
                    },
                    Err(e) => self.error_response(&e),
                }
            }
            Request::DropDoc { name } => {
                // Inside a transaction the drop takes effect at commit.
                let _scope = self.txn.as_ref().map(Txn::install);
                match self.shared.db.drop_document(name) {
                    Ok(()) => Response::Done {
                        info: format!("dropped {name}"),
                    },
                    Err(e) => self.error_response(&e),
                }
            }
        }
    }

    /// Maps an engine error to its typed wire code. A deadlock victim's
    /// transaction is already rolled back by the lock manager — drop the
    /// dead handle so the session's state matches reality and the client
    /// can `begin` again.
    fn error_response(&mut self, e: &Error) -> Response {
        let code = if e.is_deadlock() {
            if self.txn.as_ref().is_some_and(|t| !t.is_active()) {
                self.txn = None;
            }
            ErrorCode::Deadlock
        } else if e.is_cancelled() {
            ErrorCode::Cancelled
        } else if e.is_deadline_exceeded() {
            ErrorCode::DeadlineExceeded
        } else if e.is_memory_exceeded() {
            ErrorCode::MemoryExceeded
        } else if e.is_no_space() || e.is_read_only() {
            // Both faces of a full disk: the append that hit ENOSPC and
            // every write refused while degraded answer the same typed
            // code, so clients need one rule ("reads only until the
            // server recovers"), not two. Stamped with the request id so
            // a degradation event joins to the statement that hit it.
            let req = self
                .current_request_id
                .map_or_else(String::new, |id| format!(" req={id:016x}"));
            eprintln!(
                "saardb: session {} answered read-only (degraded){req}: {e}",
                self.id
            );
            ErrorCode::ReadOnly
        } else {
            match e {
                Error::NoSuchDocument(_) => ErrorCode::NoSuchDocument,
                Error::DocumentExists(_) => ErrorCode::DocumentExists,
                Error::Query(_) | Error::Xml(_) => ErrorCode::Query,
                Error::Storage(_) => ErrorCode::Storage,
                Error::Exec(_) | Error::Xasr(_) => ErrorCode::Exec,
            }
        };
        Response::Error {
            code,
            message: e.to_string(),
        }
    }
}
