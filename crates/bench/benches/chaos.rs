//! End-to-end fault-tolerance sweep: retrying clients vs a chaotic
//! network vs a server whose disk keeps filling up.
//!
//! A real on-disk database (WAL + group commit) is served over TCP with
//! tight watchdog deadlines; every client speaks through a
//! [`ChaosProxy`] that injects latency, trickle, stalls, mid-frame cuts
//! and connection refusals; meanwhile the write-ahead log's volume
//! "fills up" (injected ENOSPC) and recovers, repeatedly. Writers drive
//! begin/load/commit loops through a [`RetryingClient`]; readers keep
//! querying throughout — including while the environment is degraded to
//! read-only.
//!
//! The sweep's acceptance bar is absolute, not statistical:
//!
//! * **zero lost committed updates** — every document whose commit was
//!   acknowledged exists at the end,
//! * **zero stuck sessions** — the server drains to zero sessions and
//!   the proxy to zero links once the clients leave,
//! * **zero pinned frames** — no buffer-pool frame leaks from any
//!   failure path,
//! * **clean recovery** — the environment always leaves read-only mode
//!   after space returns, without a restart.
//!
//! ```text
//! cargo bench -p xmldb-bench --bench chaos -- --out BENCH_chaos.json
//! cargo bench -p xmldb-bench --bench chaos -- --check BENCH_chaos.json
//! ```
//!
//! Under `cargo test --benches` the same sweep runs once at a reduced
//! scale (fewer clients, one disk-full cycle, shorter phases).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xmldb_bench::harness::{self, bench_mode, Field, Row, Snapshot};
use xmldb_core::Database;
use xmldb_server::{ClientError, QueryParams, RetryPolicy, RetryingClient, Server, ServerConfig};
use xmldb_storage::{EnvConfig, FaultState};
use xmldb_testbed::chaos::{ChaosProxy, Direction};

const DOC: &str = "<lib><b><t>alpha</t></b><b><t>beta</t></b><b><t>gamma</t></b></lib>";

struct SweepConfig {
    writers: usize,
    readers: usize,
    /// Disk-full cycles (each: inject ENOSPC, hold, clear, await recovery).
    enospc_cycles: usize,
    /// Network-fault phases between disk-full cycles.
    phase: Duration,
}

impl SweepConfig {
    fn scaled() -> SweepConfig {
        if bench_mode() {
            SweepConfig {
                writers: 8,
                readers: 4,
                enospc_cycles: 3,
                phase: Duration::from_millis(400),
            }
        } else {
            SweepConfig {
                writers: 3,
                readers: 2,
                enospc_cycles: 1,
                phase: Duration::from_millis(150),
            }
        }
    }
}

struct SweepResult {
    writers: usize,
    readers: usize,
    confirmed: u64,
    /// Commits whose outcome is unknowable (connection died mid-commit);
    /// they are neither asserted present nor absent.
    unknown: u64,
    lost: u64,
    failed_writes: u64,
    reads_ok: u64,
    reads_failed: u64,
    retries: u64,
    degraded_cycles: u64,
    /// Worst time from clearing the injected ENOSPC to the environment
    /// leaving read-only mode.
    recovery_ms_max: u64,
    pinned_frames: usize,
    sessions_drained: bool,
    links_drained: bool,
    recovered: bool,
    secs: f64,
}

/// One writer: begin / load a unique document / commit, forever. Every
/// acknowledged commit is recorded as confirmed; a commit whose fate is
/// unknowable (dead connection mid-commit) is recorded as such.
#[allow(clippy::too_many_arguments)]
fn writer_loop(
    w: usize,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    confirmed: Arc<Mutex<Vec<String>>>,
    unknown: Arc<AtomicU64>,
    failed: Arc<AtomicU64>,
    retries: Arc<AtomicU64>,
) {
    let policy = RetryPolicy {
        max_attempts: 6,
        initial_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(200),
        reconnect: true,
    };
    let mut client: Option<RetryingClient> = None;
    let mut round = 0usize;
    while !stop.load(Ordering::SeqCst) {
        let c = match client.as_mut() {
            Some(c) => c,
            None => match RetryingClient::connect(addr, policy.clone()) {
                Ok(c) => client.insert(c),
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(25));
                    continue;
                }
            },
        };
        round += 1;
        let name = format!("w{w}-r{round}");
        let outcome = c
            .begin()
            .and_then(|_| c.load(&name, "<d><v>1</v></d>"))
            .and_then(|_| c.commit());
        match outcome {
            Ok(_) => confirmed.lock().unwrap().push(name),
            Err(e) => {
                // A commit the connection died under may have landed —
                // never assert about it either way.
                let commit_unknowable = matches!(
                    &e,
                    ClientError::Io(_) | ClientError::RetriesExhausted { .. }
                ) && !c.in_txn();
                if commit_unknowable {
                    unknown.fetch_add(1, Ordering::Relaxed);
                } else {
                    failed.fetch_add(1, Ordering::Relaxed);
                }
                if c.in_txn() {
                    let _ = c.rollback();
                }
                if matches!(e, ClientError::Proto(_) | ClientError::Unexpected(_)) {
                    // Desynced stream: start over on a fresh connection.
                    retries.fetch_add(c.total_retries(), Ordering::Relaxed);
                    client = None;
                }
                // Don't hammer a degraded server in a tight loop.
                std::thread::sleep(Duration::from_millis(15));
            }
        }
    }
    if let Some(c) = client {
        retries.fetch_add(c.total_retries(), Ordering::Relaxed);
        let _ = c.close();
    }
}

/// One reader: queries the static document forever; reads must keep
/// being served even while the environment is read-only.
fn reader_loop(
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    ok: Arc<AtomicU64>,
    failed: Arc<AtomicU64>,
    retries: Arc<AtomicU64>,
) {
    let policy = RetryPolicy {
        max_attempts: 6,
        initial_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(200),
        reconnect: true,
    };
    let mut client: Option<RetryingClient> = None;
    while !stop.load(Ordering::SeqCst) {
        let c = match client.as_mut() {
            Some(c) => c,
            None => match RetryingClient::connect(addr, policy.clone()) {
                Ok(c) => client.insert(c),
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(25));
                    continue;
                }
            },
        };
        match c.query("lib", "//b/t", QueryParams::default()) {
            Ok(reply) if reply.count == 3 => {
                ok.fetch_add(1, Ordering::Relaxed);
            }
            Ok(_) => {
                failed.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                failed.fetch_add(1, Ordering::Relaxed);
                if matches!(e, ClientError::Proto(_) | ClientError::Unexpected(_)) {
                    retries.fetch_add(c.total_retries(), Ordering::Relaxed);
                    client = None;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    if let Some(c) = client {
        retries.fetch_add(c.total_retries(), Ordering::Relaxed);
        let _ = c.close();
    }
}

/// Polls `cond` for up to `limit`; true if it held in time.
fn await_cond(limit: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

fn sweep(cfg: &SweepConfig) -> SweepResult {
    let dir = std::env::temp_dir().join(format!(
        "saardb-chaos-{}-{}",
        std::process::id(),
        if bench_mode() { "bench" } else { "smoke" }
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open_dir(&dir, EnvConfig::default()).expect("open chaos database");
    db.load_document("lib", DOC).expect("load static document");
    db.flush().expect("flush static document");
    let faults = Arc::new(FaultState::default());
    db.env().inject_wal_faults(&faults);
    let server = Server::start(
        db.clone(),
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: cfg.writers + cfg.readers + 8,
            handshake_timeout: Duration::from_secs(2),
            frame_timeout: Duration::from_secs(2),
            idle_txn_timeout: Some(Duration::from_secs(2)),
            ..ServerConfig::default()
        },
    )
    .expect("start chaos server");
    let proxy = ChaosProxy::start(server.addr()).expect("start chaos proxy");
    let plan = proxy.plan().clone();
    let addr = proxy.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let confirmed = Arc::new(Mutex::new(Vec::new()));
    let unknown = Arc::new(AtomicU64::new(0));
    let failed_writes = Arc::new(AtomicU64::new(0));
    let reads_ok = Arc::new(AtomicU64::new(0));
    let reads_failed = Arc::new(AtomicU64::new(0));
    let retries = Arc::new(AtomicU64::new(0));

    let started = Instant::now();
    let mut handles = Vec::new();
    for w in 0..cfg.writers {
        let (stop, confirmed, unknown, failed, retries) = (
            stop.clone(),
            confirmed.clone(),
            unknown.clone(),
            failed_writes.clone(),
            retries.clone(),
        );
        handles.push(std::thread::spawn(move || {
            writer_loop(w, addr, stop, confirmed, unknown, failed, retries)
        }));
    }
    for _ in 0..cfg.readers {
        let (stop, ok, failed, retries) = (
            stop.clone(),
            reads_ok.clone(),
            reads_failed.clone(),
            retries.clone(),
        );
        handles.push(std::thread::spawn(move || {
            reader_loop(addr, stop, ok, failed, retries)
        }));
    }

    // The chaos schedule: network-fault phases, then a disk-full cycle,
    // repeated. Each phase is calmed before the next so every fault is
    // exercised against a recovering system, not a permanently broken one.
    let mut recovery_ms_max = 0u64;
    let mut degraded_cycles = 0u64;
    let mut recovered_every_time = true;
    for _cycle in 0..cfg.enospc_cycles {
        plan.set_delay(Direction::Up, 10);
        std::thread::sleep(cfg.phase);
        plan.set_delay(Direction::Up, 0);

        plan.set_trickle(Direction::Down, true);
        std::thread::sleep(cfg.phase);
        plan.set_trickle(Direction::Down, false);

        plan.set_stall(Direction::Up, true);
        std::thread::sleep(cfg.phase / 2);
        plan.set_stall(Direction::Up, false);

        plan.cut_after(Direction::Down, 32);
        std::thread::sleep(cfg.phase);

        plan.set_refuse(true);
        std::thread::sleep(cfg.phase / 2);
        plan.set_refuse(false);

        // Disk full: writers fail typed, readers keep answering.
        faults.set_wal_no_space(true);
        std::thread::sleep(cfg.phase * 2);
        degraded_cycles += 1;
        faults.set_wal_no_space(false);
        let t0 = Instant::now();
        let recovered = await_cond(Duration::from_secs(15), || !db.env().is_read_only());
        recovered_every_time &= recovered;
        recovery_ms_max = recovery_ms_max.max(t0.elapsed().as_millis() as u64);
    }
    // A final calm stretch so in-flight work settles before the audit.
    plan.calm();
    std::thread::sleep(cfg.phase);
    stop.store(true, Ordering::SeqCst);
    for h in handles {
        h.join().expect("chaos client panicked");
    }
    let secs = started.elapsed().as_secs_f64();

    // The audit, against the *server* directly (not through the proxy).
    let sessions_drained = await_cond(Duration::from_secs(10), || server.active_sessions() == 0);
    let links_drained = await_cond(Duration::from_secs(10), || proxy.live_links() == 0);
    let recovered = !db.env().is_read_only() && recovered_every_time;
    let docs = db.documents().expect("list documents for the audit");
    let confirmed = std::mem::take(&mut *confirmed.lock().unwrap());
    let lost = confirmed.iter().filter(|n| !docs.contains(n)).count() as u64;
    let pinned = db.env().pinned_frames();

    drop(proxy);
    server_shutdown(server);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    SweepResult {
        writers: cfg.writers,
        readers: cfg.readers,
        confirmed: confirmed.len() as u64,
        unknown: unknown.load(Ordering::Relaxed),
        lost,
        failed_writes: failed_writes.load(Ordering::Relaxed),
        reads_ok: reads_ok.load(Ordering::Relaxed),
        reads_failed: reads_failed.load(Ordering::Relaxed),
        retries: retries.load(Ordering::Relaxed),
        degraded_cycles,
        recovery_ms_max,
        pinned_frames: pinned,
        sessions_drained,
        links_drained,
        recovered,
        secs,
    }
}

fn server_shutdown(mut server: Server) {
    server.shutdown();
}

/// The absolute acceptance bar; every violation is printed.
fn verdict(r: &SweepResult) -> bool {
    let mut ok = true;
    let mut fail = |cond: bool, what: &str| {
        if !cond {
            println!("CHAOS VIOLATION: {what}");
            ok = false;
        }
    };
    fail(r.lost == 0, "a confirmed commit vanished");
    fail(
        r.confirmed > 0,
        "no commit ever succeeded (sweep proved nothing)",
    );
    fail(
        r.reads_ok > 0,
        "no read ever succeeded (sweep proved nothing)",
    );
    fail(
        r.recovered,
        "environment still read-only after space returned",
    );
    fail(r.degraded_cycles > 0, "ENOSPC was never engaged");
    fail(r.pinned_frames == 0, "buffer-pool frames left pinned");
    fail(r.sessions_drained, "server sessions did not drain to zero");
    fail(r.links_drained, "proxy links did not drain to zero");
    ok
}

impl SweepResult {
    fn row(&self) -> Row {
        vec![
            ("name", Field::Str("sweep")),
            ("writers", Field::Int(self.writers as u64)),
            ("readers", Field::Int(self.readers as u64)),
            ("confirmed", Field::Int(self.confirmed)),
            ("unknown", Field::Int(self.unknown)),
            ("lost", Field::Int(self.lost)),
            ("failed_writes", Field::Int(self.failed_writes)),
            ("reads_ok", Field::Int(self.reads_ok)),
            ("reads_failed", Field::Int(self.reads_failed)),
            ("retries", Field::Int(self.retries)),
            ("degraded_cycles", Field::Int(self.degraded_cycles)),
            ("recovery_ms_max", Field::Int(self.recovery_ms_max)),
            ("pinned_frames", Field::Int(self.pinned_frames as u64)),
            ("secs", Field::Fixed(self.secs, 3)),
        ]
    }
}

/// CI gate: the committed snapshot must be a chaos snapshot (it documents
/// the full sweep), and a re-run bounded sweep must hold every absolute
/// guarantee. No relative throughput bound — fault tolerance is
/// pass/fail.
fn check(_snapshot: &Snapshot) -> bool {
    let r = sweep(&SweepConfig {
        writers: 4,
        readers: 2,
        enospc_cycles: 1,
        phase: Duration::from_millis(200),
    });
    print!("{}", harness::render("chaos", &[r.row()]));
    verdict(&r)
}

fn run() -> Vec<Row> {
    let r = sweep(&SweepConfig::scaled());
    assert!(
        verdict(&r),
        "chaos sweep violated a fault-tolerance guarantee"
    );
    vec![r.row()]
}

fn main() {
    let failure = "chaos sweep violated a fault-tolerance guarantee";
    harness::main("chaos", run, Some((check, failure)));
}
