//! Network-server load generator: drives a real `saardb` server over TCP
//! with three workloads and snapshots throughput and latency quantiles.
//!
//! * `closed` — closed-loop query throughput: N sessions, each issuing
//!   queries back-to-back for a fixed window; reports requests/second and
//!   client-observed p50/p95/p99 latency per concurrency level.
//! * `swarm` — connection scale: a thousand concurrent connections (64 in
//!   smoke mode), each doing the hello handshake, a burst of pings, one
//!   query and an orderly close. The server must serve every one with
//!   zero server-side errors — the "sustains ≥ 1000 concurrent
//!   connections" acceptance bar.
//! * `admission` — overload: far more connections than a deliberately
//!   tiny server allows. Every extra connection must receive a *typed*
//!   `Busy` rejection (never a stall, never a reset storm), and the
//!   time-to-rejection is reported.
//!
//! Emits a machine-readable JSON snapshot (`BENCH_server.json` at the
//! repo root) and has a regression-gate mode used by CI:
//!
//! ```text
//! cargo bench -p xmldb-bench --bench server -- --out BENCH_server.json
//! cargo bench -p xmldb-bench --bench server -- --check BENCH_server.json
//! ```
//!
//! `--check` re-runs a reduced workload and fails (exit 1) if any
//! connection errors appear in the swarm, if overload rejections stop
//! being typed, or if closed-loop throughput at 16 sessions falls below
//! 40% of the committed snapshot (a deliberately loose bound: CI boxes
//! vary; a protocol-layer stall does not). Under `cargo test --benches`
//! (no `--bench` flag) each workload runs once at a reduced scale.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmldb_bench::harness::{self, bench_mode, best_of, Bound, Field, Row, Snapshot};
use xmldb_core::Database;
use xmldb_server::{AdminServer, Client, ClientError, QueryParams, Server, ServerConfig};

const DOC: &str = "<lib><b><t>alpha</t></b><b><t>beta</t></b><b><t>gamma</t></b></lib>";
const QUERY: &str = "//b/t";

/// Client threads are plentiful (up to 1000); a small stack keeps the
/// generator itself cheap.
const CLIENT_STACK: usize = 256 << 10;

fn spawn_client<T: Send + 'static>(
    f: impl FnOnce() -> T + Send + 'static,
) -> std::thread::JoinHandle<T> {
    std::thread::Builder::new()
        .stack_size(CLIENT_STACK)
        .spawn(f)
        .expect("spawn load-generator thread")
}

/// Connect with retries: a thousand simultaneous SYNs can overflow the
/// accept backlog; a dropped SYN is the kernel's problem to retransmit,
/// a refused connect gets a couple of polite retries before it counts
/// as a failure.
fn connect_patiently(addr: SocketAddr) -> Result<Client, ClientError> {
    let mut last = None;
    for attempt in 0..3 {
        match Client::connect_timeout(&addr, Duration::from_secs(30)) {
            Ok(c) => return Ok(c),
            Err(e @ ClientError::Busy(..)) => return Err(e),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(50 << attempt));
            }
        }
    }
    Err(last.expect("at least one attempt"))
}

fn quantile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1]
}

struct Sample {
    name: &'static str,
    conns: usize,
    requests: u64,
    errors: u64,
    /// Typed Busy rejections (only the admission workload expects any).
    busy: u64,
    /// Highest simultaneously-open session count observed on the server
    /// (sampled from the `saardb_server_sessions_active` gauge).
    peak: usize,
    secs: f64,
    rps: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
}

impl Sample {
    fn row(&self) -> Row {
        vec![
            ("name", Field::Str(self.name)),
            ("conns", Field::Int(self.conns as u64)),
            ("requests", Field::Int(self.requests)),
            ("errors", Field::Int(self.errors)),
            ("busy", Field::Int(self.busy)),
            ("peak_sessions", Field::Int(self.peak as u64)),
            ("secs", Field::Fixed(self.secs, 3)),
            ("rps", Field::Fixed(self.rps, 1)),
            ("p50_us", Field::Int(self.p50_us)),
            ("p95_us", Field::Int(self.p95_us)),
            ("p99_us", Field::Int(self.p99_us)),
        ]
    }
}

/// Starts the data-plane server plus its admin listener on a second
/// ephemeral port, exactly as `saardb serve --admin-addr` wires them.
fn start_server(max_sessions: usize, queue_depth: usize) -> (Server, AdminServer) {
    let db = Database::in_memory();
    db.load_document("lib", DOC).expect("load bench document");
    let server = Server::start(
        db.clone(),
        "127.0.0.1:0",
        ServerConfig {
            max_sessions,
            queue_depth,
            queue_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    )
    .expect("start bench server");
    let admin = AdminServer::start(db, "127.0.0.1:0").expect("start admin listener");
    (server, admin)
}

/// Scrapes `GET /metrics` off the admin listener and asserts the answer
/// is a conformant exposition: 200, the Prometheus content type, and a
/// body the strict in-repo text parser accepts with the server families
/// present. Run mid-swarm, this is the "scrape under load" acceptance
/// check — observability must hold up exactly when it matters.
fn scrape_metrics(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect admin endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set scrape timeout");
    write!(
        stream,
        "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .expect("send scrape request");
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .expect("read scrape response");
    assert!(
        raw.starts_with("HTTP/1.1 200 OK\r\n"),
        "scrape not 200: {raw}"
    );
    assert!(
        raw.contains("Content-Type: text/plain; version=0.0.4"),
        "scrape missing Prometheus content type"
    );
    let body = raw.split("\r\n\r\n").nth(1).expect("scrape body");
    let families = xmldb_obs::textparse::parse(body)
        .unwrap_or_else(|e| panic!("mid-load /metrics is not conformant: {e}"));
    for family in [
        "saardb_server_sessions_active",
        "saardb_server_requests_total",
    ] {
        assert!(
            families.iter().any(|f| f.name == family),
            "mid-load /metrics lacks {family}"
        );
    }
}

/// Closed loop: `conns` sessions each run queries back-to-back for
/// `window`; the wall clock covers the whole fleet.
fn closed_loop(conns: usize, window: Duration) -> Sample {
    let (server, _admin) = start_server(conns + 8, 16);
    let addr = server.addr();
    let total = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let handles: Vec<_> = (0..conns)
        .map(|_| {
            let total = Arc::clone(&total);
            let errors = Arc::clone(&errors);
            spawn_client(move || {
                let mut lat_us = Vec::new();
                let mut client = match connect_patiently(addr) {
                    Ok(c) => c,
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        return lat_us;
                    }
                };
                let deadline = Instant::now() + window;
                while Instant::now() < deadline {
                    let t0 = Instant::now();
                    match client.query("lib", QUERY, QueryParams::default()) {
                        Ok(reply) => {
                            debug_assert_eq!(reply.count, 3);
                            lat_us.push(t0.elapsed().as_micros() as u64);
                            total.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                let _ = client.close();
                lat_us
            })
        })
        .collect();
    let mut all_us: Vec<u64> = Vec::new();
    for h in handles {
        all_us.extend(h.join().expect("closed-loop client panicked"));
    }
    let secs = started.elapsed().as_secs_f64();
    all_us.sort_unstable();
    let requests = total.load(Ordering::Relaxed);
    Sample {
        name: "closed",
        conns,
        requests,
        errors: errors.load(Ordering::Relaxed),
        busy: 0,
        peak: conns,
        secs,
        rps: requests as f64 / secs,
        p50_us: quantile(&all_us, 0.50),
        p95_us: quantile(&all_us, 0.95),
        p99_us: quantile(&all_us, 0.99),
    }
}

/// Swarm: `conns` concurrent connections, each a full-protocol session.
/// Connections ramp in over ~a second (so the SYN burst measures the
/// server, not the kernel backlog), then every client holds its session
/// open until a shared deadline before working and closing — the peak
/// is genuinely `conns` simultaneous sessions, verified against the
/// server's `sessions_active` gauge.
fn swarm(conns: usize) -> Sample {
    let (server, admin) = start_server(conns + 64, 64);
    let addr = server.addr();
    let errors = Arc::new(AtomicU64::new(0));
    let requests = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let hold_until = started + Duration::from_millis(1500);
    let handles: Vec<_> = (0..conns)
        .map(|i| {
            let errors = Arc::clone(&errors);
            let requests = Arc::clone(&requests);
            spawn_client(move || {
                std::thread::sleep(Duration::from_millis((i % 97) as u64 * 10));
                let mut lat_us = Vec::new();
                let mut client = match connect_patiently(addr) {
                    Ok(c) => c,
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        return lat_us;
                    }
                };
                if let Some(wait) = hold_until.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                for _ in 0..5 {
                    let t0 = Instant::now();
                    if client.ping().is_err() {
                        errors.fetch_add(1, Ordering::Relaxed);
                        return lat_us;
                    }
                    lat_us.push(t0.elapsed().as_micros() as u64);
                    requests.fetch_add(1, Ordering::Relaxed);
                }
                let t0 = Instant::now();
                match client.query("lib", QUERY, QueryParams::default()) {
                    Ok(_) => {
                        lat_us.push(t0.elapsed().as_micros() as u64);
                        requests.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        return lat_us;
                    }
                }
                if client.close().is_err() {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
                lat_us
            })
        })
        .collect();
    // Sample the active-session gauge through the hold window, and
    // scrape /metrics off the admin plane while the full swarm is
    // connected — the exposition must stay conformant under peak load.
    let mut peak = 0usize;
    let mut scrapes = 0u32;
    while Instant::now() < hold_until + Duration::from_millis(100) {
        peak = peak.max(server.active_sessions());
        if peak >= conns && scrapes < 3 {
            scrape_metrics(admin.addr());
            scrapes += 1;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        scrapes > 0,
        "swarm ended before any mid-load /metrics scrape"
    );
    let mut all_us: Vec<u64> = Vec::new();
    for h in handles {
        all_us.extend(h.join().expect("swarm client panicked"));
    }
    let secs = started.elapsed().as_secs_f64();
    all_us.sort_unstable();
    let reqs = requests.load(Ordering::Relaxed);
    Sample {
        name: "swarm",
        conns,
        requests: reqs,
        errors: errors.load(Ordering::Relaxed),
        busy: 0,
        peak,
        secs,
        rps: reqs as f64 / secs,
        p50_us: quantile(&all_us, 0.50),
        p95_us: quantile(&all_us, 0.95),
        p99_us: quantile(&all_us, 0.99),
    }
}

/// Overload: `offered` connections against a server that admits 8 and
/// queues 4. The excess must be *rejected typed* — the latencies recorded
/// here are times-to-rejection, which admission control keeps bounded.
fn admission(offered: usize) -> Sample {
    let (server, _admin) = start_server(8, 4);
    let addr = server.addr();
    let busy = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let handles: Vec<_> = (0..offered)
        .map(|_| {
            let busy = Arc::clone(&busy);
            let served = Arc::clone(&served);
            let errors = Arc::clone(&errors);
            spawn_client(move || {
                let t0 = Instant::now();
                match Client::connect_timeout(&addr, Duration::from_secs(30)) {
                    Ok(mut client) => {
                        // Admitted: hold the slot long enough that the
                        // rest of the fleet actually overloads the queue.
                        std::thread::sleep(Duration::from_millis(200));
                        if client.query("lib", QUERY, QueryParams::default()).is_err() {
                            errors.fetch_add(1, Ordering::Relaxed);
                        } else {
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                        let _ = client.close();
                        None
                    }
                    Err(ClientError::Busy(..)) => {
                        busy.fetch_add(1, Ordering::Relaxed);
                        Some(t0.elapsed().as_micros() as u64)
                    }
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        None
                    }
                }
            })
        })
        .collect();
    let mut reject_us: Vec<u64> = handles
        .into_iter()
        .filter_map(|h| h.join().expect("admission client panicked"))
        .collect();
    let secs = started.elapsed().as_secs_f64();
    reject_us.sort_unstable();
    let served = served.load(Ordering::Relaxed);
    Sample {
        name: "admission",
        conns: offered,
        requests: served,
        errors: errors.load(Ordering::Relaxed),
        busy: busy.load(Ordering::Relaxed),
        peak: 8,
        secs,
        rps: served as f64 / secs,
        p50_us: quantile(&reject_us, 0.50),
        p95_us: quantile(&reject_us, 0.95),
        p99_us: quantile(&reject_us, 0.99),
    }
}

/// CI regression gate. Absolute invariants first (they hold on any box):
/// zero connection errors in a reduced swarm, typed rejections under
/// overload. Then a loose relative bound: closed-loop throughput at 16
/// sessions ≥ 40% of the committed snapshot, best of three attempts.
fn check(snapshot: &Snapshot) -> bool {
    const RPS_FRACTION: f64 = 0.40;
    let [_, base_rps] = snapshot
        .rows("closed", ["conns", "rps"])
        .into_iter()
        .find(|[conns, _]| *conns == 16.0)
        .expect("no closed@16 entry in the committed snapshot");
    let floor = base_rps * RPS_FRACTION;

    let mut ok = true;

    let s = swarm(200);
    let swarm_ok = s.errors == 0 && s.requests == 200 * 6 && s.peak >= s.conns;
    println!(
        "swarm     conns {:>5}  reqs {:>8}  errors {:>3}  peak {:>5}  {}",
        s.conns,
        s.requests,
        s.errors,
        s.peak,
        if swarm_ok { "ok" } else { "CONNECTION ERRORS" }
    );
    ok &= swarm_ok;

    let a = admission(48);
    let adm_ok = a.busy > 0 && a.errors == 0;
    println!(
        "admission conns {:>5}  served {:>6}  busy {:>3}  errors {:>3}  p99-reject {:>7}us  {}",
        a.conns,
        a.requests,
        a.busy,
        a.errors,
        a.p99_us,
        if adm_ok { "ok" } else { "UNTYPED REJECTIONS" }
    );
    ok &= adm_ok;

    let mut errors = 0;
    let (best, tp_ok) = best_of(3, Bound::Floor(floor), || {
        let c = closed_loop(16, Duration::from_secs(1));
        errors += c.errors;
        c.rps
    });
    if errors > 0 {
        println!("closed    conns    16  errors {errors:>3}  REQUEST ERRORS");
        return false;
    }
    println!(
        "closed    conns    16  {best:>8.1} req/s (snapshot {base_rps:>8.1}, floor \
         {floor:>8.1})  {}",
        if tp_ok { "ok" } else { "THROUGHPUT REGRESSED" }
    );
    ok &= tp_ok;
    ok
}

fn run() -> Vec<Row> {
    let (levels, window, swarm_conns, offered): (&[usize], _, _, _) = if bench_mode() {
        (&[1, 4, 16, 64], Duration::from_secs(2), 1000, 64)
    } else {
        (&[1, 4], Duration::from_millis(300), 64, 24)
    };
    let mut samples: Vec<Sample> = levels
        .iter()
        .map(|&conns| closed_loop(conns, window))
        .collect();
    samples.push(swarm(swarm_conns));
    samples.push(admission(offered));
    for r in &samples {
        if r.name != "admission" {
            assert_eq!(r.errors, 0, "{} workload saw connection errors", r.name);
        }
        if r.name == "swarm" {
            assert!(
                r.peak >= r.conns,
                "swarm never reached {} simultaneous sessions (peak {})",
                r.conns,
                r.peak
            );
        }
    }
    samples.iter().map(Sample::row).collect()
}

fn main() {
    let failure = "server regression (connection errors, untyped rejection, or throughput)";
    harness::main("server", run, Some((check, failure)));
}
