//! Watchdog and degradation tests: slow-loris connections are severed
//! instead of pinning session slots, idle-in-transaction sessions are
//! reaped so their locks free, disk-full commits degrade to read-only
//! instead of corrupting anything, and the watchdog recovers the
//! environment once space is back.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use xmldb_core::Database;
use xmldb_server::proto::{read_frame, write_frame, Request, MAX_FRAME_LEN, PROTOCOL_VERSION};
use xmldb_server::{
    Client, ClientError, ErrorCode, QueryParams, RetryPolicy, RetryingClient, Server, ServerConfig,
};
use xmldb_storage::{EnvConfig, FaultState};

const DOC: &str = "<lib><b><t>a</t></b><b><t>b</t></b><b><t>c</t></b></lib>";

fn server_with(config: ServerConfig) -> (Database, Server) {
    let db = Database::in_memory();
    db.load_document("lib", DOC).unwrap();
    let server = Server::start(db.clone(), "127.0.0.1:0", config).unwrap();
    (db, server)
}

/// Sums a counter family across its label sets.
fn counter(db: &Database, name: &str) -> u64 {
    db.env()
        .registry()
        .counter_values()
        .into_iter()
        .filter(|(series, _)| series == name || series.starts_with(&format!("{name}{{")))
        .map(|(_, v)| v)
        .sum()
}

/// Polls until `cond` holds or the deadline passes; asserts it held.
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for: {what}");
}

/// A connection that never says hello is cut by the handshake deadline —
/// it must not hold its session slot hostage.
#[test]
fn silent_connection_is_severed_at_handshake_deadline() {
    let (db, server) = server_with(ServerConfig {
        handshake_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let loris = TcpStream::connect(server.addr()).unwrap();
    eventually("handshake sever", || {
        counter(&db, "saardb_server_watchdog_severed_total") >= 1
    });
    eventually("slot released", || server.active_sessions() == 0);
    // The server hung up on us: the next read sees EOF or a reset.
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 8];
    match std::io::Read::read(&mut { loris }, &mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("severed connection produced {n} bytes"),
    }
    // A well-behaved client still gets in afterwards.
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(
        client
            .query("lib", "//t", QueryParams::default())
            .unwrap()
            .count,
        3
    );
}

/// A client that sends half a frame and stalls is in the deadline-ed
/// mid-frame phase, even though the idle timeout is disabled.
#[test]
fn half_a_frame_then_silence_is_severed() {
    let (db, server) = server_with(ServerConfig {
        frame_timeout: Duration::from_millis(300),
        idle_timeout: None,
        ..ServerConfig::default()
    });
    let mut loris = TcpStream::connect(server.addr()).unwrap();
    // Complete the handshake honestly…
    write_frame(
        &mut loris,
        &Request::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode(),
    )
    .unwrap();
    read_frame(&mut loris, MAX_FRAME_LEN).unwrap();
    // …then trickle three bytes of the next frame header and stop.
    loris.write_all(&[0x03, 0x00, 0x00]).unwrap();
    let severed_before = counter(&db, "saardb_server_watchdog_severed_total");
    eventually("mid-frame sever", || {
        counter(&db, "saardb_server_watchdog_severed_total") > severed_before
    });
    eventually("slot released", || server.active_sessions() == 0);
}

/// The idle-in-transaction reaper: a transaction that loaded a document
/// (exclusive locks held) and went silent is severed, its transaction
/// rolls back, and a second client can immediately take the same locks.
#[test]
fn idle_in_transaction_is_reaped_and_locks_free() {
    let (db, server) = server_with(ServerConfig {
        idle_txn_timeout: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    });
    let mut zombie = Client::connect(server.addr()).unwrap();
    zombie.begin().unwrap();
    zombie.load("contested", "<mine/>").unwrap();
    let rollbacks_before = counter(&db, "saardb_server_disconnect_rollbacks_total");
    // Say nothing; hold the locks. The reaper must notice.
    eventually("idle-txn sever", || {
        counter(&db, "saardb_server_watchdog_severed_total") >= 1
    });
    eventually("transaction rolled back", || {
        counter(&db, "saardb_server_disconnect_rollbacks_total") > rollbacks_before
    });
    eventually("slot released", || server.active_sessions() == 0);
    // The rolled-back load is gone and its locks are free: a new client
    // can load the same name and commit it.
    let mut heir = Client::connect(server.addr()).unwrap();
    assert!(!heir.list_docs().unwrap().contains(&"contested".to_string()));
    heir.begin().unwrap();
    heir.load("contested", "<heir/>").unwrap();
    heir.commit().unwrap();
    assert_eq!(
        heir.query("contested", "//heir", QueryParams::default())
            .unwrap()
            .count,
        1
    );
    // The zombie's next request fails — its connection is dead.
    assert!(zombie.ping().is_err());
}

/// An idle session (no transaction) outlives the idle-txn deadline: only
/// sessions holding locks are reaped by default.
#[test]
fn plain_idle_sessions_are_not_reaped_by_default() {
    let (db, server) = server_with(ServerConfig {
        idle_txn_timeout: Some(Duration::from_millis(200)),
        idle_timeout: None,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(600));
    assert_eq!(counter(&db, "saardb_server_watchdog_severed_total"), 0);
    client.ping().unwrap();
    drop(server);
}

/// Disk full over the wire: a commit that hits ENOSPC fails with the
/// typed `ReadOnly`-family answer, reads keep working, writes are refused
/// while degraded, and once space is back the watchdog recovers the
/// environment without a restart.
#[test]
fn enospc_degrades_to_read_only_and_watchdog_recovers() {
    let dir = std::env::temp_dir().join(format!("saardb-wire-nospace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open_dir(&dir, EnvConfig::default()).unwrap();
    db.load_document("lib", DOC).unwrap();
    db.flush().unwrap();
    let faults = std::sync::Arc::new(FaultState::default());
    db.env().inject_wal_faults(&faults);
    let server = Server::start(db.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();

    // Fill the (virtual) volume and try a write: the WAL append hits
    // ENOSPC and the statement fails with the typed answer (the catalog
    // write is logged eagerly, so the load itself reports it).
    faults.set_wal_no_space(true);
    let mut writer = Client::connect(server.addr()).unwrap();
    let err = writer.load("newdoc", "<n/>").unwrap_err();
    match err {
        ClientError::Server(code, _) => {
            assert_eq!(code, ErrorCode::ReadOnly, "write on a full volume")
        }
        other => panic!("expected a typed server error, got {other}"),
    }
    assert!(db.env().is_read_only(), "ENOSPC must latch degraded mode");
    assert_eq!(db.env().pinned_frames(), 0, "failed commit leaked pins");

    // Degraded mode: reads fine, writes typed-refused, retrying clients
    // do NOT hammer the full volume (ReadOnly is not auto-retried).
    let mut reader = RetryingClient::connect(server.addr(), RetryPolicy::default()).unwrap();
    assert_eq!(
        reader
            .query("lib", "//t", QueryParams::default())
            .unwrap()
            .count,
        3
    );
    match reader.load("refused", "<no/>").unwrap_err() {
        ClientError::Server(code, _) => assert_eq!(code, ErrorCode::ReadOnly),
        other => panic!("expected typed read-only refusal, got {other}"),
    }
    assert_eq!(reader.total_retries(), 0, "read-only must not be retried");

    // Space comes back; the server's watchdog notices and recovers — and
    // removes the phantom of the failed load (the client was told it
    // failed, so it must not materialize after recovery).
    faults.set_wal_no_space(false);
    eventually("watchdog recovery", || !db.env().is_read_only());
    assert!(counter(&db, "saardb_server_watchdog_reclaims_total") >= 1);
    eventually("failed load compensated", || !db.has_document("newdoc"));
    let mut again = Client::connect(server.addr()).unwrap();
    again.load("newdoc", "<n/>").unwrap();
    assert_eq!(
        again
            .query("newdoc", "//n", QueryParams::default())
            .unwrap()
            .count,
        1
    );

    drop(server);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
