//! Server smoke tests: concurrent well-behaved clients, a client killed
//! mid-transaction (its transaction must roll back and its locks must
//! free), typed admission rejections at capacity, and graceful shutdown
//! with sessions still attached.
//!
//! The `#[ignore]` variant at the bottom scales the same scenario up for
//! CI's explicit sweep.

use std::net::TcpStream;
use std::time::{Duration, Instant};
use xmldb_core::Database;
use xmldb_server::proto::{
    read_frame, write_frame, Request, Response, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use xmldb_server::{Client, ClientError, ErrorCode, QueryParams, Server, ServerConfig};

const DOC: &str = "<lib><b><t>a</t></b><b><t>b</t></b><b><t>c</t></b></lib>";

fn server_with(config: ServerConfig) -> (Database, Server) {
    let db = Database::in_memory();
    db.load_document("lib", DOC).unwrap();
    let server = Server::start(db.clone(), "127.0.0.1:0", config).unwrap();
    (db, server)
}

/// A document big enough that a naive scan cannot finish in a millisecond.
fn load_big(db: &Database) {
    let mut big = String::from("<big>");
    for i in 0..600 {
        big.push_str(&format!("<b><t>t{i}</t></b>"));
    }
    big.push_str("</big>");
    db.load_document("big", &big).unwrap();
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

/// Many clients hammering queries, loads and transactions concurrently —
/// every well-formed request succeeds, nothing panics server-side.
#[test]
fn concurrent_clients_all_succeed() {
    let (db, server) = server_with(ServerConfig::default());
    let addr = server.addr();
    let threads: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..10 {
                    let reply = client.query("lib", "//t", QueryParams::default()).unwrap();
                    assert_eq!(reply.count, 3, "client {t} round {round}");
                    // A private per-client document exercises write paths
                    // and the catalog under concurrency.
                    let doc = format!("scratch-{t}");
                    client.load(&doc, "<x><y>1</y></x>").unwrap();
                    let reply = client.query(&doc, "//y", QueryParams::default()).unwrap();
                    assert_eq!(reply.count, 1);
                    client.drop_doc(&doc).unwrap();
                }
                // Prepared statements round-trip on the same session.
                let id = client.prepare("lib", "//b/t", None).unwrap();
                for _ in 0..5 {
                    assert_eq!(client.exec_prepared(id).unwrap().count, 3);
                }
                client.close().unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread panicked");
    }
    assert_eq!(counter(&db, "saardb_server_connections_total"), 8);
    assert_eq!(counter(&db, "saardb_server_rejected_total"), 0);
    eventually("all sessions drained", || server.active_sessions() == 0);
}

/// A statement prepared inside a transaction outlives it: later
/// executions run under the session's then-current transaction (or none),
/// never under the finished one it was prepared in.
#[test]
fn prepared_statement_outlives_its_transaction() {
    let (_db, server) = server_with(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    client.begin().unwrap();
    let id = client.prepare("lib", "//b/t", None).unwrap();
    assert_eq!(client.exec_prepared(id).unwrap().count, 3);
    client.commit().unwrap();
    assert_eq!(client.exec_prepared(id).unwrap().count, 3);
    // Inside the next transaction it sees that transaction's writes.
    client.begin().unwrap();
    client.load("extra", "<b><t>d</t></b>").unwrap();
    let extra = client.prepare("extra", "//b/t", None).unwrap();
    assert_eq!(client.exec_prepared(extra).unwrap().count, 1);
    assert_eq!(client.exec_prepared(id).unwrap().count, 3);
    client.rollback().unwrap();
    assert_eq!(client.exec_prepared(id).unwrap().count, 3);
    client.close().unwrap();
}

/// A client killed mid-transaction: the server must notice the broken
/// connection, roll the transaction back, and release its locks so other
/// sessions can write the same document.
#[test]
fn killed_client_mid_transaction_rolls_back() {
    let (db, server) = server_with(ServerConfig::default());
    let mut victim = Client::connect(server.addr()).unwrap();
    victim.begin().unwrap();
    victim.load("doomed", "<gone/>").unwrap();
    // The uncommitted document is the victim's private view.
    assert_eq!(
        victim
            .query("doomed", "//gone", QueryParams::default())
            .unwrap()
            .count,
        1
    );
    let rollbacks_before = counter(&db, "saardb_server_disconnect_rollbacks_total");
    drop(victim); // no Close, no commit — the socket just dies
    eventually("disconnect rollback", || {
        counter(&db, "saardb_server_disconnect_rollbacks_total") > rollbacks_before
    });
    // The load was rolled back…
    let mut observer = Client::connect(server.addr()).unwrap();
    assert!(!observer
        .list_docs()
        .unwrap()
        .contains(&"doomed".to_string()));
    // …and its locks were released: the same name is free for others.
    observer.begin().unwrap();
    observer.load("doomed", "<kept/>").unwrap();
    observer.commit().unwrap();
    assert_eq!(
        observer
            .query("doomed", "//kept", QueryParams::default())
            .unwrap()
            .count,
        1
    );
    observer.close().unwrap();
}

/// At capacity the server answers a typed `Busy` — immediately when the
/// queue is full, after `queue_timeout` for queued connections that never
/// get a slot — and never accept-and-stalls.
#[test]
fn admission_control_rejects_typed() {
    let (db, server) = server_with(ServerConfig {
        max_sessions: 2,
        queue_depth: 1,
        queue_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    // Fill both session slots.
    let mut holders = vec![
        Client::connect(server.addr()).unwrap(),
        Client::connect(server.addr()).unwrap(),
    ];
    // Third connection parks in the admission queue (no slot, no answer yet).
    let mut queued = TcpStream::connect(server.addr()).unwrap();
    queued
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write_frame(
        &mut queued,
        &Request::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode(),
    )
    .unwrap();
    eventually("connection queued", || server.queued_connections() == 1);
    // Fourth overflows the queue: immediate typed rejection.
    let started = Instant::now();
    match Client::connect(server.addr()) {
        Err(ClientError::Busy(active, _, _)) => assert_eq!(active, 2),
        other => panic!("expected Busy, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_millis(250),
        "queue-full rejection must not wait out the queue timeout"
    );
    // The queued third connection times out with a typed Busy too.
    let payload = read_frame(&mut queued, MAX_FRAME_LEN).unwrap();
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::Busy { .. }
    ));
    assert!(counter(&db, "saardb_server_rejected_total") >= 2);
    // Freeing a slot lets a new client in.
    holders.pop().unwrap().close().unwrap();
    eventually("slot released", || server.active_sessions() < 2);
    let mut late = Client::connect(server.addr()).unwrap();
    late.ping().unwrap();
    late.close().unwrap();
    for h in holders {
        h.close().unwrap();
    }
}

/// Queued connections are *served* (not rejected) when a slot frees
/// within the timeout, and the wait lands in the admission histogram.
#[test]
fn queued_connection_gets_served_when_slot_frees() {
    let (db, server) = server_with(ServerConfig {
        max_sessions: 1,
        queue_depth: 4,
        queue_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    });
    let holder = Client::connect(server.addr()).unwrap();
    let addr = server.addr();
    let waiter = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap(); // blocks in the queue
        client.ping().unwrap();
        client.close().unwrap();
    });
    eventually("waiter queued", || server.queued_connections() == 1);
    holder.close().unwrap();
    waiter.join().expect("queued client must be served");
    let wait = db
        .env()
        .registry()
        .histogram("saardb_server_admission_wait_us", &[])
        .snapshot();
    assert!(wait.count >= 1, "admission wait must be recorded");
}

/// Graceful shutdown with live sessions: in-flight transactions roll
/// back, session threads join, the listener stops, and late connections
/// are refused rather than stalled.
#[test]
fn graceful_shutdown_severs_sessions_and_rolls_back() {
    let (db, mut server) = server_with(ServerConfig::default());
    let addr = server.addr();
    let mut idle = Client::connect(addr).unwrap();
    idle.ping().unwrap();
    let mut in_txn = Client::connect(addr).unwrap();
    in_txn.begin().unwrap();
    in_txn.load("mid-flight", "<x/>").unwrap();
    let rollbacks_before = counter(&db, "saardb_server_disconnect_rollbacks_total");
    server.shutdown();
    // Shutdown joined every session thread: the open transaction is gone.
    assert!(
        counter(&db, "saardb_server_disconnect_rollbacks_total") > rollbacks_before,
        "shutdown must roll back in-flight transactions"
    );
    assert_eq!(server.active_sessions(), 0);
    assert!(!db.documents().unwrap().contains(&"mid-flight".to_string()));
    // Severed clients observe a dead connection, not a hang.
    assert!(idle.ping().is_err());
    // And nobody new gets in.
    assert!(
        Client::connect(addr).is_err() || {
            // The OS may still complete the TCP handshake on the dead
            // listener's backlog; the session must then fail, not serve.
            let mut c = Client::connect(addr).unwrap();
            c.ping().is_err()
        }
    );
    // Idempotent.
    server.shutdown();
}

/// Per-request budgets flow over the wire: a 1 ms deadline on a naive
/// scan of a 600-element document fails typed with `DeadlineExceeded`,
/// and the session survives to run the same query unbudgeted.
#[test]
fn wire_budgets_reach_the_governor() {
    let (db, server) = server_with(ServerConfig::default());
    load_big(&db);
    let mut client = Client::connect(server.addr()).unwrap();
    let query = "for $b in //b return if (some $s in $b//text() satisfies $s = 'zzz') \
                 then $b else ()";
    let naive = QueryParams {
        engine: Some(1), // naive scan: slow on purpose
        timeout_ms: 1,
        ..QueryParams::default()
    };
    let mut tripped = false;
    for _ in 0..20 {
        match client.query("big", query, naive) {
            Err(ClientError::Server(code, message)) => {
                assert_eq!(code, ErrorCode::DeadlineExceeded, "{message}");
                tripped = true;
                break;
            }
            Ok(_) => continue, // finished inside 1 ms; try again
            Err(other) => panic!("unexpected failure {other:?}"),
        }
    }
    assert!(
        tripped,
        "a 1 ms deadline never tripped on a 600-element naive scan"
    );
    // Session survives the typed failure, and the unbudgeted run works.
    let reply = client
        .query(
            "big",
            query,
            QueryParams {
                engine: Some(1),
                ..QueryParams::default()
            },
        )
        .unwrap();
    assert_eq!(reply.count, 0);
    client.close().unwrap();
}

/// A result larger than one frame is answered with a typed error that
/// gives its size, not sent: the connection stays in step and answers the
/// next query. The 1 MiB text also goes through the B+-tree builder's
/// overflow pages.
#[test]
fn an_oversized_result_gets_a_typed_error_and_the_session_survives() {
    let (db, server) = server_with(ServerConfig::default());
    let mut xml = String::from("<r>");
    for _ in 0..70 {
        xml.push_str("<b/>");
    }
    xml.push_str("<t>");
    xml.push_str(&"x".repeat(1 << 20));
    xml.push_str("</t></r>");
    db.load_document("wide", &xml).unwrap();
    drop(xml);
    let mut client = Client::connect(server.addr()).unwrap();
    let query = "for $b in //b return for $t in //t return $t";
    match client.query("wide", query, QueryParams::default()) {
        Err(ClientError::Server(code, message)) => {
            assert_eq!(code, ErrorCode::ResultTooLarge, "{message}");
            assert!(message.contains(&MAX_FRAME_LEN.to_string()), "{message}");
        }
        other => panic!("expected a typed result-too-large error, got {other:?}"),
    }
    let reply = client.query("lib", "//t", QueryParams::default()).unwrap();
    assert_eq!(reply.count, 3);
    client.close().unwrap();
}

/// `write_frame` refuses a payload over the frame limit instead of sending
/// a frame no reader accepts.
#[test]
fn write_frame_refuses_an_oversized_payload() {
    let mut wire = Vec::new();
    let err = write_frame(&mut wire, &vec![0u8; MAX_FRAME_LEN + 1]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(wire.is_empty(), "nothing was written");
}

/// CI's scaled variant: dozens of concurrent clients, several killed
/// mid-transaction at random points, typed rejections under overload, and
/// a clean full shutdown at the end. Run with `--ignored`.
#[test]
#[ignore = "scaled smoke for CI (seconds of wall clock)"]
fn smoke_full_concurrent_with_kills() {
    let (db, mut server) = server_with(ServerConfig {
        max_sessions: 32,
        queue_depth: 16,
        queue_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    });
    /// How one client of the storm ended.
    #[derive(PartialEq)]
    enum End {
        Closed,
        Killed,
        DeadlockVictim,
    }
    let addr = server.addr();
    let threads: Vec<_> = (0..48)
        .map(|t| {
            std::thread::spawn(move || {
                let client = match Client::connect_timeout(&addr, Duration::from_secs(10)) {
                    Ok(c) => c,
                    // Typed rejection under overload is an acceptable
                    // outcome for a load generator — a stall is not.
                    Err(ClientError::Busy(..)) => return End::Closed,
                    Err(e) => panic!("client {t}: {e}"),
                };
                let mut client = client;
                client
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                for round in 0..6 {
                    let reply = client.query("lib", "//t", QueryParams::default()).unwrap();
                    assert_eq!(reply.count, 3, "client {t} round {round}");
                }
                if t % 4 == 0 {
                    // Die mid-transaction, sometimes with a dirty write.
                    client.begin().unwrap();
                    if t % 8 == 0 {
                        match client.load(&format!("dirty-{t}"), "<x/>") {
                            Ok(_) => {}
                            // Loads of distinct documents can pick deadlock
                            // victims. The server has already rolled the
                            // victim back and dropped its document, so its
                            // disconnect has nothing left to roll back.
                            Err(ClientError::Server(ErrorCode::Deadlock, _)) => {
                                return End::DeadlockVictim
                            }
                            Err(e) => panic!("client {t}: {e}"),
                        }
                    }
                    drop(client); // killed: no rollback, no close
                    return End::Killed;
                }
                client.close().unwrap();
                End::Closed
            })
        })
        .collect();
    let ends: Vec<End> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread panicked"))
        .collect();
    let kills = ends.iter().filter(|e| **e == End::Killed).count();
    let victims = ends.iter().filter(|e| **e == End::DeadlockVictim).count();
    assert!(
        kills + victims >= 10,
        "the kill schedule must reach its clients: {kills} killed, {victims} deadlock victims"
    );
    eventually("all kills rolled back", || {
        counter(&db, "saardb_server_disconnect_rollbacks_total") >= kills as u64
    });
    // No dirty document survived its killed transaction.
    for doc in db.documents().unwrap() {
        assert!(!doc.starts_with("dirty-"), "{doc} leaked from a killed txn");
    }
    server.shutdown();
    assert_eq!(server.active_sessions(), 0);
}
