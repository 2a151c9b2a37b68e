//! Named deterministic regressions promoted from proptest failure seeds.
//!
//! Root cause of the seed below: the planner used to push *strict*
//! predicates (ones that raise the non-text-comparison error when applied
//! to a non-text node, like `$v0 = "x"`) into a full-scan filter *below*
//! the join with the empty `/text()` relation. The filter then evaluated
//! the comparison against every node — including elements — and errored,
//! while the nested M1 semantics never reach the comparison because the
//! `some` clause over `/text()` has no witnesses. The fix defers strict
//! conjuncts until all their relations are placed, so they only apply to
//! rows the join actually produced.

use std::sync::{Arc, Barrier};
use std::time::Duration;
use xmldb_core::{Database, EngineKind, Error, QueryOptions};

/// proptest seed: strict comparison under a `some` over an empty relation.
/// All engines must agree with M1's empty (non-error) answer.
#[test]
fn strict_predicate_not_pushed_below_empty_join() {
    let xml = "<a></a>";
    let q = "if (some $v20 in /text() satisfies true()) \
             then for $v0 in /a return if ($v0 = \"x\") then () else () \
             else ()";
    let db = Database::in_memory();
    db.load_document("doc", xml).unwrap();
    let reference = db.query("doc", q, EngineKind::M1InMemory).unwrap();
    assert_eq!(reference.to_xml(), "");
    for engine in EngineKind::ALL {
        let got = db
            .query("doc", q, engine)
            .unwrap_or_else(|e| panic!("engine {engine} errored: {e}"));
        assert_eq!(got, reference, "engine {engine} diverges from M1");
    }
}

/// Whether another transaction's lock keeps a writer off `doc`: a second
/// transaction, on a thread of its own, tries to drop it (and would roll
/// the drop back). A writer that finds a conflicting lock is counted in
/// `saardb_txn_lock_waits_total` and parks until it is cancelled here.
fn writer_is_blocked(db: &Database, doc: &str) -> bool {
    use xmldb_storage::Governor;
    let waits = db
        .env()
        .registry()
        .counter("saardb_txn_lock_waits_total", &[]);
    let waits_before = waits.get();
    let governor = Governor::unlimited();
    let outcome = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let writer = db.begin();
            let outcome = {
                let (_txn, _governor) = (writer.install(), governor.install());
                db.drop_document(doc)
            };
            writer.rollback().unwrap();
            outcome
        });
        while !writer.is_finished() && waits.get() == waits_before {
            std::thread::yield_now();
        }
        governor.cancel();
        writer.join().unwrap()
    });
    let blocked = waits.get() > waits_before;
    match outcome {
        Ok(()) => assert!(!blocked),
        Err(e) if e.is_cancelled() => assert!(blocked),
        Err(e) => panic!("writer failed: {e}"),
    }
    blocked
}

/// `PreparedQuery::execute` used to run its own copy of the engine
/// dispatch, which installed the governor but neither the transaction of
/// its `QueryOptions` nor any of the per-query accounting: a prepared read
/// inside a transaction took no locks, and prepared executions were
/// invisible in `saardb_queries_total` / `saardb_query_latency_us` and
/// carried no `QueryMetrics`. Ad-hoc and prepared queries now execute
/// through the same function, and both open the document through the one
/// path that locks it for the transaction.
#[test]
fn prepared_query_honours_txn_and_counts_like_adhoc() {
    let db = Database::in_memory();
    db.load_document("doc", "<a><n>x</n><n>y</n></a>").unwrap();
    for engine in EngineKind::ALL {
        let txn = db.begin();
        let options = QueryOptions {
            txn: Some(txn.clone()),
            ..QueryOptions::default()
        };
        let prepared = db.prepare_with("doc", "//n", engine, &options).unwrap();
        assert!(
            writer_is_blocked(&db, "doc"),
            "{engine}: preparing inside a transaction locks the document"
        );

        let labels = [("engine", engine.name())];
        let registry = db.env().registry();
        let queries = registry.counter("saardb_queries_total", &labels);
        let latency = registry.histogram("saardb_query_latency_us", &labels);
        let (queries_before, latency_before) = (queries.get(), latency.count());

        let result = prepared.execute().unwrap();
        assert_eq!(result.to_xml(), "<n>x</n><n>y</n>", "{engine}");
        assert!(
            writer_is_blocked(&db, "doc"),
            "{engine}: a read inside a transaction holds its shared lock until it ends"
        );
        assert_eq!(queries.get(), queries_before + 1, "{engine}");
        assert_eq!(latency.count(), latency_before + 1, "{engine}");
        let metrics = result.metrics().expect("execute attaches QueryMetrics");
        assert!(metrics.io.hits + metrics.io.misses > 0, "{engine}");
        let interpreter = matches!(
            engine,
            EngineKind::M1InMemory | EngineKind::NaiveScan | EngineKind::M2Storage
        );
        assert_eq!(metrics.plan_digest.is_none(), interpreter, "{engine}");

        txn.commit().unwrap();
        assert!(
            !writer_is_blocked(&db, "doc"),
            "{engine}: strict 2PL releases at commit"
        );
        // Outside a transaction the same statement takes no locks at all.
        let untransacted = db.prepare("doc", "//n", engine).unwrap();
        assert_eq!(untransacted.execute().unwrap().to_xml(), result.to_xml());
    }
}

/// Parks until `cond` holds or `deadline` passes; true if it held.
fn eventually(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let until = std::time::Instant::now() + deadline;
    while std::time::Instant::now() < until {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    cond()
}

fn lock_waits(db: &Database) -> Arc<xmldb_obs::Counter> {
    db.env()
        .registry()
        .counter("saardb_txn_lock_waits_total", &[])
}

/// A non-repeatable read under "strict 2PL": a transaction's shared page
/// locks did not conflict with another session's drop, a catalog change
/// that took no lock. The drop returned at once, and the transaction's
/// identical second query got `NoSuchDocument`. A transaction now holds
/// a shared lock on the document to its end, so the drop waits for the
/// commit.
#[test]
fn repeated_read_in_a_transaction_outlasts_a_concurrent_drop() {
    let db = Database::in_memory();
    db.load_document("x", "<a><b>1</b><b>2</b></a>").unwrap();
    let txn = db.begin();
    let options = QueryOptions {
        txn: Some(txn.clone()),
        ..QueryOptions::default()
    };
    let first = db
        .query_with("x", "//b", EngineKind::M4CostBased, &options)
        .unwrap();
    assert_eq!(first.len(), 2);
    let waits = lock_waits(&db);
    let before = waits.get();
    let dropper = {
        let db = db.clone();
        std::thread::spawn(move || db.drop_document("x"))
    };
    assert!(
        eventually(Duration::from_secs(5), || waits.get() > before
            || dropper.is_finished()),
        "the drop neither finished nor waited"
    );
    assert!(!dropper.is_finished(), "the drop must wait for the reader");
    let second = db
        .query_with("x", "//b", EngineKind::M4CostBased, &options)
        .unwrap();
    assert_eq!(second, first, "the transaction's read repeats");
    txn.commit().unwrap();
    dropper.join().unwrap().unwrap();
    assert!(!db.has_document("x"));
    assert!(matches!(
        db.query("x", "//b", EngineKind::M4CostBased),
        Err(Error::NoSuchDocument(_))
    ));
}

/// A drop racing autocommit readers: a drop that found one of the
/// document's frames pinned failed with `FileBusy`, and a drop that got
/// through deleted files from under running queries, which then failed
/// mid-query with an untyped "no such file". The reader's store now pins
/// the document's files; a committed drop leaves them readable to it and
/// frees them with the last pin.
#[test]
fn drop_and_reload_under_a_looping_reader_never_fail_untyped() {
    drop_and_reload_under_a_looping_reader(&Database::in_memory());
}

/// The same race on disk, where a drop's commit fsyncs the log between
/// taking the name out of the catalog and unlinking the files. A reader
/// that opened the document in that window used to find the files still
/// on disk and open them as committed again, and a reader whose last
/// unpin fell in it forgot the files before the unlink, which then never
/// came: either way the reload under the name failed `DocumentExists`.
#[test]
fn drop_and_reload_under_a_looping_reader_on_disk() {
    let dir = std::env::temp_dir().join(format!("saardb-reg-reload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open_dir(&dir, xmldb_storage::EnvConfig::default()).unwrap();
    drop_and_reload_under_a_looping_reader(&db);
    drop(db);
    let db = Database::open_dir(&dir, xmldb_storage::EnvConfig::default()).unwrap();
    assert_eq!(db.documents().unwrap(), ["f"]);
    assert_eq!(
        db.query("f", "//name", EngineKind::M4CostBased)
            .unwrap()
            .len(),
        5_000
    );
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn drop_and_reload_under_a_looping_reader(db: &Database) {
    let mut xml = String::from("<dblp>");
    for i in 0..5_000 {
        xml.push_str(&format!("<rec><name>n{i}</name></rec>"));
    }
    xml.push_str("</dblp>");
    db.load_document("f", &xml).unwrap();
    let done = std::sync::atomic::AtomicBool::new(false);
    let (reads, bad_reads, bad_writes) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let (mut reads, mut bad) = (0, Vec::new());
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                match db.query("f", "//name", EngineKind::M4CostBased) {
                    Ok(r) if r.len() == 5_000 => {}
                    Err(Error::NoSuchDocument(_)) => {}
                    Ok(r) => bad.push(format!("{} items", r.len())),
                    Err(e) => bad.push(format!("{e:?}")),
                }
                reads += 1;
            }
            (reads, bad)
        });
        let mut bad_writes = Vec::new();
        for _ in 0..60 {
            if let Err(e) = db.drop_document("f") {
                bad_writes.push(format!("drop: {e:?}"));
            }
            if let Err(e) = db.load_document("f", &xml) {
                bad_writes.push(format!("reload: {e:?}"));
            }
        }
        done.store(true, std::sync::atomic::Ordering::SeqCst);
        let (reads, bad_reads) = reader.join().unwrap();
        (reads, bad_reads, bad_writes)
    });
    assert!(reads > 0);
    assert_eq!(bad_writes, Vec::<String>::new());
    assert_eq!(bad_reads, Vec::<String>::new());
    assert_eq!(db.env().pinned_frames(), 0);
    assert_eq!(db.documents().unwrap(), ["f"]);
}

/// A transactional reader of a name another transaction is loading waits
/// for that transaction, then sees its outcome: the document after a
/// commit, `NoSuchDocument` after a rollback.
#[test]
fn transactional_reader_waits_for_an_uncommitted_load() {
    for commit in [true, false] {
        let db = Database::in_memory();
        let loader = db.begin();
        {
            let _scope = loader.install();
            db.load_document("y", "<a><b/></a>").unwrap();
        }
        let waits = lock_waits(&db);
        let before = waits.get();
        let reader = {
            let db = db.clone();
            std::thread::spawn(move || {
                let txn = db.begin();
                let options = QueryOptions {
                    txn: Some(txn.clone()),
                    ..QueryOptions::default()
                };
                let seen = db.query_with("y", "//b", EngineKind::M4CostBased, &options);
                txn.commit().unwrap();
                seen
            })
        };
        assert!(
            eventually(Duration::from_secs(5), || waits.get() > before
                || reader.is_finished()),
            "the reader neither finished nor waited"
        );
        assert!(!reader.is_finished(), "the reader must wait for the load");
        if commit {
            loader.commit().unwrap();
            assert_eq!(reader.join().unwrap().unwrap().len(), 1);
        } else {
            loader.rollback().unwrap();
            assert!(matches!(
                reader.join().unwrap(),
                Err(Error::NoSuchDocument(_))
            ));
        }
    }
}

/// Two transactions each query one name (neither document exists yet:
/// the shared lock covers the absence too), then each loads the other's
/// name. Each load waits for the other's shared lock: exactly one of
/// them is the deadlock victim, rolled back with a typed error, and the
/// other commits.
#[test]
fn crossed_query_and_load_deadlock_exactly_once() {
    let db = Database::in_memory();
    let barrier = Barrier::new(2);
    let outcomes: Vec<Result<(), Error>> = std::thread::scope(|s| {
        let run = |read: &'static str, write: &'static str| {
            let (db, barrier) = (&db, &barrier);
            s.spawn(move || {
                let txn = db.begin();
                let options = QueryOptions {
                    txn: Some(txn.clone()),
                    ..QueryOptions::default()
                };
                let absent = db.query_with(read, "/a", EngineKind::M4CostBased, &options);
                assert!(matches!(absent, Err(Error::NoSuchDocument(_))));
                barrier.wait();
                let loaded = {
                    let _scope = txn.install();
                    db.load_document(write, "<a/>")
                };
                match loaded {
                    Ok(()) => txn.commit().map_err(Error::from),
                    Err(e) => {
                        assert!(!txn.is_active(), "a victim is rolled back");
                        Err(e)
                    }
                }
            })
        };
        let (one, two) = (run("p", "q"), run("q", "p"));
        vec![one.join().unwrap(), two.join().unwrap()]
    });
    let deadlocks = outcomes
        .iter()
        .filter(|r| matches!(r, Err(e) if e.is_deadlock()))
        .count();
    assert_eq!(deadlocks, 1, "{outcomes:?}");
    assert!(outcomes.iter().any(Result::is_ok), "{outcomes:?}");
    assert_eq!(db.documents().unwrap().len(), 1);
    assert_eq!(db.env().active_txns(), 0);
}
