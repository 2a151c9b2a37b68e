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

use xmldb_core::{Database, EngineKind};

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

/// Whether another transaction's locks keep a writer off `doc`'s node
/// pages: a second transaction, on a thread of its own, tries to insert
/// into the clustered index. A writer that finds a conflicting lock is
/// counted in `saardb_txn_lock_waits_total` and parks until it is
/// cancelled here.
fn writer_is_blocked(db: &Database, doc: &str) -> bool {
    use xmldb_storage::{BTree, Governor, StorageError};
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
                BTree::open(db.env(), &xmldb_xasr::store::file_names(doc).clustered)
                    .and_then(|mut nodes| nodes.insert(&u64::MAX.to_be_bytes(), b""))
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
        Ok(_) => assert!(!blocked),
        Err(StorageError::Cancelled) => assert!(blocked),
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
/// through the same function.
#[test]
fn prepared_query_honours_txn_and_counts_like_adhoc() {
    use xmldb_core::QueryOptions;
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
            !writer_is_blocked(&db, "doc"),
            "{engine}: preparing reads no pages"
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
            "{engine}: a read inside a transaction holds shared page locks until it ends"
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
