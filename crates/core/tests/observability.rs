//! End-to-end tests for the unified observability layer: span trees on
//! query metrics, the flight recorder, plan digests, and the registry
//! exposition fed by real queries.

use std::time::Duration;
use xmldb_core::{Database, EngineKind, Governor, QueryOptions};

const FIGURE2: &str =
    "<journal><authors><name>Ana</name><name>Bob</name></authors><title>DB</title></journal>";

fn db() -> Database {
    let db = Database::in_memory();
    db.load_document("doc", FIGURE2).unwrap();
    db
}

#[test]
fn query_metrics_carry_span_tree() {
    let db = db();
    let r = db.query("doc", "//name", EngineKind::M4CostBased).unwrap();
    let m = r.metrics().expect("metrics attached");
    let names: Vec<&str> = m.spans.spans.iter().map(|s| s.name).collect();
    for expected in ["parse", "analyze", "optimize", "plan", "exec"] {
        assert!(
            names.contains(&expected),
            "missing span {expected}: {names:?}"
        );
    }
    // exec carries the engine attribute and io deltas.
    let exec = m.spans.spans.iter().find(|s| s.name == "exec").unwrap();
    assert!(
        exec.attrs
            .iter()
            .any(|(k, v)| *k == "engine" && v.to_string() == "m4-costbased"),
        "{:?}",
        exec.attrs
    );
    let rendered = m.spans.render();
    assert!(rendered.contains("exec"), "{rendered}");
    // An ad-hoc query plans inside `exec`: its planning spans are children
    // of it, so `elapsed` and the latency histogram cover planning too.
    let exec_index = m.spans.spans.iter().position(|s| s.name == "exec");
    for planning in ["analyze", "optimize", "plan"] {
        let span = m.spans.spans.iter().find(|s| s.name == planning).unwrap();
        assert_eq!(span.parent, exec_index, "{planning}:\n{rendered}");
        assert!(m.elapsed.as_nanos() as u64 >= span.elapsed_ns, "{rendered}");
    }
}

#[test]
fn interpreter_engines_skip_plan_spans() {
    let db = db();
    let r = db.query("doc", "//name", EngineKind::M2Storage).unwrap();
    let m = r.metrics().unwrap();
    let names: Vec<&str> = m.spans.spans.iter().map(|s| s.name).collect();
    assert!(names.contains(&"parse"), "{names:?}");
    assert!(names.contains(&"exec"), "{names:?}");
    assert!(!names.contains(&"plan"), "{names:?}");
    assert!(m.plan_digest.is_none(), "interpreters have no plan digest");
}

#[test]
fn plan_digest_is_stable_per_plan() {
    let db = db();
    let d1 = db
        .query("doc", "//name", EngineKind::M4CostBased)
        .unwrap()
        .metrics()
        .unwrap()
        .plan_digest
        .expect("algebraic engines digest their plans");
    let d2 = db
        .query("doc", "//name", EngineKind::M4CostBased)
        .unwrap()
        .metrics()
        .unwrap()
        .plan_digest
        .unwrap();
    assert_eq!(d1, d2, "same query, same plan, same digest");
    let d3 = db
        .query("doc", "//title", EngineKind::M4CostBased)
        .unwrap()
        .metrics()
        .unwrap()
        .plan_digest
        .unwrap();
    assert_ne!(d1, d3, "different query shape, different digest");
}

#[test]
fn flight_recorder_sees_successes_and_failures() {
    let db = db();
    db.query("doc", "//name", EngineKind::M4CostBased).unwrap();
    let err = db.query("doc", "for $x in", EngineKind::M1InMemory);
    assert!(err.is_err());
    let records = db.flight_recorder().records();
    assert_eq!(records.len(), 2);
    assert!(
        records[0].outcome.starts_with("ok"),
        "{:?}",
        records[0].outcome
    );
    assert!(
        records[1].outcome.starts_with("error"),
        "{:?}",
        records[1].outcome
    );
    assert_eq!(records[0].engine, "m4-costbased");
    assert!(records[0].plan_digest.is_some());
    assert!(
        records[0].metrics.iter().any(|(k, _)| *k == "pool.hits"),
        "{:?}",
        records[0].metrics
    );
    // Clones share the recorder (worker threads feed one ring).
    let clone = db.clone();
    clone
        .query("doc", "//title", EngineKind::M2Storage)
        .unwrap();
    assert_eq!(db.flight_recorder().len(), 3);
}

#[test]
fn slow_queries_capture_explain_analyze() {
    let db = db();
    db.set_slow_query_threshold(Some(Duration::ZERO));
    db.query("doc", "//name", EngineKind::M4CostBased).unwrap();
    let records = db.flight_recorder().records();
    let analyze = records[0].analyze.as_deref().expect("slow query captured");
    assert!(analyze.contains("EXPLAIN ANALYZE"), "{analyze}");
    assert!(analyze.contains("buffer pool:"), "{analyze}");
    let rendered = records[0].render();
    assert!(rendered.contains("slow query"), "{rendered}");

    // A cancelled query must not be re-run for capture.
    let gov = Governor::unlimited();
    gov.cancel();
    let options = QueryOptions {
        governor: Some(gov),
        ..QueryOptions::default()
    };
    let err = db.query_with("doc", "//name", EngineKind::M4CostBased, &options);
    assert!(err.is_err());
    let records = db.flight_recorder().records();
    let last = records.last().unwrap();
    assert!(last.outcome.starts_with("error"), "{}", last.outcome);
    assert!(last.analyze.is_none(), "cancelled query was re-run");
}

#[test]
fn registry_exposition_covers_query_traffic() {
    let db = db();
    db.query("doc", "//name", EngineKind::M4CostBased).unwrap();
    db.query("doc", "//name", EngineKind::M2Storage).unwrap();
    let prom = db.env().registry().render_prometheus();
    assert!(
        prom.contains("saardb_query_latency_us_count{engine=\"m4-costbased\"} 1"),
        "{prom}"
    );
    assert!(
        prom.contains("saardb_queries_total{engine=\"m2-storage\"} 1"),
        "{prom}"
    );
    assert!(prom.contains("saardb_pool_hits_total"), "{prom}");
    assert!(prom.contains("saardb_pool_frames"), "{prom}");
    let json = db.env().registry().render_json();
    assert!(
        json.contains("\"saardb_query_latency_us{engine=\\\"m4-costbased\\\"}\""),
        "{json}"
    );
}

#[test]
fn governor_trips_are_counted_by_kind() {
    let db = db();
    let gov = Governor::unlimited();
    gov.cancel();
    let options = QueryOptions {
        governor: Some(gov),
        ..QueryOptions::default()
    };
    assert!(db
        .query_with("doc", "//name", EngineKind::M4CostBased, &options)
        .is_err());
    let deadline = QueryOptions {
        timeout: Some(Duration::ZERO),
        ..QueryOptions::default()
    };
    assert!(db
        .query_with("doc", "//name", EngineKind::M2Storage, &deadline)
        .is_err());
    let prom = db.env().registry().render_prometheus();
    assert!(
        prom.contains("saardb_governor_trips_total{kind=\"cancelled\"} 1"),
        "{prom}"
    );
    assert!(
        prom.contains("saardb_governor_trips_total{kind=\"deadline\"} 1"),
        "{prom}"
    );
}

#[test]
fn io_snapshot_counts_evictions_and_writes() {
    use xmldb_storage::{BTree, Env, EnvConfig};
    // A tree built under a minimal 8-frame pool: each page is written
    // once, straight to the backend, and reading it back must evict.
    let env = Env::memory_with(EnvConfig::with_pool_bytes(1));
    let value = [7u8; 200];
    let entries = (0..2000u32).map(|i| (format!("key-{i:06}").into_bytes(), value.to_vec()));
    let tree = BTree::build_in(&env, env.create_file("t").unwrap(), entries).unwrap();
    let pages = env.page_count(tree.file_id()).unwrap();
    let snap = env.io_stats();
    assert_eq!(
        snap.physical_writes,
        pages + 1,
        "appends and the meta patch"
    );
    assert_eq!(snap.requests(), 0, "{snap:?}");
    assert_eq!(tree.iter().count(), 2000);
    assert!(env.io_stats().evictions > 0, "{:?}", env.io_stats());
    // The same counters surface through a query's io delta.
    let db = Database::in_memory_with(EnvConfig::with_pool_bytes(1));
    let mut xml = String::from("<r>");
    for i in 0..300 {
        xml.push_str(&format!("<e>text {i}</e>"));
    }
    xml.push_str("</r>");
    db.load_document("big", &xml).unwrap();
    let r = db.query("big", "//e", EngineKind::M4CostBased).unwrap();
    let m = r.metrics().unwrap();
    assert!(m.io.evictions > 0, "{:?}", m.io);
}

/// Loading a document writes its files straight to their backends: the
/// buffer pool sees no request and reads nothing, so the new document
/// starts cold.
#[test]
fn a_load_never_touches_the_pool() {
    let db = Database::in_memory();
    let mut xml = String::from("<r>");
    for i in 0..2000 {
        xml.push_str(&format!("<e a=\"{i}\">text {i}</e>"));
    }
    xml.push_str("</r>");
    let before = db.env().io_stats();
    db.load_document("d", &xml).unwrap();
    let delta = db.env().io_stats().delta(&before);
    assert_eq!(delta.requests(), 0, "{delta:?}");
    assert_eq!(delta.physical_reads, 0, "{delta:?}");
    assert!(delta.physical_writes > 20, "{delta:?}");
    assert!(
        db.env().temp_files().is_empty(),
        "the shred sort stayed in memory"
    );
    let r = db.query("d", "//e", EngineKind::M4CostBased).unwrap();
    assert_eq!(r.len(), 2000);
}
