//! EXPLAIN ANALYZE instrumentation tests: operator row counters, I/O
//! snapshot deltas, and the rendered trace.

use xmldb_core::engine::tpm_exec::{compile_program, execute_program_analyzed};
use xmldb_core::engine::QueryOptions;
use xmldb_core::{Database, EngineKind};
use xmldb_storage::{Env, EnvConfig};
use xmldb_xasr::shred_document;

/// A scan producing N bound nodes must report exactly N rows at the plan
/// root (and one open).
#[test]
fn scan_counts_one_row_per_node() {
    let env = Env::memory();
    let store = shred_document(&env, "d", "<a><b/><b/><b/></a>").unwrap();
    let query = xmldb_xq::parse("//b").unwrap();
    let program = compile_program(
        &store,
        &query,
        &xmldb_algebra::rewrite::RewriteOptions::extended(),
        &xmldb_optimizer::PlannerConfig::cost_based(),
        &QueryOptions::default(),
    );
    let (result, metrics) = execute_program_analyzed(&program, &store);
    assert_eq!(result.unwrap().to_xml(), "<b/><b/><b/>");
    assert_eq!(metrics.len(), 1, "one relfor, one plan");
    let root = metrics[0].get(0).expect("root operator has a metrics slot");
    assert_eq!(root.rows, 3, "plan root must emit one row per //b node");
    assert_eq!(root.opens, 1);
    // Every operator in the plan executed at least once.
    for i in 0..metrics[0].len() {
        assert!(
            metrics[0].get(i).unwrap().opens >= 1,
            "operator {i} never opened"
        );
    }
}

/// With a buffer pool smaller than the working set, a query over a cold
/// store must do physical reads — and the metrics attached to the result
/// must show them.
#[test]
fn pool_overflow_shows_physical_reads() {
    // The pool floor is 8 frames x 4 KiB = 32 KiB; ~3000 nodes of XASR
    // (clustered file + indexes) comfortably exceed it.
    let db = Database::in_memory_with(EnvConfig::with_pool_bytes(1));
    let mut xml = String::from("<a>");
    for i in 0..1500 {
        xml.push_str(&format!("<b>t{i}</b>"));
    }
    xml.push_str("</a>");
    db.load_document("big", &xml).unwrap();
    let result = db.query("big", "//b", EngineKind::M4CostBased).unwrap();
    assert_eq!(result.len(), 1500);
    let metrics = result.metrics().expect("Database::query attaches metrics");
    assert!(
        metrics.io.physical_reads > 0,
        "working set exceeds the pool budget, reads must hit storage: {:?}",
        metrics.io
    );
    assert!(metrics.io.requests() > 0);
    assert!(
        metrics.io.node_views > 0 && metrics.io.in_place_searches > 0,
        "index descents run on zero-copy views: {:?}",
        metrics.io
    );
    assert!(
        metrics.io.shard_locks > 0,
        "every page acquire crosses a shard lock: {:?}",
        metrics.io
    );
}

/// The rendered EXPLAIN ANALYZE trace carries actual counters and the
/// buffer-pool summary; the interpreter engines get the execution summary
/// only.
#[test]
fn explain_analyze_renders_counters() {
    let db = Database::in_memory();
    db.load_document("d", "<a><b/><b/></a>").unwrap();
    for engine in [
        EngineKind::M3Algebraic,
        EngineKind::M4CostBased,
        EngineKind::M4Pipelined,
    ] {
        let text = db.explain_analyze("d", "//b", engine).unwrap();
        assert!(text.contains("EXPLAIN ANALYZE"), "[{engine}] {text}");
        assert!(text.contains("actual rows=2"), "[{engine}] {text}");
        assert!(text.contains("opens=1"), "[{engine}] {text}");
        assert!(text.contains("result: 2 item(s)"), "[{engine}] {text}");
        assert!(text.contains("buffer pool:"), "[{engine}] {text}");
        assert!(text.contains("read path:"), "[{engine}] {text}");
        assert!(text.contains("node views"), "[{engine}] {text}");
        assert!(text.contains("in-place searches"), "[{engine}] {text}");
        assert!(text.contains("shard locks"), "[{engine}] {text}");
        assert!(text.contains("elapsed:"), "[{engine}] {text}");
    }
    let text = db
        .explain_analyze("d", "//b", EngineKind::M2Storage)
        .unwrap();
    assert!(text.contains("interpreter"), "{text}");
    assert!(text.contains("result: 2 item(s)"), "{text}");
    assert!(text.contains("buffer pool:"), "{text}");
    assert!(text.contains("read path:"), "{text}");
}

/// Nested relfors: the inner plan re-opens once per outer binding, and the
/// shared metric slots accumulate across re-executions.
#[test]
fn inner_plan_accumulates_across_reexecutions() {
    let env = Env::memory();
    let store = shred_document(&env, "d", "<r><j><n>A</n><n>B</n></j><j><n>C</n></j></r>").unwrap();
    // Heuristic planning without the merging rewrites keeps the inner
    // for-loop as its own relfor, re-planned per outer binding.
    let query = xmldb_xq::parse("for $j in /r/j return for $n in $j/n return $n").unwrap();
    let program = compile_program(
        &store,
        &query,
        &xmldb_algebra::rewrite::RewriteOptions::none(),
        &xmldb_optimizer::PlannerConfig::heuristic(),
        &QueryOptions::default(),
    );
    let (result, metrics) = execute_program_analyzed(&program, &store);
    assert_eq!(result.unwrap().to_xml(), "<n>A</n><n>B</n><n>C</n>");
    // Without merging, each path step keeps its own relfor: /r, then /r/j,
    // then $j/n — three separate plans.
    assert_eq!(metrics.len(), 3, "unmerged relfors have separate plans");
    let outermost = metrics[0].get(0).unwrap();
    let innermost = metrics[metrics.len() - 1].get(0).unwrap();
    assert_eq!(outermost.rows, 1, "one /r binding");
    assert_eq!(outermost.opens, 1);
    assert_eq!(
        innermost.rows, 3,
        "inner rows accumulate across both $j bindings"
    );
    assert_eq!(
        innermost.opens, 2,
        "inner plan re-opened once per $j binding"
    );
}

/// The node views EXPLAIN ANALYZE reports on its `read path:` line.
fn node_views(db: &Database, doc: &str, query: &str, engine: EngineKind) -> u64 {
    let text = db.explain_analyze(doc, query, engine).unwrap();
    let line = text
        .lines()
        .find_map(|l| l.trim().strip_prefix("read path: "))
        .unwrap_or_else(|| panic!("no read path line:\n{text}"));
    line.split(' ').next().unwrap().parse().unwrap()
}

/// Result writing seeks leaf-locally: `//name` over 5 000 records (the
/// `BENCH_btree_read` descendant case) makes at most 1.3 node views per
/// result under M2 and M4 alike, where a descent per result made 3.0.
#[test]
fn result_writing_makes_at_most_1_3_views_per_result() {
    let db = Database::in_memory_with(EnvConfig {
        page_size: 8192,
        pool_bytes: 32 << 20,
    });
    let mut xml = String::from("<db>");
    for i in 0..5_000 {
        xml.push_str(&format!(
            "<journal><name>author-{i:06}</name><title>t{i}</title></journal>"
        ));
    }
    xml.push_str("</db>");
    db.load_document("bench", &xml).unwrap();
    for engine in [EngineKind::M2Storage, EngineKind::M4CostBased] {
        let views = node_views(&db, "bench", "//name", engine);
        assert!(
            views as f64 <= 1.3 * 5_000.0,
            "[{engine}] {views} node views for 5000 results"
        );
    }
}

/// Value runs: an `eff3`-shaped value join reads each distinct left value
/// once, in value order. 600 author texts over 6 distinct names cost the
/// text index at most one descent (and a miss and a hop before it) per
/// distinct value, where a probe per left row cost 600 descents.
#[test]
fn value_join_descends_once_per_distinct_value() {
    let db = Database::in_memory();
    let mut xml = String::from("<dblp>");
    for i in 0..600 {
        xml.push_str(&format!(
            "<article><author>name {}</author><title>title {i}</title></article>",
            i % 6
        ));
    }
    xml.push_str("</dblp>");
    db.load_document("d", &xml).unwrap();
    let text_index =
        xmldb_storage::BTree::open(db.env(), &xmldb_xasr::store::file_names("d").text).unwrap();
    let join = "for $a in //author/text() return for $t in //text() return \
                if ($a = $t) then <match/> else ()";
    let left = "for $a in //author/text() return <match/>";
    let engine = EngineKind::M4CostBased;
    assert_eq!(db.query("d", join, engine).unwrap().len(), 600 * 100);
    let text_views = node_views(&db, "d", join, engine) - node_views(&db, "d", left, engine);
    let per_value = u64::from(text_index.height()) + 3;
    assert!(
        text_views <= 6 * per_value,
        "{text_views} text-index node views for 6 distinct values (height {})",
        text_index.height()
    );
}
