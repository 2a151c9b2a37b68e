//! Ablations of the design choices DESIGN.md calls out: what each
//! optimization layer buys, measured one knob at a time on the Example 6
//! workload.
//!
//! * `merge` — relfor merging on/off (milestone 3's core rewrite),
//! * `drop-redundant` — redundant-relation elimination / vartuple-out
//!   extension on/off (the "drop N1" step),
//! * `indexes` — index access paths + INL joins on/off under the same
//!   cost-based ordering,
//! * `pipeline` — pipelined vs. materialized NLJ rights (the bonus-point
//!   feature),
//! * `pool` — buffer-pool byte budget sweep (the 20 MB wall, scaled).

use xmldb_algebra::rewrite::RewriteOptions;
use xmldb_bench::harness::time;
use xmldb_core::engine::tpm_exec;
use xmldb_core::{Database, EngineKind, QueryOptions};
use xmldb_datagen::DblpConfig;
use xmldb_optimizer::PlannerConfig;
use xmldb_storage::EnvConfig;

const EXAMPLE6: &str = "for $x in //article return \
    if (some $v in $x/volume satisfies true()) \
    then for $y in $x//author return $y else ()";

fn fixture(pool_bytes: usize) -> Database {
    let db = Database::in_memory_with(EnvConfig::with_pool_bytes(pool_bytes));
    let xml = xmldb_datagen::generate_dblp(&DblpConfig::scaled(0.3));
    db.load_document("dblp", &xml).unwrap();
    db
}

/// The order-trap query: authors are expanded *before* the volume check in
/// the syntax, so only merging + cost-based reordering can hoist the
/// selective volume semijoin — per-binding evaluation of the unmerged form
/// is stuck with the syntactic order.
const ORDER_TRAP: &str = "for $x in //article return \
    for $a in $x//author return \
    if (some $v in $x/volume satisfies true()) then $a else ()";

fn bench_rewrite_ablation() {
    let db = fixture(4 << 20);
    let store = db.store("dblp").unwrap();
    let query = xmldb_xq::parse(ORDER_TRAP).unwrap();
    let planner = PlannerConfig::cost_based();
    let options = QueryOptions::default();

    let variants: [(&str, RewriteOptions); 4] = [
        ("all-rewrites", RewriteOptions::default()),
        (
            "no-merge",
            RewriteOptions {
                merge_relfors: false,
                ..RewriteOptions::default()
            },
        ),
        (
            "no-drop-redundant",
            RewriteOptions {
                drop_redundant_relations: false,
                ..RewriteOptions::default()
            },
        ),
        ("no-rewrites", RewriteOptions::none()),
    ];

    // All variants must agree before we time them.
    let reference = tpm_exec::evaluate(&store, &query, &variants[0].1, &planner, &options)
        .unwrap()
        .to_xml();
    for (name, rewrites) in &variants {
        let got = tpm_exec::evaluate(&store, &query, rewrites, &planner, &options)
            .unwrap()
            .to_xml();
        assert_eq!(got, reference, "rewrite variant {name} changed the answer");
    }

    for (name, rewrites) in variants {
        time("ablation_rewrites", name, || {
            tpm_exec::evaluate(&store, &query, &rewrites, &planner, &options).unwrap()
        });
    }
}

fn bench_index_ablation() {
    let db = fixture(4 << 20);
    let store = db.store("dblp").unwrap();
    let query = xmldb_xq::parse(EXAMPLE6).unwrap();
    let options = QueryOptions::default();
    let rewrites = RewriteOptions::default();
    let with = PlannerConfig::cost_based();
    let without = PlannerConfig {
        use_indexes: false,
        ..PlannerConfig::cost_based()
    };

    for (name, planner) in [("with-indexes", with), ("without-indexes", without)] {
        time("ablation_indexes", name, || {
            tpm_exec::evaluate(&store, &query, &rewrites, &planner, &options).unwrap()
        });
    }
}

fn bench_pipeline_ablation() {
    let db = fixture(4 << 20);
    // A query whose best plan uses an NLJ right (unrelated loops), so the
    // materialize-vs-pipeline choice matters.
    let query = "for $a in //author/text() return \
                 for $t in //text() return \
                 if ($a = $t) then <m/> else ()";
    let reference = db.query("dblp", query, EngineKind::M4CostBased).unwrap();
    assert_eq!(
        db.query("dblp", query, EngineKind::M4Pipelined).unwrap(),
        reference
    );

    for (name, engine) in [
        ("materialized", EngineKind::M4CostBased),
        ("pipelined", EngineKind::M4Pipelined),
    ] {
        time("ablation_pipeline", name, || {
            db.query("dblp", query, engine).unwrap()
        });
    }
}

fn bench_pool_sweep() {
    // A scan-bound engine so the working set (the whole clustered index)
    // streams through the pool: small pools evict on every pass.
    for pool_kib in [64usize, 256, 1024, 4096] {
        let db = fixture(pool_kib << 10);
        time(
            "ablation_pool",
            &format!("example6-naive/{pool_kib}KiB"),
            || db.query("dblp", EXAMPLE6, EngineKind::NaiveScan).unwrap(),
        );
    }
}

fn bench_sort_strategies() {
    // The ordering problem's approach (a): the by-the-book external merge
    // sort. (The students' clustered-B-tree workaround needs a tree that
    // takes inserts; trees here are bulk-built once.)
    use xmldb_physical::ops::{RowsOp, SortOp};
    use xmldb_physical::{execute_all, Bindings, ExecContext};
    use xmldb_xasr::{NodeTuple, NodeType};

    let db = fixture(4 << 20);
    let store = db.store("dblp").unwrap();
    let binds = Bindings::new();
    let n = 20_000u64;
    let rows: Vec<Vec<NodeTuple>> = (0..n)
        .map(|i| {
            vec![NodeTuple {
                in_: (i * 7919 + 13) % n,
                out: 0,
                parent_in: 0,
                kind: NodeType::Element,
                value: Some("x".into()),
            }]
        })
        .collect();

    time("ablation_sort", "external-sort", || {
        let ctx = ExecContext::new(&store, &binds);
        let mut op = SortOp::new(Box::new(RowsOp::new(rows.clone())), vec![0]);
        execute_all(&mut op, &ctx).unwrap().len()
    });
}

fn bench_prepared_queries() {
    // What Database::prepare amortizes: parsing, TPM compilation,
    // rewriting and planning (join-order enumeration included), leaving
    // only physical execution per run. Execution dominates even on small
    // documents, so the measured gain is modest (~5-10%); the point of the
    // API is the amortization contract, pinned here.
    let db = Database::in_memory();
    let xml = xmldb_datagen::generate_dblp(&DblpConfig::scaled(0.02));
    db.load_document("dblp", &xml).unwrap();
    let prepared = db
        .prepare("dblp", EXAMPLE6, EngineKind::M4CostBased)
        .unwrap();
    assert_eq!(
        prepared.execute().unwrap(),
        db.query("dblp", EXAMPLE6, EngineKind::M4CostBased).unwrap()
    );
    time("ablation_prepared", "adhoc", || {
        db.query("dblp", EXAMPLE6, EngineKind::M4CostBased).unwrap()
    });
    time("ablation_prepared", "prepared", || {
        prepared.execute().unwrap()
    });
}

fn main() {
    bench_prepared_queries();
    bench_rewrite_ablation();
    bench_index_ablation();
    bench_pipeline_ablation();
    bench_pool_sweep();
    bench_sort_strategies();
}
