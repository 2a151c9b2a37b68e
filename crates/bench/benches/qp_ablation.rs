//! The Example 6 plan ablation (Figure 6): the same query evaluated with
//! increasingly optimized strategies. The paper's QP0→QP2 progression maps
//! to our engine ladder:
//!
//! * `qp0-naive` — full-scan interpreter: no selection pushing at all,
//! * `qp1-heuristic` — milestone 3: selections pushed, joins in the fixed
//!   order, NLJ over materialized intermediates,
//! * `qp2-costbased` — milestone 4: "only those articles that have
//!   volumes are checked for authors, the more selective join is evaluated
//!   first, and both joins are implemented as index nested-loop joins".

use xmldb_bench::harness::time;
use xmldb_core::{Database, EngineKind};
use xmldb_datagen::DblpConfig;

const EXAMPLE6: &str = "for $x in //article return \
    if (some $v in $x/volume satisfies true()) \
    then for $y in $x//author return $y else ()";

fn main() {
    let db = Database::in_memory();
    let xml = xmldb_datagen::generate_dblp(&DblpConfig::scaled(0.3));
    db.load_document("dblp", &xml).unwrap();

    // Sanity: each strategy must agree with the oracle before it is timed.
    let reference = db.query("dblp", EXAMPLE6, EngineKind::M1InMemory).unwrap();
    for (name, engine) in [
        ("qp0-naive", EngineKind::NaiveScan),
        ("qp1-heuristic", EngineKind::M3Algebraic),
        ("qp2-costbased", EngineKind::M4CostBased),
    ] {
        assert_eq!(db.query("dblp", EXAMPLE6, engine).unwrap(), reference);
        time("qp_ablation", name, || {
            db.query("dblp", EXAMPLE6, engine).unwrap()
        });
    }
}
