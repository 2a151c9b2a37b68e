//! Cost-model calibration — the milestone-4 grading criterion: "the more
//! accurately the rankings of query plans by their cost function are, the
//! better their implementation would perform in the final benchmarks.
//! Calibration of course required them to test their implementation for
//! the same query and alternative query plans."
//!
//! These tests build alternative plans for the same PSX and assert that the
//! *ranking* by estimated cost matches the ranking by measured buffer-pool
//! traffic. Only clear-cut cases are pinned (close calls are legitimately
//! noisy).

use xmldb_algebra::rewrite::{optimize, RewriteOptions};
use xmldb_algebra::{compile_query, Psx, Tpm};
use xmldb_optimizer::{plan_psx, CostModel, PlannerConfig};
use xmldb_physical::{execute_all, Bindings, ExecContext};
use xmldb_storage::Env;
use xmldb_xasr::shred_document;
use xmldb_xq::parse;

fn merged_psx(query: &str) -> Psx {
    let tpm = optimize(
        compile_query(&parse(query).unwrap()),
        &RewriteOptions::default(),
    );
    fn find(t: &Tpm) -> Option<&Psx> {
        match t {
            Tpm::RelFor { source, .. } => Some(source),
            Tpm::Constr { content, .. } => find(content),
            Tpm::Concat(parts) => parts.iter().find_map(find),
            _ => None,
        }
    }
    find(&tpm).expect("relfor").clone()
}

/// Executes a plan and returns the logical page requests it caused.
fn measure(plan: &xmldb_optimizer::Plan, store: &xmldb_xasr::XasrStore) -> (u64, usize) {
    let binds = Bindings::with_root(store).unwrap();
    let ctx = ExecContext::new(store, &binds);
    store.env().reset_io_stats();
    let mut op = plan.instantiate(None);
    let rows = execute_all(op.as_mut(), &ctx).unwrap().len();
    (store.env().io_stats().requests(), rows)
}

/// Index plans must be both estimated and measured cheaper than scan plans
/// for a selective query — and the two rankings must agree.
#[test]
fn index_vs_scan_ranking_matches_reality() {
    let env = Env::memory();
    let xml = xmldb_datagen::generate_dblp(&xmldb_datagen::DblpConfig::scaled(0.5));
    let store = shred_document(&env, "d", &xml).unwrap();
    let model = CostModel::from_store(&store);

    // A selective query: the rare `volume` elements.
    let psx = merged_psx("for $v in //volume return $v");
    let indexed = plan_psx(&psx, &model, &PlannerConfig::cost_based());
    let scanned = plan_psx(&psx, &model, &PlannerConfig::heuristic());

    assert!(
        indexed.est_cost < scanned.est_cost,
        "model must rank the index plan cheaper: {} vs {}",
        indexed.est_cost,
        scanned.est_cost
    );
    let (indexed_io, rows_a) = measure(&indexed, &store);
    let (scanned_io, rows_b) = measure(&scanned, &store);
    assert_eq!(rows_a, rows_b, "plans disagree");
    assert!(
        indexed_io < scanned_io,
        "reality must agree with the model: {indexed_io} vs {scanned_io} page requests"
    );
}

/// The QP2-vs-QP1 ranking of Example 6: the cost-based plan must beat the
/// heuristic plan in both the model and measured traffic.
#[test]
fn example6_qp_ranking_matches_reality() {
    let env = Env::memory();
    let mut xml = String::from("<dblp>");
    for i in 0..200 {
        xml.push_str("<article>");
        if i % 25 == 0 {
            xml.push_str("<volume>1</volume>");
        }
        for a in 0..5 {
            xml.push_str(&format!("<author>a{i}-{a}</author>"));
        }
        xml.push_str("</article>");
    }
    xml.push_str("</dblp>");
    let store = shred_document(&env, "d6", &xml).unwrap();
    let model = CostModel::from_store(&store);

    let psx = merged_psx(
        "for $x in //article return \
         if (some $v in $x/volume satisfies true()) \
         then for $y in $x//author return $y else ()",
    );
    let qp2 = plan_psx(&psx, &model, &PlannerConfig::cost_based());
    let qp1 = plan_psx(&psx, &model, &PlannerConfig::heuristic());
    assert!(
        qp2.est_cost < qp1.est_cost,
        "{} vs {}",
        qp2.est_cost,
        qp1.est_cost
    );
    let (qp2_io, rows_a) = measure(&qp2, &store);
    let (qp1_io, rows_b) = measure(&qp1, &store);
    assert_eq!(rows_a, rows_b);
    assert!(
        qp2_io < qp1_io,
        "QP2 must touch fewer pages than QP1: {qp2_io} vs {qp1_io}"
    );
}

/// Estimated-zero plans (non-existent labels) really touch almost nothing —
/// the Figure 7 Test 4 calibration point.
#[test]
fn ghost_label_touches_almost_nothing() {
    let env = Env::memory();
    let xml = xmldb_datagen::generate_dblp(&xmldb_datagen::DblpConfig::scaled(0.5));
    let store = shred_document(&env, "d", &xml).unwrap();
    let model = CostModel::from_store(&store);
    let psx = merged_psx("for $g in //phdthesis return $g");
    let plan = plan_psx(&psx, &model, &PlannerConfig::cost_based());
    let (io, rows) = measure(&plan, &store);
    assert_eq!(rows, 0);
    assert!(
        io < 10,
        "ghost label should cost a handful of pages, took {io}"
    );
    // Whereas a full scan of the same document is orders bigger.
    let scan = plan_psx(&psx, &model, &PlannerConfig::heuristic());
    let (scan_io, _) = measure(&scan, &store);
    assert!(scan_io > 10 * io.max(1), "{scan_io} vs {io}");
}
