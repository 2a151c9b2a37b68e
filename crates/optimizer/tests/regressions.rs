//! Named deterministic regressions promoted from proptest failure seeds.

use xmldb_algebra::{AtomicPred, Attr, CmpOp, ColRef, Operand, Psx};
use xmldb_optimizer::{plan_psx, CostModel, PlannerConfig};
use xmldb_physical::{execute_all, Bindings, ExecContext};
use xmldb_storage::Env;
use xmldb_xasr::{shred_document, NodeType};

/// proptest seed: a single-relation PSX selecting nodes with
/// `value = "a" AND type = text`. The document has an element labeled `a`
/// but no text node, so the correct answer is zero rows under every
/// planner configuration — a planner that drops or reorders the type
/// conjunct incorrectly returns the element instead.
#[test]
fn value_and_kind_conjuncts_both_apply() {
    let env = Env::memory();
    let store = shred_document(&env, "d", "<a><b></b></a>").unwrap();
    let bindings = Bindings::with_root(&store).unwrap();
    let psx = Psx {
        cols: vec![],
        conjuncts: vec![
            AtomicPred::new(
                Operand::Col(ColRef::new("R0", Attr::Value)),
                CmpOp::Eq,
                Operand::Str("a".into()),
            ),
            AtomicPred::new(
                Operand::Col(ColRef::new("R0", Attr::Type)),
                CmpOp::Eq,
                Operand::Kind(NodeType::Text),
            ),
        ],
        relations: vec!["R0".into()],
    };
    for (name, config) in [
        ("heuristic", PlannerConfig::heuristic()),
        ("cost-based", PlannerConfig::cost_based()),
        (
            "pipelined",
            PlannerConfig {
                materialize_right: false,
                ..PlannerConfig::cost_based()
            },
        ),
    ] {
        let model = CostModel::from_store(&store);
        let plan = plan_psx(&psx, &model, &config);
        let ctx = ExecContext::new(&store, &bindings);
        let mut op = plan.instantiate(None);
        let rows = execute_all(op.as_mut(), &ctx).unwrap();
        assert!(
            rows.is_empty(),
            "{name} planner returned {} row(s); plan:\n{}",
            rows.len(),
            plan.explain()
        );
    }
}
