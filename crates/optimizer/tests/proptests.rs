//! Planner correctness against a brute-force oracle: for random PSX
//! expressions over random small documents, every planner configuration
//! must produce exactly the rows of the naive semantics — the cartesian
//! product of the XASR relation, filtered by the conjuncts, projected,
//! sorted hierarchically in document order, duplicate-free.

use proptest::prelude::*;
use std::collections::HashMap;
use xmldb_algebra::{AtomicPred, Attr, CmpOp, ColRef, Operand, Psx};
use xmldb_optimizer::{plan_psx, CostModel, PlannerConfig};
use xmldb_physical::{execute_all, Bindings, ExecContext};
use xmldb_storage::Env;
use xmldb_xasr::{shred_document, NodeTuple, NodeType, XasrStore};

// --- document generation --------------------------------------------------------

#[derive(Debug, Clone)]
enum Tree {
    Element(String, Vec<Tree>),
    Text(String),
}

fn label() -> impl Strategy<Value = String> {
    prop_oneof![Just("a".into()), Just("b".into()), Just("c".into())]
}

fn tree() -> impl Strategy<Value = Tree> {
    let leaf = prop_oneof![
        Just(Tree::Text("t".into())),
        label().prop_map(|l| Tree::Element(l, vec![])),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        (label(), prop::collection::vec(inner, 0..3)).prop_map(|(l, kids)| Tree::Element(l, kids))
    })
}

fn doc_xml() -> impl Strategy<Value = String> {
    (label(), prop::collection::vec(tree(), 0..3)).prop_map(|(l, kids)| {
        fn render(t: &Tree, out: &mut String) {
            match t {
                Tree::Text(s) => out.push_str(s),
                Tree::Element(l, kids) => {
                    out.push('<');
                    out.push_str(l);
                    out.push('>');
                    for k in kids {
                        render(k, out);
                    }
                    out.push_str("</");
                    out.push_str(l);
                    out.push('>');
                }
            }
        }
        let mut out = String::new();
        render(&Tree::Element(l, kids), &mut out);
        out
    })
}

// --- PSX generation ----------------------------------------------------------------

/// A conjunct blueprint over relation indices.
#[derive(Debug, Clone)]
enum ConjunctKind {
    /// `R_i.parent_in = R_j.in`
    ChildLink(usize, usize),
    /// `R_j.in < R_i.in ∧ R_i.out < R_j.out`
    Interval(usize, usize),
    /// `R_i.value = label`
    Label(usize, String),
    /// `R_i.type = kind`
    Kind(usize, bool), // true = element, false = text
    /// `R_i.parent_in = $root.in`
    RootChild(usize),
    /// `$root.in < R_i.in ∧ R_i.out < $root.out`
    RootDescendant(usize),
}

fn conjunct(n_rel: usize) -> impl Strategy<Value = ConjunctKind> {
    let rel = 0..n_rel;
    prop_oneof![
        (rel.clone(), 0..n_rel).prop_map(|(a, b)| ConjunctKind::ChildLink(a, b)),
        (rel.clone(), 0..n_rel).prop_map(|(a, b)| ConjunctKind::Interval(a, b)),
        (rel.clone(), label()).prop_map(|(a, l)| ConjunctKind::Label(a, l)),
        (rel.clone(), any::<bool>()).prop_map(|(a, k)| ConjunctKind::Kind(a, k)),
        rel.clone().prop_map(ConjunctKind::RootChild),
        rel.prop_map(ConjunctKind::RootDescendant),
    ]
}

#[derive(Debug, Clone)]
struct PsxSpec {
    n_rel: usize,
    producers: Vec<usize>,
    conjuncts: Vec<ConjunctKind>,
}

fn psx_spec() -> impl Strategy<Value = PsxSpec> {
    (1usize..=3).prop_flat_map(|n_rel| {
        let producers = prop::sample::subsequence((0..n_rel).collect::<Vec<_>>(), 0..=n_rel);
        let conjuncts = prop::collection::vec(conjunct(n_rel), 0..4);
        (Just(n_rel), producers, conjuncts).prop_map(|(n_rel, producers, conjuncts)| PsxSpec {
            n_rel,
            producers,
            conjuncts,
        })
    })
}

fn alias(i: usize) -> String {
    format!("R{i}")
}

fn build_psx(spec: &PsxSpec) -> Psx {
    let col = |i: usize, attr: Attr| Operand::Col(ColRef::new(alias(i), attr));
    let mut conjuncts = Vec::new();
    for c in &spec.conjuncts {
        match c {
            ConjunctKind::ChildLink(a, b) => conjuncts.push(AtomicPred::new(
                col(*a, Attr::ParentIn),
                CmpOp::Eq,
                col(*b, Attr::In),
            )),
            ConjunctKind::Interval(a, b) => {
                conjuncts.push(AtomicPred::new(
                    col(*b, Attr::In),
                    CmpOp::Lt,
                    col(*a, Attr::In),
                ));
                conjuncts.push(AtomicPred::new(
                    col(*a, Attr::Out),
                    CmpOp::Lt,
                    col(*b, Attr::Out),
                ));
            }
            ConjunctKind::Label(a, l) => conjuncts.push(AtomicPred::new(
                col(*a, Attr::Value),
                CmpOp::Eq,
                Operand::Str(l.clone()),
            )),
            ConjunctKind::Kind(a, element) => conjuncts.push(AtomicPred::new(
                col(*a, Attr::Type),
                CmpOp::Eq,
                Operand::Kind(if *element {
                    NodeType::Element
                } else {
                    NodeType::Text
                }),
            )),
            ConjunctKind::RootChild(a) => conjuncts.push(AtomicPred::new(
                col(*a, Attr::ParentIn),
                CmpOp::Eq,
                Operand::ExtVar(xmldb_xq::Var::root(), Attr::In),
            )),
            ConjunctKind::RootDescendant(a) => {
                conjuncts.push(AtomicPred::new(
                    Operand::ExtVar(xmldb_xq::Var::root(), Attr::In),
                    CmpOp::Lt,
                    col(*a, Attr::In),
                ));
                conjuncts.push(AtomicPred::new(
                    col(*a, Attr::Out),
                    CmpOp::Lt,
                    Operand::ExtVar(xmldb_xq::Var::root(), Attr::Out),
                ));
            }
        }
    }
    Psx {
        cols: spec
            .producers
            .iter()
            .map(|&i| ColRef::new(alias(i), Attr::In))
            .collect(),
        conjuncts,
        relations: (0..spec.n_rel).map(alias).collect(),
    }
}

// --- the brute-force oracle -----------------------------------------------------------

/// Naive PSX semantics: full cartesian product, filter, project, sort
/// hierarchically, dedup.
fn brute_force(psx: &Psx, store: &XasrStore, bindings: &Bindings) -> Vec<Vec<u64>> {
    let all: Vec<NodeTuple> = store.scan_all().map(|t| t.unwrap()).collect();
    let positions: HashMap<String, usize> = psx
        .relations
        .iter()
        .enumerate()
        .map(|(i, r)| (r.clone(), i))
        .collect();
    // Resolve predicates against the product row layout.
    let preds: Vec<xmldb_physical::PhysPred> = psx
        .conjuncts
        .iter()
        .map(|p| {
            let resolve = |o: &Operand| match o {
                Operand::Col(c) => xmldb_physical::PhysOperand::Col {
                    pos: positions[&c.alias],
                    attr: c.attr,
                },
                Operand::Num(n) => xmldb_physical::PhysOperand::Num(*n),
                Operand::Str(s) => xmldb_physical::PhysOperand::Str(s.clone()),
                Operand::Kind(k) => xmldb_physical::PhysOperand::Kind(*k),
                Operand::ExtVar(v, a) => xmldb_physical::PhysOperand::Ext {
                    var: v.clone(),
                    attr: *a,
                },
            };
            xmldb_physical::PhysPred {
                op: p.op,
                lhs: resolve(&p.lhs),
                rhs: resolve(&p.rhs),
                strict_text: p.strict_text,
            }
        })
        .collect();

    // Cartesian product via index counters.
    let k = psx.relations.len();
    let mut counters = vec![0usize; k];
    let mut out: Vec<Vec<u64>> = Vec::new();
    'outer: loop {
        let row: Vec<NodeTuple> = counters.iter().map(|&i| all[i].clone()).collect();
        if xmldb_physical::pred::eval_all(&preds, &row, &[], bindings).unwrap() {
            out.push(
                psx.cols
                    .iter()
                    .map(|c| row[positions[&c.alias]].in_)
                    .collect(),
            );
        }
        for pos in (0..k).rev() {
            counters[pos] += 1;
            if counters[pos] < all.len() {
                continue 'outer;
            }
            counters[pos] = 0;
            if pos == 0 {
                break 'outer;
            }
        }
        if k == 0 {
            // Nullary product: exactly one empty row, handled above.
            break;
        }
    }
    out.sort();
    out.dedup();
    out
}

fn run_plan(
    psx: &Psx,
    store: &XasrStore,
    bindings: &Bindings,
    config: &PlannerConfig,
) -> Vec<Vec<u64>> {
    let model = CostModel::from_store(store);
    let plan = plan_psx(psx, &model, config);
    let ctx = ExecContext::new(store, bindings);
    let mut op = plan.instantiate(None);
    execute_all(op.as_mut(), &ctx)
        .unwrap_or_else(|e| panic!("plan failed: {e}\n{}", plan.explain()))
        .into_iter()
        .map(|row| row.iter().map(|t| t.in_).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both planners agree with the brute-force semantics on random PSX
    /// expressions.
    #[test]
    fn planners_match_brute_force(xml in doc_xml(), spec in psx_spec()) {
        let env = Env::memory();
        let store = shred_document(&env, "d", &xml).unwrap();
        let bindings = Bindings::with_root(&store).unwrap();
        let psx = build_psx(&spec);
        let expected = brute_force(&psx, &store, &bindings);

        for (name, config) in [
            ("heuristic", PlannerConfig::heuristic()),
            ("cost-based", PlannerConfig::cost_based()),
            ("pipelined", PlannerConfig {
                materialize_right: false,
                ..PlannerConfig::cost_based()
            }),
        ] {
            let mut got = run_plan(&psx, &store, &bindings, &config);
            // The oracle is fully sorted+deduped; plan output is in
            // hierarchical document order with adjacent dedup — sorting it
            // must be a no-op, which we assert separately below.
            let plan_order = got.clone();
            got.sort();
            got.dedup();
            prop_assert_eq!(
                &got, &expected,
                "{} planner wrong for psx {:?} over {:?}", name, psx, xml
            );
            // Exists-plans (no producers) aside, output must already be
            // sorted (hierarchical document order) and duplicate-free.
            if !psx.cols.is_empty() {
                let mut resorted = plan_order.clone();
                resorted.sort();
                resorted.dedup();
                prop_assert_eq!(
                    plan_order, resorted,
                    "{} planner output not in document order for {:?}", name, psx
                );
            }
        }
    }
}
