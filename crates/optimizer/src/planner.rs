//! Planners: milestone-3 heuristic and milestone-4 cost-based.

use crate::cost::{find_label_eq, CostModel};
use crate::plan::{Plan, PlanNode};
use std::collections::HashMap;
use xmldb_algebra::ordering;
use xmldb_algebra::{AtomicPred, Attr, CmpOp, Operand, Psx};
use xmldb_physical::ops::{JoinInner, Src};
use xmldb_physical::{PhysOperand, PhysPred, Probe};

/// Planner knobs — the difference between the Figure 7 engines.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Use index access paths and index nested-loops joins (milestone 4).
    pub use_indexes: bool,
    /// Enumerate join orders by cost (milestone 4 + bonus); otherwise use
    /// the fixed projection-compatible order.
    pub cost_based: bool,
    /// Also consider non-order-preserving plans that sort at the end
    /// (approach (a) of the ordering discussion).
    pub allow_sort_plans: bool,
    /// Materialize NLJ right inputs to scratch files (milestone 3's
    /// "write to disk each intermediate result").
    pub materialize_right: bool,
    /// Block size for block-nested-loops joins in sort-based plans.
    pub bnlj_block_rows: usize,
}

impl PlannerConfig {
    /// Milestone 3: selection pushing onto full scans, NLJ over
    /// materialized intermediates, fixed order.
    pub fn heuristic() -> PlannerConfig {
        PlannerConfig {
            use_indexes: false,
            cost_based: false,
            allow_sort_plans: false,
            materialize_right: true,
            bnlj_block_rows: 1024,
        }
    }

    /// Milestone 4: everything on.
    pub fn cost_based() -> PlannerConfig {
        PlannerConfig {
            use_indexes: true,
            cost_based: true,
            allow_sort_plans: true,
            materialize_right: true,
            bnlj_block_rows: 1024,
        }
    }
}

/// Plans a PSX with the milestone-3 heuristic strategy.
pub fn plan_heuristic(psx: &Psx, model: &CostModel) -> Plan {
    plan_psx(psx, model, &PlannerConfig::heuristic())
}

/// Plans a PSX with full milestone-4 cost-based optimization.
pub fn plan_cost_based(psx: &Psx, model: &CostModel) -> Plan {
    plan_psx(psx, model, &PlannerConfig::cost_based())
}

/// Plans a PSX under an explicit configuration. The resulting plan emits
/// rows whose columns are exactly `psx.cols` in order, deduplicated, in
/// hierarchical document order.
pub fn plan_psx(psx: &Psx, model: &CostModel, config: &PlannerConfig) -> Plan {
    if psx.relations.is_empty() {
        return plan_relation_free(psx, model);
    }

    // Candidate join orders. An order is *order-preserving-capable* when
    // the projection producers appear in projection-relative order: then
    // trailing non-producers can be projected away with one-pass dedup as
    // soon as they are no longer referenced (the semijoin trick of
    // Example 6's QP2), and no sort is needed. Any other order (the
    // sort-based approach (a)) runs through block joins and an explicit
    // final sort.
    let mut candidates: Vec<(Vec<String>, bool)> = Vec::new(); // (order, force_sort)
    if config.cost_based && psx.relations.len() <= 6 {
        for order in ordering::permutations(&psx.relations) {
            if producers_in_relative_order(psx, &order) {
                candidates.push((order, false));
            } else if config.allow_sort_plans {
                candidates.push((order, true));
            }
        }
    }
    if candidates.is_empty() {
        // Heuristic: the fixed "majority of student projects" order —
        // producers first (in projection order), others after, in
        // syntactic order.
        let order = heuristic_order(psx);
        let force_sort = !producers_in_relative_order(psx, &order);
        candidates.push((order, force_sort));
    }

    candidates
        .into_iter()
        .map(|(order, force_sort)| build_plan(psx, &order, force_sort, model, config))
        .min_by(|a, b| {
            a.est_cost
                .partial_cmp(&b.est_cost)
                .expect("costs are finite")
        })
        .expect("at least one candidate order")
}

/// Plans the left-outer-joined stream of the TPM left-outer-join
/// extension: the outer PSX's plan (rows = outer producers in order),
/// outer-joined against the single inner relation. Output rows have width
/// `outer.cols.len() + 1`; the last column is the inner tuple or the NULL
/// sentinel, and rows stay grouped by (sorted on) the outer prefix.
pub fn plan_outer_join(
    outer: &Psx,
    inner: &Psx,
    model: &CostModel,
    config: &PlannerConfig,
) -> Plan {
    debug_assert_eq!(inner.relations.len(), 1, "LOJ inners are single-relation");
    let outer_plan = plan_psx(outer, model, config);
    let inner_alias = inner.relations[0].clone();

    // Positions: the outer plan emits its producers in cols order; the
    // inner relation will sit at the end.
    let mut positions: HashMap<String, usize> = HashMap::new();
    for (i, col) in outer.cols.iter().enumerate() {
        positions.entry(col.alias.clone()).or_insert(i);
    }
    let mut consumed = vec![false; inner.conjuncts.len()];
    let access = choose_access(
        inner,
        &inner_alias,
        Some(&positions),
        &positions,
        &mut consumed,
        model,
        config,
    );
    // A nested-loops right side takes the inner's local conjuncts into its
    // scan; cross conjuncts stay at the join. It is always spilled: the
    // outer side re-reads it once per row.
    let right = matches!(access.join, JoinKind::Nested).then(|| {
        let local = take_local(inner, &inner_alias, &mut consumed);
        let filter = resolve_local(&local, &inner_alias);
        let probe = access.probe.clone();
        rescanned_right(probe, access.est_rows, access.est_cost, filter, model, true)
    });
    positions.insert(inner_alias, outer.cols.len());
    let preds: Vec<PhysPred> = inner
        .conjuncts
        .iter()
        .zip(consumed.iter())
        .filter(|(_, done)| !**done)
        .map(|(p, _)| resolve_pred(p, &positions))
        .collect();
    let outer_rows = outer_plan.est_rows;
    let (inner, rows, cost) = match right {
        None => (
            JoinInner::Probe(access.probe),
            outer_rows * access.per_left_rows,
            outer_plan.est_cost + outer_rows.max(1.0) * access.per_left_cost,
        ),
        Some((right, rescan_cost)) => {
            let cost = outer_plan.est_cost
                + right.est_cost
                + outer_rows.max(1.0) * rescan_cost
                + model.join_cpu_cost(outer_rows * access.est_rows);
            let inner = JoinInner::Scan {
                right: Box::new(right),
                block_rows: 1,
            };
            (inner, outer_rows * access.est_rows * 0.1, cost)
        }
    };
    Plan {
        est_rows: rows.max(outer_rows),
        est_cost: cost,
        node: PlanNode::Join {
            left: Box::new(outer_plan),
            inner,
            outer: true,
            preds,
        },
    }
}

/// Resolves conjuncts local to `alias` against the one-column row of a
/// scan of it (the alias sits at position 0).
fn resolve_local(local: &[&AtomicPred], alias: &str) -> Vec<PhysPred> {
    let positions: HashMap<String, usize> = [(alias.to_string(), 0usize)].into_iter().collect();
    local.iter().map(|p| resolve_pred(p, &positions)).collect()
}

/// The right side of a join that re-scans it: a scan with the relation's
/// local conjuncts pushed down ("pushing selections as far down as
/// possible"), spilled when `materialize` (milestone 3's "write to disk
/// each intermediate result"). Returns the plan and one re-scan's cost.
fn rescanned_right(
    probe: Probe,
    est_rows: f64,
    est_cost: f64,
    filter: Vec<PhysPred>,
    model: &CostModel,
    materialize: bool,
) -> (Plan, f64) {
    let scan = Plan {
        est_rows,
        est_cost,
        node: PlanNode::Scan { probe, filter },
    };
    if !materialize {
        return (scan, est_cost);
    }
    let spilled = Plan {
        est_rows,
        est_cost: est_cost + model.materialize_cost(est_rows),
        node: PlanNode::Materialize {
            input: Box::new(scan),
        },
    };
    (spilled, model.materialized_pages(est_rows))
}

/// Producers in projection order, then the rest in syntactic order.
fn heuristic_order(psx: &Psx) -> Vec<String> {
    let mut order: Vec<String> = Vec::new();
    for col in &psx.cols {
        if !order.contains(&col.alias) {
            order.push(col.alias.clone());
        }
    }
    for r in &psx.relations {
        if !order.contains(r) {
            order.push(r.clone());
        }
    }
    order
}

/// Relation-free PSX: the nullary true relation, possibly filtered by
/// conjuncts over external variables only.
fn plan_relation_free(psx: &Psx, model: &CostModel) -> Plan {
    let positions = HashMap::new();
    let preds: Vec<PhysPred> = psx
        .conjuncts
        .iter()
        .map(|p| resolve_pred(p, &positions))
        .collect();
    let base = Plan {
        node: PlanNode::Singleton,
        est_rows: 1.0,
        est_cost: 0.0,
    };
    if preds.is_empty() {
        return base;
    }
    let sel: f64 = psx
        .conjuncts
        .iter()
        .map(|p| model.residual_selectivity(p))
        .product();
    Plan {
        est_rows: sel.max(0.0),
        est_cost: base.est_cost,
        node: PlanNode::Filter {
            input: Box::new(base),
            preds,
        },
    }
}

/// True when the projection producers appear in `order` in the same
/// relative sequence as in `psx.cols` — the condition under which the
/// semijoin (mid-chain dedup projection) strategy keeps the final result in
/// hierarchical document order without sorting.
fn producers_in_relative_order(psx: &Psx, order: &[String]) -> bool {
    let mut producer_positions = Vec::with_capacity(psx.cols.len());
    for col in &psx.cols {
        match order.iter().position(|r| r == &col.alias) {
            Some(p) => producer_positions.push(p),
            None => return false,
        }
    }
    producer_positions.windows(2).all(|w| w[0] < w[1])
}

/// Builds and costs a left-deep chain for one relation order.
///
/// With `force_sort = false` the order must be producer-relative-ordered;
/// the builder keeps the intermediate result sorted hierarchically at all
/// times, projecting away trailing non-producer columns (with one-pass
/// dedup — the semijoin of Example 6's QP2) as soon as no remaining
/// conjunct references them. With `force_sort = true` any order is allowed;
/// block joins may be used and an external sort restores document order at
/// the end.
fn build_plan(
    psx: &Psx,
    order: &[String],
    force_sort: bool,
    model: &CostModel,
    config: &PlannerConfig,
) -> Plan {
    let mut positions: HashMap<String, usize> = HashMap::new();
    let mut row_aliases: Vec<String> = Vec::new();
    let mut consumed: Vec<bool> = vec![false; psx.conjuncts.len()];

    // --- first relation -------------------------------------------------------
    let first = &order[0];
    let access = choose_access(psx, first, None, &positions, &mut consumed, model, config);
    positions.insert(first.clone(), 0);
    row_aliases.push(first.clone());
    let filter = take_applicable(psx, &positions, &mut consumed, order.len() == 1);
    let filter_sel = non_structural_selectivity(&filter, model);
    let resolved: Vec<PhysPred> = filter.iter().map(|p| resolve_pred(p, &positions)).collect();
    let mut plan = Plan {
        est_rows: (access.est_rows * filter_sel).max(0.0),
        est_cost: access.est_cost,
        node: PlanNode::Scan {
            probe: access.probe,
            filter: resolved,
        },
    };

    // --- subsequent relations ---------------------------------------------------
    for (placed, alias) in order.iter().enumerate().skip(1) {
        let all_placed = placed + 1 == order.len();
        let rows_before_join = plan.est_rows;
        let access = choose_access(
            psx,
            alias,
            Some(&positions),
            &positions,
            &mut consumed,
            model,
            config,
        );

        // For nested-loops rights, push this relation's remaining local
        // conjuncts into the right-side scan, which is re-read per left
        // row (or per block).
        let right = matches!(access.join, JoinKind::Nested).then(|| {
            let local = take_local(psx, alias, &mut consumed);
            let rows = (access.est_rows * non_structural_selectivity(&local, model)).max(0.0);
            let filter = resolve_local(&local, alias);
            let probe = access.probe.clone();
            rescanned_right(
                probe,
                rows,
                access.est_cost,
                filter,
                model,
                config.materialize_right,
            )
        });

        positions.insert(alias.clone(), row_aliases.len());
        row_aliases.push(alias.clone());
        let residual = take_applicable(psx, &positions, &mut consumed, all_placed);
        let residual_sel = non_structural_selectivity(&residual, model);
        let preds: Vec<PhysPred> = residual
            .iter()
            .map(|p| resolve_pred(p, &positions))
            .collect();

        let (inner, rows, cost) = match right {
            None => (
                JoinInner::Probe(access.probe),
                plan.est_rows * access.per_left_rows,
                plan.est_cost + plan.est_rows.max(1.0) * access.per_left_cost,
            ),
            Some((right, rescan_cost)) => {
                // When the order does not matter a block join saves
                // rescans; otherwise the right is re-read per left row.
                let (block_rows, rescans) = if force_sort {
                    let blocks = (plan.est_rows / config.bnlj_block_rows as f64).ceil();
                    (config.bnlj_block_rows, blocks.max(1.0))
                } else {
                    (1, plan.est_rows.max(1.0))
                };
                let cost = plan.est_cost
                    + right.est_cost
                    + rescans * rescan_cost
                    + model.join_cpu_cost(plan.est_rows * right.est_rows);
                let rows = plan.est_rows * right.est_rows;
                let inner = JoinInner::Scan {
                    right: Box::new(right),
                    block_rows,
                };
                (inner, rows, cost)
            }
        };
        plan = Plan {
            est_rows: (rows * residual_sel).max(0.0),
            est_cost: cost,
            node: PlanNode::Join {
                left: Box::new(plan),
                inner,
                outer: false,
                preds,
            },
        };

        // --- semijoin projection: drop exhausted trailing non-producers ----------
        if !force_sort {
            let mut retained = row_aliases.len();
            while retained > 0 {
                let candidate = &row_aliases[retained - 1];
                let is_producer = psx.cols.iter().any(|c| &c.alias == candidate);
                let still_referenced = psx
                    .conjuncts
                    .iter()
                    .zip(consumed.iter())
                    .any(|(p, done)| !done && p.aliases().contains(&candidate.as_str()));
                if is_producer || still_referenced {
                    break;
                }
                retained -= 1;
            }
            if retained < row_aliases.len() {
                row_aliases.truncate(retained);
                positions.retain(|a, _| row_aliases.contains(a));
                let cols: Vec<usize> = (0..retained).collect();
                // The dedup shrinks the result to at most one row per
                // retained prefix: a semijoin. Estimate: no more rows than
                // before the dropped join.
                let rows = plan.est_rows.min(rows_before_join.max(1.0));
                plan = Plan {
                    est_rows: rows,
                    est_cost: plan.est_cost,
                    node: PlanNode::Project {
                        input: Box::new(plan),
                        cols,
                        dedup: true,
                    },
                };
            }
        }
    }

    // --- leftover conjuncts ------------------------------------------------------
    let leftovers = take_applicable(psx, &positions, &mut consumed, true);
    if !leftovers.is_empty() {
        let sel = non_structural_selectivity(&leftovers, model);
        let preds: Vec<PhysPred> = leftovers
            .iter()
            .map(|p| resolve_pred(p, &positions))
            .collect();
        plan = Plan {
            est_rows: (plan.est_rows * sel).max(0.0),
            est_cost: plan.est_cost,
            node: PlanNode::Filter {
                input: Box::new(plan),
                preds,
            },
        };
    }

    // --- exists check (nullary projection): early exit -----------------------------
    if psx.cols.is_empty() {
        let plan_rows = plan.est_rows;
        let limited = Plan {
            est_rows: plan_rows.min(1.0),
            est_cost: plan.est_cost, // pessimistic: early exit not credited
            node: PlanNode::Limit {
                input: Box::new(plan),
                n: 1,
            },
        };
        return Plan {
            est_rows: limited.est_rows,
            est_cost: limited.est_cost,
            node: PlanNode::Project {
                input: Box::new(limited),
                cols: Vec::new(),
                dedup: true,
            },
        };
    }

    // --- projection (+ sort when order was not maintained) --------------------------
    let producer_layout: Vec<&String> = psx.cols.iter().map(|c| &c.alias).collect();
    let ordered_layout = !force_sort && row_aliases.iter().collect::<Vec<_>>() == producer_layout;
    let cols: Vec<usize> = psx.cols.iter().map(|c| positions[&c.alias]).collect();
    if ordered_layout {
        // A mid-chain semijoin projection that already produced exactly the
        // producer layout (identity, deduplicated) makes a final projection
        // redundant.
        let identity = cols.iter().copied().eq(0..psx.cols.len());
        if identity {
            if let PlanNode::Project {
                cols: inner_cols,
                dedup: true,
                ..
            } = &plan.node
            {
                if inner_cols.len() == psx.cols.len() {
                    return plan;
                }
            }
        }
        let dedup = ordering::needs_dedup(psx);
        Plan {
            est_rows: plan.est_rows,
            est_cost: plan.est_cost,
            node: PlanNode::Project {
                input: Box::new(plan),
                cols,
                dedup,
            },
        }
    } else {
        let projected = Plan {
            est_rows: plan.est_rows,
            est_cost: plan.est_cost,
            node: PlanNode::Project {
                input: Box::new(plan),
                cols,
                dedup: false,
            },
        };
        let keys: Vec<usize> = (0..psx.cols.len()).collect();
        let sort_cost = model.sort_cost(projected.est_rows);
        let sorted = Plan {
            est_rows: projected.est_rows,
            est_cost: projected.est_cost + sort_cost,
            node: PlanNode::Sort {
                input: Box::new(projected),
                keys: keys.clone(),
            },
        };
        Plan {
            est_rows: sorted.est_rows,
            est_cost: sorted.est_cost,
            node: PlanNode::Project {
                input: Box::new(sorted),
                cols: keys,
                dedup: true,
            },
        }
    }
}

/// Result of access-path selection for one relation.
struct Access {
    probe: Probe,
    join: JoinKind,
    /// For leaf scans: absolute row estimate. For index joins: per-left-row
    /// match estimate lives in `per_left_rows`.
    est_rows: f64,
    est_cost: f64,
    per_left_rows: f64,
    per_left_cost: f64,
}

enum JoinKind {
    /// Probe parameterized by the left row (or env) — index nested loops.
    Index,
    /// Independent scan — nested loops.
    Nested,
}

/// Picks the cheapest access path for `alias`, consuming the conjuncts the
/// probe internalizes. `left` is `Some` when the relation joins an already
/// placed prefix (positions map non-empty).
fn choose_access(
    psx: &Psx,
    alias: &str,
    left: Option<&HashMap<String, usize>>,
    positions: &HashMap<String, usize>,
    consumed: &mut [bool],
    model: &CostModel,
    config: &PlannerConfig,
) -> Access {
    let local: Vec<(usize, &AtomicPred)> = psx
        .conjuncts
        .iter()
        .enumerate()
        .filter(|(i, p)| {
            !consumed[*i] && {
                let aliases = p.aliases();
                aliases.len() == 1 && aliases[0] == alias
            }
        })
        .collect();
    let local_preds: Vec<&AtomicPred> = local.iter().map(|(_, p)| *p).collect();
    let label = find_label_eq(&local_preds).map(str::to_string);
    let base_card = model.base_cardinality(&local_preds);

    // An access path joins as INLJ only when its probe depends on the
    // *outer row* (`Src::Col`). Probes anchored on external variables are
    // constant for the whole plan execution, so they make a better NLJ
    // right side: scanned once, materialized, replayed.
    fn join_kind(src: &Src, left: Option<&HashMap<String, usize>>) -> JoinKind {
        match (src, left) {
            (Src::Col(_), Some(_)) => JoinKind::Index,
            _ => JoinKind::Nested,
        }
    }

    if config.use_indexes {
        // 1. Child linkage: alias.parent_in = src.in.
        if let Some((idx, src)) = find_parent_link(psx, alias, positions, consumed) {
            let join = join_kind(&src, left);
            let probe = match &label {
                Some(l) => Probe::LabelChildrenOf(l.clone(), src),
                None => Probe::ChildrenOf(src),
            };
            consumed[idx] = true;
            consume_label_and_type(&local, label.as_deref(), consumed);
            let matches = model.child_fanout(base_card);
            let cost = model.children_probe_cost(model.avg_fanout());
            return Access {
                probe,
                join,
                est_rows: matches,
                est_cost: cost,
                per_left_rows: matches,
                per_left_cost: cost,
            };
        }
        // 2. Text-value equality (the extension index): a strict `=`
        // conjunct against a constant or a placed relation's value, on a
        // relation known to be text. The probe guarantees the text type
        // and the equality, so both conjuncts are consumed; the paper's
        // non-text runtime error for the *other* side is raised by probe
        // resolution.
        if let Some(text_type_idx) = find_type_text(&local) {
            if let Some((idx, target)) = find_text_eq(psx, alias, positions, consumed) {
                consumed[idx] = true;
                consumed[text_type_idx] = true;
                let matches = model.text_eq_matches();
                let cost = model.text_probe_cost(matches);
                let (probe, join) = match target {
                    TextTarget::Const(s) => (Probe::ByTextEq(s), JoinKind::Nested),
                    TextTarget::Source(src) => {
                        let join = join_kind(&src, left);
                        (Probe::TextEqOf(src), join)
                    }
                };
                return Access {
                    probe,
                    join,
                    est_rows: matches,
                    est_cost: cost,
                    per_left_rows: matches,
                    per_left_cost: cost,
                };
            }
        }
        // 3. Descendant interval: src.in < alias.in ∧ alias.out < src.out.
        if let Some((idx_lo, idx_hi, src)) = find_interval_link(psx, alias, positions, consumed) {
            consumed[idx_lo] = true;
            consumed[idx_hi] = true;
            let join = join_kind(&src, left);
            // Descendants of the *document root* are all nodes satisfying
            // the test; the per-node fanout formula only applies to proper
            // anchors.
            let root_anchored = matches!(&src, Src::Ext(v) if v == &xmldb_xq::Var::root());
            let matches = if root_anchored {
                base_card
            } else {
                model.descendant_fanout(base_card)
            };
            let (probe, cost) = match &label {
                Some(l) => {
                    consume_label_and_type(&local, label.as_deref(), consumed);
                    let cost = if root_anchored {
                        model.label_scan_cost(l)
                    } else {
                        model.descendants_probe_cost(matches)
                    };
                    (Probe::LabelDescendantsOf(l.clone(), src), cost)
                }
                None => {
                    let cost = if root_anchored {
                        model.full_scan_cost()
                    } else {
                        model.descendants_probe_cost(model.avg_subtree())
                    };
                    (Probe::DescendantsOf(src), cost)
                }
            };
            return Access {
                probe,
                join,
                est_rows: matches,
                est_cost: cost,
                per_left_rows: matches,
                per_left_cost: cost,
            };
        }
        // 3b. Pinned: alias.in = src.in.
        if let Some((idx, src)) = find_in_link(psx, alias, positions, consumed) {
            consumed[idx] = true;
            let join = join_kind(&src, left);
            return Access {
                probe: Probe::Bound(src),
                join,
                est_rows: 1.0,
                est_cost: 0.1,
                per_left_rows: 1.0,
                per_left_cost: 0.1,
            };
        }
        // 4. Label index scan.
        if let Some(l) = &label {
            consume_label_and_type(&local, label.as_deref(), consumed);
            let cost = model.label_scan_cost(l);
            return Access {
                probe: Probe::ByLabel(l.clone()),
                join: JoinKind::Nested,
                est_rows: base_card,
                est_cost: cost,
                per_left_rows: base_card,
                per_left_cost: cost,
            };
        }
    }
    // 5. Full scan (the only path for index-less engines). Local conjuncts
    // stay as scan filters via take_applicable.
    Access {
        probe: Probe::Full,
        join: JoinKind::Nested,
        est_rows: base_card,
        est_cost: model.full_scan_cost(),
        per_left_rows: base_card,
        per_left_cost: model.full_scan_cost(),
    }
}

/// Marks the `value = label` and `type = element` conjuncts consumed when a
/// label-aware probe internalizes them.
fn consume_label_and_type(
    local: &[(usize, &AtomicPred)],
    label: Option<&str>,
    consumed: &mut [bool],
) {
    let Some(label) = label else { return };
    for (idx, pred) in local {
        if pred.strict_text || pred.op != CmpOp::Eq {
            continue;
        }
        // Only the conjunct for the probed label itself: a second,
        // contradictory `value = other` must stay as a filter.
        let is_probed_label = matches!(
            (&pred.lhs, &pred.rhs),
            (Operand::Col(c), Operand::Str(s)) | (Operand::Str(s), Operand::Col(c))
                if c.attr == Attr::Value && s == label
        );
        // Only `type = element` (what the label index guarantees); a
        // `type = text` conjunct must survive to fail every probe result.
        let is_element_type = matches!(
            (&pred.lhs, &pred.rhs),
            (Operand::Col(c), Operand::Kind(xmldb_xasr::NodeType::Element))
                | (Operand::Kind(xmldb_xasr::NodeType::Element), Operand::Col(c))
                if c.attr == Attr::Type
        );
        if is_probed_label || is_element_type {
            consumed[*idx] = true;
        }
    }
}

/// The right-hand side of a text-equality probe.
enum TextTarget {
    Const(String),
    Source(Src),
}

/// Finds an unconsumed local `alias.type = text` conjunct.
fn find_type_text(local: &[(usize, &AtomicPred)]) -> Option<usize> {
    local.iter().find_map(|(idx, pred)| {
        let is_text = pred.op == CmpOp::Eq
            && matches!(
                (&pred.lhs, &pred.rhs),
                (Operand::Col(c), Operand::Kind(xmldb_xasr::NodeType::Text))
                    | (Operand::Kind(xmldb_xasr::NodeType::Text), Operand::Col(c))
                    if c.attr == Attr::Type
            );
        is_text.then_some(*idx)
    })
}

/// Finds a strict `alias.value = <target>` conjunct where the target is a
/// string constant, a placed relation's value column, or an external
/// variable's value.
fn find_text_eq(
    psx: &Psx,
    alias: &str,
    positions: &HashMap<String, usize>,
    consumed: &[bool],
) -> Option<(usize, TextTarget)> {
    for (i, pred) in psx.conjuncts.iter().enumerate() {
        if consumed[i] || pred.op != CmpOp::Eq || !pred.strict_text {
            continue;
        }
        for (me, other) in [(&pred.lhs, &pred.rhs), (&pred.rhs, &pred.lhs)] {
            let Operand::Col(c) = me else { continue };
            if c.alias != alias || c.attr != Attr::Value {
                continue;
            }
            match other {
                Operand::Str(s) => return Some((i, TextTarget::Const(s.clone()))),
                Operand::Col(o) if o.attr == Attr::Value => {
                    if let Some(&pos) = positions.get(&o.alias) {
                        return Some((i, TextTarget::Source(Src::Col(pos))));
                    }
                }
                Operand::ExtVar(v, Attr::Value) => {
                    return Some((i, TextTarget::Source(Src::Ext(v.clone()))))
                }
                _ => {}
            }
        }
    }
    None
}

/// Finds `alias.parent_in = X.in` where X is a placed relation or an
/// external variable.
fn find_parent_link(
    psx: &Psx,
    alias: &str,
    positions: &HashMap<String, usize>,
    consumed: &[bool],
) -> Option<(usize, Src)> {
    for (i, pred) in psx.conjuncts.iter().enumerate() {
        if consumed[i] || pred.op != CmpOp::Eq {
            continue;
        }
        for (me, other) in [(&pred.lhs, &pred.rhs), (&pred.rhs, &pred.lhs)] {
            let Operand::Col(c) = me else { continue };
            if c.alias != alias || c.attr != Attr::ParentIn {
                continue;
            }
            if let Some(src) = operand_src(other, positions) {
                return Some((i, src));
            }
        }
    }
    None
}

/// Finds the interval pair `X.in < alias.in` and `alias.out < X.out` for
/// the same source X.
fn find_interval_link(
    psx: &Psx,
    alias: &str,
    positions: &HashMap<String, usize>,
    consumed: &[bool],
) -> Option<(usize, usize, Src)> {
    // Collect candidate lower bounds: X.in < alias.in (either orientation).
    let mut lowers: Vec<(usize, Src, SrcKey)> = Vec::new();
    let mut uppers: Vec<(usize, Src, SrcKey)> = Vec::new();
    for (i, pred) in psx.conjuncts.iter().enumerate() {
        if consumed[i] {
            continue;
        }
        // Normalize to a < form.
        let (lhs, rhs) = match pred.op {
            CmpOp::Lt => (&pred.lhs, &pred.rhs),
            CmpOp::Gt => (&pred.rhs, &pred.lhs),
            CmpOp::Eq => continue,
        };
        // X.in < alias.in
        if let (Some((src, key)), Operand::Col(c)) = (operand_src_in(lhs, positions), rhs) {
            if c.alias == alias && c.attr == Attr::In {
                lowers.push((i, src, key));
            }
        }
        // alias.out < X.out
        if let (Operand::Col(c), Some((src, key))) = (lhs, operand_src_out(rhs, positions)) {
            if c.alias == alias && c.attr == Attr::Out {
                uppers.push((i, src, key));
            }
        }
    }
    for (li, lsrc, lkey) in &lowers {
        for (ui, _, ukey) in &uppers {
            if lkey == ukey {
                return Some((*li, *ui, lsrc.clone()));
            }
        }
    }
    None
}

/// Finds `alias.in = X.in`.
fn find_in_link(
    psx: &Psx,
    alias: &str,
    positions: &HashMap<String, usize>,
    consumed: &[bool],
) -> Option<(usize, Src)> {
    for (i, pred) in psx.conjuncts.iter().enumerate() {
        if consumed[i] || pred.op != CmpOp::Eq || pred.strict_text {
            continue;
        }
        for (me, other) in [(&pred.lhs, &pred.rhs), (&pred.rhs, &pred.lhs)] {
            let Operand::Col(c) = me else { continue };
            if c.alias != alias || c.attr != Attr::In {
                continue;
            }
            if let Some(src) = operand_src(other, positions) {
                return Some((i, src));
            }
        }
    }
    None
}

/// Identity of a probe source for matching interval pairs.
#[derive(PartialEq, Eq)]
enum SrcKey {
    Pos(usize),
    Var(xmldb_xq::Var),
}

/// Interprets an operand as an `in`-valued probe source.
fn operand_src(op: &Operand, positions: &HashMap<String, usize>) -> Option<Src> {
    operand_src_in(op, positions).map(|(s, _)| s)
}

fn operand_src_in(op: &Operand, positions: &HashMap<String, usize>) -> Option<(Src, SrcKey)> {
    match op {
        Operand::Col(c) if c.attr == Attr::In => positions
            .get(&c.alias)
            .map(|&p| (Src::Col(p), SrcKey::Pos(p))),
        Operand::ExtVar(v, Attr::In) => Some((Src::Ext(v.clone()), SrcKey::Var(v.clone()))),
        _ => None,
    }
}

fn operand_src_out(op: &Operand, positions: &HashMap<String, usize>) -> Option<(Src, SrcKey)> {
    match op {
        Operand::Col(c) if c.attr == Attr::Out => positions
            .get(&c.alias)
            .map(|&p| (Src::Col(p), SrcKey::Pos(p))),
        Operand::ExtVar(v, Attr::Out) => Some((Src::Ext(v.clone()), SrcKey::Var(v.clone()))),
        _ => None,
    }
}

/// Takes (and marks consumed) the unconsumed conjuncts local to one alias.
///
/// Strict (XQ `=`) conjuncts are never taken: pushing them below a join
/// would evaluate the comparison on tuples the σ-over-× semantics never
/// forms (e.g. when another relation is empty), raising the paper's
/// non-text runtime error where the reference semantics succeeds. They
/// stay deferred until every relation is placed (see [`take_applicable`]).
fn take_local<'a>(psx: &'a Psx, alias: &str, consumed: &mut [bool]) -> Vec<&'a AtomicPred> {
    let mut out = Vec::new();
    for (i, pred) in psx.conjuncts.iter().enumerate() {
        if consumed[i] || pred.strict_text {
            continue;
        }
        let aliases = pred.aliases();
        if aliases.len() == 1 && aliases[0] == alias {
            consumed[i] = true;
            out.push(pred);
        }
    }
    out
}

/// Combined selectivity of predicates, skipping label/type tests (their
/// effect is already inside `base_cardinality`).
fn non_structural_selectivity(preds: &[&AtomicPred], model: &CostModel) -> f64 {
    preds
        .iter()
        .filter(|p| !is_label_or_type_test(p))
        .map(|p| model.residual_selectivity(p))
        .product()
}

fn is_label_or_type_test(pred: &AtomicPred) -> bool {
    if pred.op != CmpOp::Eq || pred.strict_text {
        return false;
    }
    matches!(
        (&pred.lhs, &pred.rhs),
        (Operand::Col(c), Operand::Str(_)) | (Operand::Str(_), Operand::Col(c))
            if c.attr == Attr::Value
    ) || matches!(
        (&pred.lhs, &pred.rhs),
        (Operand::Col(c), Operand::Kind(_)) | (Operand::Kind(_), Operand::Col(c))
            if c.attr == Attr::Type
    )
}

/// Takes (and marks consumed) every unconsumed conjunct whose relations are
/// all placed.
///
/// Strict (XQ `=`) conjuncts are only taken once *every* relation of the
/// PSX has been placed (`all_placed`): a cross-product tuple then exists
/// and has already passed the structural conjuncts that guard the
/// comparison in the merged conjunct order, so the non-text runtime error
/// fires only where the nested reference semantics would raise it too.
fn take_applicable<'a>(
    psx: &'a Psx,
    positions: &HashMap<String, usize>,
    consumed: &mut [bool],
    all_placed: bool,
) -> Vec<&'a AtomicPred> {
    let mut out = Vec::new();
    for (i, pred) in psx.conjuncts.iter().enumerate() {
        if consumed[i] || (pred.strict_text && !all_placed) {
            continue;
        }
        if pred.aliases().iter().all(|a| positions.contains_key(*a)) {
            consumed[i] = true;
            out.push(pred);
        }
    }
    out
}

/// Resolves an algebra predicate to row positions.
fn resolve_pred(pred: &AtomicPred, positions: &HashMap<String, usize>) -> PhysPred {
    PhysPred {
        op: pred.op,
        lhs: resolve_operand(&pred.lhs, positions),
        rhs: resolve_operand(&pred.rhs, positions),
        strict_text: pred.strict_text,
    }
}

fn resolve_operand(op: &Operand, positions: &HashMap<String, usize>) -> PhysOperand {
    match op {
        Operand::Col(c) => PhysOperand::Col {
            pos: *positions
                .get(&c.alias)
                .unwrap_or_else(|| panic!("alias {} not placed", c.alias)),
            attr: c.attr,
        },
        Operand::Num(n) => PhysOperand::Num(*n),
        Operand::Str(s) => PhysOperand::Str(s.clone()),
        Operand::Kind(k) => PhysOperand::Kind(*k),
        Operand::ExtVar(v, attr) => PhysOperand::Ext {
            var: v.clone(),
            attr: *attr,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmldb_algebra::{compile_query, rewrite};
    use xmldb_physical::{execute_all, Bindings, ExecContext};
    use xmldb_storage::Env;
    use xmldb_xasr::{shred_document, XasrStore};
    use xmldb_xq::parse;

    const FIGURE2: &str =
        "<journal><authors><name>Ana</name><name>Bob</name></authors><title>DB</title></journal>";

    /// An Example 6 document: many authors, few articles with volumes.
    fn example6_doc() -> String {
        let mut xml = String::from("<dblp>");
        for i in 0..40 {
            xml.push_str("<article>");
            if i % 10 == 0 {
                xml.push_str(&format!("<volume>{i}</volume>"));
            }
            for a in 0..5 {
                xml.push_str(&format!("<author>A{i}-{a}</author>"));
            }
            xml.push_str("</article>");
        }
        xml.push_str("</dblp>");
        xml
    }

    fn merged_psx(query: &str) -> Psx {
        let tpm = rewrite::optimize(
            compile_query(&parse(query).unwrap()),
            &rewrite::RewriteOptions::default(),
        );
        fn find(t: &xmldb_algebra::Tpm) -> Option<&Psx> {
            match t {
                xmldb_algebra::Tpm::RelFor { source, .. } => Some(source),
                xmldb_algebra::Tpm::Constr { content, .. } => find(content),
                xmldb_algebra::Tpm::Concat(parts) => parts.iter().find_map(find),
                _ => None,
            }
        }
        find(&tpm).expect("relfor").clone()
    }

    fn run(plan: &Plan, store: &XasrStore) -> Vec<Vec<u64>> {
        let binds = Bindings::with_root(store).unwrap();
        let ctx = ExecContext::new(store, &binds);
        let mut op = plan.instantiate(None);
        execute_all(op.as_mut(), &ctx)
            .unwrap()
            .into_iter()
            .map(|row| row.iter().map(|t| t.in_).collect())
            .collect()
    }

    const EXAMPLE2: &str =
        "<names>{ for $j in /journal return for $n in $j//name return $n }</names>";

    #[test]
    fn example2_cost_based_plan_and_rows() {
        let env = Env::memory();
        let store = shred_document(&env, "d", FIGURE2).unwrap();
        let model = CostModel::from_store(&store);
        let psx = merged_psx(EXAMPLE2);
        let plan = plan_cost_based(&psx, &model);
        assert!(plan.is_order_preserving(), "{}", plan.explain());
        assert_eq!(plan.count_ops("sort"), 0, "{}", plan.explain());
        assert_eq!(run(&plan, &store), vec![vec![2, 4], vec![2, 8]]);
    }

    #[test]
    fn example2_heuristic_plan_same_rows() {
        let env = Env::memory();
        let store = shred_document(&env, "d", FIGURE2).unwrap();
        let model = CostModel::from_store(&store);
        let psx = merged_psx(EXAMPLE2);
        let plan = plan_heuristic(&psx, &model);
        // Heuristic engine: no index probes, materialized NLJ rights.
        assert_eq!(plan.count_ops("inl-join"), 0, "{}", plan.explain());
        assert!(plan.count_ops("materialize") >= 1, "{}", plan.explain());
        assert_eq!(run(&plan, &store), vec![vec![2, 4], vec![2, 8]]);
    }

    const EXAMPLE6: &str = "for $x in //article return \
        if (some $v in $x/volume satisfies true()) \
        then for $y in $x//author return $y else ()";

    /// Figure 6 / QP2: the cost-based plan checks volumes *before*
    /// expanding authors — the unprojected V relation joins between A and
    /// B and is projected away (semijoin), with both joins index-based.
    #[test]
    fn example6_qp2_shape() {
        let env = Env::memory();
        let store = shred_document(&env, "d6", &example6_doc()).unwrap();
        let model = CostModel::from_store(&store);
        let psx = merged_psx(EXAMPLE6);
        assert_eq!(psx.relations.len(), 3);
        let plan = plan_cost_based(&psx, &model);
        let explain = plan.explain();
        assert!(plan.is_order_preserving(), "{explain}");
        assert_eq!(plan.count_ops("inl-join"), 2, "{explain}");
        assert_eq!(plan.count_ops("sort"), 0, "{explain}");
        // The semijoin: a dedup projection *below* the author join.
        assert!(plan.count_ops("project") >= 2, "{explain}");
        // Execution: only articles with volumes contribute authors.
        let rows = run(&plan, &store);
        assert_eq!(
            rows.len(),
            4 * 5,
            "4 volumed articles × 5 authors: {explain}"
        );
    }

    /// All planner configurations agree on the result rows.
    #[test]
    fn planners_agree_on_results() {
        let env = Env::memory();
        let store = shred_document(&env, "da", &example6_doc()).unwrap();
        let model = CostModel::from_store(&store);
        for query in [
            EXAMPLE2,
            EXAMPLE6,
            "for $a in //author return $a",
            "<r>{ for $x in /dblp/article return for $v in $x/volume return $v }</r>",
        ] {
            let psx = merged_psx(query);
            let cost = plan_cost_based(&psx, &model);
            let heur = plan_heuristic(&psx, &model);
            assert_eq!(
                run(&cost, &store),
                run(&heur, &store),
                "plans disagree for {query}:\n{}\nvs\n{}",
                cost.explain(),
                heur.explain()
            );
        }
    }

    /// Corrupted statistics flip the chosen join order (the Figure 7
    /// engine-2 story).
    #[test]
    fn bad_estimates_change_plan() {
        let env = Env::memory();
        let store = shred_document(&env, "db", &example6_doc()).unwrap();
        let good = CostModel::from_store(&store);
        // Lie: claim volumes are everywhere and authors are unique.
        let mut lying_stats = store.stats().clone();
        lying_stats.label_counts.insert("volume".into(), 100_000);
        lying_stats.label_counts.insert("author".into(), 1);
        let bad = CostModel::new(lying_stats, 10, 10, 10, 8192);
        let psx = merged_psx(EXAMPLE6);
        let good_plan = plan_cost_based(&psx, &good);
        let bad_plan = plan_cost_based(&psx, &bad);
        assert_ne!(
            good_plan.explain(),
            bad_plan.explain(),
            "corrupted stats should alter the plan"
        );
        // Both still compute the same answer.
        assert_eq!(run(&good_plan, &store), run(&bad_plan, &store));
    }

    /// Exists plans (nullary projection) early-exit through a limit.
    #[test]
    fn exists_plan_has_limit() {
        let env = Env::memory();
        let store = shred_document(&env, "de", FIGURE2).unwrap();
        let model = CostModel::from_store(&store);
        // if (some $t in $root//text() satisfies true()) then () — build
        // the condition's nullary PSX via a full query.
        let tpm = rewrite::optimize(
            compile_query(
                &parse("if (some $t in //text() satisfies true()) then <y/> else ()").unwrap(),
            ),
            &rewrite::RewriteOptions::default(),
        );
        fn find_nullary(t: &xmldb_algebra::Tpm) -> Option<&Psx> {
            match t {
                xmldb_algebra::Tpm::RelFor { vars, source, body } => {
                    if vars.is_empty() && source.cols.is_empty() {
                        Some(source)
                    } else {
                        find_nullary(body)
                    }
                }
                xmldb_algebra::Tpm::Constr { content, .. } => find_nullary(content),
                _ => None,
            }
        }
        let psx = find_nullary(&tpm).expect("nullary relfor").clone();
        let plan = plan_cost_based(&psx, &model);
        assert!(plan.count_ops("limit") >= 1, "{}", plan.explain());
        let rows = run(&plan, &store);
        assert_eq!(rows, vec![Vec::<u64>::new()], "one empty row = true");
    }

    /// The relation-free PSX plans to a singleton.
    #[test]
    fn truth_plans_to_singleton() {
        let model = CostModel::new(Default::default(), 1, 1, 1, 8192);
        let plan = plan_cost_based(&Psx::truth(), &model);
        assert!(matches!(plan.node, PlanNode::Singleton));
        assert!((plan.est_rows - 1.0).abs() < 1e-9);
    }

    /// Non-existent labels estimate to zero rows, making their plans
    /// near-free (the Figure 7 Test 4 behaviour).
    #[test]
    fn ghost_label_estimates_zero() {
        let env = Env::memory();
        let store = shred_document(&env, "dg", FIGURE2).unwrap();
        let model = CostModel::from_store(&store);
        let psx = merged_psx("for $g in //ghost return $g");
        let plan = plan_cost_based(&psx, &model);
        assert!(plan.est_rows < 1e-3, "{}", plan.explain());
        assert!(run(&plan, &store).is_empty());
    }
}

#[cfg(test)]
mod text_index_tests {
    use super::*;
    use crate::plan::Plan;
    use xmldb_algebra::{compile_query, rewrite};
    use xmldb_physical::{execute_all, Bindings, ExecContext};
    use xmldb_storage::Env;
    use xmldb_xasr::shred_document;
    use xmldb_xq::parse;

    fn merged_psx(query: &str) -> Psx {
        let tpm = rewrite::optimize(
            compile_query(&parse(query).unwrap()),
            &rewrite::RewriteOptions::default(),
        );
        fn find(t: &xmldb_algebra::Tpm) -> Option<&Psx> {
            match t {
                xmldb_algebra::Tpm::RelFor { source, .. } => Some(source),
                xmldb_algebra::Tpm::Constr { content, .. } => find(content),
                xmldb_algebra::Tpm::Concat(parts) => parts.iter().find_map(find),
                _ => None,
            }
        }
        find(&tpm).expect("relfor").clone()
    }

    fn run(plan: &Plan, store: &xmldb_xasr::XasrStore) -> Vec<Vec<u64>> {
        let binds = Bindings::with_root(store).unwrap();
        let ctx = ExecContext::new(store, &binds);
        let mut op = plan.instantiate(None);
        execute_all(op.as_mut(), &ctx)
            .unwrap()
            .into_iter()
            .map(|row| row.iter().map(|t| t.in_).collect())
            .collect()
    }

    /// `$t = "const"` on a text step becomes a text-index probe.
    #[test]
    fn const_text_eq_uses_index() {
        let env = Env::memory();
        let store =
            shred_document(&env, "d", "<r><a>Ana</a><a>Bob</a><a>Ana</a><b>Ana</b></r>").unwrap();
        let model = CostModel::from_store(&store);
        let psx = merged_psx("for $t in //text() return if ($t = \"Ana\") then $t else ()");
        let plan = plan_cost_based(&psx, &model);
        let explain = plan.explain();
        assert!(explain.contains("text-eq(\"Ana\")"), "{explain}");
        let rows = run(&plan, &store);
        assert_eq!(rows.len(), 3, "{explain}");
        // The heuristic (index-less) planner computes the same rows.
        assert_eq!(run(&plan_heuristic(&psx, &model), &store), rows);
    }

    /// A value join becomes an index nested-loops join on the text index.
    #[test]
    fn value_join_uses_text_index() {
        let env = Env::memory();
        let store = shred_document(
            &env,
            "d",
            "<r><x>k1</x><x>k2</x><y>k2</y><y>k3</y><y>k2</y></r>",
        )
        .unwrap();
        let model = CostModel::from_store(&store);
        // The inner loop ranges over *all* text nodes (no parent link for
        // the planner to prefer), so the equality itself is the best
        // access path.
        let psx = merged_psx(
            "for $a in /r/x/text() return for $b in //text() return \
             if ($a = $b) then <m/> else ()",
        );
        let plan = plan_cost_based(&psx, &model);
        let explain = plan.explain();
        assert!(explain.contains("text-eq(Col"), "{explain}");
        // k1 matches itself; x's k2 matches all three k2 occurrences.
        let rows = run(&plan, &store);
        let brute = run(&plan_heuristic(&psx, &model), &store);
        assert_eq!(rows, brute, "{explain}");
        assert_eq!(rows.len(), 4, "{explain}");
    }

    /// The strict error is preserved: probing with a non-text source errors.
    #[test]
    fn text_probe_on_non_text_source_errors() {
        let env = Env::memory();
        let store = shred_document(&env, "d", "<r><x><deep/></x><y>k</y></r>").unwrap();
        let model = CostModel::from_store(&store);
        // $a binds elements (star test), compared against text nodes.
        let psx = merged_psx(
            "for $a in /r/* return for $b in /r/y/text() return \
             if ($a = $b) then <m/> else ()",
        );
        let plan = plan_cost_based(&psx, &model);
        let binds = Bindings::with_root(&store).unwrap();
        let ctx = ExecContext::new(&store, &binds);
        let mut op = plan.instantiate(None);
        let result = execute_all(op.as_mut(), &ctx);
        assert!(
            matches!(result, Err(xmldb_physical::Error::NonTextComparison { .. })),
            "expected the paper's runtime error, got {result:?}\n{}",
            plan.explain()
        );
    }
}
