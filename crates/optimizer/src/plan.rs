//! The physical plan tree: declarative, costed, instantiable.
//!
//! A relfor's source plan is built once per query but *executed* once per
//! binding environment, so plans are descriptions that instantiate fresh
//! operator trees on demand.

use std::rc::Rc;
use xmldb_physical::ops::{
    FilterOp, JoinInner, JoinOp, LimitOp, MaterializeOp, ProjectOp, RowsOp, ScanOp, SortOp,
};
use xmldb_physical::{AnalyzedOperator, OpMetrics, Operator, PhysPred, Probe, SharedOpMetrics};

/// Actual-execution counters for every operator of one plan, indexed by
/// the pre-order position the operator has in [`Plan::explain`] output.
///
/// Slots are allocated on first analyzed instantiation and *reused* by
/// later ones, so the counters accumulate across the many executions of a
/// relfor source plan (one per outer binding environment).
#[derive(Debug, Clone, Default)]
pub struct PlanMetrics {
    slots: Vec<SharedOpMetrics>,
}

impl PlanMetrics {
    /// An empty metrics store (no slots until a plan instantiates into it).
    pub fn new() -> PlanMetrics {
        PlanMetrics::default()
    }

    /// The shared handle for pre-order slot `index`, allocating as needed.
    fn slot(&mut self, index: usize) -> SharedOpMetrics {
        while self.slots.len() <= index {
            self.slots.push(SharedOpMetrics::default());
        }
        Rc::clone(&self.slots[index])
    }

    /// Counters of the `index`-th operator in pre-order; `None` if the
    /// plan was never instantiated under analysis.
    pub fn get(&self, index: usize) -> Option<OpMetrics> {
        self.slots.get(index).map(|m| *m.borrow())
    }

    /// Number of instrumented operators.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no analyzed instantiation has happened yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// A costed physical plan node.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The operator at this node.
    pub node: PlanNode,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Estimated cumulative cost (page fetches).
    pub est_cost: f64,
}

/// Physical operator descriptions.
#[allow(missing_docs)] // variant fields are self-describing
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// Leaf access path with pushed-down selection.
    Scan { probe: Probe, filter: Vec<PhysPred> },
    /// Residual selection.
    Filter {
        input: Box<Plan>,
        preds: Vec<PhysPred>,
    },
    /// The nested-loops join. `inner` picks the access path — an index
    /// probe parameterized by left-row columns, or a re-scanned right plan
    /// with its block size (1 = order-preserving, more = block join) —
    /// and `outer` the TPM left-outer-join extension (match-less left
    /// rows survive NULL-padded); [`JoinInner::name`] names the result.
    Join {
        left: Box<Plan>,
        inner: JoinInner<Box<Plan>>,
        outer: bool,
        preds: Vec<PhysPred>,
    },
    /// External sort on the `in` values of the given columns.
    Sort { input: Box<Plan>, keys: Vec<usize> },
    /// Projection, optionally with one-pass duplicate elimination.
    Project {
        input: Box<Plan>,
        cols: Vec<usize>,
        dedup: bool,
    },
    /// Spill-and-replay.
    Materialize { input: Box<Plan> },
    /// The nullary true relation.
    Singleton,
    /// Early exit after n rows (exists checks).
    Limit { input: Box<Plan>, n: usize },
}

impl Plan {
    /// Builds a fresh operator tree for this plan. With `metrics`, every
    /// operator is wrapped in an [`AnalyzedOperator`] accumulating into
    /// its slot there; slot order is the pre-order of [`Plan::explain`],
    /// so [`Plan::explain_analyzed`] can line counters up with plan lines.
    pub fn instantiate(&self, metrics: Option<&mut PlanMetrics>) -> Box<dyn Operator> {
        self.build(metrics, &mut 0)
    }

    fn build(
        &self,
        mut metrics: Option<&mut PlanMetrics>,
        next_slot: &mut usize,
    ) -> Box<dyn Operator> {
        let handle = metrics.as_deref_mut().map(|m| m.slot(*next_slot));
        *next_slot += 1;
        let mut child = |plan: &Plan| plan.build(metrics.as_deref_mut(), next_slot);
        let op: Box<dyn Operator> = match &self.node {
            PlanNode::Scan { probe, filter } => {
                Box::new(ScanOp::new(probe.clone(), filter.clone()))
            }
            PlanNode::Filter { input, preds } => {
                Box::new(FilterOp::new(child(input), preds.clone()))
            }
            PlanNode::Join {
                left,
                inner,
                outer,
                preds,
            } => {
                let left = child(left);
                let inner = match inner {
                    JoinInner::Probe(probe) => JoinInner::Probe(probe.clone()),
                    JoinInner::Scan { right, block_rows } => JoinInner::Scan {
                        right: child(right),
                        block_rows: *block_rows,
                    },
                };
                Box::new(JoinOp::new(left, inner, *outer, preds.clone()))
            }
            PlanNode::Sort { input, keys } => Box::new(SortOp::new(child(input), keys.clone())),
            PlanNode::Project { input, cols, dedup } => {
                Box::new(ProjectOp::new(child(input), cols.clone(), *dedup))
            }
            PlanNode::Materialize { input } => Box::new(MaterializeOp::new(child(input))),
            PlanNode::Singleton => Box::new(RowsOp::singleton()),
            PlanNode::Limit { input, n } => Box::new(LimitOp::new(child(input), *n)),
        };
        match handle {
            Some(handle) => Box::new(AnalyzedOperator::new(op, handle)),
            None => op,
        }
    }

    /// EXPLAIN rendering: one operator per line, indented, with estimates.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0, None, &mut 0);
        out
    }

    /// Stable digest of the plan *shape* (FNV-1a over the EXPLAIN text).
    /// Two queries landing on the same digest were given the same physical
    /// plan — the flight recorder records it so plan changes across runs
    /// (or between engines) are visible without diffing EXPLAIN output.
    pub fn digest(&self) -> u64 {
        xmldb_obs::fnv1a(self.explain().as_bytes())
    }

    /// [`Plan::explain`] with actual counters from an analyzed execution
    /// appended to every line (`never executed` for slots the run never
    /// instantiated — e.g. a plan behind a false condition).
    pub fn explain_analyzed(&self, metrics: &PlanMetrics) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0, Some(metrics), &mut 0);
        out
    }

    fn explain_into(
        &self,
        out: &mut String,
        level: usize,
        metrics: Option<&PlanMetrics>,
        next_slot: &mut usize,
    ) {
        let pad = "  ".repeat(level);
        let describe_preds = |preds: &[PhysPred]| -> String {
            if preds.is_empty() {
                String::new()
            } else {
                format!(
                    " [{}]",
                    preds
                        .iter()
                        .map(describe_pred)
                        .collect::<Vec<_>>()
                        .join(" ∧ ")
                )
            }
        };
        let name = self.node.name();
        let line = match &self.node {
            PlanNode::Scan { probe, filter } => {
                format!("{name} {}{}", probe.describe(), describe_preds(filter))
            }
            PlanNode::Filter { preds, .. } => format!("{name}{}", describe_preds(preds)),
            PlanNode::Join { inner, preds, .. } => {
                let access = match inner {
                    JoinInner::Probe(probe) => format!(" probe={}", probe.describe()),
                    _ if inner.is_order_preserving() => String::new(),
                    JoinInner::Scan { block_rows, .. } => format!(" block={block_rows}"),
                };
                format!("{name}{access}{}", describe_preds(preds))
            }
            PlanNode::Sort { keys, .. } => format!("{name} keys={keys:?}"),
            PlanNode::Project { cols, dedup, .. } => {
                format!("{name} cols={cols:?} dedup={dedup}")
            }
            PlanNode::Materialize { .. } | PlanNode::Singleton => name.to_string(),
            PlanNode::Limit { n, .. } => format!("{name} {n}"),
        };
        let actual = match metrics {
            None => String::new(),
            Some(m) => {
                let slot = *next_slot;
                *next_slot += 1;
                match m.get(slot) {
                    Some(counters) => format!(
                        "  (actual rows={} opens={} time={:.3}ms)",
                        counters.rows,
                        counters.opens,
                        counters.total_ms()
                    ),
                    None => "  (never executed)".to_string(),
                }
            }
        };
        out.push_str(&format!(
            "{pad}{line}  (rows≈{:.1}, cost≈{:.1}){actual}\n",
            self.est_rows, self.est_cost
        ));
        for child in self.children() {
            child.explain_into(out, level + 1, metrics, next_slot);
        }
    }

    fn children(&self) -> Vec<&Plan> {
        match &self.node {
            PlanNode::Scan { .. } | PlanNode::Singleton => vec![],
            PlanNode::Filter { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Materialize { input }
            | PlanNode::Limit { input, .. } => vec![input],
            PlanNode::Join { left, inner, .. } => match inner {
                JoinInner::Probe(_) => vec![left],
                JoinInner::Scan { right, .. } => vec![left, right],
            },
        }
    }

    /// True if every operator in the plan is order-preserving.
    pub fn is_order_preserving(&self) -> bool {
        match &self.node {
            PlanNode::Join { inner, .. } if !inner.is_order_preserving() => false,
            // A sort *establishes* order; treat as preserving downstream.
            PlanNode::Sort { .. } => true,
            _ => self.children().iter().all(|c| c.is_order_preserving()),
        }
    }

    /// Count of operators of a given EXPLAIN name (test helper).
    pub fn count_ops(&self, name: &str) -> usize {
        let here = usize::from(self.node.name() == name);
        here + self
            .children()
            .iter()
            .map(|c| c.count_ops(name))
            .sum::<usize>()
    }
}

impl PlanNode {
    /// The operator's EXPLAIN name. Joins share [`JoinInner::name`] with
    /// the instantiated operator.
    pub fn name(&self) -> &'static str {
        match self {
            PlanNode::Scan { .. } => "scan",
            PlanNode::Filter { .. } => "filter",
            PlanNode::Join { inner, outer, .. } => inner.name(*outer),
            PlanNode::Sort { .. } => "sort",
            PlanNode::Project { .. } => "project",
            PlanNode::Materialize { .. } => "materialize",
            PlanNode::Singleton => RowsOp::NAME,
            PlanNode::Limit { .. } => "limit",
        }
    }
}

fn describe_pred(p: &PhysPred) -> String {
    fn side(o: &xmldb_physical::PhysOperand) -> String {
        match o {
            xmldb_physical::PhysOperand::Col { pos, attr } => format!("#{pos}.{attr}"),
            xmldb_physical::PhysOperand::Ext { var, attr } => format!("{var}.{attr}"),
            xmldb_physical::PhysOperand::Num(n) => n.to_string(),
            xmldb_physical::PhysOperand::Str(s) => format!("{s:?}"),
            xmldb_physical::PhysOperand::Kind(k) => k.to_string(),
        }
    }
    format!("{} {} {}", side(&p.lhs), p.op, side(&p.rhs))
}
