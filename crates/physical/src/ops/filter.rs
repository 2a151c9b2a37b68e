//! Selection, projection (with one-pass duplicate elimination), and small
//! structural operators.

use crate::exec::{ExecContext, Operator};
use crate::pred::{eval_all, PhysPred};
use crate::row::{LastKey, Row};
use crate::{Result, RowBatch};

/// σ — residual selection over any input.
pub struct FilterOp {
    input: Box<dyn Operator>,
    preds: Vec<PhysPred>,
}

impl FilterOp {
    /// Creates a selection over `input`.
    pub fn new(input: Box<dyn Operator>, preds: Vec<PhysPred>) -> FilterOp {
        FilterOp { input, preds }
    }
}

impl Operator for FilterOp {
    fn open(&mut self, ctx: &ExecContext<'_>) -> Result<()> {
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecContext<'_>, max_rows: usize) -> Result<RowBatch> {
        // Filter whole input batches in place; loop until some rows
        // survive (an empty result batch must mean "exhausted").
        loop {
            let mut batch = self.input.next_batch(ctx, max_rows)?;
            if batch.is_empty() {
                return Ok(batch);
            }
            batch.retain_rows(|row| eval_all(&self.preds, row, &[], ctx.bindings))?;
            if !batch.is_empty() {
                return Ok(batch);
            }
        }
    }

    fn close(&mut self) {
        self.input.close();
    }

    fn name(&self) -> &'static str {
        "filter"
    }
}

/// π — projection onto a subset of row columns, optionally removing
/// duplicates in one pass.
///
/// One-pass dedup is approach (c) of the paper's ordering discussion: it is
/// only sound when the input is sorted hierarchically w.r.t. the projected
/// columns (equal projections adjacent), which the planner guarantees by
/// choosing a projection-compatible join order — or by sorting first.
///
/// Tuples move from the input batch into the output; an identity
/// projection without dedup passes the input batch through.
pub struct ProjectOp {
    input: Box<dyn Operator>,
    cols: Vec<usize>,
    dedup: bool,
    /// `cols` is `0, 1, …`: on an input of that width, the identity.
    prefix: bool,
    /// The last row emitted; carries the dedup across batch seams.
    last: LastKey,
}

impl ProjectOp {
    /// Creates a projection onto `cols`, optionally deduplicating.
    pub fn new(input: Box<dyn Operator>, cols: Vec<usize>, dedup: bool) -> ProjectOp {
        ProjectOp {
            input,
            prefix: cols.iter().enumerate().all(|(i, &c)| i == c),
            cols,
            dedup,
            last: LastKey::default(),
        }
    }
}

impl Operator for ProjectOp {
    fn open(&mut self, ctx: &ExecContext<'_>) -> Result<()> {
        self.last = LastKey::default();
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecContext<'_>, max_rows: usize) -> Result<RowBatch> {
        loop {
            let input = self.input.next_batch(ctx, max_rows)?;
            if input.is_empty() || (!self.dedup && self.prefix && input.width() == self.cols.len())
            {
                return Ok(input);
            }
            let (cols, last) = (&self.cols, &mut self.last);
            let out = input.project(cols, |row| {
                !self.dedup || last.changes_to(cols.iter().map(|&c| row[c].in_))
            });
            if !out.is_empty() {
                return Ok(out);
            }
        }
    }

    fn close(&mut self) {
        self.input.close();
        self.last = LastKey::default();
    }

    fn name(&self) -> &'static str {
        "project"
    }
}

/// Stops after `limit` rows — the early exit for existential (nullary
/// relfor) checks. It never asks its input for more rows than it still
/// has to deliver, which keeps the plan below it lazy.
pub struct LimitOp {
    input: Box<dyn Operator>,
    limit: usize,
    seen: usize,
}

impl LimitOp {
    /// Caps `input` at `limit` rows.
    pub fn new(input: Box<dyn Operator>, limit: usize) -> LimitOp {
        LimitOp {
            input,
            limit,
            seen: 0,
        }
    }
}

impl Operator for LimitOp {
    fn open(&mut self, ctx: &ExecContext<'_>) -> Result<()> {
        self.seen = 0;
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecContext<'_>, max_rows: usize) -> Result<RowBatch> {
        if self.seen >= self.limit {
            return Ok(RowBatch::default());
        }
        let batch = self
            .input
            .next_batch(ctx, max_rows.min(self.limit - self.seen))?;
        self.seen += batch.len();
        Ok(batch)
    }

    fn close(&mut self) {
        self.input.close();
    }

    fn name(&self) -> &'static str {
        "limit"
    }
}

/// Emits a fixed set of rows: the nullary "true" relation
/// ([`RowsOp::singleton`], the plan's `singleton` node), and fixed inputs
/// for tests.
pub struct RowsOp {
    rows: Vec<Row>,
    pos: usize,
}

impl RowsOp {
    /// The operator's name, in EXPLAIN and EXPLAIN ANALYZE alike.
    pub const NAME: &'static str = "singleton";

    /// Wraps a fixed row set.
    pub fn new(rows: Vec<Row>) -> RowsOp {
        RowsOp { rows, pos: 0 }
    }

    /// Exactly one empty row — the relation-free PSX's plan.
    pub fn singleton() -> RowsOp {
        RowsOp::new(vec![Row::new()])
    }
}

impl Operator for RowsOp {
    fn open(&mut self, _ctx: &ExecContext<'_>) -> Result<()> {
        self.pos = 0;
        Ok(())
    }

    fn next_batch(&mut self, _ctx: &ExecContext<'_>, max_rows: usize) -> Result<RowBatch> {
        let mut batch = RowBatch::default();
        for row in self.rows.iter().skip(self.pos).take(max_rows) {
            batch.push_row(row);
        }
        self.pos += batch.len();
        Ok(batch)
    }

    fn close(&mut self) {}

    fn name(&self) -> &'static str {
        Self::NAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_all, Bindings, ExecContext};
    use xmldb_storage::Env;
    use xmldb_xasr::{shred_document, NodeTuple, NodeType};

    fn t(in_: u64) -> NodeTuple {
        NodeTuple {
            in_,
            out: in_ + 1,
            parent_in: 0,
            kind: NodeType::Element,
            value: Some("x".into()),
        }
    }

    fn ctx_fixture() -> (Env, xmldb_xasr::XasrStore) {
        let env = Env::memory();
        let store = shred_document(&env, "f", "<a/>").unwrap();
        (env, store)
    }

    #[test]
    fn project_dedup_one_pass() {
        let (_e, store) = ctx_fixture();
        let binds = Bindings::new();
        let ctx = ExecContext::new(&store, &binds);
        // Rows sorted on col 0 with adjacent duplicates.
        let rows = vec![
            vec![t(2), t(5)],
            vec![t(2), t(9)],
            vec![t(4), t(5)],
            vec![t(4), t(9)],
        ];
        let mut op = ProjectOp::new(Box::new(RowsOp::new(rows.clone())), vec![0], true);
        let out = execute_all(&mut op, &ctx).unwrap();
        assert_eq!(out.iter().map(|r| r[0].in_).collect::<Vec<_>>(), vec![2, 4]);
        // Without dedup all four survive (projected to width 1).
        let mut op = ProjectOp::new(Box::new(RowsOp::new(rows)), vec![0], false);
        assert_eq!(execute_all(&mut op, &ctx).unwrap().len(), 4);
    }

    #[test]
    fn project_reorders_columns() {
        let (_e, store) = ctx_fixture();
        let binds = Bindings::new();
        let ctx = ExecContext::new(&store, &binds);
        let rows = vec![vec![t(1), t(2), t(3)]];
        let mut op = ProjectOp::new(Box::new(RowsOp::new(rows)), vec![2, 0], false);
        let out = execute_all(&mut op, &ctx).unwrap();
        assert_eq!(out[0].iter().map(|t| t.in_).collect::<Vec<_>>(), vec![3, 1]);
    }

    #[test]
    fn singleton_and_limit() {
        let (_e, store) = ctx_fixture();
        let binds = Bindings::new();
        let ctx = ExecContext::new(&store, &binds);
        let mut s = RowsOp::singleton();
        assert_eq!(
            execute_all(&mut s, &ctx).unwrap(),
            vec![Vec::<NodeTuple>::new()]
        );
        let rows = vec![vec![t(1)], vec![t(2)], vec![t(3)]];
        let mut l = LimitOp::new(Box::new(RowsOp::new(rows)), 2);
        assert_eq!(execute_all(&mut l, &ctx).unwrap().len(), 2);
    }

    #[test]
    fn nullary_dedup_keeps_single_row() {
        // Projecting everything away with dedup = the exists check: many
        // input rows collapse to one empty row.
        let (_e, store) = ctx_fixture();
        let binds = Bindings::new();
        let ctx = ExecContext::new(&store, &binds);
        let rows = vec![vec![t(1)], vec![t(2)], vec![t(3)]];
        let mut op = ProjectOp::new(Box::new(RowsOp::new(rows)), vec![], true);
        let out = execute_all(&mut op, &ctx).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].is_empty());
    }
}
