//! EXPLAIN ANALYZE instrumentation: a decorator that wraps any volcano
//! operator and accumulates actual row counts and wall-clock time.
//!
//! The counters live behind shared handles ([`SharedOpMetrics`]) owned by
//! the *plan*, not the operator instance: a relfor's source plan is
//! instantiated once per outer binding environment, and the decorator of
//! each fresh instantiation accumulates into the same slot. `opens` thus
//! counts re-executions, and `rows` is the total across all of them —
//! exactly the numbers needed to spot a mis-planned inner loop.

use crate::exec::{ExecContext, Operator};
use crate::Result;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Actual execution counters for one plan operator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpMetrics {
    /// Rows produced (summed over the batches `next_batch` returned).
    pub rows: u64,
    /// `open` calls, across every instantiation and re-open.
    pub opens: u64,
    /// Wall time spent inside `open`, inclusive of children.
    pub open_nanos: u64,
    /// Wall time spent inside `next_batch`, inclusive of children.
    pub next_nanos: u64,
}

impl OpMetrics {
    /// Total wall time (open + next) in milliseconds.
    pub fn total_ms(&self) -> f64 {
        (self.open_nanos + self.next_nanos) as f64 / 1e6
    }
}

/// A shared handle onto one operator's counters: the plan holds one per
/// node, every instantiation of that node updates it.
pub type SharedOpMetrics = Rc<RefCell<OpMetrics>>;

/// Decorates an operator with counter collection. Timing is inclusive of
/// children (the usual EXPLAIN ANALYZE convention): subtract a child's
/// total from its parent's for exclusive time.
pub struct AnalyzedOperator {
    inner: Box<dyn Operator>,
    metrics: SharedOpMetrics,
}

impl AnalyzedOperator {
    /// Wraps `inner`, accumulating into `metrics`.
    pub fn new(inner: Box<dyn Operator>, metrics: SharedOpMetrics) -> AnalyzedOperator {
        AnalyzedOperator { inner, metrics }
    }
}

impl Operator for AnalyzedOperator {
    fn open(&mut self, ctx: &ExecContext<'_>) -> Result<()> {
        let started = Instant::now();
        let result = self.inner.open(ctx);
        let mut m = self.metrics.borrow_mut();
        m.opens += 1;
        m.open_nanos += started.elapsed().as_nanos() as u64;
        result
    }

    fn close(&mut self) {
        self.inner.close();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_batch(&mut self, ctx: &ExecContext<'_>, max_rows: usize) -> Result<crate::RowBatch> {
        let started = Instant::now();
        let result = self.inner.next_batch(ctx, max_rows);
        let mut m = self.metrics.borrow_mut();
        m.next_nanos += started.elapsed().as_nanos() as u64;
        if let Ok(batch) = &result {
            m.rows += batch.len() as u64;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_all, Bindings};
    use crate::ops::RowsOp;
    use xmldb_storage::Env;
    use xmldb_xasr::shred_document;

    #[test]
    fn counts_rows_and_opens_across_reexecutions() {
        let env = Env::memory();
        let store = shred_document(&env, "d", "<a/>").unwrap();
        let bindings = Bindings::new();
        let ctx = ExecContext::new(&store, &bindings);
        let metrics: SharedOpMetrics = SharedOpMetrics::default();
        // Two separate instantiations feed the same slot, as relfor
        // re-instantiations do.
        for _ in 0..2 {
            let mut op = AnalyzedOperator::new(Box::new(RowsOp::singleton()), Rc::clone(&metrics));
            let rows = execute_all(&mut op, &ctx).unwrap();
            assert_eq!(rows.len(), 1);
            assert_eq!(op.name(), RowsOp::singleton().name());
        }
        let m = *metrics.borrow();
        assert_eq!(m.rows, 2);
        assert_eq!(m.opens, 2);
    }
}
