//! Execution context and the batch-at-a-time volcano operator trait.

use crate::batch::{RowBatch, BATCH_ROWS};
use crate::row::Row;
use crate::Result;
use xmldb_storage::Governor;
use xmldb_xasr::{NodeTuple, XasrStore};
use xmldb_xq::Var;

/// The current variable environment: every enclosing relfor binding maps to
/// the *full tuple* of its node (the vartuple-out extension — `in`, `out`,
/// type and value all travel with the binding).
///
/// Stored as a flat `Vec` of pairs rather than a `HashMap`: typical queries
/// bind ≤ 4 variables, so a linear scan beats hashing on every predicate
/// lookup and — the part that showed up in EXPLAIN ANALYZE — cloning an
/// environment per relfor is a single small memcpy-style `Vec` clone
/// instead of a hash-table rebuild.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    entries: Vec<(Var, NodeTuple)>,
}

impl Bindings {
    /// An empty environment.
    pub fn new() -> Bindings {
        Bindings::default()
    }

    /// The root environment: `$root` bound to the document root (in = 1).
    pub fn with_root(store: &XasrStore) -> crate::Result<Bindings> {
        let mut b = Bindings::new();
        b.bind(Var::root(), store.root()?);
        Ok(b)
    }

    /// Binds (or rebinds) a variable.
    pub fn bind(&mut self, var: Var, tuple: NodeTuple) {
        for (v, t) in &mut self.entries {
            if *v == var {
                *t = tuple;
                return;
            }
        }
        self.entries.push((var, tuple));
    }

    /// Looks up a binding.
    pub fn get(&self, var: &Var) -> Option<&NodeTuple> {
        self.entries
            .iter()
            .find_map(|(v, t)| if v == var { Some(t) } else { None })
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Everything an operator needs at runtime.
pub struct ExecContext<'a> {
    /// The shredded document.
    pub store: &'a XasrStore,
    /// External variable bindings (constant for one plan execution).
    pub bindings: &'a Bindings,
    /// The query's resource governor. Operators check it at batch boundaries
    /// and account large buffers against its memory budget; the
    /// inert [`Governor::none`] handle makes every check free.
    pub governor: Governor,
}

impl<'a> ExecContext<'a> {
    /// Bundles a store and a binding environment. Picks up the calling
    /// thread's installed [`Governor`] (the engine entry points install
    /// one per query), so plan execution is governed without every caller
    /// threading a handle through.
    pub fn new(store: &'a XasrStore, bindings: &'a Bindings) -> ExecContext<'a> {
        ExecContext {
            store,
            bindings,
            governor: Governor::current(),
        }
    }

    /// [`ExecContext::new`] with an explicit governor (tests and callers
    /// that manage their own scope).
    pub fn with_governor(
        store: &'a XasrStore,
        bindings: &'a Bindings,
        governor: Governor,
    ) -> ExecContext<'a> {
        ExecContext {
            store,
            bindings,
            governor,
        }
    }
}

/// The volcano iterator interface, batch-at-a-time. `open` may be called
/// again after exhaustion to re-execute the operator (nested-loops inners
/// rely on this).
pub trait Operator {
    /// Prepares (or resets) the operator.
    fn open(&mut self, ctx: &ExecContext<'_>) -> Result<()>;

    /// Produces the next rows, at most `max_rows` (≥ 1) of them. An
    /// **empty** batch means the operator is exhausted; a non-empty batch
    /// may be shorter than `max_rows` (callers must not treat "short" as
    /// "done"). An operator never pulls more from its input than it needs
    /// to answer the call, so a consumer that stops early (`LimitOp`, an
    /// exists check) keeps the whole pipeline below it lazy by asking for
    /// few rows.
    fn next_batch(&mut self, ctx: &ExecContext<'_>, max_rows: usize) -> Result<RowBatch>;

    /// Releases resources.
    fn close(&mut self);

    /// Operator name for EXPLAIN output.
    fn name(&self) -> &'static str;
}

/// Runs a plan to completion batch-wise, returning all rows (tests and the
/// exists check use this; result emission streams instead).
pub fn execute_all(plan: &mut dyn Operator, ctx: &ExecContext<'_>) -> Result<Vec<Row>> {
    plan.open(ctx)?;
    let mut rows = Vec::new();
    loop {
        let mut batch = plan.next_batch(ctx, BATCH_ROWS)?;
        if batch.is_empty() {
            break;
        }
        rows.append(&mut batch.take_rows());
    }
    plan.close();
    Ok(rows)
}
