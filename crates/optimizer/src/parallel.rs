//! Morsel-driven parallel execution of eligible plan fragments.
//!
//! The leaf scan of a plan reads a contiguous slice of the `(label, in)`
//! or clustered `(in)` index; both are ordered by `in`, i.e. by document
//! order. That makes the classic morsel-driven scheme order-recoverable:
//! split the leaf's `in`-range into contiguous *morsels*, run the whole
//! pipeline fragment over each morsel on a pool worker, and gather the
//! per-morsel outputs back **in morsel order**. Concatenating slices of an
//! ordered scan in slice order reproduces the serial output byte for byte
//! — which is what lets the differential harness cross-check the parallel
//! engine against every serial one.
//!
//! Eligibility is conservative: a left-deep spine of
//! `Scan / Filter / Join (probe inner, outer or not) / Project` whose leaf
//! probe is a full scan, a label scan, or a descendants interval of an
//! externally bound variable. Anything else (sorts, joins over a
//! re-scanned right side, limits) falls back to the serial path —
//! correctness never depends on a fragment being parallelizable.
//!
//! Scope-install contract: pool workers carry **no** ambient state. Each
//! morsel task installs the coordinator's governor and transaction on
//! entry (so page reads lock, checks cancel, and reservations account
//! against the right query) and uninstalls them on exit via the RAII
//! scopes. Each in-flight morsel's output batches are covered by a
//! [`MemReservation`]; the dispatcher stops handing out morsels while the
//! query is past half its memory budget, so `--mem-limit` backpressures
//! dispatch instead of being blown past.

use crate::plan::{Plan, PlanNode};
use xmldb_exec_pool::WorkerPool;
use xmldb_physical::ops::{JoinInner, Src};
use xmldb_physical::{
    Bindings, Error as ExecError, ExecContext, LastKey, Probe, RowBatch, BATCH_ROWS,
};
use xmldb_storage::{Governor, MemReservation, StorageError, Txn};
use xmldb_xasr::XasrStore;

/// Minimum `in`-values per morsel: splitting finer than this buys no
/// balance and pays per-morsel plan instantiation.
const MIN_MORSEL_SPAN: u64 = 4096;

/// Knobs for one parallel fragment execution.
pub struct ParallelOpts<'a> {
    /// The pool to run morsels on (normally [`WorkerPool::global`];
    /// benchmarks pass dedicated pools of fixed sizes).
    pub pool: &'a WorkerPool,
    /// Target number of concurrent morsels (the dispatch window is twice
    /// this). Does not need to match the pool's worker count.
    pub parallelism: usize,
}

/// What `analyze_fragment` learned about an eligible plan.
struct Fragment {
    /// Inclusive `in`-range the leaf scan covers (`hi < lo` = empty).
    lo: u64,
    hi: u64,
    /// The fragment contains a deduplicating projection: the gather side
    /// must re-apply adjacent dedup across morsel seams.
    needs_dedup: bool,
}

/// Checks the left-deep spine for eligibility and resolves the leaf's
/// base `in`-range. `Ok(None)` = not eligible (serial fallback).
fn analyze_fragment(
    plan: &Plan,
    store: &XasrStore,
    bindings: &Bindings,
) -> Result<Option<Fragment>, ExecError> {
    let mut needs_dedup = false;
    let mut node = plan;
    loop {
        match &node.node {
            PlanNode::Project { input, dedup, .. } => {
                needs_dedup |= *dedup;
                node = input;
            }
            PlanNode::Filter { input, .. } => node = input,
            PlanNode::Join {
                left,
                inner: JoinInner::Probe(_),
                ..
            } => node = left,
            PlanNode::Scan { probe, .. } => {
                let range = match probe {
                    Probe::Full | Probe::ByLabel(_) => {
                        let root = store.root()?;
                        Some((1, root.out))
                    }
                    Probe::DescendantsOf(Src::Ext(v))
                    | Probe::LabelDescendantsOf(_, Src::Ext(v)) => {
                        // Serial semantics: t.in < in < t.out. An unbound
                        // variable falls back so the serial path raises
                        // the identical error.
                        bindings
                            .get(v)
                            .map(|t| (t.in_ + 1, t.out.saturating_sub(1)))
                    }
                    _ => None,
                };
                return Ok(range.map(|(lo, hi)| Fragment {
                    lo,
                    hi,
                    needs_dedup,
                }));
            }
            _ => return Ok(None),
        }
    }
}

/// Clones `plan` with its leaf probe replaced by the morsel-bounded range
/// probe `lo_excl < in < hi_excl`. Only called on plans that passed
/// [`analyze_fragment`], so the spine shape is known.
fn morselize(plan: &Plan, lo_excl: u64, hi_excl: u64) -> Plan {
    let mut morsel = plan.clone();
    let mut node = &mut morsel;
    loop {
        node = match &mut node.node {
            PlanNode::Filter { input, .. } | PlanNode::Project { input, .. } => input,
            PlanNode::Join { left, .. } => left,
            PlanNode::Scan { probe, .. } => {
                *probe = match probe {
                    Probe::ByLabel(l) | Probe::LabelDescendantsOf(l, _) => {
                        Probe::LabelRange(std::mem::take(l), lo_excl, hi_excl)
                    }
                    _ => Probe::ClusteredRange(lo_excl, hi_excl),
                };
                break;
            }
            _ => break,
        };
    }
    morsel
}

/// Splits the inclusive range `[lo, hi]` into contiguous inclusive chunks
/// of roughly `span / (4 * workers)` each (at least [`MIN_MORSEL_SPAN`]).
/// Chunks tile the range exactly, so the bounded scans partition the
/// serial scan.
fn split_morsels(lo: u64, hi: u64, workers: usize) -> Vec<(u64, u64)> {
    if hi < lo {
        return Vec::new();
    }
    let span = hi - lo + 1;
    let target = (span / (4 * workers.max(1)) as u64).max(MIN_MORSEL_SPAN);
    let mut morsels = Vec::new();
    let mut start = lo;
    while start <= hi {
        let end = hi.min(start.saturating_add(target - 1));
        morsels.push((start, end));
        if end == hi {
            break;
        }
        start = end + 1;
    }
    morsels
}

/// One morsel, run on a pool worker: install the query's scopes, run the
/// bounded fragment to completion, reserve the output's bytes against the
/// query's budget, return the batches (the reservation travels with them
/// and is released on the coordinator after consumption).
fn run_morsel(
    mplan: &Plan,
    store: &XasrStore,
    bindings: &Bindings,
    governor: &Governor,
    txn: Option<&Txn>,
) -> Result<(Vec<RowBatch>, MemReservation), ExecError> {
    let _gov_scope = governor.install();
    let _txn_scope = txn.map(Txn::install);
    let ctx = ExecContext::with_governor(store, bindings, governor.clone());
    let mut op = mplan.instantiate(None);
    op.open(&ctx)?;
    let mut reservation = MemReservation::empty(governor);
    let mut batches = Vec::new();
    let result = (|| -> Result<(), ExecError> {
        loop {
            let batch = op.next_batch(&ctx, BATCH_ROWS)?;
            if batch.is_empty() {
                return Ok(());
            }
            let bytes = batch.bytes() as usize;
            if !reservation.grow(bytes) {
                return Err(ExecError::Storage(StorageError::MemoryExceeded {
                    used: governor.mem_used() + bytes,
                    budget: governor.mem_budget().unwrap_or(0),
                }));
            }
            batches.push(batch);
        }
    })();
    op.close();
    result.map(|()| (batches, reservation))
}

/// True while dispatching more morsels would push the query's accounted
/// memory past half its budget — the dispatcher then drains in-flight
/// results (freeing their reservations) before handing out more work.
fn dispatch_throttled(governor: &Governor) -> bool {
    governor
        .mem_budget()
        .is_some_and(|budget| governor.mem_used() > budget / 2)
}

/// Executes `plan` morsel-parallel if it is eligible, streaming result
/// batches to `consume` **in document order**. Returns `Ok(false)` when
/// the plan is not eligible (caller runs its serial path); `Ok(true)` when
/// the fragment ran (and every batch was consumed).
///
/// The coordinator's installed governor and transaction are carried onto
/// the workers; `consume` runs on the calling thread only.
pub fn execute_parallel<E, F>(
    plan: &Plan,
    store: &XasrStore,
    bindings: &Bindings,
    opts: &ParallelOpts<'_>,
    mut consume: F,
) -> Result<bool, E>
where
    E: From<ExecError>,
    F: FnMut(&RowBatch) -> Result<(), E>,
{
    let Some(fragment) = analyze_fragment(plan, store, bindings).map_err(E::from)? else {
        return Ok(false);
    };
    let governor = Governor::current();
    let txn = Txn::current();
    let workers = opts.parallelism.max(1);
    let window = (2 * workers).max(2);
    let morsels = split_morsels(fragment.lo, fragment.hi, workers);
    let mut error: Option<E> = None;
    // Gather-side adjacent dedup across morsel seams (and, harmlessly,
    // within morsels, where the fragment's own ProjectOp already deduped).
    let mut last_key = LastKey::default();
    opts.pool.scoped(|scope| {
        let mut next = 0usize;
        loop {
            while next < morsels.len()
                && error.is_none()
                && scope.in_flight() < window
                && !(scope.in_flight() > 0 && dispatch_throttled(&governor))
            {
                let (lo, hi) = morsels[next];
                next += 1;
                let mplan = morselize(plan, lo - 1, hi + 1);
                let governor = governor.clone();
                let txn = txn.clone();
                scope.submit(move || run_morsel(&mplan, store, bindings, &governor, txn.as_ref()));
            }
            match scope.recv_next() {
                None => break,
                Some(Ok((batches, mut reservation))) => {
                    if error.is_none() {
                        for mut batch in batches {
                            if fragment.needs_dedup {
                                dedup_adjacent(&mut batch, &mut last_key);
                            }
                            if let Err(e) = consume(&batch) {
                                error = Some(e);
                                break;
                            }
                        }
                    }
                    reservation.release_all();
                }
                Some(Err(e)) => {
                    if error.is_none() {
                        error = Some(E::from(e));
                    }
                }
            }
        }
        debug_assert!(
            error.is_some() || next == morsels.len(),
            "all morsels dispatched unless the query failed"
        );
    });
    match error {
        Some(e) => Err(e),
        None => Ok(true),
    }
}

/// Drops rows whose full `in`-vector equals the previous surviving row's —
/// the same one-pass adjacent dedup `ProjectOp` applies, carried across
/// morsel seams by threading `last` through the whole gather.
fn dedup_adjacent(batch: &mut RowBatch, last: &mut LastKey) {
    batch
        .retain_rows(|row| {
            Ok::<_, std::convert::Infallible>(last.changes_to(row.iter().map(|t| t.in_)))
        })
        .unwrap_or_else(|e| match e {});
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmldb_physical::{execute_all, PhysOperand, PhysPred};
    use xmldb_storage::Env;
    use xmldb_xasr::shred_document;

    fn doc() -> String {
        let mut xml = String::from("<lib>");
        for i in 0..400 {
            xml.push_str(&format!(
                "<book><title>t{i}</title><year>{}</year></book>",
                1990 + (i % 30)
            ));
        }
        xml.push_str("</lib>");
        xml
    }

    fn plan(node: PlanNode) -> Plan {
        Plan {
            node,
            est_rows: 1.0,
            est_cost: 1.0,
        }
    }

    fn collect_parallel(
        p: &Plan,
        store: &XasrStore,
        bindings: &Bindings,
        pool: &WorkerPool,
    ) -> Result<Option<Vec<Vec<xmldb_xasr::NodeTuple>>>, ExecError> {
        let mut rows = Vec::new();
        let ran = execute_parallel::<ExecError, _>(
            p,
            store,
            bindings,
            &ParallelOpts {
                pool,
                parallelism: pool.workers(),
            },
            |batch| {
                rows.extend(batch.iter().map(|r| r.to_vec()));
                Ok(())
            },
        )?;
        Ok(ran.then_some(rows))
    }

    #[test]
    fn parallel_scan_matches_serial_order() {
        let env = Env::memory();
        let store = shred_document(&env, "d", &doc()).unwrap();
        let bindings = Bindings::with_root(&store).unwrap();
        let pool = WorkerPool::new(3);
        let p = plan(PlanNode::Scan {
            probe: Probe::ByLabel("title".into()),
            filter: vec![],
        });
        let serial = {
            let ctx = ExecContext::new(&store, &bindings);
            execute_all(&mut *p.instantiate(None), &ctx).unwrap()
        };
        let par = collect_parallel(&p, &store, &bindings, &pool)
            .unwrap()
            .expect("label scan is eligible");
        assert_eq!(par, serial);
        assert!(!serial.is_empty());
    }

    #[test]
    fn parallel_join_with_dedup_matches_serial() {
        let env = Env::memory();
        let store = shred_document(&env, "d", &doc()).unwrap();
        let bindings = Bindings::with_root(&store).unwrap();
        let pool = WorkerPool::new(2);
        // books joined to their year children, projected to the book with
        // dedup — exercises probe-join resume state and seam dedup.
        let p = plan(PlanNode::Project {
            input: Box::new(plan(PlanNode::Join {
                left: Box::new(plan(PlanNode::Scan {
                    probe: Probe::ByLabel("book".into()),
                    filter: vec![],
                })),
                inner: JoinInner::Probe(Probe::ChildrenOf(Src::Col(0))),
                outer: false,
                preds: vec![PhysPred {
                    op: xmldb_algebra::CmpOp::Eq,
                    lhs: PhysOperand::Col {
                        pos: 1,
                        attr: xmldb_algebra::Attr::Type,
                    },
                    rhs: PhysOperand::Kind(xmldb_xasr::NodeType::Element),
                    strict_text: false,
                }],
            })),
            cols: vec![0],
            dedup: true,
        });
        let serial = {
            let ctx = ExecContext::new(&store, &bindings);
            execute_all(&mut *p.instantiate(None), &ctx).unwrap()
        };
        let par = collect_parallel(&p, &store, &bindings, &pool)
            .unwrap()
            .expect("inlj fragment is eligible");
        assert_eq!(par, serial);
        assert!(!serial.is_empty());
    }

    #[test]
    fn ineligible_plan_falls_back() {
        let env = Env::memory();
        let store = shred_document(&env, "d", "<a><b/></a>").unwrap();
        let bindings = Bindings::with_root(&store).unwrap();
        let pool = WorkerPool::new(1);
        let p = plan(PlanNode::Sort {
            input: Box::new(plan(PlanNode::Scan {
                probe: Probe::Full,
                filter: vec![],
            })),
            keys: vec![0],
        });
        assert_eq!(
            collect_parallel(&p, &store, &bindings, &pool).unwrap(),
            None
        );
    }

    #[test]
    fn cancellation_leaves_pool_quiescent() {
        let env = Env::memory();
        let store = shred_document(&env, "d", &doc()).unwrap();
        let bindings = Bindings::with_root(&store).unwrap();
        let pool = WorkerPool::new(2);
        let governor = Governor::unlimited();
        governor.trip_cancel_after_checks(3);
        let p = plan(PlanNode::Scan {
            probe: Probe::Full,
            filter: vec![],
        });
        let scope = governor.install();
        let result = collect_parallel(&p, &store, &bindings, &pool);
        drop(scope);
        assert!(
            matches!(result, Err(ExecError::Storage(StorageError::Cancelled))),
            "{result:?}"
        );
        // The dispatcher drained its scope before returning, and the pool
        // settles its gauges before delivering results — so this private
        // pool must read exactly quiescent on one read, no wait loop.
        assert_eq!(
            (pool.queued(), pool.active()),
            (0, 0),
            "tasks left queued or running"
        );
        assert_eq!(governor.mem_used(), 0, "all reservations released");
    }

    #[test]
    fn memory_limit_fails_cleanly() {
        let env = Env::memory();
        let store = shred_document(&env, "d", &doc()).unwrap();
        let bindings = Bindings::with_root(&store).unwrap();
        let pool = WorkerPool::new(2);
        // A budget far too small for even one batch of tuples.
        let governor = Governor::with_limits(None, Some(64));
        let p = plan(PlanNode::Scan {
            probe: Probe::Full,
            filter: vec![],
        });
        let scope = governor.install();
        let result = collect_parallel(&p, &store, &bindings, &pool);
        drop(scope);
        assert!(
            matches!(
                result,
                Err(ExecError::Storage(StorageError::MemoryExceeded { .. }))
            ),
            "{result:?}"
        );
        assert_eq!(governor.mem_used(), 0, "all reservations released");
    }
}
