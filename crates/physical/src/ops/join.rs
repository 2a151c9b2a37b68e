//! The join operator: one nested-loops join, parameterised by its inner
//! access path, by left-outer-ness and by its predicates.

use super::scan::{tuple_bytes, BatchProbe, Probe};
use crate::exec::{ExecContext, Operator};
use crate::pred::{eval_all, PhysPred};
use crate::{Result, RowBatch, BATCH_ROWS};
use xmldb_storage::{Governor, MemReservation, StorageError};
use xmldb_xasr::NodeTuple;

/// The inner access path of a join. Together with `outer` and the
/// predicates this is the join's whole parameter space; the EXPLAIN names
/// of the combinations are [`JoinInner::name`]'s. `R` is the re-openable
/// right input: an operator in [`JoinOp`], a plan in the optimizer's plan
/// tree.
#[derive(Debug, Clone)]
pub enum JoinInner<R> {
    /// Probe an XASR index once per left row (milestone 4's index
    /// nested-loops join). Order-preserving: probes deliver in document
    /// order per left row.
    Probe(Probe),
    /// Re-open and scan `right` once per block of `block_rows` left rows.
    /// One row per block is the order-preserving tuple-at-a-time
    /// nested-loops join (with a [`super::MaterializeOp`] right, the
    /// milestone-3 "write each intermediate result and re-read it"
    /// evaluation). Bigger blocks rescan the right side less often but are
    /// **not order-preserving** (output is right-major within a block) —
    /// plans using them must restore order by sorting, which is exactly
    /// the trade-off of the paper's ordering discussion.
    Scan {
        /// The right input.
        right: R,
        /// Left rows buffered per scan of `right` (0 is treated as 1).
        block_rows: usize,
    },
}

impl<R> JoinInner<R> {
    /// False for a scan inner with blocks of more than one left row.
    pub fn is_order_preserving(&self) -> bool {
        !matches!(self, JoinInner::Scan { block_rows, .. } if *block_rows > 1)
    }

    /// The EXPLAIN name of the join these parameters give. A left-outer
    /// scan join pairs one left row at a time whatever its `block_rows`
    /// (see [`JoinOp::new`]), so no left-outer join is blocked.
    pub fn name(&self, outer: bool) -> &'static str {
        match (self, outer) {
            (JoinInner::Probe(_), false) => "inl-join",
            (JoinInner::Probe(_), true) => "left-outer-inl-join",
            (JoinInner::Scan { .. }, true) => "left-outer-nl-join",
            _ if self.is_order_preserving() => "nl-join",
            _ => "bnl-join",
        }
    }
}

/// Nested-loops join of `left` with a [`JoinInner`] under `preds`.
///
/// With `outer` set it is the paper's proposed TPM extension ("one
/// solution to this problem is to extend TPM by left-outer-joins"): every
/// left row survives; when no inner tuple passes the predicates the row is
/// emitted once with the [`NodeTuple::null`] sentinel in the joined
/// column, so constructors can still emit their (empty) element for
/// match-less outer bindings. Left-outer inners are single-relation.
pub struct JoinOp {
    left: Box<dyn Operator>,
    inner: Inner,
    outer: bool,
    /// Conjuncts over the joined row (for a probe inner: the residual
    /// ones the probe does not already guarantee).
    preds: Vec<PhysPred>,
    name: &'static str,
    st: State,
}

// One `Inner` lives inside each `JoinOp` and is never moved: boxing the big
// variant would only add an allocation per plan instantiation.
#[allow(clippy::large_enum_variant)]
enum Inner {
    Probe(BatchProbe),
    Scan {
        right: Box<dyn Operator>,
        block_rows: usize,
    },
}

/// Everything a join buffers between calls; dropped on open and close.
#[derive(Default)]
struct State {
    /// Buffered left rows: the batch being probed, or the block being
    /// paired against one scan of the right input.
    block: RowBatch,
    /// Probe inner: the block row in progress. Scan inner: the next block
    /// row to pair with the current right row (or to NULL-pad).
    pos: usize,
    /// Per block row: has it produced a row yet (left-outer padding).
    matched: Vec<bool>,
    /// Probe inner: reused fetch buffer.
    candidates: Vec<NodeTuple>,
    /// Scan inner: left rows pulled but not yet in a block — the tail of
    /// a batch the memory budget cut short.
    pending: RowBatch,
    pending_pos: usize,
    /// Scan inner: the right rows being paired with the block.
    right_batch: RowBatch,
    right_pos: usize,
    phase: Phase,
    /// Scan inner: accounts `block` against the governor's memory budget.
    reservation: MemReservation,
}

/// Where the scan drive stands.
#[derive(Clone, Copy, Default)]
enum Phase {
    /// No block: buffer the next one and (re-)open the right input.
    #[default]
    Fill,
    /// Pairing right rows with the block.
    Pair,
    /// Right input exhausted: NULL-pad the unmatched block rows.
    Pad,
}

impl JoinOp {
    /// Joins `left` with `inner` under `preds`; left-outer if `outer`. A
    /// left-outer join over a scan inner takes one left row per block:
    /// its groups of output rows per left row must stay in left order.
    pub fn new(
        left: Box<dyn Operator>,
        inner: JoinInner<Box<dyn Operator>>,
        outer: bool,
        preds: Vec<PhysPred>,
    ) -> JoinOp {
        JoinOp {
            left,
            name: inner.name(outer),
            inner: match inner {
                JoinInner::Probe(probe) => Inner::Probe(BatchProbe::new(probe)),
                JoinInner::Scan { right, block_rows } => Inner::Scan {
                    right,
                    block_rows: if outer { 1 } else { block_rows.max(1) },
                },
            },
            outer,
            preds,
            st: State::default(),
        }
    }

    /// Drops every buffered row; later buffers are accounted against
    /// `governor`.
    fn reset(&mut self, governor: &Governor) {
        self.st = State {
            reservation: MemReservation::empty(governor),
            ..State::default()
        };
        if let Inner::Probe(probe) = &mut self.inner {
            probe.reset(governor);
        }
    }
}

impl Operator for JoinOp {
    fn open(&mut self, ctx: &ExecContext<'_>) -> Result<()> {
        self.reset(&ctx.governor);
        self.left.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecContext<'_>, max_rows: usize) -> Result<RowBatch> {
        ctx.governor.check()?;
        let JoinOp {
            left,
            inner,
            outer,
            preds,
            st,
            ..
        } = self;
        let mut out = RowBatch::default();
        match inner {
            // For each left row in order: the probe's tuples that pass
            // `preds`, then the NULL padding if left-outer and none did.
            Inner::Probe(probe) => {
                while out.len() < max_rows {
                    if st.pos >= st.block.len() {
                        // The next left batch is no bigger than what the
                        // caller asked of this join, so a `limit` above
                        // it keeps the whole left side lazy.
                        st.block = left.next_batch(ctx, max_rows)?;
                        if st.block.is_empty() {
                            break;
                        }
                        ctx.governor.check()?;
                        st.pos = 0;
                        st.matched.clear();
                        st.matched.resize(st.block.len(), false);
                        probe.load(ctx, &st.block)?;
                    }
                    let row = st.block.row(st.pos);
                    // Drain the row's inner tuples; when `out` fills up
                    // first, the row resumes on the next call.
                    let mut exhausted = false;
                    while !exhausted && out.len() < max_rows {
                        st.candidates.clear();
                        let want = max_rows - out.len();
                        exhausted = probe.fill(ctx, row, &mut st.candidates, want)? == 0;
                        for t in st.candidates.drain(..) {
                            let inner_row = std::slice::from_ref(&t);
                            if eval_all(preds, row, inner_row, ctx.bindings)? {
                                out.push_joined(row, t);
                                st.matched[st.pos] = true;
                            }
                        }
                    }
                    if !exhausted {
                        break;
                    }
                    if *outer && !st.matched[st.pos] {
                        // A row without matches has added nothing to
                        // `out`, so there is still room for its padding.
                        out.push_joined(row, NodeTuple::null());
                    }
                    probe.next_row();
                    st.pos += 1;
                }
            }
            // Buffer a block of left rows, pair every right row with every
            // block row, then NULL-pad the unmatched block rows if
            // left-outer.
            Inner::Scan { right, block_rows } => {
                while out.len() < max_rows {
                    match st.phase {
                        Phase::Fill => {
                            if !st.fill_block(left.as_mut(), *block_rows, ctx)? {
                                break;
                            }
                            right.open(ctx)?;
                            st.right_batch.clear();
                            st.right_pos = 0;
                            st.phase = Phase::Pair;
                        }
                        Phase::Pair if st.right_pos >= st.right_batch.len() => {
                            // At one row per block a right row yields at
                            // most one output row, so the pull is sized by
                            // what the caller still wants: an exists check
                            // (`limit 1`) stops the right side at its first
                            // match. Blocked joins sit under a sort, which
                            // drains them: they pull full frames.
                            let want = match *block_rows {
                                1 => max_rows - out.len(),
                                _ => BATCH_ROWS,
                            };
                            st.right_batch = right.next_batch(ctx, want)?;
                            st.right_pos = 0;
                            if st.right_batch.is_empty() {
                                // Block finished against the whole right.
                                st.phase = if *outer { Phase::Pad } else { Phase::Fill };
                            }
                        }
                        Phase::Pair => {
                            ctx.governor.check()?;
                            let right_row = st.right_batch.row(st.right_pos);
                            debug_assert!(
                                !*outer || right_row.len() == 1,
                                "LOJ inners are single-relation"
                            );
                            while st.pos < st.block.len() && out.len() < max_rows {
                                let row = st.block.row(st.pos);
                                if eval_all(preds, row, right_row, ctx.bindings)? {
                                    out.push_concat(row, right_row);
                                    st.matched[st.pos] = true;
                                }
                                st.pos += 1;
                            }
                            if st.pos == st.block.len() {
                                st.right_pos += 1;
                                st.pos = 0;
                            }
                        }
                        Phase::Pad => {
                            while st.pos < st.block.len() && out.len() < max_rows {
                                if !st.matched[st.pos] {
                                    out.push_joined(st.block.row(st.pos), NodeTuple::null());
                                }
                                st.pos += 1;
                            }
                            if st.pos == st.block.len() {
                                st.phase = Phase::Fill;
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    fn close(&mut self) {
        self.left.close();
        if let Inner::Scan { right, .. } = &mut self.inner {
            right.close();
        }
        self.reset(&Governor::none());
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

/// Estimated heap footprint of a buffered row (tuples plus text values).
fn row_bytes(row: &[NodeTuple]) -> usize {
    std::mem::size_of::<crate::Row>() + tuple_bytes(row)
}

impl State {
    /// Buffers the next block of up to `block_rows` left rows; false when
    /// the left input is exhausted.
    fn fill_block(
        &mut self,
        left: &mut dyn Operator,
        block_rows: usize,
        ctx: &ExecContext<'_>,
    ) -> Result<bool> {
        self.block.clear();
        self.pos = 0;
        self.reservation.release_all();
        while self.block.len() < block_rows {
            if self.pending_pos >= self.pending.len() {
                // Pull exactly what the block still needs: at one row per
                // block the left side stays as lazy as its consumer.
                self.pending = left.next_batch(ctx, block_rows - self.block.len())?;
                self.pending_pos = 0;
                if self.pending.is_empty() {
                    break;
                }
            }
            let row = self.pending.row(self.pending_pos);
            // A block the budget cannot hold degrades gracefully: stop
            // filling and run the partial block (more right rescans,
            // bounded memory). Only a single row that does not fit even in
            // an otherwise empty block is a hard error.
            if !self.reservation.grow(row_bytes(row)) {
                if self.block.is_empty() {
                    return Err(StorageError::MemoryExceeded {
                        used: ctx.governor.mem_used() + row_bytes(row),
                        budget: ctx.governor.mem_budget().unwrap_or(0),
                    }
                    .into());
                }
                break;
            }
            self.block.push_row(row);
            self.pending_pos += 1;
        }
        self.matched.clear();
        self.matched.resize(self.block.len(), false);
        Ok(!self.block.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_all, Bindings};
    use crate::ops::{RowsOp, ScanOp, Src};
    use crate::pred::PhysOperand;
    use xmldb_algebra::{Attr, CmpOp};
    use xmldb_storage::Env;
    use xmldb_xasr::shred_document;

    const FIGURE2: &str =
        "<journal><authors><name>Ana</name><name>Bob</name></authors><title>DB</title></journal>";

    fn fixture() -> (Env, xmldb_xasr::XasrStore) {
        let env = Env::memory();
        let store = shred_document(&env, "f", FIGURE2).unwrap();
        (env, store)
    }

    fn scan(probe: Probe) -> Box<dyn Operator> {
        Box::new(ScanOp::new(probe, vec![]))
    }

    fn by_label(label: &str) -> Box<dyn Operator> {
        scan(Probe::ByLabel(label.into()))
    }

    /// The join over a re-scanned right input: `block_rows == 1` is NLJ.
    fn scan_join(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        block_rows: usize,
        outer: bool,
        preds: Vec<PhysPred>,
    ) -> JoinOp {
        JoinOp::new(left, JoinInner::Scan { right, block_rows }, outer, preds)
    }

    fn probe_join(
        left: Box<dyn Operator>,
        probe: Probe,
        outer: bool,
        preds: Vec<PhysPred>,
    ) -> JoinOp {
        JoinOp::new(left, JoinInner::Probe(probe), outer, preds)
    }

    fn pairs(rows: &[crate::Row]) -> Vec<(u64, u64)> {
        rows.iter().map(|r| (r[0].in_, r[1].in_)).collect()
    }

    fn descendant_preds(left: usize, right: usize) -> Vec<PhysPred> {
        vec![
            PhysPred {
                op: CmpOp::Lt,
                lhs: PhysOperand::Col {
                    pos: left,
                    attr: Attr::In,
                },
                rhs: PhysOperand::Col {
                    pos: right,
                    attr: Attr::In,
                },
                strict_text: false,
            },
            PhysPred {
                op: CmpOp::Lt,
                lhs: PhysOperand::Col {
                    pos: right,
                    attr: Attr::Out,
                },
                rhs: PhysOperand::Col {
                    pos: left,
                    attr: Attr::Out,
                },
                strict_text: false,
            },
        ]
    }

    #[test]
    fn names_follow_the_parameters() {
        let probe = || JoinInner::<()>::Probe(Probe::Full);
        let scan = |block_rows| JoinInner::Scan {
            right: (),
            block_rows,
        };
        assert_eq!(probe().name(false), "inl-join");
        assert_eq!(probe().name(true), "left-outer-inl-join");
        assert_eq!(scan(1).name(false), "nl-join");
        assert_eq!(scan(1).name(true), "left-outer-nl-join");
        assert_eq!(scan(64).name(false), "bnl-join");
        // A left-outer join is never blocked: asked for blocks, the
        // operator still pairs one left row at a time.
        assert_eq!(scan(64).name(true), "left-outer-nl-join");
        let op = scan_join(by_label("a"), by_label("b"), 1, true, vec![]);
        assert_eq!(op.name(), "left-outer-nl-join");
        let op = scan_join(by_label("a"), by_label("b"), 64, true, vec![]);
        assert!(matches!(op.inner, Inner::Scan { block_rows: 1, .. }));
    }

    /// Example 2 as a join: journals × names with descendant predicate.
    #[test]
    fn nlj_example2_bindings() {
        let (_e, store) = fixture();
        let binds = Bindings::with_root(&store).unwrap();
        let ctx = ExecContext::new(&store, &binds);
        let mut join = scan_join(
            by_label("journal"),
            by_label("name"),
            1,
            false,
            descendant_preds(0, 1),
        );
        let rows = execute_all(&mut join, &ctx).unwrap();
        assert_eq!(
            pairs(&rows),
            vec![(2, 4), (2, 8)],
            "the Example 2 vartuple sequence"
        );
    }

    #[test]
    fn inlj_matches_nlj() {
        let (_e, store) = fixture();
        let binds = Bindings::with_root(&store).unwrap();
        let ctx = ExecContext::new(&store, &binds);
        let mut join = probe_join(
            by_label("journal"),
            Probe::LabelDescendantsOf("name".into(), Src::Col(0)),
            false,
            vec![],
        );
        let rows = execute_all(&mut join, &ctx).unwrap();
        assert_eq!(pairs(&rows), vec![(2, 4), (2, 8)]);
    }

    #[test]
    fn bnlj_same_rows_different_order() {
        let (_e, store) = fixture();
        let binds = Bindings::with_root(&store).unwrap();
        let ctx = ExecContext::new(&store, &binds);
        // names × names cross (no preds) via both joins.
        let mut nlj = scan_join(by_label("name"), by_label("name"), 1, false, vec![]);
        let mut bnlj = scan_join(by_label("name"), by_label("name"), 10, false, vec![]);
        let a = execute_all(&mut nlj, &ctx).unwrap();
        let b = execute_all(&mut bnlj, &ctx).unwrap();
        assert_eq!(a.len(), 4);
        let (mut pa, mut pb) = (pairs(&a), pairs(&b));
        // BNLJ with a block bigger than the input is right-major: (4,4),
        // (8,4), (4,8), (8,8) — same set, different order.
        assert_ne!(pa, pb, "BNLJ must not be order-preserving here");
        pa.sort_unstable();
        pb.sort_unstable();
        assert_eq!(pa, pb);
    }

    #[test]
    fn bnlj_small_blocks_rescan_right() {
        let (_e, store) = fixture();
        let binds = Bindings::with_root(&store).unwrap();
        let ctx = ExecContext::new(&store, &binds);
        let mut join = scan_join(
            scan(Probe::Full),
            by_label("name"),
            2, // 9 left rows → 5 blocks
            false,
            descendant_preds(0, 1),
        );
        let rows = execute_all(&mut join, &ctx).unwrap();
        // Ancestors of names: root(1), journal(2), authors(3) each × both
        // names, plus each name's own parents... count pairs (x, name).
        let mut pairs = pairs(&rows);
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 4), (1, 8), (2, 4), (2, 8), (3, 4), (3, 8)]);
    }

    #[test]
    fn left_outer_inlj_pads_with_null() {
        let (_e, store) = fixture();
        let binds = Bindings::with_root(&store).unwrap();
        let ctx = ExecContext::new(&store, &binds);
        // Every element × its text children: title(13) and authors(3) have
        // none directly (authors' text is under name).
        let mut join = probe_join(
            by_label("name"),
            Probe::ChildrenOf(Src::Col(0)),
            true,
            vec![],
        );
        let rows = execute_all(&mut join, &ctx).unwrap();
        // Both names have exactly one text child → two matched rows.
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| !r[1].is_null()));
        // Authors element (in=3) as the left: children are elements, so a
        // text()-style filter (via preds) yields NULL padding.
        let text_only = vec![PhysPred {
            op: CmpOp::Eq,
            lhs: PhysOperand::Col {
                pos: 1,
                attr: Attr::Type,
            },
            rhs: PhysOperand::Kind(xmldb_xasr::NodeType::Text),
            strict_text: false,
        }];
        let mut join = probe_join(
            by_label("authors"),
            Probe::ChildrenOf(Src::Col(0)),
            true,
            text_only,
        );
        let rows = execute_all(&mut join, &ctx).unwrap();
        assert_eq!(rows.len(), 1, "one padded row for the match-less left");
        assert!(rows[0][1].is_null());
    }

    #[test]
    fn left_outer_nlj_matches_inlj() {
        let (_e, store) = fixture();
        let binds = Bindings::with_root(&store).unwrap();
        let ctx = ExecContext::new(&store, &binds);
        let mut loj_nl = scan_join(
            by_label("title"),
            by_label("name"),
            1,
            true,
            descendant_preds(0, 1),
        );
        let rows = execute_all(&mut loj_nl, &ctx).unwrap();
        // Titles have no name descendants → single NULL-padded row.
        assert_eq!(rows.len(), 1);
        assert!(rows[0][1].is_null());
        let mut loj_inl = probe_join(
            by_label("title"),
            Probe::LabelDescendantsOf("name".into(), Src::Col(0)),
            true,
            vec![],
        );
        let rows2 = execute_all(&mut loj_inl, &ctx).unwrap();
        assert_eq!(pairs(&rows), pairs(&rows2));
    }

    #[test]
    fn bnlj_degrades_to_smaller_blocks_under_budget() {
        let (_e, store) = fixture();
        let binds = Bindings::with_root(&store).unwrap();
        // Budget fits roughly one row at a time: the huge configured block
        // degrades to tiny blocks and the join still completes correctly.
        let gov = Governor::with_limits(None, Some(row_bytes(&[store.root().unwrap()]) + 16));
        let ctx = ExecContext::with_governor(&store, &binds, gov.clone());
        let mut bnlj = scan_join(by_label("name"), by_label("name"), 1000, false, vec![]);
        let rows = execute_all(&mut bnlj, &ctx).unwrap();
        let mut pairs = pairs(&rows);
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(4, 4), (4, 8), (8, 4), (8, 8)]);
        assert_eq!(gov.mem_used(), 0, "block reservation released");
    }

    #[test]
    fn merge_window_degrades_to_row_probes_under_budget() {
        let (_e, store) = fixture();
        let binds = Bindings::with_root(&store).unwrap();
        // Two left rows make the join try a merge window; a budget too
        // small for even one fetched tuple makes it fall back to per-row
        // probes instead of failing the query.
        let gov = Governor::with_limits(None, Some(8));
        let ctx = ExecContext::with_governor(&store, &binds, gov.clone());
        let mut join = probe_join(
            scan(Probe::Full),
            Probe::LabelChildrenOf("name".into(), Src::Col(0)),
            false,
            vec![],
        );
        let rows = execute_all(&mut join, &ctx).unwrap();
        assert_eq!(pairs(&rows), vec![(3, 4), (3, 8)]);
        assert_eq!(gov.mem_used(), 0);
    }

    #[test]
    fn value_runs_degrade_to_row_probes_under_budget() {
        let (_e, store) = fixture();
        let binds = Bindings::with_root(&store).unwrap();
        // Every text node joined with the texts equal to it: three left
        // rows make the join try value runs; a budget too small for one
        // run makes it probe each row instead.
        let texts = || {
            let text = PhysPred {
                op: CmpOp::Eq,
                lhs: PhysOperand::Col {
                    pos: 0,
                    attr: Attr::Type,
                },
                rhs: PhysOperand::Kind(xmldb_xasr::NodeType::Text),
                strict_text: false,
            };
            Box::new(ScanOp::new(Probe::Full, vec![text])) as Box<dyn Operator>
        };
        let join = || probe_join(texts(), Probe::TextEqOf(Src::Col(0)), false, vec![]);
        let ctx = ExecContext::new(&store, &binds);
        let runs = execute_all(&mut join(), &ctx).unwrap();
        assert_eq!(pairs(&runs), vec![(5, 5), (9, 9), (14, 14)]);
        let gov = Governor::with_limits(None, Some(8));
        let ctx = ExecContext::with_governor(&store, &binds, gov.clone());
        assert_eq!(execute_all(&mut join(), &ctx).unwrap(), runs);
        assert_eq!(gov.mem_used(), 0);
    }

    #[test]
    fn cancellation_mid_join_is_clean() {
        let (env, store) = fixture();
        let binds = Bindings::with_root(&store).unwrap();
        let gov = Governor::unlimited();
        gov.trip_cancel_after_checks(3);
        let ctx = ExecContext::with_governor(&store, &binds, gov);
        let mut nlj = scan_join(scan(Probe::Full), scan(Probe::Full), 1, false, vec![]);
        let err = execute_all(&mut nlj, &ctx).unwrap_err();
        assert!(
            matches!(
                err,
                crate::Error::Storage(xmldb_storage::StorageError::Cancelled)
            ),
            "{err}"
        );
        assert_eq!(env.pinned_frames(), 0);
    }

    #[test]
    fn joins_with_empty_inputs() {
        let (_e, store) = fixture();
        let binds = Bindings::with_root(&store).unwrap();
        let ctx = ExecContext::new(&store, &binds);
        let empty = || -> Box<dyn Operator> { Box::new(RowsOp::new(vec![])) };
        let mut j1 = scan_join(empty(), by_label("name"), 1, false, vec![]);
        assert!(execute_all(&mut j1, &ctx).unwrap().is_empty());
        let mut j2 = scan_join(by_label("name"), empty(), 1, false, vec![]);
        assert!(execute_all(&mut j2, &ctx).unwrap().is_empty());
        let mut j3 = scan_join(empty(), by_label("name"), 4, false, vec![]);
        assert!(execute_all(&mut j3, &ctx).unwrap().is_empty());
    }
}
