//! Access paths and the scan operator.

use crate::exec::{ExecContext, Operator};
use crate::pred::{eval_all, PhysPred};
use crate::{Error, Result};
use xmldb_storage::{Governor, MemReservation};
use xmldb_xasr::NodeTuple;
use xmldb_xq::Var;

/// Most entries read per parent/text-index round-trip (block-based
/// reading: about one leaf page's worth).
const FETCH: usize = 128;

/// Where a probe gets its context node from.
#[derive(Debug, Clone, PartialEq)]
pub enum Src {
    /// A column of the outer row (index nested-loops join).
    Col(usize),
    /// An externally bound variable.
    Ext(Var),
}

impl Src {
    fn resolve(&self, left: Option<&[NodeTuple]>, ctx: &ExecContext<'_>) -> Result<NodeTuple> {
        match self {
            Src::Col(pos) => left
                .and_then(|row| row.get(*pos))
                .cloned()
                .ok_or_else(|| Error::Xasr(format!("probe source column {pos} out of range"))),
            Src::Ext(var) => ctx
                .bindings
                .get(var)
                .cloned()
                .ok_or_else(|| Error::UnboundVariable(var.to_string())),
        }
    }
}

/// An index access path — milestone 4's "index-based selection". Every
/// probe yields tuples in document order, so index plans stay
/// order-preserving.
#[derive(Debug, Clone, PartialEq)]
pub enum Probe {
    /// Full clustered scan (the unoptimized engines' only access path).
    Full,
    /// All elements with a label, via the label index.
    ByLabel(String),
    /// Children of the context node, via the parent index.
    ChildrenOf(Src),
    /// Children with a label test (parent-index scan + label filter).
    LabelChildrenOf(String, Src),
    /// Descendants of the context node (clustered interval scan).
    DescendantsOf(Src),
    /// Descendants with a label (label-index interval scan — the covering
    /// two-sided range the XASR encoding makes possible).
    LabelDescendantsOf(String, Src),
    /// Exactly the context node itself (`T.in = $x` lookups that survive
    /// rewriting in the less-optimized engines).
    Bound(Src),
    /// All text nodes with exactly this content (text-value index — the
    /// milestone-4 extension index for equality selections).
    ByTextEq(String),
    /// Text nodes whose content equals the context node's content (the
    /// index-join side of an XQ value join). Errors with the paper's
    /// non-text runtime error when the context node is not a text node.
    TextEqOf(Src),
}

impl Probe {
    /// Human-readable form for EXPLAIN.
    pub fn describe(&self) -> String {
        match self {
            Probe::Full => "full-scan".to_string(),
            Probe::ByLabel(l) => format!("label-scan({l})"),
            Probe::ChildrenOf(s) => format!("children({s:?})"),
            Probe::LabelChildrenOf(l, s) => format!("children({s:?}, label={l})"),
            Probe::DescendantsOf(s) => format!("descendants({s:?})"),
            Probe::LabelDescendantsOf(l, s) => format!("descendants({s:?}, label={l})"),
            Probe::Bound(s) => format!("bound({s:?})"),
            Probe::ByTextEq(t) => format!("text-eq({t:?})"),
            Probe::TextEqOf(s) => format!("text-eq({s:?})"),
        }
    }
}

/// A running probe: the index range it resolved to and how far it has
/// been read.
pub(crate) struct ProbeCursor {
    resolved: Resolved,
    /// Resume point: `in` of the last index entry read.
    resume: Option<u64>,
    done: bool,
    /// Tuples read ahead of the caller, last first.
    ahead: Vec<NodeTuple>,
    /// Least number of entries the next index read asks for, doubling per
    /// read up to [`FETCH`]: a caller pulling a row at a time (an exists
    /// check under `limit 1`) reads one tuple if the first answers it, and
    /// pays a B+-tree descent per doubling, not per row, if it looks on.
    ramp: usize,
}

enum Resolved {
    /// `lo < in < hi` (open where `None`) of the clustered index, or of
    /// `label`'s run of the label index.
    Range {
        label: Option<String>,
        lo: Option<u64>,
        hi: Option<u64>,
    },
    /// `parent_in`'s run of the parent index, optionally label-filtered.
    Children {
        parent_in: u64,
        label: Option<String>,
    },
    TextEq {
        text: String,
    },
    Bound(Option<NodeTuple>),
}

impl ProbeCursor {
    pub(crate) fn start(
        probe: &Probe,
        left: Option<&[NodeTuple]>,
        ctx: &ExecContext<'_>,
    ) -> Result<ProbeCursor> {
        let range = |label: Option<&String>, lo, hi| Resolved::Range {
            label: label.cloned(),
            lo,
            hi,
        };
        let resolved = match probe {
            Probe::Full => range(None, None, None),
            Probe::ByLabel(l) => range(Some(l), None, None),
            Probe::ChildrenOf(s) => Resolved::Children {
                parent_in: s.resolve(left, ctx)?.in_,
                label: None,
            },
            Probe::LabelChildrenOf(l, s) => Resolved::Children {
                parent_in: s.resolve(left, ctx)?.in_,
                label: Some(l.clone()),
            },
            Probe::DescendantsOf(s) => {
                let t = s.resolve(left, ctx)?;
                range(None, Some(t.in_), Some(t.out))
            }
            Probe::LabelDescendantsOf(l, s) => {
                let t = s.resolve(left, ctx)?;
                range(Some(l), Some(t.in_), Some(t.out))
            }
            Probe::Bound(s) => Resolved::Bound(Some(s.resolve(left, ctx)?)),
            Probe::ByTextEq(t) => Resolved::TextEq { text: t.clone() },
            Probe::TextEqOf(s) => {
                let t = s.resolve(left, ctx)?;
                match (t.kind, t.value) {
                    (xmldb_xasr::NodeType::Text, Some(text)) => Resolved::TextEq { text },
                    (kind, value) => return Err(Error::NonTextComparison { kind, value }),
                }
            }
        };
        Ok(ProbeCursor {
            resolved,
            resume: None,
            done: false,
            ahead: Vec::new(),
            ramp: 1,
        })
    }

    /// Appends up to `max` further tuples to `out`, in document order;
    /// returns how many (0 = the probe is exhausted).
    pub(crate) fn fill(
        &mut self,
        ctx: &ExecContext<'_>,
        out: &mut Vec<NodeTuple>,
        max: usize,
    ) -> Result<usize> {
        let before = out.len();
        loop {
            while out.len() - before < max {
                let Some(t) = self.ahead.pop() else { break };
                out.push(t);
            }
            let want = max - (out.len() - before);
            if want == 0 || self.done {
                return Ok(out.len() - before);
            }
            if want >= self.ramp {
                self.read(ctx, out, want)?;
            } else {
                let mut ahead = std::mem::take(&mut self.ahead);
                self.read(ctx, &mut ahead, self.ramp)?;
                ahead.reverse();
                self.ahead = ahead;
            }
            self.ramp = (self.ramp * 2).min(FETCH);
        }
    }

    /// One index read: appends at most `want` tuples to `out`. Contiguous
    /// ranges (full/label and interval scans) fill straight from the leaf
    /// pages via the zero-copy visitor; children and text probes read the
    /// parent/text index at most [`FETCH`] entries at a time.
    fn read(&mut self, ctx: &ExecContext<'_>, out: &mut Vec<NodeTuple>, want: usize) -> Result<()> {
        // Every read asks for `asked` index entries at most; getting fewer
        // means the index range is exhausted.
        let asked = want.min(FETCH);
        let (fetched, label) = match &mut self.resolved {
            Resolved::Range { label, lo, hi } => {
                let lower = self.resume.max(*lo);
                let read = match label {
                    Some(l) => ctx.store.label_range_into(l, lower, *hi, want, out)?,
                    None => ctx.store.clustered_range_into(lower, *hi, want, out)?,
                };
                if read > 0 {
                    self.resume = out.last().map(|t| t.in_);
                }
                self.done = read < want;
                return Ok(());
            }
            Resolved::Children { parent_in, label } => {
                let raw = ctx.store.parent_batch(*parent_in, self.resume, asked)?;
                (raw, label.as_deref())
            }
            Resolved::TextEq { text } => (ctx.store.text_batch(text, self.resume, asked)?, None),
            Resolved::Bound(slot) => (Vec::from_iter(slot.take()), None),
        };
        // Resume after the last entry *read*, so tuples the label test
        // drops are not refetched forever.
        if let Some(t) = fetched.last() {
            self.resume = Some(t.in_);
        }
        self.done = fetched.len() < asked;
        let kept = |t: &NodeTuple| label.map_or(true, |l| t.label() == Some(l));
        out.extend(fetched.into_iter().filter(kept));
        Ok(())
    }
}

/// Runs a probe once per row of a left batch — the inner side of a probe
/// join — by one of two routes. The general one is a [`ProbeCursor`] per
/// row. Label probes on a left column can instead be *merge-probed*: fetch
/// the label's index run once over the whole batch's document window, then
/// answer each row with a binary search into the fetched run, saving a
/// B+-tree descent per row. The per-row semantics are exact: matches are
/// the label tuples with `row.in < t.in < row.out` (descendant probes),
/// restricted to `t.parent_in == row.in` for children probes — the same
/// sets the per-row cursors produce (the label index holds only elements),
/// in the same document order. An `Ext` source is constant per execution,
/// where the per-row cursor is already a single range scan.
pub(crate) struct BatchProbe {
    probe: Probe,
    /// `(label, left column, children only)` when the probe can be
    /// merge-probed.
    mergeable: Option<(String, usize, bool)>,
    /// The label's tuples over the current batch's window, in document
    /// order, when that batch is merge-probed.
    window: Option<Vec<NodeTuple>>,
    /// Accounts `window` against the governor's memory budget.
    reservation: MemReservation,
    /// Where the row in progress reads from; `None` between rows.
    current: Option<Candidates>,
}

enum Candidates {
    /// A running index probe for this row alone.
    Cursor(ProbeCursor),
    /// The row's run of the merge window: the index of its next tuple.
    Window(usize),
}

/// Estimated heap footprint of buffered tuples (structs plus text values).
pub(crate) fn tuple_bytes(tuples: &[NodeTuple]) -> usize {
    let values = tuples
        .iter()
        .map(|t| t.value.as_ref().map_or(0, |v| v.len()));
    std::mem::size_of_val(tuples) + values.sum::<usize>()
}

impl BatchProbe {
    pub(crate) fn new(probe: Probe) -> BatchProbe {
        let mergeable = match &probe {
            Probe::LabelChildrenOf(l, Src::Col(pos)) => Some((l.clone(), *pos, true)),
            Probe::LabelDescendantsOf(l, Src::Col(pos)) => Some((l.clone(), *pos, false)),
            _ => None,
        };
        BatchProbe {
            probe,
            mergeable,
            window: None,
            reservation: MemReservation::default(),
            current: None,
        }
    }

    /// Forgets the batch and row in progress; later windows are accounted
    /// against `governor`.
    pub(crate) fn reset(&mut self, governor: &Governor) {
        self.window = None;
        self.current = None;
        self.reservation = MemReservation::empty(governor);
    }

    /// Prepares for the rows of a new left batch: fetches the merge window
    /// covering them, in chunks, so cancellation stays responsive. A single
    /// row (an exists check under `limit 1`) gets no window: its cursor
    /// reads just the matches asked for. A window the memory budget refuses
    /// is dropped and the batch probed per row — the window only saves
    /// descents, so budget pressure degrades it rather than failing the
    /// query.
    pub(crate) fn load(&mut self, ctx: &ExecContext<'_>, batch: &crate::RowBatch) -> Result<()> {
        const CHUNK: usize = 4096;
        self.window = None;
        self.current = None;
        self.reservation.release_all();
        if batch.len() < 2 {
            return Ok(());
        }
        let Some((label, pos, _)) = &self.mergeable else {
            return Ok(());
        };
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for row in batch.iter() {
            let t = row
                .get(*pos)
                .ok_or_else(|| Error::Xasr(format!("probe source column {pos} out of range")))?;
            // NULL left tuples (left-outer padding) have the empty window
            // (0, 0) and never match; keep them out of the fetch window.
            if !t.is_null() {
                lo = lo.min(t.in_);
                hi = hi.max(t.out);
            }
        }
        let mut window = Vec::new();
        let mut resume = lo;
        while resume < hi {
            ctx.governor.check()?;
            let read =
                ctx.store
                    .label_range_into(label, Some(resume), Some(hi), CHUNK, &mut window)?;
            if !self
                .reservation
                .grow(tuple_bytes(&window[window.len() - read..]))
            {
                self.reservation.release_all();
                return Ok(());
            }
            if read < CHUNK {
                break;
            }
            resume = window.last().expect("read > 0").in_;
        }
        self.window = Some(window);
        Ok(())
    }

    /// Appends up to `max` further inner tuples of `row` to `out`, in
    /// document order; 0 means the row has no more. The first call for a
    /// row starts its probe.
    pub(crate) fn fill(
        &mut self,
        ctx: &ExecContext<'_>,
        row: &[NodeTuple],
        out: &mut Vec<NodeTuple>,
        max: usize,
    ) -> Result<usize> {
        let BatchProbe {
            probe,
            mergeable,
            window,
            current,
            ..
        } = self;
        let merge = window.as_ref().zip(mergeable.as_ref());
        let current = match current {
            Some(current) => current,
            empty => empty.insert(match merge {
                Some((window, (_, pos, _))) => {
                    Candidates::Window(window.partition_point(|t| t.in_ <= row[*pos].in_))
                }
                None => Candidates::Cursor(ProbeCursor::start(probe, Some(row), ctx)?),
            }),
        };
        let (cur, window, pos, children_only) = match (current, merge) {
            (Candidates::Cursor(cursor), _) => return cursor.fill(ctx, out, max),
            (Candidates::Window(cur), Some((window, (_, pos, children_only)))) => {
                (cur, window, *pos, *children_only)
            }
            (Candidates::Window(_), None) => unreachable!("the window outlives its batch's rows"),
        };
        let (lo, hi) = (row[pos].in_, row[pos].out);
        let before = out.len();
        while out.len() - before < max {
            let Some(t) = window.get(*cur).filter(|t| t.in_ < hi) else {
                break;
            };
            *cur += 1;
            if !children_only || t.parent_in == lo {
                out.push(t.clone());
            }
        }
        Ok(out.len() - before)
    }

    /// Ends the row in progress: the next `fill` starts a new row's probe.
    pub(crate) fn next_row(&mut self) {
        self.current = None;
    }
}

/// Leaf scan: a probe plus pushed-down selection conjuncts, producing
/// one-column rows.
pub struct ScanOp {
    probe: Probe,
    filter: Vec<PhysPred>,
    cursor: Option<ProbeCursor>,
}

impl ScanOp {
    /// Creates a scan over `probe` with pushed-down `filter` conjuncts.
    pub fn new(probe: Probe, filter: Vec<PhysPred>) -> ScanOp {
        ScanOp {
            probe,
            filter,
            cursor: None,
        }
    }
}

impl Operator for ScanOp {
    fn open(&mut self, ctx: &ExecContext<'_>) -> Result<()> {
        self.cursor = Some(ProbeCursor::start(&self.probe, None, ctx)?);
        Ok(())
    }

    fn close(&mut self) {
        self.cursor = None;
    }

    fn name(&self) -> &'static str {
        "scan"
    }

    fn next_batch(&mut self, ctx: &ExecContext<'_>, max_rows: usize) -> Result<crate::RowBatch> {
        let cursor = self
            .cursor
            .as_mut()
            .ok_or_else(|| Error::Xasr("scan not open".into()))?;
        ctx.governor.check()?;
        let mut tuples: Vec<NodeTuple> = Vec::new();
        while tuples.len() < max_rows {
            let start = tuples.len();
            if cursor.fill(ctx, &mut tuples, max_rows - start)? == 0 {
                break;
            }
            if !self.filter.is_empty() {
                // Filter the newly appended range in place, before the rows
                // are ever materialized as batch rows.
                let mut write = start;
                for read in start..tuples.len() {
                    let row = std::slice::from_ref(&tuples[read]);
                    if eval_all(&self.filter, row, &[], ctx.bindings)? {
                        tuples.swap(write, read);
                        write += 1;
                    }
                }
                tuples.truncate(write);
            }
        }
        Ok(crate::RowBatch::from_tuples(tuples))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_all, Bindings};
    use crate::Row;
    use xmldb_algebra::{Attr, CmpOp};
    use xmldb_storage::Env;
    use xmldb_xasr::{shred_document, NodeType};

    const FIGURE2: &str =
        "<journal><authors><name>Ana</name><name>Bob</name></authors><title>DB</title></journal>";

    fn fixture() -> (Env, xmldb_xasr::XasrStore) {
        let env = Env::memory();
        let store = shred_document(&env, "f", FIGURE2).unwrap();
        (env, store)
    }

    fn ins(rows: &[Row]) -> Vec<u64> {
        rows.iter().map(|r| r[0].in_).collect()
    }

    #[test]
    fn full_scan_document_order() {
        let (_e, store) = fixture();
        let binds = Bindings::with_root(&store).unwrap();
        let ctx = ExecContext::new(&store, &binds);
        let mut op = ScanOp::new(Probe::Full, vec![]);
        let rows = execute_all(&mut op, &ctx).unwrap();
        assert_eq!(ins(&rows), vec![1, 2, 3, 4, 5, 8, 9, 13, 14]);
    }

    #[test]
    fn filtered_scan() {
        let (_e, store) = fixture();
        let binds = Bindings::with_root(&store).unwrap();
        let ctx = ExecContext::new(&store, &binds);
        let filter = vec![PhysPred {
            op: CmpOp::Eq,
            lhs: crate::pred::PhysOperand::Col {
                pos: 0,
                attr: Attr::Type,
            },
            rhs: crate::pred::PhysOperand::Kind(NodeType::Text),
            strict_text: false,
        }];
        let mut op = ScanOp::new(Probe::Full, filter);
        let rows = execute_all(&mut op, &ctx).unwrap();
        assert_eq!(ins(&rows), vec![5, 9, 14]);
    }

    #[test]
    fn probe_by_label() {
        let (_e, store) = fixture();
        let binds = Bindings::with_root(&store).unwrap();
        let ctx = ExecContext::new(&store, &binds);
        let mut op = ScanOp::new(Probe::ByLabel("name".into()), vec![]);
        assert_eq!(ins(&execute_all(&mut op, &ctx).unwrap()), vec![4, 8]);
        let mut op = ScanOp::new(Probe::ByLabel("ghost".into()), vec![]);
        assert!(execute_all(&mut op, &ctx).unwrap().is_empty());
    }

    #[test]
    fn probe_children_of_ext() {
        let (_e, store) = fixture();
        let mut binds = Bindings::with_root(&store).unwrap();
        binds.bind(Var::named("a"), store.get(3).unwrap().unwrap()); // authors
        let ctx = ExecContext::new(&store, &binds);
        let mut op = ScanOp::new(Probe::ChildrenOf(Src::Ext(Var::named("a"))), vec![]);
        assert_eq!(ins(&execute_all(&mut op, &ctx).unwrap()), vec![4, 8]);
    }

    #[test]
    fn probe_descendants_of_root_var() {
        let (_e, store) = fixture();
        let binds = Bindings::with_root(&store).unwrap();
        let ctx = ExecContext::new(&store, &binds);
        let mut op = ScanOp::new(Probe::DescendantsOf(Src::Ext(Var::root())), vec![]);
        assert_eq!(
            ins(&execute_all(&mut op, &ctx).unwrap()),
            vec![2, 3, 4, 5, 8, 9, 13, 14]
        );
    }

    #[test]
    fn probe_label_descendants() {
        let (_e, store) = fixture();
        let mut binds = Bindings::with_root(&store).unwrap();
        binds.bind(Var::named("j"), store.get(2).unwrap().unwrap());
        let ctx = ExecContext::new(&store, &binds);
        let mut op = ScanOp::new(
            Probe::LabelDescendantsOf("name".into(), Src::Ext(Var::named("j"))),
            vec![],
        );
        assert_eq!(ins(&execute_all(&mut op, &ctx).unwrap()), vec![4, 8]);
    }

    #[test]
    fn probe_label_children_filters() {
        let (_e, store) = fixture();
        let mut binds = Bindings::with_root(&store).unwrap();
        binds.bind(Var::named("j"), store.get(2).unwrap().unwrap());
        let ctx = ExecContext::new(&store, &binds);
        let mut op = ScanOp::new(
            Probe::LabelChildrenOf("title".into(), Src::Ext(Var::named("j"))),
            vec![],
        );
        assert_eq!(ins(&execute_all(&mut op, &ctx).unwrap()), vec![13]);
        let mut op = ScanOp::new(
            Probe::LabelChildrenOf("name".into(), Src::Ext(Var::named("j"))),
            vec![],
        );
        assert!(execute_all(&mut op, &ctx).unwrap().is_empty());
    }

    #[test]
    fn probe_bound_emits_once() {
        let (_e, store) = fixture();
        let mut binds = Bindings::with_root(&store).unwrap();
        binds.bind(Var::named("x"), store.get(5).unwrap().unwrap());
        let ctx = ExecContext::new(&store, &binds);
        let mut op = ScanOp::new(Probe::Bound(Src::Ext(Var::named("x"))), vec![]);
        let rows = execute_all(&mut op, &ctx).unwrap();
        assert_eq!(ins(&rows), vec![5]);
    }

    #[test]
    fn reopen_restarts() {
        let (_e, store) = fixture();
        let binds = Bindings::with_root(&store).unwrap();
        let ctx = ExecContext::new(&store, &binds);
        let mut op = ScanOp::new(Probe::ByLabel("name".into()), vec![]);
        assert_eq!(execute_all(&mut op, &ctx).unwrap().len(), 2);
        assert_eq!(execute_all(&mut op, &ctx).unwrap().len(), 2);
    }

    #[test]
    fn unbound_var_is_error() {
        let (_e, store) = fixture();
        let binds = Bindings::new();
        let ctx = ExecContext::new(&store, &binds);
        let mut op = ScanOp::new(Probe::ChildrenOf(Src::Ext(Var::named("zap"))), vec![]);
        assert!(matches!(op.open(&ctx), Err(Error::UnboundVariable(_))));
    }
}
