//! Access paths and the scan operator.

use crate::exec::{ExecContext, Operator};
use crate::pred::{eval_all, PhysPred};
use crate::{Error, Result};
use std::collections::BTreeMap;
use std::ops::Range;
use xmldb_storage::{Governor, MemReservation, Seeker};
use xmldb_xasr::NodeTuple;
use xmldb_xq::Var;

/// Most entries a batch prefetch reads between cancellation checks.
const CHUNK: usize = 4096;

/// Where a probe gets its context node from.
#[derive(Debug, Clone, PartialEq)]
pub enum Src {
    /// A column of the outer row (index nested-loops join).
    Col(usize),
    /// An externally bound variable.
    Ext(Var),
}

impl Src {
    fn resolve<'a>(
        &self,
        left: Option<&'a [NodeTuple]>,
        ctx: &'a ExecContext<'_>,
    ) -> Result<&'a NodeTuple> {
        match self {
            Src::Col(pos) => left
                .and_then(|row| row.get(*pos))
                .ok_or_else(|| Error::Xasr(format!("probe source column {pos} out of range"))),
            Src::Ext(var) => ctx
                .bindings
                .get(var)
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
            Probe::Bound(s) => Resolved::Bound(Some(s.resolve(left, ctx)?.clone())),
            Probe::ByTextEq(t) => Resolved::TextEq { text: t.clone() },
            Probe::TextEqOf(s) => {
                let t = s.resolve(left, ctx)?;
                match (t.kind, &t.value) {
                    (xmldb_xasr::NodeType::Text, Some(text)) => {
                        Resolved::TextEq { text: text.clone() }
                    }
                    (kind, value) => {
                        let value = value.clone();
                        return Err(Error::NonTextComparison { kind, value });
                    }
                }
            }
        };
        Ok(ProbeCursor {
            resolved,
            resume: None,
            done: false,
        })
    }

    /// Appends up to `max` further tuples to `out`, in document order,
    /// reading the index through `seeker`; returns how many (0 = the probe
    /// is exhausted). Every read asks for what the caller still wants: an
    /// exists check under `limit 1` reads one tuple, and a caller that
    /// looks on pays a leaf-local seek per read, not a descent.
    pub(crate) fn fill(
        &mut self,
        ctx: &ExecContext<'_>,
        seeker: &mut Seeker,
        out: &mut Vec<NodeTuple>,
        max: usize,
    ) -> Result<usize> {
        let before = out.len();
        while !self.done && out.len() - before < max {
            self.read(ctx, seeker, out, max - (out.len() - before))?;
        }
        Ok(out.len() - before)
    }

    /// One index read: appends at most `want` tuples to `out`, straight
    /// from the leaf pages.
    fn read(
        &mut self,
        ctx: &ExecContext<'_>,
        seeker: &mut Seeker,
        out: &mut Vec<NodeTuple>,
        want: usize,
    ) -> Result<()> {
        let (store, before, resume) = (ctx.store, out.len(), self.resume);
        let (read, label) = match &mut self.resolved {
            Resolved::Range { label, lo, hi } => {
                let lower = resume.max(*lo);
                let read = match label {
                    Some(l) => store.label_range_into(l, lower, *hi, want, seeker, out)?,
                    None => store.clustered_range_into(lower, *hi, want, seeker, out)?,
                };
                (read, None)
            }
            Resolved::Children { parent_in, label } => (
                store.parent_batch(*parent_in, resume, want, seeker, out)?,
                label.as_deref(),
            ),
            Resolved::TextEq { text } => (store.text_batch(text, resume, want, seeker, out)?, None),
            Resolved::Bound(slot) => {
                out.extend(slot.take());
                (out.len() - before, None)
            }
        };
        // Getting fewer entries than asked means the range is exhausted.
        // Resume after the last entry *read*, so tuples the label test
        // drops are not refetched forever.
        self.done = read < want;
        if read > 0 {
            self.resume = Some(out[out.len() - 1].in_);
        }
        if let Some(l) = label {
            let mut kept = before;
            for i in before..out.len() {
                if out[i].label() == Some(l) {
                    out.swap(kept, i);
                    kept += 1;
                }
            }
            out.truncate(kept);
        }
        Ok(())
    }
}

/// Runs a probe once per row of a left batch — the inner side of a probe
/// join — by one of two routes. The general one is a [`ProbeCursor`] per
/// row. Probes on a left column can instead share index reads across the
/// batch: [`BatchProbe::load`] prefetches them, in one of two kinds, and
/// hands each row its run of the prefetched tuples.
///
/// * *Label window* (merge probing): the label's index run over the whole
///   batch's document window. A row's run is the label tuples with
///   `row.in < t.in < row.out` (descendant probes), restricted to
///   `t.parent_in == row.in` for children probes — the sets the per-row
///   cursors produce (the label index holds only elements), in the same
///   document order.
/// * *Value runs*: for a text-equality probe, the matches of each distinct
///   text value of the batch, read once. A row whose source is not a text
///   node gets no run, so its cursor raises the non-text error at that
///   row, as before.
///
/// Either saves a B+-tree descent per row. An `Ext` source is constant
/// per execution, where the per-row cursor is already a single range scan.
/// All reads go through one seeker: left rows come in document order, so
/// per-row children and interval probes, and value runs read in value
/// order, are leaf-local seeks.
pub(crate) struct BatchProbe {
    probe: Probe,
    seeker: Seeker,
    /// The left column the probe reads, and how its batches prefetch.
    prefetch: Option<(usize, Prefetch)>,
    /// The current batch's prefetched tuples.
    fetched: Vec<NodeTuple>,
    /// Per row of the current batch, its run of `fetched`; `None`, or no
    /// entry at all, probes the row alone.
    runs: Vec<Option<Range<usize>>>,
    /// Accounts `fetched` against the governor's memory budget.
    reservation: MemReservation,
    /// The row in progress: its index in the batch, and where it reads
    /// from (`None` until its first `fill`).
    row: usize,
    current: Option<Candidates>,
}

/// The kinds of batch prefetch.
enum Prefetch {
    Label { label: String, children_only: bool },
    Values,
}

enum Candidates {
    /// A running index probe for this row alone.
    Cursor(ProbeCursor),
    /// The row's run of the prefetched tuples still to read.
    Run(Range<usize>),
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
        let label = |l: &String, children_only| Prefetch::Label {
            label: l.clone(),
            children_only,
        };
        let prefetch = match &probe {
            Probe::LabelChildrenOf(l, Src::Col(pos)) => Some((*pos, label(l, true))),
            Probe::LabelDescendantsOf(l, Src::Col(pos)) => Some((*pos, label(l, false))),
            Probe::TextEqOf(Src::Col(pos)) => Some((*pos, Prefetch::Values)),
            _ => None,
        };
        BatchProbe {
            probe,
            seeker: Seeker::default(),
            prefetch,
            fetched: Vec::new(),
            runs: Vec::new(),
            reservation: MemReservation::default(),
            row: 0,
            current: None,
        }
    }

    /// Forgets the batch and row in progress; later prefetches are
    /// accounted against `governor`.
    pub(crate) fn reset(&mut self, governor: &Governor) {
        (self.seeker, self.row, self.current) = (Seeker::default(), 0, None);
        (self.fetched, self.runs) = (Vec::new(), Vec::new());
        self.reservation = MemReservation::empty(governor);
    }

    /// Prepares for the rows of a new left batch: prefetches what its rows
    /// share, in chunks, so cancellation stays responsive. A single row
    /// (an exists check under `limit 1`) gets no prefetch: its cursor
    /// reads just the matches asked for. A prefetch the memory budget
    /// refuses is dropped and the batch probed per row — prefetching only
    /// saves descents, so budget pressure degrades it rather than failing
    /// the query.
    pub(crate) fn load(&mut self, ctx: &ExecContext<'_>, batch: &crate::RowBatch) -> Result<()> {
        let BatchProbe {
            seeker,
            prefetch,
            fetched,
            runs,
            reservation,
            ..
        } = self;
        (self.row, self.current) = (0, None);
        fetched.clear();
        runs.clear();
        reservation.release_all();
        let Some((pos, prefetch)) = prefetch.as_ref().filter(|_| batch.len() > 1) else {
            return Ok(());
        };
        let sources = batch.iter().map(|row| {
            row.get(*pos)
                .ok_or_else(|| Error::Xasr(format!("probe source column {pos} out of range")))
        });
        let sources: Vec<&NodeTuple> = sources.collect::<Result<_>>()?;
        let fits = match prefetch {
            Prefetch::Label { label, .. } => {
                // NULL left tuples (left-outer padding) have the empty
                // window (0, 0) and never match; keep them out of the
                // fetch window.
                let live = sources.iter().filter(|t| !t.is_null());
                let lo = live.clone().map(|t| t.in_).min().unwrap_or(0);
                let hi = live.map(|t| t.out).max().unwrap_or(0);
                let fits = read_chunks(ctx, reservation, fetched, lo < hi, |out, from| {
                    let from = from.unwrap_or(lo);
                    ctx.store
                        .label_range_into(label, Some(from), Some(hi), CHUNK, seeker, out)
                })?;
                runs.extend(sources.iter().map(|t| {
                    let start = fetched.partition_point(|w| w.in_ <= t.in_);
                    Some(start..fetched.partition_point(|w| w.in_ < t.out).max(start))
                }));
                fits
            }
            Prefetch::Values => {
                // Distinct values in index order: the seeks stay leaf-local.
                let mut values: BTreeMap<&str, Range<usize>> = sources
                    .iter()
                    .filter_map(|t| Some((t.text()?, 0..0)))
                    .collect();
                let mut fits = true;
                for (text, run) in values.iter_mut() {
                    let start = fetched.len();
                    fits = reservation.grow(text.len())
                        && read_chunks(ctx, reservation, fetched, true, |out, from| {
                            ctx.store.text_batch(text, from, CHUNK, seeker, out)
                        })?;
                    if !fits {
                        break;
                    }
                    *run = start..fetched.len();
                }
                runs.extend(sources.iter().map(|t| Some(values.get(t.text()?)?.clone())));
                fits
            }
        };
        if !fits {
            fetched.clear();
            runs.clear();
            reservation.release_all();
        }
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
            seeker,
            prefetch,
            fetched,
            runs,
            current,
            ..
        } = self;
        let current = match current {
            Some(current) => current,
            empty => empty.insert(match runs.get(self.row).cloned().flatten() {
                Some(run) => Candidates::Run(run),
                None => Candidates::Cursor(ProbeCursor::start(probe, Some(row), ctx)?),
            }),
        };
        let run = match current {
            Candidates::Cursor(cursor) => return cursor.fill(ctx, seeker, out, max),
            Candidates::Run(run) => run,
        };
        let parent = match prefetch {
            Some((pos, Prefetch::Label { children_only, .. })) if *children_only => {
                Some(row[*pos].in_)
            }
            _ => None,
        };
        let before = out.len();
        while out.len() - before < max {
            let Some(t) = run.next().map(|i| &fetched[i]) else {
                break;
            };
            if parent.map_or(true, |p| t.parent_in == p) {
                out.push(t.clone());
            }
        }
        Ok(out.len() - before)
    }

    /// Ends the row in progress: the next `fill` starts the next row's
    /// probe.
    pub(crate) fn next_row(&mut self) {
        self.row += 1;
        self.current = None;
    }
}

/// Appends one index run to `out`, [`CHUNK`] entries per `read` call
/// (which appends what it reads after `in` of the last tuple read, and
/// says how many), accounted against `reservation`; false when the budget
/// refuses a chunk.
fn read_chunks(
    ctx: &ExecContext<'_>,
    reservation: &mut MemReservation,
    out: &mut Vec<NodeTuple>,
    mut more: bool,
    mut read: impl FnMut(&mut Vec<NodeTuple>, Option<u64>) -> xmldb_xasr::Result<usize>,
) -> Result<bool> {
    let run_start = out.len();
    while more {
        ctx.governor.check()?;
        let before = out.len();
        let resume = (before > run_start).then(|| out[before - 1].in_);
        more = read(out, resume)? == CHUNK;
        if !reservation.grow(tuple_bytes(&out[before..])) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Leaf scan: a probe plus pushed-down selection conjuncts, producing
/// one-column rows.
pub struct ScanOp {
    probe: Probe,
    filter: Vec<PhysPred>,
    cursor: Option<ProbeCursor>,
    seeker: Seeker,
}

impl ScanOp {
    /// Creates a scan over `probe` with pushed-down `filter` conjuncts.
    pub fn new(probe: Probe, filter: Vec<PhysPred>) -> ScanOp {
        ScanOp {
            probe,
            filter,
            cursor: None,
            seeker: Seeker::default(),
        }
    }
}

impl Operator for ScanOp {
    fn open(&mut self, ctx: &ExecContext<'_>) -> Result<()> {
        self.cursor = Some(ProbeCursor::start(&self.probe, None, ctx)?);
        self.seeker = Seeker::default();
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
            if cursor.fill(ctx, &mut self.seeker, &mut tuples, max_rows - start)? == 0 {
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
