//! Sort and materialization operators.

use crate::exec::{ExecContext, Operator};
use crate::row::{decode_row, encode_row};
use crate::{Error, Result, RowBatch};
use xmldb_storage::heap::OwnedScan;
use xmldb_storage::{HeapWriter, SortedRecords};
use xmldb_xasr::NodeTuple;

/// Default sort memory budget (run-generation buffer).
const SORT_BUDGET: usize = 2 << 20;

/// Drains an opened `input`, handing every row to `sink` (the blocking
/// operators below consume their whole input in `open`). Checks the
/// governor per row: a sink spills or writes pages, so rows are not cheap here.
fn drain(
    input: &mut dyn Operator,
    ctx: &ExecContext<'_>,
    mut sink: impl FnMut(&[NodeTuple]) -> Result<()>,
) -> Result<()> {
    loop {
        let batch = input.next_batch(ctx, crate::BATCH_ROWS)?;
        if batch.is_empty() {
            return Ok(());
        }
        for row in batch.iter() {
            ctx.governor.check()?;
            sink(row)?;
        }
    }
}

/// The big-endian `in` values of `cols`: a byte-comparable sort key.
fn sort_key(row: &[NodeTuple], cols: &[usize], key: &mut Vec<u8>) {
    for &c in cols {
        key.extend_from_slice(&row[c].in_.to_be_bytes());
    }
}

/// External sort on the `in` values of key columns — approach (a) of the
/// ordering discussion: restore hierarchical document order after a
/// non-order-preserving plan (e.g. one using a block [`super::JoinOp`]).
pub struct SortOp {
    input: Box<dyn Operator>,
    key_cols: Vec<usize>,
    sorted: Option<SortedRecords>,
}

impl SortOp {
    /// Sorts `input` by the `in` values of `key_cols`.
    pub fn new(input: Box<dyn Operator>, key_cols: Vec<usize>) -> SortOp {
        SortOp {
            input,
            key_cols,
            sorted: None,
        }
    }
}

impl Operator for SortOp {
    fn open(&mut self, ctx: &ExecContext<'_>) -> Result<()> {
        self.input.open(ctx)?;
        // Records are prefixed with the fixed-width sort key so the sorter
        // can compare bytes directly.
        let key_width = self.key_cols.len() * 8;
        // The sorter accounts its buffer against the query's governor:
        // budget pressure forces early spills instead of unbounded growth.
        let mut sorter = xmldb_storage::ExternalSorter::with_governor(
            ctx.store.env(),
            SORT_BUDGET,
            ctx.governor.clone(),
            move |a, b| a[..key_width].cmp(&b[..key_width]),
        );
        let mut rec = Vec::new();
        drain(&mut *self.input, ctx, |row| {
            rec.clear();
            sort_key(row, &self.key_cols, &mut rec);
            encode_row(row, &mut rec);
            Ok(sorter.push(&rec)?)
        })?;
        self.input.close();
        self.sorted = Some(sorter.finish()?);
        Ok(())
    }

    fn next_batch(&mut self, _ctx: &ExecContext<'_>, max_rows: usize) -> Result<RowBatch> {
        let sorted = self
            .sorted
            .as_mut()
            .ok_or_else(|| Error::Xasr("sort not open".into()))?;
        let key_width = self.key_cols.len() * 8;
        let mut batch = RowBatch::default();
        while batch.len() < max_rows {
            let Some(rec) = sorted.next_record()? else {
                break;
            };
            batch.push_row_vec(decode_row(&rec[key_width..])?);
        }
        Ok(batch)
    }

    fn close(&mut self) {
        self.sorted = None;
    }

    fn name(&self) -> &'static str {
        "sort"
    }
}

/// Materializes its input into a scratch heap file on first open, then
/// streams from disk — including on re-opens, making any subtree cheaply
/// re-iterable (the milestone-3 "write to disk each intermediate result,
/// and re-read it whenever necessary as the input of a subsequent
/// operation").
pub struct MaterializeOp {
    input: Box<dyn Operator>,
    /// The materialized rows, streamed by a scan that each open rewinds.
    rows: Option<OwnedScan>,
}

impl MaterializeOp {
    /// Materializes `input` into a scratch file on first open.
    pub fn new(input: Box<dyn Operator>) -> MaterializeOp {
        MaterializeOp { input, rows: None }
    }
}

impl Operator for MaterializeOp {
    fn open(&mut self, ctx: &ExecContext<'_>) -> Result<()> {
        match &mut self.rows {
            Some(rows) => rows.rewind(),
            None => {
                let mut heap = HeapWriter::temp(ctx.store.env())?;
                self.input.open(ctx)?;
                let mut rec = Vec::new();
                drain(&mut *self.input, ctx, |row| {
                    rec.clear();
                    encode_row(row, &mut rec);
                    Ok(heap.append(&rec)?)
                })?;
                self.input.close();
                self.rows = Some(heap.finish()?.into_scan());
            }
        }
        Ok(())
    }

    fn next_batch(&mut self, _ctx: &ExecContext<'_>, max_rows: usize) -> Result<RowBatch> {
        let rows = self
            .rows
            .as_mut()
            .ok_or_else(|| Error::Xasr("materialize not open".into()))?;
        let mut batch = RowBatch::default();
        while batch.len() < max_rows {
            let Some(record) = rows.next_record()? else {
                break;
            };
            batch.push_row_vec(decode_row(record)?);
        }
        Ok(batch)
    }

    fn close(&mut self) {
        // Keep the heap: re-open streams it again without recompute. It is
        // dropped (and its scratch file deleted) with the operator.
        if let Some(rows) = &mut self.rows {
            rows.rewind();
        }
    }

    fn name(&self) -> &'static str {
        "materialize"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_all, Bindings};
    use crate::ops::{Probe, RowsOp, ScanOp};
    use crate::Row;
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

    fn fixture() -> (Env, xmldb_xasr::XasrStore) {
        let env = Env::memory();
        let store = shred_document(&env, "f", "<a><b/><c/></a>").unwrap();
        (env, store)
    }

    #[test]
    fn sort_restores_order() {
        let (_e, store) = fixture();
        let binds = Bindings::new();
        let ctx = ExecContext::new(&store, &binds);
        let rows = vec![
            vec![t(9), t(1)],
            vec![t(2), t(5)],
            vec![t(9), t(0)],
            vec![t(2), t(3)],
            vec![t(9), t(1)], // a duplicate row survives
        ];
        let mut op = SortOp::new(Box::new(RowsOp::new(rows)), vec![0, 1]);
        let out = execute_all(&mut op, &ctx).unwrap();
        let keys: Vec<(u64, u64)> = out.iter().map(|r| (r[0].in_, r[1].in_)).collect();
        assert_eq!(keys, vec![(2, 3), (2, 5), (9, 0), (9, 1), (9, 1)]);
    }

    #[test]
    fn sort_large_input_spills() {
        let (_e, store) = fixture();
        let binds = Bindings::new();
        let ctx = ExecContext::new(&store, &binds);
        let n = 20_000u64;
        let rows: Vec<Row> = (0..n).map(|i| vec![t((i * 7919 + 13) % n)]).collect();
        let mut op = SortOp::new(Box::new(RowsOp::new(rows)), vec![0]);
        let out = execute_all(&mut op, &ctx).unwrap();
        assert_eq!(out.len(), n as usize);
        assert!(out.windows(2).all(|w| w[0][0].in_ <= w[1][0].in_));
    }

    #[test]
    fn materialize_replays_without_recompute() {
        let (_e, store) = fixture();
        let binds = Bindings::with_root(&store).unwrap();
        let ctx = ExecContext::new(&store, &binds);
        let scan = ScanOp::new(Probe::Full, vec![]);
        let mut op = MaterializeOp::new(Box::new(scan));
        let first = execute_all(&mut op, &ctx).unwrap();
        assert_eq!(first.len(), 4); // root, a, b, c
                                    // Re-execution streams from the scratch file, same contents.
        let io_before = store.env().io_stats();
        let second = execute_all(&mut op, &ctx).unwrap();
        assert_eq!(first, second);
        let io_after = store.env().io_stats();
        // Replay touched pages (reads) but performed no fresh index scans —
        // at minimum it did not grow the store; just sanity-check it read
        // something through the pool.
        assert!(io_after.requests() >= io_before.requests());
    }

    #[test]
    fn materialize_empty_input() {
        let (_e, store) = fixture();
        let binds = Bindings::new();
        let ctx = ExecContext::new(&store, &binds);
        let mut op = MaterializeOp::new(Box::new(RowsOp::new(vec![])));
        assert!(execute_all(&mut op, &ctx).unwrap().is_empty());
        assert!(execute_all(&mut op, &ctx).unwrap().is_empty());
    }

    #[test]
    fn sort_empty_input() {
        let (_e, store) = fixture();
        let binds = Bindings::new();
        let ctx = ExecContext::new(&store, &binds);
        let mut op = SortOp::new(Box::new(RowsOp::new(vec![])), vec![0]);
        assert!(execute_all(&mut op, &ctx).unwrap().is_empty());
    }

    #[test]
    fn sort_under_memory_budget_spills_and_completes() {
        use xmldb_storage::Governor;
        let (_e, store) = fixture();
        let binds = Bindings::new();
        // A budget far below the rows' footprint: the sort must spill to
        // disk and still produce the full ordered output — never an error.
        let gov = Governor::with_limits(None, Some(4096));
        let ctx = ExecContext::with_governor(&store, &binds, gov.clone());
        let n = 2000u64;
        let rows: Vec<Row> = (0..n).map(|i| vec![t((i * 7919 + 13) % n)]).collect();
        let mut op = SortOp::new(Box::new(RowsOp::new(rows)), vec![0]);
        let out = execute_all(&mut op, &ctx).unwrap();
        assert_eq!(out.len(), n as usize);
        assert!(out.windows(2).all(|w| w[0][0].in_ <= w[1][0].in_));
        let snap = gov.snapshot();
        assert!(snap.spill_count > 0, "budget pressure must have spilled");
        assert!(snap.peak_bytes <= 4096, "peak {}", snap.peak_bytes);
        assert_eq!(gov.mem_used(), 0, "reservations released after close");
    }

    #[test]
    fn cancellation_mid_sort_leaves_no_temp_files() {
        use xmldb_storage::Governor;
        let (env, store) = fixture();
        let binds = Bindings::new();
        // Small budget: runs spill to disk before the scripted cancellation
        // fires, so the test proves spill files are cleaned up on unwind.
        let gov = Governor::with_limits(None, Some(2048));
        gov.trip_cancel_after_checks(300);
        let ctx = ExecContext::with_governor(&store, &binds, gov.clone());
        let rows: Vec<Row> = (0..500u64).map(|i| vec![t(i)]).collect();
        let mut op = SortOp::new(Box::new(RowsOp::new(rows)), vec![0]);
        let err = execute_all(&mut op, &ctx).unwrap_err();
        assert!(
            matches!(err, Error::Storage(xmldb_storage::StorageError::Cancelled)),
            "{err}"
        );
        assert!(
            gov.snapshot().spill_count > 0,
            "test must cancel after spills happened"
        );
        drop(op);
        assert!(
            env.temp_files().is_empty(),
            "spill files leaked: {:?}",
            env.temp_files()
        );
        assert_eq!(env.pinned_frames(), 0);
    }

    #[test]
    fn cancellation_mid_materialize_cleans_up() {
        use xmldb_storage::Governor;
        let (env, store) = fixture();
        let binds = Bindings::new();
        let gov = Governor::unlimited();
        gov.trip_cancel_after_checks(10);
        let ctx = ExecContext::with_governor(&store, &binds, gov);
        let rows: Vec<Row> = (0..100u64).map(|i| vec![t(i)]).collect();
        let mut op = MaterializeOp::new(Box::new(RowsOp::new(rows)));
        assert!(execute_all(&mut op, &ctx).is_err());
        drop(op);
        assert!(env.temp_files().is_empty());
        assert_eq!(env.pinned_frames(), 0);
    }
}
