//! Batch-at-a-time row containers.
//!
//! A [`RowBatch`] holds up to a few thousand rows of a fixed width in one
//! flat allocation, row-major. Operators exchange nothing else: a `Vec`
//! allocation, a virtual call and a governor check are paid once per
//! ~[`BATCH_ROWS`] rows instead of once per row.

use xmldb_xasr::NodeTuple;

/// Default number of rows an operator produces per `next_batch` call.
/// Large enough to amortize per-batch costs (B+-tree descents, virtual
/// dispatch, governor checks), small enough that a batch of widest rows
/// stays cache- and budget-friendly.
pub const BATCH_ROWS: usize = 1024;

/// A column-width-`width` batch of rows stored row-major in one flat
/// `Vec<NodeTuple>`. Width 0 is legal (singleton/nullary rows): the row
/// count is tracked separately from the tuple storage. An empty batch
/// adopts the width of the first row pushed, so operators that only learn
/// their row width from their input start from [`RowBatch::default`].
#[derive(Debug, Clone, Default)]
pub struct RowBatch {
    width: usize,
    rows: usize,
    tuples: Vec<NodeTuple>,
}

impl RowBatch {
    /// An empty batch with storage pre-sized for `rows` rows.
    pub fn with_capacity(width: usize, rows: usize) -> RowBatch {
        RowBatch {
            width,
            rows: 0,
            tuples: Vec::with_capacity(width * rows),
        }
    }

    /// Wraps a vector of tuples as a width-1 batch without copying (the
    /// leaf-scan fast path).
    pub fn from_tuples(tuples: Vec<NodeTuple>) -> RowBatch {
        RowBatch {
            width: 1,
            rows: tuples.len(),
            tuples,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Drops all rows, keeping the allocation.
    pub fn clear(&mut self) {
        self.rows = 0;
        self.tuples.clear();
    }

    /// Counts one more row of `width` columns, fixing the batch's width if
    /// this is its first row.
    fn add_row(&mut self, width: usize) {
        if self.rows == 0 {
            self.width = width;
        }
        debug_assert_eq!(width, self.width);
        self.rows += 1;
    }

    /// Appends a row given as a slice (clones the tuples).
    pub fn push_row(&mut self, row: &[NodeTuple]) {
        self.tuples.extend_from_slice(row);
        self.add_row(row.len());
    }

    /// Appends a row by value (moves the tuples; decoded spill records).
    pub fn push_row_vec(&mut self, row: Vec<NodeTuple>) {
        self.add_row(row.len());
        self.tuples.extend(row);
    }

    /// Appends a row formed by a prefix slice plus one joined tuple,
    /// without building an intermediate `Vec` (the probe-join fast path).
    pub fn push_joined(&mut self, left: &[NodeTuple], right: NodeTuple) {
        self.tuples.extend_from_slice(left);
        self.tuples.push(right);
        self.add_row(left.len() + 1);
    }

    /// Appends the concatenation of two row slices (the nested-loops join
    /// path).
    pub fn push_concat(&mut self, left: &[NodeTuple], right: &[NodeTuple]) {
        self.tuples.extend_from_slice(left);
        self.tuples.extend_from_slice(right);
        self.add_row(left.len() + right.len());
    }

    /// Row `i` as a tuple slice.
    pub fn row(&self, i: usize) -> &[NodeTuple] {
        debug_assert!(i < self.rows);
        if self.width == 0 {
            &[]
        } else {
            &self.tuples[i * self.width..(i + 1) * self.width]
        }
    }

    /// Iterates rows as tuple slices. Width-0 rows yield empty slices.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeTuple]> + '_ {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// Keeps only rows for which `keep` returns true, in place, preserving
    /// order. `keep` may fail (strict text comparisons raise); the first
    /// error aborts and leaves the batch in an unspecified but valid state.
    pub fn retain_rows<E>(
        &mut self,
        mut keep: impl FnMut(&[NodeTuple]) -> std::result::Result<bool, E>,
    ) -> std::result::Result<(), E> {
        if self.width == 0 {
            // Nullary rows: count survivors.
            let mut kept = 0;
            for _ in 0..self.rows {
                if keep(&[])? {
                    kept += 1;
                }
            }
            self.rows = kept;
            return Ok(());
        }
        let w = self.width;
        let mut write = 0; // next row slot to fill
        for read in 0..self.rows {
            let row = &self.tuples[read * w..(read + 1) * w];
            if keep(row)? {
                if write != read {
                    for c in 0..w {
                        self.tuples.swap(write * w + c, read * w + c);
                    }
                }
                write += 1;
            }
        }
        self.tuples.truncate(write * w);
        self.rows = write;
        Ok(())
    }

    /// Number of columns per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Columns `cols` of the rows `keep` accepts, as a new batch. Tuples
    /// move out of this one; only a column that `cols` names again is
    /// cloned.
    pub fn project(
        mut self,
        cols: &[usize],
        mut keep: impl FnMut(&[NodeTuple]) -> bool,
    ) -> RowBatch {
        let w = self.width;
        let mut out = RowBatch::with_capacity(cols.len(), self.rows);
        for r in 0..self.rows {
            let row = &mut self.tuples[r * w..(r + 1) * w];
            if !keep(row) {
                continue;
            }
            for (j, &c) in cols.iter().enumerate() {
                out.tuples.push(if cols[j + 1..].contains(&c) {
                    row[c].clone()
                } else {
                    std::mem::replace(&mut row[c], NodeTuple::null())
                });
            }
            out.add_row(cols.len());
        }
        out
    }

    /// Moves all rows out as owned `Vec` rows (for [`crate::execute_all`]).
    pub fn take_rows(&mut self) -> Vec<Vec<NodeTuple>> {
        let w = self.width;
        let rows = self.rows;
        self.rows = 0;
        if w == 0 {
            return (0..rows).map(|_| Vec::new()).collect();
        }
        let mut out = Vec::with_capacity(rows);
        let mut it = std::mem::take(&mut self.tuples).into_iter();
        for _ in 0..rows {
            out.push(it.by_ref().take(w).collect());
        }
        out
    }

    /// Approximate heap footprint in bytes, for governor accounting.
    pub fn bytes(&self) -> u64 {
        let mut total = (self.tuples.capacity() * std::mem::size_of::<NodeTuple>()) as u64;
        for t in &self.tuples {
            if let Some(v) = &t.value {
                total += v.capacity() as u64;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmldb_xasr::NodeType;

    fn tuple(in_: u64) -> NodeTuple {
        NodeTuple {
            in_,
            out: in_ + 1,
            parent_in: 0,
            kind: NodeType::Element,
            value: Some(format!("e{in_}")),
        }
    }

    #[test]
    fn push_and_iterate() {
        let mut b = RowBatch::default();
        b.push_row(&[tuple(1), tuple(3)]);
        b.push_joined(&[tuple(5)], tuple(7));
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(0)[1].in_, 3);
        assert_eq!(b.row(1), &[tuple(5), tuple(7)][..]);
        let ins: Vec<u64> = b.iter().map(|r| r[0].in_).collect();
        assert_eq!(ins, vec![1, 5]);
    }

    #[test]
    fn retain_preserves_order() {
        let mut b = RowBatch::default();
        for i in 1..=9 {
            b.push_row(&[tuple(i)]);
        }
        b.retain_rows(|r| Ok::<bool, ()>(r[0].in_ % 2 == 0))
            .unwrap();
        let ins: Vec<u64> = b.iter().map(|r| r[0].in_).collect();
        assert_eq!(ins, vec![2, 4, 6, 8]);
    }

    #[test]
    fn width_zero_rows() {
        let mut b = RowBatch::default();
        b.push_row(&[]);
        b.push_row(&[]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(1), &[] as &[NodeTuple]);
        b.retain_rows(|_| Ok::<bool, ()>(true)).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.take_rows(), vec![Vec::new(), Vec::new()]);
    }

    #[test]
    fn project_moves_and_repeats_columns() {
        let mut b = RowBatch::default();
        b.push_row(&[tuple(1), tuple(2), tuple(3)]);
        b.push_row(&[tuple(4), tuple(5), tuple(6)]);
        b.push_row(&[tuple(7), tuple(8), tuple(9)]);
        let mut p = b.project(&[2, 0, 2], |row| row[1].in_ != 5);
        assert_eq!(p.width(), 3);
        assert_eq!(
            p.take_rows(),
            vec![
                vec![tuple(3), tuple(1), tuple(3)],
                vec![tuple(9), tuple(7), tuple(9)]
            ]
        );
    }

    #[test]
    fn take_rows_roundtrip() {
        let mut b = RowBatch::default();
        b.push_row(&[tuple(1), tuple(2)]);
        b.push_row(&[tuple(3), tuple(4)]);
        assert_eq!(
            b.take_rows(),
            vec![vec![tuple(1), tuple(2)], vec![tuple(3), tuple(4)]]
        );
        assert!(b.is_empty());
    }
}
