//! B+-tree node pages: the slotted layout (format v2) and zero-copy views.
//!
//! ## Page layout (format v2)
//!
//! ```text
//! offset  size       field
//! 0       1          format byte: FORMAT_V2 (0xB2)
//! 1       1          node type: TYPE_LEAF | TYPE_INTERNAL
//! 2       2          cell count (u16 LE)
//! 4       8          extra (u64 LE): leaf → right sibling, internal →
//!                    leftmost child
//! 12      2·n        slot directory: u16 LE byte offset of cell i
//! …                  cells, packed in slot order
//! ```
//!
//! Leaf cell: `flags u8 | key_len u16 | val_len u32 | key | value`, where
//! `flags & 1` marks an overflow value (`value` is then `page u64 |
//! len u32`). Internal cell: `key_len u16 | child u64 | key`.
//!
//! The slot directory is what makes the read path zero-copy: a key can be
//! binary-searched *in place* against the page bytes by chasing
//! slot offsets, so point lookups and descent steps materialize nothing.
//! [`LeafView`] / [`InternalView`] wrap a `&[u8]` page with exactly that
//! access pattern; the bulk builder writes each page once, from cells it
//! appended back to back ([`put_leaf_cell`], [`write_leaf`]) or from an
//! internal node's `(key, child)` list ([`write_internal`]).
//!
//! Format v1 (the pre-slotted layout, no version byte: byte 0 held the
//! node type) is deliberately *not* readable — v1 pages are rejected with
//! a clear [`StorageError::Corrupt`] instead of a garbage decode.

use crate::error::StorageError;
use crate::Result;

/// Format byte of slotted node pages. v1 pages began with the node type
/// (1 or 2), so any v2 value must avoid that range; `0xB2` reads as
/// "saardb, layout 2".
pub(crate) const FORMAT_V2: u8 = 0xB2;
pub(crate) const TYPE_LEAF: u8 = 1;
pub(crate) const TYPE_INTERNAL: u8 = 2;
/// Fixed node-page header size (before the slot directory).
pub(crate) const NODE_HEADER: usize = 12;
/// Per-cell slot-directory entry size.
pub(crate) const SLOT_SIZE: usize = 2;
/// "No right sibling" sentinel for a leaf's `extra` field.
pub(crate) const NO_SIBLING: u64 = u64::MAX;

const OFF_TYPE: usize = 1;
const OFF_NKEYS: usize = 2;
const OFF_EXTRA: usize = 4;

/// A leaf value: small values inline, large ones in an overflow chain.
#[derive(Debug, Clone)]
pub(crate) enum LeafVal {
    Inline(Vec<u8>),
    Overflow { page: u64, len: u32 },
}

/// A borrowed leaf value, pointing into page bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ValueRef<'a> {
    Inline(&'a [u8]),
    Overflow { page: u64, len: u32 },
}

impl ValueRef<'_> {
    /// Copies the referenced value out of the page (the one allocation a
    /// returned row pays).
    pub(crate) fn to_leaf_val(self) -> LeafVal {
        match self {
            ValueRef::Inline(bytes) => LeafVal::Inline(bytes.to_vec()),
            ValueRef::Overflow { page, len } => LeafVal::Overflow { page, len },
        }
    }
}

/// Validates the v2 header, returning `(type, nkeys, extra)`.
fn parse_header(data: &[u8]) -> Result<(u8, usize, u64)> {
    match data[0] {
        FORMAT_V2 => {}
        TYPE_LEAF | TYPE_INTERNAL => {
            // A v1 page: byte 0 held the node type directly.
            return Err(StorageError::corrupt("page format v1, expected v2"));
        }
        other => {
            return Err(StorageError::corrupt(format!(
                "unknown page format {other:#04x}, expected v2"
            )));
        }
    }
    let node_type = data[OFF_TYPE];
    if node_type != TYPE_LEAF && node_type != TYPE_INTERNAL {
        return Err(StorageError::corrupt(format!(
            "unknown btree node type {node_type}"
        )));
    }
    let nkeys = u16::from_le_bytes([data[OFF_NKEYS], data[OFF_NKEYS + 1]]) as usize;
    let extra = u64::from_le_bytes(data[OFF_EXTRA..OFF_EXTRA + 8].try_into().unwrap());
    Ok((node_type, nkeys, extra))
}

#[inline]
fn slot(data: &[u8], i: usize) -> usize {
    let off = NODE_HEADER + SLOT_SIZE * i;
    u16::from_le_bytes([data[off], data[off + 1]]) as usize
}

/// A zero-copy view of a node page: either kind, parsed from the header.
#[derive(Debug)]
pub(crate) enum NodeView<'a> {
    Leaf(LeafView<'a>),
    Internal(InternalView<'a>),
}

impl<'a> NodeView<'a> {
    /// Wraps page bytes, validating the format header only — cells
    /// are decoded lazily, per slot access.
    pub(crate) fn parse(data: &'a [u8]) -> Result<NodeView<'a>> {
        let (node_type, nkeys, extra) = parse_header(data)?;
        Ok(match node_type {
            TYPE_LEAF => NodeView::Leaf(LeafView { data, nkeys, extra }),
            _ => NodeView::Internal(InternalView { data, nkeys, extra }),
        })
    }
}

/// Zero-copy view of a leaf page.
#[derive(Debug)]
pub(crate) struct LeafView<'a> {
    data: &'a [u8],
    nkeys: usize,
    extra: u64,
}

impl<'a> LeafView<'a> {
    pub(crate) fn nkeys(&self) -> usize {
        self.nkeys
    }

    /// Right sibling page, or [`NO_SIBLING`].
    pub(crate) fn next_leaf(&self) -> u64 {
        self.extra
    }

    /// Key of cell `i`, in place.
    pub(crate) fn key(&self, i: usize) -> &'a [u8] {
        leaf_cell_key(&self.data[slot(self.data, i)..])
    }

    /// Key and value of cell `i`, decoding the cell header once.
    pub(crate) fn cell(&self, i: usize) -> (&'a [u8], ValueRef<'a>) {
        let off = slot(self.data, i);
        let flags = self.data[off];
        let key_len = u16::from_le_bytes([self.data[off + 1], self.data[off + 2]]) as usize;
        let val_len = u32::from_le_bytes(self.data[off + 3..off + 7].try_into().unwrap());
        let val_off = off + 7 + key_len;
        let key = &self.data[off + 7..val_off];
        let val = if flags & 1 != 0 {
            ValueRef::Overflow {
                page: u64::from_le_bytes(self.data[val_off..val_off + 8].try_into().unwrap()),
                len: u32::from_le_bytes(self.data[val_off + 8..val_off + 12].try_into().unwrap()),
            }
        } else {
            ValueRef::Inline(&self.data[val_off..val_off + val_len as usize])
        };
        (key, val)
    }

    /// Value of cell `i`, in place (inline) or as an overflow pointer.
    pub(crate) fn value(&self, i: usize) -> ValueRef<'a> {
        let off = slot(self.data, i);
        let flags = self.data[off];
        let key_len = u16::from_le_bytes([self.data[off + 1], self.data[off + 2]]) as usize;
        let val_len = u32::from_le_bytes(self.data[off + 3..off + 7].try_into().unwrap());
        let val_off = off + 7 + key_len;
        if flags & 1 != 0 {
            ValueRef::Overflow {
                page: u64::from_le_bytes(self.data[val_off..val_off + 8].try_into().unwrap()),
                len: u32::from_le_bytes(self.data[val_off + 8..val_off + 12].try_into().unwrap()),
            }
        } else {
            ValueRef::Inline(&self.data[val_off..val_off + val_len as usize])
        }
    }

    /// In-place binary search for `key` over the slot directory: `Ok(i)`
    /// when cell `i` holds it, `Err(i)` for its insertion point.
    pub(crate) fn search(&self, key: &[u8]) -> std::result::Result<usize, usize> {
        binary_search(self.nkeys, key, |i| self.key(i))
    }
}

/// Zero-copy view of an internal page.
#[derive(Debug)]
pub(crate) struct InternalView<'a> {
    data: &'a [u8],
    nkeys: usize,
    extra: u64,
}

impl<'a> InternalView<'a> {
    /// Leftmost child page.
    pub(crate) fn leftmost(&self) -> u64 {
        self.extra
    }

    /// Separator key of cell `i`, in place.
    pub(crate) fn key(&self, i: usize) -> &'a [u8] {
        let off = slot(self.data, i);
        let key_len = u16::from_le_bytes([self.data[off], self.data[off + 1]]) as usize;
        &self.data[off + 10..off + 10 + key_len]
    }

    /// Child pointer of cell `i`.
    pub(crate) fn child(&self, i: usize) -> u64 {
        let off = slot(self.data, i);
        u64::from_le_bytes(self.data[off + 2..off + 10].try_into().unwrap())
    }

    /// Child page for `key`: the rightmost cell with `key_i ≤ key`, else
    /// the leftmost child. One in-place binary search.
    pub(crate) fn child_for(&self, key: &[u8]) -> u64 {
        match binary_search(self.nkeys, key, |i| self.key(i)) {
            Ok(i) => self.child(i),
            Err(0) => self.extra,
            Err(i) => self.child(i - 1),
        }
    }
}

/// Binary search over `n` sorted keys addressed by `key_at`.
fn binary_search<'a>(
    n: usize,
    needle: &[u8],
    key_at: impl Fn(usize) -> &'a [u8],
) -> std::result::Result<usize, usize> {
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match key_at(mid).cmp(needle) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

// --- serialize (build path) ---------------------------------------------

/// Serialized size of a leaf cell, including its slot-directory entry.
pub(crate) fn leaf_cell_size(key: &[u8], val: ValueRef<'_>) -> usize {
    SLOT_SIZE
        + 7
        + key.len()
        + match val {
            ValueRef::Inline(v) => v.len(),
            ValueRef::Overflow { .. } => 12,
        }
}

/// Serialized size of an internal cell, including its slot entry.
pub(crate) fn internal_cell_size(key: &[u8]) -> usize {
    SLOT_SIZE + 10 + key.len()
}

/// Appends the leaf cell `key → val` to `cells`.
pub(crate) fn put_leaf_cell(cells: &mut Vec<u8>, key: &[u8], val: ValueRef<'_>) {
    let (flags, val_len) = match val {
        ValueRef::Inline(v) => (0u8, v.len() as u32),
        ValueRef::Overflow { len, .. } => (1u8, len),
    };
    cells.push(flags);
    cells.extend_from_slice(&(key.len() as u16).to_le_bytes());
    cells.extend_from_slice(&val_len.to_le_bytes());
    cells.extend_from_slice(key);
    match val {
        ValueRef::Inline(v) => cells.extend_from_slice(v),
        ValueRef::Overflow { page, len } => {
            cells.extend_from_slice(&page.to_le_bytes());
            cells.extend_from_slice(&len.to_le_bytes());
        }
    }
}

/// Key of the leaf cell that `cell` starts with.
pub(crate) fn leaf_cell_key(cell: &[u8]) -> &[u8] {
    let key_len = u16::from_le_bytes([cell[1], cell[2]]) as usize;
    &cell[7..7 + key_len]
}

/// Writes a leaf page with right sibling `next_leaf`. `cells` holds the
/// cells back to back, as [`put_leaf_cell`] appends them, and `ends`
/// where each one ends.
pub(crate) fn write_leaf(data: &mut [u8], next_leaf: u64, cells: &[u8], ends: &[usize]) {
    write_header(data, TYPE_LEAF, ends.len(), next_leaf);
    let base = NODE_HEADER + SLOT_SIZE * ends.len();
    let starts = std::iter::once(0).chain(ends.iter().copied());
    for (i, start) in starts.take(ends.len()).enumerate() {
        let so = NODE_HEADER + SLOT_SIZE * i;
        data[so..so + 2].copy_from_slice(&((base + start) as u16).to_le_bytes());
    }
    data[base..base + cells.len()].copy_from_slice(cells);
}

/// Writes an internal page: `leftmost` child, then sorted `(key, child)`
/// cells; keys ≥ `key_i` and < `key_{i+1}` live under `child_i`.
pub(crate) fn write_internal(data: &mut [u8], leftmost: u64, cells: &[(Vec<u8>, u64)]) {
    write_header(data, TYPE_INTERNAL, cells.len(), leftmost);
    let mut pos = NODE_HEADER + SLOT_SIZE * cells.len();
    for (i, (key, child)) in cells.iter().enumerate() {
        let so = NODE_HEADER + SLOT_SIZE * i;
        data[so..so + 2].copy_from_slice(&(pos as u16).to_le_bytes());
        data[pos..pos + 2].copy_from_slice(&(key.len() as u16).to_le_bytes());
        data[pos + 2..pos + 10].copy_from_slice(&child.to_le_bytes());
        pos += 10;
        data[pos..pos + key.len()].copy_from_slice(key);
        pos += key.len();
    }
}

fn write_header(data: &mut [u8], node_type: u8, nkeys: usize, extra: u64) {
    data[0] = FORMAT_V2;
    data[OFF_TYPE] = node_type;
    data[OFF_NKEYS..OFF_NKEYS + 2].copy_from_slice(&(nkeys as u16).to_le_bytes());
    data[OFF_EXTRA..OFF_EXTRA + 8].copy_from_slice(&extra.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: usize = 512;

    /// A leaf with right sibling 77 and three cells.
    fn leaf_page() -> Vec<u8> {
        let (mut cells, mut ends) = (Vec::new(), Vec::new());
        for (key, val) in [
            (&b"alpha"[..], ValueRef::Inline(b"1")),
            (b"beta", ValueRef::Overflow { page: 9, len: 4000 }),
            (b"gamma", ValueRef::Inline(&[])),
        ] {
            put_leaf_cell(&mut cells, key, val);
            ends.push(cells.len());
        }
        let mut page = vec![0u8; PAGE];
        write_leaf(&mut page, 77, &cells, &ends);
        page
    }

    #[test]
    fn leaf_roundtrip_via_view() {
        let page = leaf_page();
        let NodeView::Leaf(view) = NodeView::parse(&page).unwrap() else {
            panic!("expected leaf view");
        };
        assert_eq!(view.nkeys(), 3);
        assert_eq!(view.next_leaf(), 77);
        assert_eq!(view.key(0), b"alpha");
        assert_eq!(view.key(2), b"gamma");
        assert!(matches!(view.value(0), ValueRef::Inline(b"1")));
        assert!(matches!(
            view.value(1),
            ValueRef::Overflow { page: 9, len: 4000 }
        ));
        assert!(matches!(view.value(2), ValueRef::Inline(&[])));
        assert_eq!(view.search(b"beta"), Ok(1));
        assert_eq!(view.search(b"b"), Err(1));
        assert_eq!(view.search(b"zzz"), Err(3));
        assert_eq!(view.search(b""), Err(0));
    }

    #[test]
    fn internal_roundtrip_and_child_for() {
        let cells = [
            (b"f".to_vec(), 101),
            (b"m".to_vec(), 102),
            (b"t".to_vec(), 103),
        ];
        let mut page = vec![0u8; PAGE];
        write_internal(&mut page, 100, &cells);
        let NodeView::Internal(view) = NodeView::parse(&page).unwrap() else {
            panic!("expected internal view");
        };
        assert_eq!(view.leftmost(), 100);
        assert_eq!(view.child_for(b"a"), 100);
        assert_eq!(view.child_for(b"f"), 101);
        assert_eq!(view.child_for(b"g"), 101);
        assert_eq!(view.child_for(b"m"), 102);
        assert_eq!(view.child_for(b"z"), 103);
        assert_eq!((view.key(1), view.child(1)), (&b"m"[..], 102));
    }

    #[test]
    fn v1_pages_rejected_with_clear_error() {
        // A v1 page began with the node type byte directly.
        for type_byte in [TYPE_LEAF, TYPE_INTERNAL] {
            let mut page = vec![0u8; PAGE];
            page[0] = type_byte;
            let err = NodeView::parse(&page).unwrap_err();
            assert!(
                matches!(&err, StorageError::Corrupt(m) if m.contains("page format v1, expected v2")),
                "unexpected error: {err}"
            );
        }
    }

    #[test]
    fn unknown_format_rejected() {
        let page = vec![0u8; PAGE]; // zeroed page: format byte 0
        let err = NodeView::parse(&page).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(m) if m.contains("unknown page format")),
            "unexpected error: {err}"
        );
    }
}
