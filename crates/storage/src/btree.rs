//! B+-trees over byte-string keys, with range cursors, bulk loading and
//! overflow pages for large values.
//!
//! The XASR layer builds its clustered index (on `in`) and its secondary
//! indexes (on `(label, in)` and `(parent_in, in)`) from this structure;
//! milestone-4 physical operators (index-based selection, index
//! nested-loops join) are range scans over it.
//!
//! ## Design notes
//!
//! * A tree is built once from sorted, borrowed entries ([`BTree::builder`])
//!   and then only read: each page is appended once, in page order, through
//!   a [`PageAppender`], never through the buffer pool.
//! * Pages use the slotted layout of [`crate::node`] (format v2): a
//!   cell-offset directory lets the read path binary-search keys *in
//!   place* against the page bytes. `get`, `contains` and cursor descent
//!   run on [`crate::node::NodeView`]s and allocate only for rows actually
//!   returned.
//! * A [`Cursor`] holds its current leaf's page (a shared handle from the
//!   pool, see [`Env::page`]) and a slot index across `next()` calls. The
//!   page never changes, so the pool may evict its frame meanwhile; the
//!   cursor copies out only the rows it returns.
//! * Visitor scans are [`Seeker`] scans: zero-copy over the leaves, and a
//!   seeker remembers its last leaf, so scans in key order seek
//!   leaf-locally.
//! * Keys must compare lexicographically ([`crate::codec`] provides
//!   order-preserving encodings) and are unique.
//! * Values up to an eighth of a page are stored inline; larger values go
//!   to a chain of overflow pages (XASR `value` columns hold whole text
//!   nodes, which in TREEBANK-like data can be long).
//! * Leaves and internal nodes fill to 90 %, and page 1 is an empty leaf
//!   that no pointer reaches: both are the layout of the insert-capable
//!   trees this builder replaced, kept so that files stay byte-identical.
//!   A format change may drop them.
//! * Updates in the course project were deliberately "as simple as
//!   possible": a changed document is shredded again into new files.
//!
//! ```
//! use xmldb_storage::{BTree, Env};
//! let env = Env::memory();
//! let file = env.create_file("idx").unwrap();
//! let entries = vec![(b"journal".to_vec(), b"value".to_vec())];
//! let tree = BTree::build_in(&env, file, entries).unwrap();
//! assert_eq!(tree.get(b"journal").unwrap(), Some(b"value".to_vec()));
//! ```

use crate::append::PageAppender;
use crate::env::{Env, FileId};
use crate::error::StorageError;
use crate::node::{
    internal_cell_size, leaf_cell_key, leaf_cell_size, put_leaf_cell, write_internal, write_leaf,
    LeafVal, NodeView, ValueRef, NODE_HEADER, NO_SIBLING, SLOT_SIZE,
};
use crate::page::PageId;
use crate::Result;
use std::ops::Bound;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"SABT";
const META_ROOT: usize = 4;
const META_COUNT: usize = 12;
const META_HEIGHT: usize = 20;

/// A B+-tree. See module docs.
pub struct BTree {
    env: Env,
    file: FileId,
    root: PageId,
    height: u32,
    count: u64,
}

/// One zero-copy descent step, computed entirely inside the page closure.
enum Step<T> {
    Descend(u64),
    Leaf(T),
}

impl BTree {
    // --- lifecycle ------------------------------------------------------------

    /// Builds a tree in the new, empty `file` from strictly ascending
    /// `(key, value)` pairs, writing each page once (see the module docs
    /// for the layout): [`BTree::builder`] with every pair pushed.
    ///
    /// # Errors
    /// As [`BTreeBuilder::push`] and [`BTreeBuilder::finish`].
    pub fn build_in<I, K, V>(env: &Env, file: FileId, entries: I) -> Result<BTree>
    where
        I: IntoIterator<Item = (K, V)>,
        K: AsRef<[u8]>,
        V: AsRef<[u8]>,
    {
        let mut builder = BTree::builder(env, file)?;
        for (key, value) in entries {
            builder.push(key.as_ref(), value.as_ref())?;
        }
        builder.finish()
    }

    /// Starts a tree in the new, empty `file`; entries are pushed in
    /// strictly ascending key order and copied into pages as they come.
    ///
    /// # Errors
    /// Whatever [`Env::appender`] refuses.
    pub fn builder(env: &Env, file: FileId) -> Result<BTreeBuilder> {
        let mut b = BTreeBuilder {
            app: env.appender(file)?,
            // A leaf's cells never outgrow a page.
            cells: Vec::with_capacity(env.page_size()),
            ends: Vec::new(),
            prev: None,
            prev_cells: Vec::with_capacity(env.page_size()),
            prev_ends: Vec::new(),
            leaf_index: Vec::new(),
            count: 0,
        };
        // Page 0 is the meta page, patched last; page 1 the unreachable
        // empty leaf (see the module docs).
        b.app.append()?;
        write_leaf(b.app.page(), NO_SIBLING, &[], &[]);
        b.app.append()?;
        Ok(b)
    }

    /// Opens an existing tree by file name.
    pub fn open(env: &Env, name: &str) -> Result<BTree> {
        Self::open_in(env, env.open_file(name)?)
    }

    /// Opens the existing tree in an open file (see [`Env::pin_files`]).
    pub fn open_in(env: &Env, file: FileId) -> Result<BTree> {
        let data = env.page(file, PageId(0))?;
        if &data[..4] != MAGIC {
            return Err(StorageError::corrupt(format!("{file}: bad btree magic")));
        }
        Ok(BTree {
            env: env.clone(),
            file,
            root: PageId(u64::from_le_bytes(
                data[META_ROOT..META_ROOT + 8].try_into().unwrap(),
            )),
            height: u32::from_le_bytes(data[META_HEIGHT..META_HEIGHT + 4].try_into().unwrap()),
            count: u64::from_le_bytes(data[META_COUNT..META_COUNT + 8].try_into().unwrap()),
        })
    }

    /// The underlying file id.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Largest permitted key for this page size. An eighth of a page still
    /// guarantees at least three cells per node in the worst case (max key
    /// + max inline value).
    pub fn max_key(&self) -> usize {
        self.env.page_size() / 8
    }

    /// Runs one descent step against the page bytes: internal nodes
    /// resolve the child pointer in place, leaves are handed to `at_leaf`.
    fn view_step<T>(
        &self,
        page: PageId,
        key: &[u8],
        at_leaf: impl FnOnce(&crate::node::LeafView<'_>) -> T,
    ) -> Result<Step<T>> {
        let stats = self.env.counters();
        let data = self.env.page(self.file, page)?;
        stats.note_node_view();
        stats.note_in_place_search();
        match NodeView::parse(&data)? {
            NodeView::Internal(view) => Ok(Step::Descend(view.child_for(key))),
            NodeView::Leaf(view) => Ok(Step::Leaf(at_leaf(&view))),
        }
    }

    // --- point operations --------------------------------------------------------

    /// Looks up `key`, returning its value. The descent binary-searches
    /// each page in place; only the returned value is materialized.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut page = self.root;
        loop {
            let step = self.view_step(page, key, |leaf| {
                leaf.search(key).ok().map(|i| leaf.value(i).to_leaf_val())
            })?;
            match step {
                Step::Descend(child) => page = PageId(child),
                Step::Leaf(Some(val)) => return Ok(Some(self.load_value(val)?)),
                Step::Leaf(None) => return Ok(None),
            }
        }
    }

    /// True if `key` is present. Fully zero-copy: no cell is materialized.
    pub fn contains(&self, key: &[u8]) -> Result<bool> {
        let mut page = self.root;
        loop {
            match self.view_step(page, key, |leaf| leaf.search(key).is_ok())? {
                Step::Descend(child) => page = PageId(child),
                Step::Leaf(found) => return Ok(found),
            }
        }
    }

    // --- values -------------------------------------------------------------------

    fn load_value(&self, val: LeafVal) -> Result<Vec<u8>> {
        match val {
            LeafVal::Inline(bytes) => Ok(bytes),
            LeafVal::Overflow { page, len } => {
                let mut out = Vec::with_capacity(len as usize);
                let mut next = page;
                while next != NO_SIBLING {
                    let data = self.env.page(self.file, PageId(next))?;
                    next = u64::from_le_bytes(data[..8].try_into().unwrap());
                    let chunk_len = u32::from_le_bytes(data[8..12].try_into().unwrap()) as usize;
                    out.extend_from_slice(&data[12..12 + chunk_len]);
                }
                if out.len() != len as usize {
                    return Err(StorageError::corrupt("overflow chain length mismatch"));
                }
                Ok(out)
            }
        }
    }

    // --- range scans -----------------------------------------------------------------

    /// Range cursor over `[lower, upper]` bounds, in key order.
    pub fn range(&self, lower: Bound<&[u8]>, upper: Bound<&[u8]>) -> Cursor<'_> {
        Cursor {
            tree: self,
            state: CursorState::Unseeked {
                lower: clone_bound(lower),
            },
            upper: clone_bound(upper),
        }
    }

    /// Cursor over every entry.
    pub fn iter(&self) -> Cursor<'_> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    /// Cursor over every key with prefix `prefix` (works because keys are
    /// compared lexicographically).
    pub fn prefix(&self, prefix: &[u8]) -> Cursor<'_> {
        let upper = match prefix_successor(prefix) {
            Some(succ) => Bound::Excluded(succ),
            // Prefix was all 0xFF: everything ≥ prefix matches.
            None => Bound::Unbounded,
        };
        Cursor {
            tree: self,
            state: CursorState::Unseeked {
                lower: Bound::Included(prefix.to_vec()),
            },
            upper,
        }
    }

    /// Visits every `(key, value)` pair with keys in `[lower, upper]`, in
    /// ascending order, without materializing rows: `visit` receives
    /// slices borrowed straight from the leaf's page (only overflow
    /// values are assembled into a scratch buffer first). Scanning stops
    /// early when `visit` returns `false`. A one-shot [`Seeker`].
    ///
    /// This is the fast path the slotted layout exists for — a full scan
    /// allocates nothing per row. `visit` may read this environment, this
    /// tree included, while the scan holds its leaf.
    pub fn scan_range(
        &self,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
        visit: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<()> {
        Seeker::default().scan_range(self, lower, upper, visit)
    }

    /// Visits every entry in key order without materializing rows; see
    /// [`BTree::scan_range`].
    pub fn scan(&self, visit: impl FnMut(&[u8], &[u8]) -> bool) -> Result<()> {
        self.scan_range(Bound::Unbounded, Bound::Unbounded, visit)
    }

    /// Visits every entry whose key starts with `prefix`, zero-copy; see
    /// [`BTree::scan_range`].
    pub fn scan_prefix(
        &self,
        prefix: &[u8],
        visit: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<()> {
        match prefix_successor(prefix) {
            Some(succ) => self.scan_range(Bound::Included(prefix), Bound::Excluded(&succ), visit),
            None => self.scan_range(Bound::Included(prefix), Bound::Unbounded, visit),
        }
    }

    /// Leaf page where a scan from `lower` starts, found by zero-copy
    /// descent.
    fn leaf_at(&self, lower: Bound<&[u8]>) -> Result<PageId> {
        match lower {
            Bound::Unbounded => self.leftmost_leaf(),
            Bound::Included(k) | Bound::Excluded(k) => self.leaf_for(k),
        }
    }

    /// Leaf page that would hold `key`, found by zero-copy descent.
    fn leaf_for(&self, key: &[u8]) -> Result<PageId> {
        let mut page = self.root;
        loop {
            match self.view_step(page, key, |_| ())? {
                Step::Descend(child) => page = PageId(child),
                Step::Leaf(()) => return Ok(page),
            }
        }
    }

    fn leftmost_leaf(&self) -> Result<PageId> {
        let mut page = self.root;
        loop {
            let data = self.env.page(self.file, page)?;
            self.env.counters().note_node_view();
            match NodeView::parse(&data)? {
                NodeView::Internal(view) => page = PageId(view.leftmost()),
                NodeView::Leaf(_) => return Ok(page),
            }
        }
    }

    /// First key in the tree (document-order start for XASR scans).
    pub fn first_key(&self) -> Result<Option<Vec<u8>>> {
        match self.iter().next() {
            Some(Ok((k, _))) => Ok(Some(k)),
            Some(Err(e)) => Err(e),
            None => Ok(None),
        }
    }
}

// --- builder -------------------------------------------------------------------

/// One bulk load in progress (see [`BTree::builder`]). It owns no copy of
/// an entry: each is serialized into the open leaf's cells as it arrives.
pub struct BTreeBuilder {
    app: PageAppender,
    /// The open leaf's cells, back to back, and where each one ends.
    cells: Vec<u8>,
    ends: Vec<usize>,
    /// The last closed leaf's page and cells, kept to point it to its
    /// right sibling again if overflow pages came between the two.
    prev: Option<PageId>,
    prev_cells: Vec<u8>,
    prev_ends: Vec<usize>,
    /// The first key and page id of every closed leaf.
    leaf_index: Vec<(Vec<u8>, u64)>,
    count: u64,
}

impl BTreeBuilder {
    /// Adds the next entry.
    ///
    /// # Errors
    /// `Corrupt` if `key` does not follow the previous key, `KeyTooLarge`
    /// for a key over [`BTree::max_key`], and whatever a page write
    /// returns.
    pub fn push(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        let page_size = self.app.env().page_size();
        if key.len() > page_size / 8 {
            return Err(StorageError::KeyTooLarge {
                len: key.len(),
                max: page_size / 8,
            });
        }
        // A leaf closes only after the next key is checked, so the
        // previous key is always the open leaf's last cell.
        let last = self.ends.len().checked_sub(2).map_or(0, |i| self.ends[i]);
        if !self.ends.is_empty() && leaf_cell_key(&self.cells[last..]) >= key {
            return Err(StorageError::corrupt("B+-tree keys must strictly ascend"));
        }
        let val = self.store_value(value)?;
        let size = NODE_HEADER + self.cells.len() + SLOT_SIZE * self.ends.len();
        if size + leaf_cell_size(key, val) > page_size * 9 / 10 && !self.ends.is_empty() {
            self.close_leaf(false)?;
        }
        put_leaf_cell(&mut self.cells, key, val);
        self.ends.push(self.cells.len());
        self.count += 1;
        Ok(())
    }

    /// Writes the last leaf, the internal levels and the meta page.
    pub fn finish(mut self) -> Result<BTree> {
        self.close_leaf(true)?;
        let fill_limit = self.app.env().page_size() * 9 / 10;

        // Internal levels, bottom-up: each node is complete when appended.
        let mut level = std::mem::take(&mut self.leaf_index);
        let mut height = 1u32;
        while level.len() > 1 {
            height += 1;
            let mut next_level: Vec<(Vec<u8>, u64)> = Vec::new();
            let mut iter = level.into_iter();
            let (mut group_first, mut extra) = iter.next().expect("at least two children");
            let mut node_cells: Vec<(Vec<u8>, u64)> = Vec::new();
            let mut node_bytes = NODE_HEADER;
            for (key, child) in iter {
                let cell = internal_cell_size(&key);
                if node_bytes + cell > fill_limit && !node_cells.is_empty() {
                    let page = self.append_internal(extra, &node_cells)?;
                    node_cells.clear();
                    next_level.push((std::mem::replace(&mut group_first, key), page.0));
                    // The next group starts with this entry as its
                    // leftmost child.
                    extra = child;
                    node_bytes = NODE_HEADER;
                    continue;
                }
                node_bytes += cell;
                node_cells.push((key, child));
            }
            let page = self.append_internal(extra, &node_cells)?;
            next_level.push((group_first, page.0));
            level = next_level;
        }
        let tree = BTree {
            env: self.app.env().clone(),
            file: self.app.file_id(),
            root: PageId(level[0].1),
            height,
            count: self.count,
        };
        let meta = self.app.page();
        meta[..4].copy_from_slice(MAGIC);
        meta[META_ROOT..META_ROOT + 8].copy_from_slice(&tree.root.0.to_le_bytes());
        meta[META_COUNT..META_COUNT + 8].copy_from_slice(&tree.count.to_le_bytes());
        meta[META_HEIGHT..META_HEIGHT + 4].copy_from_slice(&tree.height.to_le_bytes());
        self.app.rewrite(PageId(0))?;
        Ok(tree)
    }

    /// Appends an internal node as the next page.
    fn append_internal(&mut self, leftmost: u64, cells: &[(Vec<u8>, u64)]) -> Result<PageId> {
        write_internal(self.app.page(), leftmost, cells);
        self.app.append()
    }

    /// Appends the open leaf, pointing to the page after it (or to none
    /// if it is the `last`). The previous leaf was pointed the same way:
    /// if overflow pages went there instead, it is rewritten.
    fn close_leaf(&mut self, last: bool) -> Result<()> {
        let page = self.app.next_page();
        if let Some(prev) = self.prev.filter(|prev| prev.0 + 1 != page.0) {
            write_leaf(self.app.page(), page.0, &self.prev_cells, &self.prev_ends);
            self.app.rewrite(prev)?;
        }
        let next_leaf = if last { NO_SIBLING } else { page.0 + 1 };
        write_leaf(self.app.page(), next_leaf, &self.cells, &self.ends);
        self.app.append()?;
        let first = match self.ends.is_empty() {
            true => Vec::new(),
            false => leaf_cell_key(&self.cells).to_vec(),
        };
        self.leaf_index.push((first, page.0));
        std::mem::swap(&mut self.cells, &mut self.prev_cells);
        std::mem::swap(&mut self.ends, &mut self.prev_ends);
        self.cells.clear();
        self.ends.clear();
        self.prev = Some(page);
        Ok(())
    }

    /// Stores `value` inline, or in an overflow chain written back to
    /// front so that each page can point to the next.
    fn store_value<'v>(&mut self, value: &'v [u8]) -> Result<ValueRef<'v>> {
        let page_size = self.app.env().page_size();
        if value.len() <= page_size / 8 {
            return Ok(ValueRef::Inline(value));
        }
        let mut next = NO_SIBLING;
        for chunk in value.chunks(page_size - 12).rev() {
            let data = self.app.page();
            data[..8].copy_from_slice(&next.to_le_bytes());
            data[8..12].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
            data[12..12 + chunk.len()].copy_from_slice(chunk);
            next = self.app.append()?.0;
        }
        Ok(ValueRef::Overflow {
            page: next,
            len: value.len() as u32,
        })
    }
}

// --- helpers -------------------------------------------------------------------

/// Smallest byte string greater than every key starting with `prefix`,
/// or `None` when no such bound exists (the prefix is empty or all 0xFF).
fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let last = prefix.iter().rposition(|&b| b != 0xFF)?;
    let mut succ = prefix[..=last].to_vec();
    succ[last] += 1;
    Some(succ)
}

fn clone_bound(b: Bound<&[u8]>) -> Bound<Vec<u8>> {
    match b {
        Bound::Included(k) => Bound::Included(k.to_vec()),
        Bound::Excluded(k) => Bound::Excluded(k.to_vec()),
        Bound::Unbounded => Bound::Unbounded,
    }
}

// --- seeker --------------------------------------------------------------------

/// A forward scan position over a [`BTree`]: each [`Seeker::scan_range`]
/// is a zero-copy visitor scan, and the seeker remembers the file and page
/// id of the last leaf it read. The next scan of the same tree fetches
/// that leaf again and starts there when the leaf still covers its lower
/// bound — holds a key at or below it and one at or above it — or when the
/// bound lies past the leaf's keys and the right sibling covers it;
/// otherwise it descends from the root. Scans in ascending key order (query results in
/// document order) thus cost a leaf-local seek each, not a descent.
///
/// No page is held between scans. A page never changes once written, so
/// the page id is trusted the way a scan trusts a sibling id it read a
/// leaf earlier; a seeker is kept no longer than one query execution,
/// which holds its files against drops.
#[derive(Debug, Clone, Copy, Default)]
pub struct Seeker {
    leaf: Option<(FileId, PageId)>,
}

/// How a scan came to the leaf it reads next.
#[derive(Clone, Copy, PartialEq)]
enum Entry {
    /// The remembered leaf: valid only if it proves that no earlier leaf
    /// holds a key in range.
    Remembered,
    /// The right sibling of a remembered leaf whose keys all lay below
    /// the lower bound: valid only if the bound is not past it too.
    Hop,
    /// The leaf a descent found for the lower bound.
    Descent,
    /// A later leaf of the scan: read from its first key.
    Sibling,
}

/// What reading one leaf found.
enum Read {
    /// The leaf cannot start this scan: descend instead.
    Miss,
    /// Read; the scan goes on at this leaf ([`NO_SIBLING`]: it is over).
    Next(u64),
    /// The lower bound lay past every key; the scan goes on at this leaf.
    Past(u64),
}

impl Seeker {
    /// Visits every `(key, value)` pair of `tree` with keys in
    /// `[lower, upper]`, in ascending order; see [`BTree::scan_range`].
    pub fn scan_range(
        &mut self,
        tree: &BTree,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
        mut visit: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<()> {
        let (mut page, mut entry) = match (self.leaf, lower) {
            (Some((file, leaf)), Bound::Included(_) | Bound::Excluded(_)) if file == tree.file => {
                (leaf, Entry::Remembered)
            }
            _ => (tree.leaf_at(lower)?, Entry::Descent),
        };
        loop {
            (page, entry) = match self.read_leaf(tree, page, entry, lower, upper, &mut visit)? {
                Read::Miss => (tree.leaf_at(lower)?, Entry::Descent),
                Read::Next(NO_SIBLING) | Read::Past(NO_SIBLING) => return Ok(()),
                Read::Past(next) if entry == Entry::Remembered => (PageId(next), Entry::Hop),
                Read::Next(next) | Read::Past(next) => (PageId(next), Entry::Sibling),
            };
        }
    }

    /// Reads the in-range cells of leaf `page` under one page fetch.
    fn read_leaf(
        &mut self,
        tree: &BTree,
        page: PageId,
        entry: Entry,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
        visit: &mut impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<Read> {
        let stats = tree.env.counters();
        let data = tree.env.page(tree.file, page)?;
        stats.note_node_view();
        let view = match NodeView::parse(&data) {
            Ok(NodeView::Leaf(view)) => view,
            _ if entry == Entry::Remembered => return Ok(Read::Miss),
            _ => return Err(StorageError::corrupt("expected leaf page in scan")),
        };
        // `start` is the first cell in range; `proven` says no earlier leaf
        // holds one (this leaf has a cell below the bound, or the bound's
        // own key).
        let (start, proven) = match (entry, lower) {
            (Entry::Sibling, _) | (_, Bound::Unbounded) => (0, true),
            (_, Bound::Included(k) | Bound::Excluded(k)) => {
                stats.note_in_place_search();
                match (view.search(k), lower) {
                    (Ok(i), Bound::Excluded(_)) => (i + 1, true),
                    (Ok(i), _) => (i, true),
                    (Err(i), _) => (i, i > 0),
                }
            }
        };
        let past = start == view.nkeys();
        if (entry == Entry::Remembered && !proven) || (entry == Entry::Hop && past) {
            return Ok(Read::Miss);
        }
        self.leaf = Some((tree.file, page));
        for i in start..view.nkeys() {
            let keep = match (view.cell(i), upper) {
                ((key, _), Bound::Included(u)) if key > u => false,
                ((key, _), Bound::Excluded(u)) if key >= u => false,
                ((key, ValueRef::Inline(v)), _) => visit(key, v),
                ((key, ValueRef::Overflow { page, len }), _) => {
                    visit(key, &tree.load_value(LeafVal::Overflow { page, len })?)
                }
            };
            if !keep {
                return Ok(Read::Next(NO_SIBLING));
            }
        }
        Ok(match past {
            true => Read::Past(view.next_leaf()),
            false => Read::Next(view.next_leaf()),
        })
    }
}

// --- cursor --------------------------------------------------------------------

enum CursorState {
    Unseeked {
        lower: Bound<Vec<u8>>,
    },
    /// Reading the held leaf page from cell `slot` on.
    At {
        leaf: Arc<[u8]>,
        slot: usize,
    },
    Done,
}

/// Forward range iterator over a [`BTree`]. Yields `(key, value)` pairs in
/// ascending key order.
pub struct Cursor<'a> {
    tree: &'a BTree,
    state: CursorState,
    upper: Bound<Vec<u8>>,
}

impl<'a> Cursor<'a> {
    /// Fetches leaf `page` and holds it, starting at its first cell in
    /// range of `lower`: a seek's bound, found by an in-place binary
    /// search, or [`Bound::Unbounded`] for a sibling step.
    fn enter(&mut self, page: PageId, lower: &Bound<Vec<u8>>) -> Result<()> {
        let stats = self.tree.env.counters();
        let leaf = self.tree.env.page(self.tree.file, page)?;
        stats.note_node_view();
        let NodeView::Leaf(view) = NodeView::parse(&leaf)? else {
            return Err(StorageError::corrupt("expected leaf page in cursor"));
        };
        let slot = match lower {
            Bound::Unbounded => 0,
            Bound::Included(k) | Bound::Excluded(k) => {
                stats.note_in_place_search();
                match (view.search(k), lower) {
                    (Ok(i), Bound::Excluded(_)) => i + 1,
                    (Ok(i) | Err(i), _) => i,
                }
            }
        };
        self.state = CursorState::At { leaf, slot };
        Ok(())
    }

    fn advance(&mut self) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        loop {
            let next = match &mut self.state {
                CursorState::Unseeked { lower } => {
                    let lower = std::mem::replace(lower, Bound::Unbounded);
                    let page = match &lower {
                        Bound::Unbounded => self.tree.leftmost_leaf()?,
                        Bound::Included(k) | Bound::Excluded(k) => self.tree.leaf_for(k)?,
                    };
                    self.enter(page, &lower)?;
                    continue;
                }
                CursorState::At { leaf, slot } => match next_cell(leaf, slot, &self.upper)? {
                    Ok((key, val)) => return Ok(Some((key, self.tree.load_value(val)?))),
                    Err(next) => next,
                },
                CursorState::Done => return Ok(None),
            };
            if next == NO_SIBLING {
                self.state = CursorState::Done;
                return Ok(None);
            }
            self.enter(PageId(next), &Bound::Unbounded)?;
        }
    }
}

/// The cell at `slot` of a held leaf if it is in range of `upper`, moving
/// `slot` past it; else the leaf to read next ([`NO_SIBLING`] once a key
/// crossed `upper`, as no later leaf can be in range).
fn next_cell(
    leaf: &[u8],
    slot: &mut usize,
    upper: &Bound<Vec<u8>>,
) -> Result<std::result::Result<(Vec<u8>, LeafVal), u64>> {
    let NodeView::Leaf(view) = NodeView::parse(leaf)? else {
        return Err(StorageError::corrupt("expected leaf page in cursor"));
    };
    if *slot == view.nkeys() {
        return Ok(Err(view.next_leaf()));
    }
    let (key, val) = view.cell(*slot);
    *slot += 1;
    let in_range = match upper {
        Bound::Unbounded => true,
        Bound::Included(u) => key <= u.as_slice(),
        Bound::Excluded(u) => key < u.as_slice(),
    };
    Ok(match in_range {
        true => Ok((key.to_vec(), val.to_leaf_val())),
        false => Err(NO_SIBLING),
    })
}

impl<'a> Iterator for Cursor<'a> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.advance() {
            Ok(Some(pair)) => Some(Ok(pair)),
            Ok(None) => None,
            Err(e) => {
                self.state = CursorState::Done;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvConfig;

    fn key(i: u64) -> Vec<u8> {
        let mut k = Vec::new();
        crate::codec::put_u64(&mut k, i);
        k
    }

    /// Builds tree `name` from `entries`, given in any order.
    fn build<K: AsRef<[u8]>, V: AsRef<[u8]>>(
        env: &Env,
        name: &str,
        entries: impl IntoIterator<Item = (K, V)>,
    ) -> BTree {
        let sorted: std::collections::BTreeMap<Vec<u8>, Vec<u8>> = entries
            .into_iter()
            .map(|(k, v)| (k.as_ref().to_vec(), v.as_ref().to_vec()))
            .collect();
        BTree::build_in(env, env.create_file(name).unwrap(), sorted).unwrap()
    }

    #[test]
    fn build_get_small() {
        let env = Env::memory();
        let t = build(&env, "t", [("b", "2"), ("a", "1"), ("c", "3")]);
        assert_eq!(t.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(t.get(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(t.get(b"c").unwrap(), Some(b"3".to_vec()));
        assert_eq!(t.get(b"d").unwrap(), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn many_entries_build_levels_and_stay_sorted() {
        let env = Env::memory_with(EnvConfig {
            page_size: 512,
            pool_bytes: 64 * 512,
        });
        let n = 2000u64;
        let t = build(&env, "t", (0..n).map(|i| (key(i), format!("v{i}"))));
        assert_eq!(t.len(), n);
        assert!(t.height() > 2, "a tree of several levels");
        for i in 0..n {
            assert_eq!(t.get(&key(i)).unwrap(), Some(format!("v{i}").into_bytes()));
        }
        // Full scan is sorted and complete.
        let keys: Vec<Vec<u8>> = t.iter().map(|r| r.unwrap().0).collect();
        assert_eq!(keys.len(), n as usize);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn range_scan_bounds() {
        let env = Env::memory();
        let t = build(&env, "t", (0..100u64).map(|i| (key(i), b"")));
        let collect = |lo: Bound<&[u8]>, hi: Bound<&[u8]>| -> Vec<u64> {
            t.range(lo, hi)
                .map(|r| {
                    let (k, _) = r.unwrap();
                    let mut pos = 0;
                    crate::codec::get_u64(&k, &mut pos)
                })
                .collect()
        };
        let k10 = key(10);
        let k20 = key(20);
        assert_eq!(
            collect(Bound::Included(&k10), Bound::Excluded(&k20)),
            (10..20).collect::<Vec<u64>>()
        );
        assert_eq!(
            collect(Bound::Excluded(&k10), Bound::Included(&k20)),
            (11..=20).collect::<Vec<u64>>()
        );
        assert_eq!(
            collect(Bound::Unbounded, Bound::Excluded(&k10)),
            (0..10).collect::<Vec<u64>>()
        );
        assert_eq!(
            collect(Bound::Included(&key(95)), Bound::Unbounded),
            (95..100).collect::<Vec<u64>>()
        );
        assert_eq!(
            collect(Bound::Included(&key(200)), Bound::Unbounded),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn seek_at_leaf_boundaries() {
        // Small pages force many leaves; exercise Included/Excluded seeks
        // landing on every cell, including each leaf's last one (where an
        // Excluded bound must step to the sibling leaf).
        let env = Env::memory_with(EnvConfig {
            page_size: 256,
            pool_bytes: 64 * 256,
        });
        let n = 300u64;
        let t = build(&env, "t", (0..n).map(|i| (key(i), b"v")));
        assert!(t.height() > 1, "need multiple leaves");
        for i in 0..n {
            let ki = key(i);
            let first = t
                .range(Bound::Included(&ki), Bound::Unbounded)
                .next()
                .unwrap()
                .unwrap()
                .0;
            assert_eq!(first, ki, "Included seek lands on the key");
            let after = t.range(Bound::Excluded(&ki), Bound::Unbounded).next();
            if i + 1 < n {
                assert_eq!(
                    after.unwrap().unwrap().0,
                    key(i + 1),
                    "Excluded seek steps past the key (i={i})"
                );
            } else {
                assert!(after.is_none(), "Excluded seek past the last key is empty");
            }
            assert_eq!(
                t.range(Bound::Included(&ki), Bound::Included(&ki)).count(),
                1
            );
            assert_eq!(
                t.range(Bound::Included(&ki), Bound::Excluded(&ki)).count(),
                0
            );
        }
    }

    /// Point scans of one seeker in ascending key order cost one leaf view
    /// each after the first descent, also across leaf boundaries.
    #[test]
    fn seeker_scans_in_key_order_stay_leaf_local() {
        let env = Env::memory_with(EnvConfig {
            page_size: 256,
            pool_bytes: 64 * 256,
        });
        let t = build(&env, "t", (0..200u64).map(|i| (key(2 * i), b"v")));
        assert!(t.height() >= 3, "need a descent of several pages");
        let mut seeker = Seeker::default();
        let before = env.io_stats();
        for i in 0..200u64 {
            let k = key(2 * i);
            let mut got = Vec::new();
            seeker
                .scan_range(&t, Bound::Included(&k), Bound::Included(&k), |k, _| {
                    got.push(k.to_vec());
                    true
                })
                .unwrap();
            assert_eq!(got, vec![k]);
        }
        let views = env.io_stats().delta(&before).node_views;
        // A full scan views the descent's pages and every leaf once.
        let before = env.io_stats();
        t.scan(|_, _| true).unwrap();
        let leaves = env.io_stats().delta(&before).node_views - u64::from(t.height());
        // The first scan descends and re-reads its leaf; every later one
        // views one leaf, plus the next leaf where a scan ends on its
        // leaf's last key (the scan reads on to find its end).
        assert_eq!(views, u64::from(t.height()) + 1 + 199 + (leaves - 1));
    }

    /// A remembered leaf that does not cover the lower bound — the bound
    /// lies before it, or more than one leaf after it — is not trusted:
    /// the seeker descends and still finds the right keys.
    #[test]
    fn seeker_redescends_when_its_leaf_stops_covering() {
        let env = Env::memory_with(EnvConfig {
            page_size: 256,
            pool_bytes: 64 * 256,
        });
        let t = build(&env, "t", (0..100u64).map(|i| (key(100 * i), b"v")));
        let scan = |seeker: &mut Seeker, t: &BTree, lo: u64, hi: u64| {
            let (lo, hi) = (key(lo), key(hi));
            let mut got = Vec::new();
            seeker
                .scan_range(t, Bound::Included(&lo), Bound::Excluded(&hi), |k, _| {
                    got.push(crate::codec::get_u64(k, &mut 0));
                    true
                })
                .unwrap();
            got
        };
        let mut seeker = Seeker::default();
        assert_eq!(scan(&mut seeker, &t, 5000, 5001), vec![5000]);
        // Backwards: the remembered leaf holds no key below the bound.
        let before = env.io_stats();
        assert_eq!(scan(&mut seeker, &t, 100, 201), vec![100, 200]);
        let views = env.io_stats().delta(&before).node_views;
        assert_eq!(views, 1 + u64::from(t.height()) + 1, "miss, descent, leaf");
        // Forwards, several leaves past the remembered one.
        let before = env.io_stats();
        assert_eq!(scan(&mut seeker, &t, 9000, 9101), vec![9000, 9100]);
        let views = env.io_stats().delta(&before).node_views;
        assert_eq!(
            views,
            2 + u64::from(t.height()) + 1,
            "hop, miss, descent, leaf"
        );
        assert_eq!(scan(&mut seeker, &t, 8850, 10_000), {
            (89..100).map(|i| 100 * i).collect::<Vec<u64>>()
        });
        // A seeker used on another tree ignores the leaf it remembers.
        let other = build(&env, "o", [(key(7), b"x")]);
        assert_eq!(scan(&mut seeker, &other, 0, 10), vec![7]);
    }

    #[test]
    fn prefix_scan() {
        let env = Env::memory();
        let t = build(
            &env,
            "t",
            [
                ("author\x001", "a1"),
                ("author\x002", "a2"),
                ("journal\x001", "j1"),
                ("title\x001", "t1"),
            ],
        );
        let hits: Vec<Vec<u8>> = t.prefix(b"author\x00").map(|r| r.unwrap().1).collect();
        assert_eq!(hits, vec![b"a1".to_vec(), b"a2".to_vec()]);
        assert_eq!(t.prefix(b"volume\x00").count(), 0);
        assert_eq!(t.prefix(b"journal\x00").count(), 1);
    }

    #[test]
    fn prefix_successor_bumps_and_saturates() {
        assert_eq!(prefix_successor(b"ab"), Some(b"ac".to_vec()));
        assert_eq!(prefix_successor(b"a\xFF"), Some(b"b".to_vec()));
        assert_eq!(prefix_successor(&[0xFF, 0xFF]), None);
        assert_eq!(prefix_successor(b""), None);
    }

    #[test]
    fn prefix_scan_all_ff_prefix() {
        let env = Env::memory();
        let t = build(
            &env,
            "t",
            [
                (&[0xFF, 0x01][..], b"a"),
                (&[0xFF, 0xFF], b"b"),
                (&[0xFF, 0xFF, 0x00], b"c"),
                (&[0x10], b"d"),
            ],
        );
        let hits: Vec<Vec<u8>> = t.prefix(&[0xFF]).map(|r| r.unwrap().1).collect();
        assert_eq!(hits, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
        let hits: Vec<Vec<u8>> = t.prefix(&[0xFF, 0xFF]).map(|r| r.unwrap().1).collect();
        assert_eq!(hits, vec![b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn scan_matches_cursor() {
        let env = Env::memory_with(EnvConfig {
            page_size: 256,
            pool_bytes: 64 * 256,
        });
        let t = build(&env, "t", (0..500u64).map(|i| (key(i), format!("v{i}"))));
        let mut scanned: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        t.scan(|k, v| {
            scanned.push((k.to_vec(), v.to_vec()));
            true
        })
        .unwrap();
        let cursored: Vec<(Vec<u8>, Vec<u8>)> = t.iter().map(|r| r.unwrap()).collect();
        assert_eq!(scanned, cursored);

        // Bounded scans respect both bounds and early exit.
        let mut ranged: Vec<Vec<u8>> = Vec::new();
        t.scan_range(
            Bound::Excluded(&key(10)),
            Bound::Included(&key(20)),
            |k, _| {
                ranged.push(k.to_vec());
                true
            },
        )
        .unwrap();
        assert_eq!(ranged, (11..=20).map(key).collect::<Vec<_>>());
        let mut seen = 0;
        t.scan(|_, _| {
            seen += 1;
            seen < 7
        })
        .unwrap();
        assert_eq!(seen, 7, "visitor returning false stops the scan");
    }

    #[test]
    fn scan_handles_overflow_values() {
        let env = Env::memory_with(EnvConfig {
            page_size: 512,
            pool_bytes: 64 * 512,
        });
        let big = vec![0xCDu8; 3000];
        let t = build(&env, "t", [(&b"big"[..], &big[..]), (b"tiny", b"t")]);
        let mut got: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        t.scan(|k, v| {
            got.push((k.to_vec(), v.to_vec()));
            true
        })
        .unwrap();
        assert_eq!(
            got,
            vec![(b"big".to_vec(), big), (b"tiny".to_vec(), b"t".to_vec())]
        );
    }

    #[test]
    fn scan_prefix_matches_prefix_cursor() {
        let env = Env::memory();
        let t = build(
            &env,
            "t",
            [
                ("author\x001", "a1"),
                ("author\x002", "a2"),
                ("journal\x001", "j1"),
            ],
        );
        let mut vals: Vec<Vec<u8>> = Vec::new();
        t.scan_prefix(b"author\x00", |_, v| {
            vals.push(v.to_vec());
            true
        })
        .unwrap();
        assert_eq!(vals, vec![b"a1".to_vec(), b"a2".to_vec()]);
    }

    /// Overflow chains written while a leaf is open land between it and
    /// the previous leaf, whose sibling link must skip them.
    #[test]
    fn overflow_pages_between_leaves_keep_the_sibling_chain() {
        let env = Env::memory_with(EnvConfig {
            page_size: 512,
            pool_bytes: 64 * 512,
        });
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..300u64)
            .map(|i| (key(i), vec![i as u8; if i % 25 == 7 { 200 } else { 5 }]))
            .collect();
        let t = build(&env, "t", entries.clone());
        assert!(t.height() > 1);
        let all: Vec<(Vec<u8>, Vec<u8>)> = t.iter().map(|r| r.unwrap()).collect();
        assert_eq!(all, entries);
    }

    #[test]
    fn overflow_values_roundtrip() {
        let env = Env::memory_with(EnvConfig {
            page_size: 512,
            pool_bytes: 64 * 512,
        });
        let big = vec![0xABu8; 5000]; // ~10 overflow pages at 512B
        let t = build(&env, "t", [(&b"big"[..], &big[..]), (b"small", b"s")]);
        assert_eq!(t.get(b"big").unwrap(), Some(big.clone()));
        // Cursor also materializes overflow values.
        let all: Vec<(Vec<u8>, Vec<u8>)> = t.iter().map(|r| r.unwrap()).collect();
        assert_eq!(all[0], (b"big".to_vec(), big));
    }

    #[test]
    fn bulk_load_matches_inserts() {
        let env = Env::memory_with(EnvConfig {
            page_size: 512,
            pool_bytes: 64 * 512,
        });
        let n = 5000u64;
        let bulk = build(&env, "bulk", (0..n).map(|i| (key(i), format!("v{i}"))));
        assert_eq!(bulk.len(), n);
        for i in (0..n).step_by(97) {
            assert_eq!(
                bulk.get(&key(i)).unwrap(),
                Some(format!("v{i}").into_bytes())
            );
        }
        let keys: Vec<Vec<u8>> = bulk.iter().map(|r| r.unwrap().0).collect();
        assert_eq!(keys, (0..n).map(key).collect::<Vec<_>>());
    }

    #[test]
    fn bulk_load_rejects_unsorted() {
        let env = Env::memory();
        let f = env.create_file("t").unwrap();
        let err = BTree::build_in(&env, f, vec![(key(2), vec![]), (key(1), vec![])])
            .map(drop)
            .unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
    }

    #[test]
    fn bulk_load_rejects_duplicates() {
        let env = Env::memory();
        let f = env.create_file("t").unwrap();
        let err = BTree::build_in(&env, f, vec![(key(1), vec![]), (key(1), vec![])])
            .map(drop)
            .unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
    }

    #[test]
    fn bulk_load_empty_iter() {
        let env = Env::memory();
        let t = build(&env, "t", Vec::<(Vec<u8>, Vec<u8>)>::new());
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.get(b"x").unwrap(), None);
        // Meta page, the unreachable empty leaf, and the empty root leaf.
        assert_eq!(env.page_count(t.file_id()).unwrap(), 3);
    }

    /// Each page is written once, and a leaf whose sibling waited on
    /// overflow pages is patched once more: the build appends every page
    /// and rewrites only page 0 and such leaves.
    #[test]
    fn build_writes_each_page_once() {
        let env = Env::memory_with(EnvConfig {
            page_size: 256,
            pool_bytes: 8 * 256,
        });
        let plain = build(&env, "p", (0..300u64).map(|i| (key(i), b"v")));
        let pages = env.page_count(plain.file_id()).unwrap();
        assert_eq!(env.io_stats().physical_writes, pages + 1, "appends + meta");
        assert_eq!(env.io_stats().requests(), 0, "the build reads nothing");
        env.reset_io_stats();
        let big = vec![7u8; 600];
        let t = build(&env, "o", (0..60u64).map(|i| (key(i), &big[..])));
        let pages = env.page_count(t.file_id()).unwrap();
        let writes = env.io_stats().physical_writes;
        // A full scan views the descent and then every leaf.
        t.scan(|_, _| true).unwrap();
        let leaves = env.io_stats().node_views - u64::from(t.height());
        assert!(leaves > 2, "{leaves} leaves, height {}", t.height());
        // Every leaf but the last is followed by the next entry's overflow
        // pages, so its sibling is patched in: appends + meta + leaves - 1.
        assert_eq!(writes, pages + leaves, "{writes} writes for {pages} pages");
        for i in 0..60u64 {
            assert_eq!(t.get(&key(i)).unwrap().as_deref(), Some(&big[..]));
        }
    }

    #[test]
    fn key_too_large_rejected() {
        let env = Env::memory_with(EnvConfig {
            page_size: 512,
            pool_bytes: 64 * 512,
        });
        let f = env.create_file("t").unwrap();
        let err = BTree::build_in(&env, f, [(vec![0u8; 100], vec![])])
            .map(drop)
            .unwrap_err();
        assert!(matches!(err, StorageError::KeyTooLarge { .. }));
    }

    #[test]
    fn v1_format_pages_rejected() {
        let env = Env::memory();
        let f = env.create_file("t").unwrap();
        let mut app = env.appender(f).unwrap();
        let meta = app.page();
        meta[..4].copy_from_slice(MAGIC);
        meta[META_ROOT..META_ROOT + 8].copy_from_slice(&1u64.to_le_bytes());
        meta[META_COUNT..META_COUNT + 8].copy_from_slice(&1u64.to_le_bytes());
        meta[META_HEIGHT..META_HEIGHT + 4].copy_from_slice(&1u32.to_le_bytes());
        app.append().unwrap();
        // A v1-style root: the old format had no version byte — byte 0
        // held the node type directly.
        app.page()[0] = crate::node::TYPE_LEAF;
        app.append().unwrap();
        let t = BTree::open_in(&env, f).unwrap();
        let err = t.get(b"k").unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(m) if m.contains("page format v1, expected v2")),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn read_path_counters_tick() {
        let env = Env::memory();
        let t = build(&env, "t", (0..100u64).map(|i| (key(i), b"v")));
        let before = env.io_stats();
        assert_eq!(t.get(&key(42)).unwrap(), Some(b"v".to_vec()));
        let after = env.io_stats();
        let delta = after.delta(&before);
        assert!(delta.node_views >= 1, "descent parses at least one view");
        assert!(delta.in_place_searches >= 1, "leaf search happens in place");
    }

    #[test]
    fn persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("saardb-btree-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let env = Env::open_dir(&dir, EnvConfig::default()).unwrap();
            env.autocommit(|| {
                let entries = (0..1000u64).map(|i| (key(i), format!("v{i}").into_bytes()));
                BTree::build_in(&env, env.create_file("idx")?, entries)
            })
            .unwrap();
        }
        {
            let env = Env::open_dir(&dir, EnvConfig::default()).unwrap();
            let t = BTree::open(&env, "idx").unwrap();
            assert_eq!(t.len(), 1000);
            assert_eq!(t.get(&key(500)).unwrap(), Some(b"v500".to_vec()));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn temp_tree_self_deletes() {
        let env = Env::memory();
        let id;
        {
            let tmp = crate::TempFile::new(&env).unwrap();
            let t = BTree::build_in(&env, tmp.id(), [(b"k".to_vec(), b"v".to_vec())]).unwrap();
            assert_eq!(t.get(b"k").unwrap(), Some(b"v".to_vec()));
            id = t.file_id();
        }
        assert!(env.page_count(id).is_err());
    }

    #[test]
    fn first_key_and_contains() {
        let env = Env::memory();
        let empty = build(&env, "e", Vec::<(Vec<u8>, Vec<u8>)>::new());
        assert_eq!(empty.first_key().unwrap(), None);
        let t = build(&env, "t", [(key(5), b""), (key(3), b"")]);
        assert_eq!(t.first_key().unwrap(), Some(key(3)));
        assert!(t.contains(&key(5)).unwrap());
        assert!(!t.contains(&key(4)).unwrap());
    }
}
