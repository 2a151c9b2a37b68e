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
//! * Pages use the slotted layout of [`crate::node`] (format v2): a
//!   cell-offset directory lets the read path binary-search keys *in
//!   place* against the pinned frame bytes. `get`, `contains` and cursor
//!   descent run on [`crate::node::NodeView`]s and allocate only for rows
//!   actually returned; the write path still materializes whole nodes
//!   (parse → mutate → serialize), which keeps the free-space check
//!   trivial ("does the serialized node fit").
//! * Cursors copy the in-range cells of one leaf out per page acquire
//!   rather than pinning frames across `next()` calls — engine iterators
//!   nest as deep as the document, and pins held that long could exhaust
//!   the small pools the efficiency tests run under.
//! * Visitor scans are [`Seeker`] scans: zero-copy over the pinned leaves,
//!   and a seeker remembers its last leaf, so scans in key order seek
//!   leaf-locally.
//! * Keys must compare lexicographically ([`crate::codec`] provides
//!   order-preserving encodings). Keys are unique; inserting an existing
//!   key replaces its value.
//! * Values up to an eighth of a page are stored inline; larger values go
//!   to a chain of overflow pages (XASR `value` columns hold whole text
//!   nodes, which in TREEBANK-like data can be long).
//! * Deletion removes leaf entries without rebalancing — updates in the
//!   course project were deliberately "as simple as possible". Pages are
//!   never reclaimed (no free list); dropped overflow chains leak until the
//!   file is rebuilt, which the bulk loader makes cheap.
//!
//! ```
//! use xmldb_storage::{BTree, Env};
//! let env = Env::memory();
//! let mut tree = BTree::create(&env, "idx").unwrap();
//! tree.insert(b"journal", b"value").unwrap();
//! assert_eq!(tree.get(b"journal").unwrap(), Some(b"value".to_vec()));
//! ```

use crate::env::{Env, FileId};
use crate::error::StorageError;
use crate::node::{
    internal_cell_size, leaf_cell_size, node_size, parse_node, serialize_node, LeafVal, Node,
    NodeBody, NodeView, ValueRef, NODE_HEADER, NO_SIBLING,
};
use crate::page::PageId;
use crate::temp::TempFile;
use crate::Result;
use std::ops::Bound;

const MAGIC: &[u8; 4] = b"SABT";
const META_ROOT: usize = 4;
const META_COUNT: usize = 12;
const META_HEIGHT: usize = 20;

/// A B+-tree. See module docs.
pub struct BTree {
    env: Env,
    file: FileId,
    _temp: Option<TempFile>,
    root: PageId,
    height: u32,
    count: u64,
}

enum InsertOutcome {
    Fit {
        replaced: bool,
    },
    Split {
        sep: Vec<u8>,
        right: u64,
        replaced: bool,
    },
}

/// One zero-copy descent step, computed entirely inside the page closure.
enum Step<T> {
    Descend(u64),
    Leaf(T),
}

impl BTree {
    // --- lifecycle ------------------------------------------------------------

    /// Creates an empty tree in a fresh file named `name`.
    pub fn create(env: &Env, name: &str) -> Result<BTree> {
        let file = env.create_file(name)?;
        Self::create_in(env, file)
    }

    /// Creates an empty tree in a self-deleting scratch file.
    pub fn temp(env: &Env) -> Result<BTree> {
        let tmp = TempFile::new(env)?;
        let file = tmp.id();
        let mut tree = Self::create_in(env, file)?;
        tree._temp = Some(tmp);
        Ok(tree)
    }

    /// Creates an empty tree in an existing, empty file.
    pub fn create_in(env: &Env, file: FileId) -> Result<BTree> {
        let meta = env.allocate_page(file)?;
        debug_assert_eq!(meta, PageId(0));
        let root = env.allocate_page(file)?;
        let tree = BTree {
            env: env.clone(),
            file,
            _temp: None,
            root,
            height: 1,
            count: 0,
        };
        tree.write_node(
            root,
            &Node {
                extra: NO_SIBLING,
                body: NodeBody::Leaf(Vec::new()),
            },
        )?;
        tree.write_meta()?;
        Ok(tree)
    }

    /// Opens an existing tree by file name.
    pub fn open(env: &Env, name: &str) -> Result<BTree> {
        let file = env.open_file(name)?;
        Self::open_in(env, file, name)
    }

    fn open_in(env: &Env, file: FileId, name: &str) -> Result<BTree> {
        let (root, count, height) = env.with_page(file, PageId(0), |data| {
            if &data[..4] != MAGIC {
                return Err(StorageError::corrupt(format!("{name}: bad btree magic")));
            }
            Ok((
                u64::from_le_bytes(data[META_ROOT..META_ROOT + 8].try_into().unwrap()),
                u64::from_le_bytes(data[META_COUNT..META_COUNT + 8].try_into().unwrap()),
                u32::from_le_bytes(data[META_HEIGHT..META_HEIGHT + 4].try_into().unwrap()),
            ))
        })??;
        Ok(BTree {
            env: env.clone(),
            file,
            _temp: None,
            root: PageId(root),
            height,
            count,
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
    /// + max inline value), so splits always have a valid separator.
    pub fn max_key(&self) -> usize {
        self.env.page_size() / 8
    }

    fn inline_threshold(&self) -> usize {
        self.env.page_size() / 8
    }

    fn write_meta(&self) -> Result<()> {
        self.env.with_page_mut(self.file, PageId(0), |data| {
            data[..4].copy_from_slice(MAGIC);
            data[META_ROOT..META_ROOT + 8].copy_from_slice(&self.root.0.to_le_bytes());
            data[META_COUNT..META_COUNT + 8].copy_from_slice(&self.count.to_le_bytes());
            data[META_HEIGHT..META_HEIGHT + 4].copy_from_slice(&self.height.to_le_bytes());
        })
    }

    // --- node (de)serialization -------------------------------------------------

    /// Materializes a node (write path only — readers use [`NodeView`]s).
    fn read_node(&self, page: PageId) -> Result<Node> {
        self.env.with_page(self.file, page, parse_node)?
    }

    fn write_node(&self, page: PageId, node: &Node) -> Result<()> {
        self.env
            .with_page_mut(self.file, page, |data| serialize_node(node, data))?
    }

    /// Runs one descent step against the pinned page bytes: internal nodes
    /// resolve the child pointer in place, leaves are handed to `at_leaf`.
    fn view_step<T>(
        &self,
        page: PageId,
        key: &[u8],
        at_leaf: impl FnOnce(&crate::node::LeafView<'_>) -> T,
    ) -> Result<Step<T>> {
        let stats = self.env.counters();
        self.env.with_page(self.file, page, |data| {
            stats.note_node_view();
            stats.note_in_place_search();
            match NodeView::parse(data)? {
                NodeView::Internal(view) => Ok(Step::Descend(view.child_for(key))),
                NodeView::Leaf(view) => Ok(Step::Leaf(at_leaf(&view))),
            }
        })?
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

    /// Inserts `key → value`, replacing any existing value. Returns `true`
    /// if the key was new.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<bool> {
        if key.len() > self.max_key() {
            return Err(StorageError::KeyTooLarge {
                len: key.len(),
                max: self.max_key(),
            });
        }
        let val = self.store_value(value)?;
        match self.insert_rec(self.root, key, val)? {
            InsertOutcome::Fit { replaced } => {
                if !replaced {
                    self.count += 1;
                }
                self.write_meta()?;
                Ok(!replaced)
            }
            InsertOutcome::Split {
                sep,
                right,
                replaced,
            } => {
                let new_root = PageId(self.env.allocate_page(self.file)?.0);
                self.write_node(
                    new_root,
                    &Node {
                        extra: self.root.0,
                        body: NodeBody::Internal(vec![(sep, right)]),
                    },
                )?;
                self.root = new_root;
                self.height += 1;
                if !replaced {
                    self.count += 1;
                }
                self.write_meta()?;
                Ok(!replaced)
            }
        }
    }

    fn insert_rec(&mut self, page: PageId, key: &[u8], val: LeafVal) -> Result<InsertOutcome> {
        let mut node = self.read_node(page)?;
        match &mut node.body {
            NodeBody::Leaf(cells) => {
                let replaced = match cells.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                    Ok(idx) => {
                        cells[idx].1 = val;
                        true
                    }
                    Err(idx) => {
                        cells.insert(idx, (key.to_vec(), val));
                        false
                    }
                };
                if node_size(&node) <= self.env.page_size() {
                    self.write_node(page, &node)?;
                    return Ok(InsertOutcome::Fit { replaced });
                }
                // Split the leaf.
                self.env.counters().note_split();
                let NodeBody::Leaf(cells) = node.body else {
                    unreachable!()
                };
                let split = split_point_leaf(&cells);
                let right_cells = cells[split..].to_vec();
                let left_cells = cells[..split].to_vec();
                let sep = right_cells[0].0.clone();
                let right_page = self.env.allocate_page(self.file)?;
                self.write_node(
                    right_page,
                    &Node {
                        extra: node.extra,
                        body: NodeBody::Leaf(right_cells),
                    },
                )?;
                self.write_node(
                    page,
                    &Node {
                        extra: right_page.0,
                        body: NodeBody::Leaf(left_cells),
                    },
                )?;
                Ok(InsertOutcome::Split {
                    sep,
                    right: right_page.0,
                    replaced,
                })
            }
            NodeBody::Internal(cells) => {
                let child = PageId(child_for(cells, node.extra, key));
                match self.insert_rec(child, key, val)? {
                    InsertOutcome::Fit { replaced } => Ok(InsertOutcome::Fit { replaced }),
                    InsertOutcome::Split {
                        sep,
                        right,
                        replaced,
                    } => {
                        let idx = match cells.binary_search_by(|(k, _)| k.as_slice().cmp(&sep)) {
                            Ok(i) => i + 1,
                            Err(i) => i,
                        };
                        cells.insert(idx, (sep, right));
                        if node_size(&node) <= self.env.page_size() {
                            self.write_node(page, &node)?;
                            return Ok(InsertOutcome::Fit { replaced });
                        }
                        // Split the internal node: the middle key moves up.
                        self.env.counters().note_split();
                        let NodeBody::Internal(cells) = node.body else {
                            unreachable!()
                        };
                        let mid = cells.len() / 2;
                        let sep_up = cells[mid].0.clone();
                        let right_extra = cells[mid].1;
                        let right_cells = cells[mid + 1..].to_vec();
                        let left_cells = cells[..mid].to_vec();
                        let right_page = self.env.allocate_page(self.file)?;
                        self.write_node(
                            right_page,
                            &Node {
                                extra: right_extra,
                                body: NodeBody::Internal(right_cells),
                            },
                        )?;
                        self.write_node(
                            page,
                            &Node {
                                extra: node.extra,
                                body: NodeBody::Internal(left_cells),
                            },
                        )?;
                        Ok(InsertOutcome::Split {
                            sep: sep_up,
                            right: right_page.0,
                            replaced,
                        })
                    }
                }
            }
        }
    }

    /// Removes `key`; returns `true` if it was present. Leaves are never
    /// rebalanced (see module docs). The descent is zero-copy; only the
    /// target leaf is materialized for rewriting.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool> {
        let leaf = self.leaf_for(key)?;
        let mut node = self.read_node(leaf)?;
        let NodeBody::Leaf(cells) = &mut node.body else {
            return Err(StorageError::corrupt("leaf_for returned internal node"));
        };
        match cells.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
            Ok(idx) => {
                cells.remove(idx);
                self.write_node(leaf, &node)?;
                self.count -= 1;
                self.write_meta()?;
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    // --- values -------------------------------------------------------------------

    fn store_value(&self, value: &[u8]) -> Result<LeafVal> {
        if value.len() <= self.inline_threshold() {
            return Ok(LeafVal::Inline(value.to_vec()));
        }
        // Write the overflow chain back-to-front so each page can point to
        // the next.
        let page_size = self.env.page_size();
        let chunk_size = page_size - 12;
        let mut next = NO_SIBLING;
        let chunks: Vec<&[u8]> = value.chunks(chunk_size).collect();
        for chunk in chunks.iter().rev() {
            let page = self.env.allocate_page(self.file)?;
            self.env.with_page_mut(self.file, page, |data| {
                data[..8].copy_from_slice(&next.to_le_bytes());
                data[8..12].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
                data[12..12 + chunk.len()].copy_from_slice(chunk);
            })?;
            next = page.0;
        }
        Ok(LeafVal::Overflow {
            page: next,
            len: value.len() as u32,
        })
    }

    fn load_value(&self, val: LeafVal) -> Result<Vec<u8>> {
        match val {
            LeafVal::Inline(bytes) => Ok(bytes),
            LeafVal::Overflow { page, len } => {
                let mut out = Vec::with_capacity(len as usize);
                let mut next = page;
                while next != NO_SIBLING {
                    next = self.env.with_page(self.file, PageId(next), |data| {
                        let n = u64::from_le_bytes(data[..8].try_into().unwrap());
                        let chunk_len =
                            u32::from_le_bytes(data[8..12].try_into().unwrap()) as usize;
                        out.extend_from_slice(&data[12..12 + chunk_len]);
                        n
                    })?;
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
    /// slices borrowed straight from the pinned page (only overflow
    /// values are assembled into a scratch buffer first). Scanning stops
    /// early when `visit` returns `false`. A one-shot [`Seeker`].
    ///
    /// This is the fast path the slotted layout exists for — a full scan
    /// allocates nothing per row. `visit` runs while the leaf's frame is
    /// pinned under a read latch, so it must not write to this
    /// environment; nested *reads* (even on this tree) are fine.
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
            let stats = self.env.counters();
            let step = self
                .env
                .with_page(self.file, page, |data| -> Result<Step<()>> {
                    stats.note_node_view();
                    match NodeView::parse(data)? {
                        NodeView::Internal(view) => Ok(Step::Descend(view.leftmost())),
                        NodeView::Leaf(_) => Ok(Step::Leaf(())),
                    }
                })??;
            match step {
                Step::Descend(child) => page = PageId(child),
                Step::Leaf(()) => return Ok(page),
            }
        }
    }

    // --- bulk loading -------------------------------------------------------------------

    /// Builds a tree from an iterator of strictly-ascending `(key, value)`
    /// pairs, replacing the current (empty) contents. Pages are filled to
    /// ~90% so subsequent trickle inserts don't immediately split.
    ///
    /// # Errors
    /// `Corrupt` if keys are not strictly ascending; the tree must be empty.
    pub fn bulk_load<I>(&mut self, entries: I) -> Result<()>
    where
        I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    {
        if !self.is_empty() {
            return Err(StorageError::corrupt("bulk_load requires an empty tree"));
        }
        let fill_limit = self.env.page_size() * 9 / 10;
        let mut leaf_index: Vec<(Vec<u8>, u64)> = Vec::new();
        let mut cells: Vec<(Vec<u8>, LeafVal)> = Vec::new();
        let mut size = NODE_HEADER;
        // The ascending-order check reuses one buffer instead of cloning
        // every key.
        let mut prev_key: Vec<u8> = Vec::new();
        let mut have_prev = false;
        let mut count = 0u64;
        let mut pending_leaf: Option<(PageId, Node)> = None;

        for (key, value) in entries {
            if key.len() > self.max_key() {
                return Err(StorageError::KeyTooLarge {
                    len: key.len(),
                    max: self.max_key(),
                });
            }
            if have_prev && prev_key.as_slice() >= key.as_slice() {
                return Err(StorageError::corrupt("bulk_load keys must strictly ascend"));
            }
            prev_key.clear();
            prev_key.extend_from_slice(&key);
            have_prev = true;
            let val = self.store_value(&value)?;
            let cell = leaf_cell_size(&key, &val);
            if size + cell > fill_limit && !cells.is_empty() {
                let page = self.env.allocate_page(self.file)?;
                let node = Node {
                    extra: NO_SIBLING,
                    body: NodeBody::Leaf(std::mem::take(&mut cells)),
                };
                if let Some((prev_page, mut prev_node)) = pending_leaf.take() {
                    prev_node.extra = page.0;
                    self.write_node(prev_page, &prev_node)?;
                }
                let first = match &node.body {
                    NodeBody::Leaf(c) => c[0].0.clone(),
                    _ => unreachable!(),
                };
                leaf_index.push((first, page.0));
                pending_leaf = Some((page, node));
                size = NODE_HEADER;
            }
            size += cell;
            cells.push((key, val));
            count += 1;
        }
        // Flush the final leaf.
        let page = self.env.allocate_page(self.file)?;
        let node = Node {
            extra: NO_SIBLING,
            body: NodeBody::Leaf(cells),
        };
        if let Some((prev_page, mut prev_node)) = pending_leaf.take() {
            prev_node.extra = page.0;
            self.write_node(prev_page, &prev_node)?;
        }
        let first = match &node.body {
            NodeBody::Leaf(c) if !c.is_empty() => c[0].0.clone(),
            _ => Vec::new(),
        };
        self.write_node(page, &node)?;
        leaf_index.push((first, page.0));

        // Build internal levels bottom-up.
        let mut level = leaf_index;
        let mut height = 1u32;
        while level.len() > 1 {
            height += 1;
            let mut next_level: Vec<(Vec<u8>, u64)> = Vec::new();
            let mut iter = level.into_iter();
            let mut group_first: Option<Vec<u8>> = None;
            let mut extra: Option<u64> = None;
            let mut node_cells: Vec<(Vec<u8>, u64)> = Vec::new();
            let mut node_bytes = NODE_HEADER;
            for (key, child) in &mut iter {
                match extra {
                    None => {
                        group_first = Some(key);
                        extra = Some(child);
                    }
                    Some(_) => {
                        let cell = internal_cell_size(&key);
                        if node_bytes + cell > fill_limit && !node_cells.is_empty() {
                            let page = self.env.allocate_page(self.file)?;
                            self.write_node(
                                page,
                                &Node {
                                    extra: extra.take().expect("group has leftmost child"),
                                    body: NodeBody::Internal(std::mem::take(&mut node_cells)),
                                },
                            )?;
                            next_level
                                .push((group_first.take().expect("group has first key"), page.0));
                            // Start the next group with this entry as its
                            // leftmost child.
                            group_first = Some(key);
                            extra = Some(child);
                            node_bytes = NODE_HEADER;
                            continue;
                        }
                        node_bytes += cell;
                        node_cells.push((key, child));
                    }
                }
            }
            let page = self.env.allocate_page(self.file)?;
            self.write_node(
                page,
                &Node {
                    extra: extra.expect("at least one child"),
                    body: NodeBody::Internal(node_cells),
                },
            )?;
            next_level.push((group_first.expect("at least one key"), page.0));
            level = next_level;
        }
        self.root = PageId(level[0].1);
        self.height = height;
        self.count = count;
        self.write_meta()?;
        Ok(())
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

// --- helpers -------------------------------------------------------------------

/// Child page for `key` within an owned internal node (write path).
fn child_for(cells: &[(Vec<u8>, u64)], extra: u64, key: &[u8]) -> u64 {
    // Rightmost cell with key_i ≤ key, else leftmost child.
    match cells.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
        Ok(idx) => cells[idx].1,
        Err(0) => extra,
        Err(idx) => cells[idx - 1].1,
    }
}

/// Smallest byte string greater than every key starting with `prefix`,
/// or `None` when no such bound exists (the prefix is empty or all 0xFF).
fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let last = prefix.iter().rposition(|&b| b != 0xFF)?;
    let mut succ = prefix[..=last].to_vec();
    succ[last] += 1;
    Some(succ)
}

/// Split index for an oversized leaf: the first index where the left half's
/// serialized size reaches half the total, clamped to keep both sides
/// non-empty.
fn split_point_leaf(cells: &[(Vec<u8>, LeafVal)]) -> usize {
    let total: usize = cells.iter().map(|(k, v)| leaf_cell_size(k, v)).sum();
    let mut acc = 0usize;
    for (i, (k, v)) in cells.iter().enumerate() {
        acc += leaf_cell_size(k, v);
        if acc >= total / 2 {
            return (i + 1).clamp(1, cells.len() - 1);
        }
    }
    cells.len() / 2
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
/// id of the last leaf it read. The next scan of the same tree re-pins
/// that leaf and starts there when the leaf still covers its lower bound —
/// holds a key at or below it and one at or above it — or when the bound
/// lies past the leaf's keys and the right sibling covers it; otherwise it
/// descends from the root. Scans in ascending key order (query results in
/// document order) thus cost a leaf-local seek each, not a descent.
///
/// No pin is held between scans. The check reads the leaf as it is now,
/// so a leaf that split or emptied since is used only where it still
/// covers the bound. The page id is trusted the way a scan trusts a
/// sibling id it read a leaf earlier, so a seeker is kept no longer than
/// one query execution.
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

    /// Reads the in-range cells of leaf `page` under one page acquire.
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
        let read = tree
            .env
            .with_page(tree.file, page, |data| -> Result<Read> {
                stats.note_node_view();
                let view = match NodeView::parse(data) {
                    Ok(NodeView::Leaf(view)) => view,
                    _ if entry == Entry::Remembered => return Ok(Read::Miss),
                    _ => return Err(StorageError::corrupt("expected leaf page in scan")),
                };
                // `start` is the first cell in range; `proven` says no earlier
                // leaf holds one (this leaf has a cell below the bound, or the
                // bound's own key).
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
            })??;
        if !matches!(read, Read::Miss) {
            self.leaf = Some((tree.file, page));
        }
        Ok(read)
    }
}

// --- cursor --------------------------------------------------------------------

/// Copies the in-range cells of one leaf out under a single page acquire.
///
/// Returns the copied rows and the next leaf to visit ([`NO_SIBLING`] when
/// the scan is finished — either the leaf chain ended or a key crossed
/// `upper`, in which case no later leaf can be in range). The start
/// position comes from an in-place binary search when `lower` is given
/// (initial seek) and is 0 otherwise (sibling steps).
/// Rows copied out of one leaf plus the next leaf page to visit.
type LeafBatch = (Vec<(Vec<u8>, LeafVal)>, u64);

fn load_leaf(
    tree: &BTree,
    upper: &Bound<Vec<u8>>,
    page: PageId,
    lower: Option<&Bound<Vec<u8>>>,
) -> Result<LeafBatch> {
    let stats = tree.env.counters();
    tree.env.with_page(tree.file, page, |data| {
        stats.note_node_view();
        let NodeView::Leaf(view) = NodeView::parse(data)? else {
            return Err(StorageError::corrupt("expected leaf page in cursor"));
        };
        let start = match lower {
            None | Some(Bound::Unbounded) => 0,
            Some(Bound::Included(k)) => {
                stats.note_in_place_search();
                view.search(k).unwrap_or_else(|i| i)
            }
            Some(Bound::Excluded(k)) => {
                stats.note_in_place_search();
                match view.search(k) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                }
            }
        };
        let mut rows = Vec::with_capacity(view.nkeys().saturating_sub(start));
        let mut next = view.next_leaf();
        for i in start..view.nkeys() {
            let (key, val) = view.cell(i);
            let in_range = match upper {
                Bound::Unbounded => true,
                Bound::Included(u) => key <= u.as_slice(),
                Bound::Excluded(u) => key < u.as_slice(),
            };
            if !in_range {
                next = NO_SIBLING;
                break;
            }
            rows.push((key.to_vec(), val.to_leaf_val()));
        }
        Ok((rows, next))
    })?
}

enum CursorState {
    Unseeked {
        lower: Bound<Vec<u8>>,
    },
    /// Draining the in-range rows copied out of one leaf.
    At {
        rows: std::vec::IntoIter<(Vec<u8>, LeafVal)>,
        next_leaf: u64,
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
    fn seek(&mut self, lower: Bound<Vec<u8>>) -> Result<()> {
        let leaf = match &lower {
            Bound::Unbounded => self.tree.leftmost_leaf()?,
            Bound::Included(k) | Bound::Excluded(k) => self.tree.leaf_for(k)?,
        };
        let (rows, next_leaf) = load_leaf(self.tree, &self.upper, leaf, Some(&lower))?;
        self.state = CursorState::At {
            rows: rows.into_iter(),
            next_leaf,
        };
        Ok(())
    }

    fn advance(&mut self) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        if matches!(self.state, CursorState::Unseeked { .. }) {
            let CursorState::Unseeked { lower } =
                std::mem::replace(&mut self.state, CursorState::Done)
            else {
                unreachable!("matched Unseeked above")
            };
            self.seek(lower)?;
        }
        loop {
            let next_page = match &mut self.state {
                CursorState::Done | CursorState::Unseeked { .. } => return Ok(None),
                CursorState::At { rows, next_leaf } => {
                    if let Some((key, val)) = rows.next() {
                        let value = self.tree.load_value(val)?;
                        return Ok(Some((key, value)));
                    }
                    if *next_leaf == NO_SIBLING {
                        self.state = CursorState::Done;
                        return Ok(None);
                    }
                    PageId(*next_leaf)
                }
            };
            let (rows, next_leaf) = load_leaf(self.tree, &self.upper, next_page, None)?;
            self.state = CursorState::At {
                rows: rows.into_iter(),
                next_leaf,
            };
        }
    }
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

    #[test]
    fn insert_get_small() {
        let env = Env::memory();
        let mut t = BTree::create(&env, "t").unwrap();
        assert!(t.insert(b"b", b"2").unwrap());
        assert!(t.insert(b"a", b"1").unwrap());
        assert!(t.insert(b"c", b"3").unwrap());
        assert_eq!(t.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(t.get(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(t.get(b"c").unwrap(), Some(b"3".to_vec()));
        assert_eq!(t.get(b"d").unwrap(), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn replace_value() {
        let env = Env::memory();
        let mut t = BTree::create(&env, "t").unwrap();
        assert!(t.insert(b"k", b"old").unwrap());
        assert!(!t.insert(b"k", b"new").unwrap());
        assert_eq!(t.get(b"k").unwrap(), Some(b"new".to_vec()));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let env = Env::memory_with(EnvConfig {
            page_size: 512,
            pool_bytes: 64 * 512,
        });
        let mut t = BTree::create(&env, "t").unwrap();
        // Insert in a scrambled order.
        let n = 2000u64;
        let mut order: Vec<u64> = (0..n).collect();
        // Deterministic shuffle.
        for i in 0..order.len() {
            let j = (i * 7919 + 13) % order.len();
            order.swap(i, j);
        }
        for &i in &order {
            t.insert(&key(i), format!("v{i}").as_bytes()).unwrap();
        }
        assert_eq!(t.len(), n);
        assert!(t.height() > 1, "tree should have split");
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
        let mut t = BTree::create(&env, "t").unwrap();
        for i in 0..100u64 {
            t.insert(&key(i), b"").unwrap();
        }
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
        let mut t = BTree::create(&env, "t").unwrap();
        let n = 300u64;
        for i in 0..n {
            t.insert(&key(i), b"v").unwrap();
        }
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
        let mut t = BTree::create(&env, "t").unwrap();
        for i in 0..200u64 {
            t.insert(&key(2 * i), b"v").unwrap();
        }
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

    /// A remembered leaf that no longer covers the lower bound — the
    /// bound lies before it, or a split moved the key two leaves on — is
    /// not trusted: the seeker descends and still finds the right keys.
    #[test]
    fn seeker_redescends_when_its_leaf_stops_covering() {
        let env = Env::memory_with(EnvConfig {
            page_size: 256,
            pool_bytes: 64 * 256,
        });
        let mut t = BTree::create(&env, "t").unwrap();
        for i in 0..100u64 {
            t.insert(&key(100 * i), b"v").unwrap();
        }
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
        // Splits push the keys after 200 far past the remembered leaf.
        for i in 201..1000u64 {
            t.insert(&key(i), b"w").unwrap();
        }
        assert_eq!(scan(&mut seeker, &t, 900, 903), vec![900, 901, 902]);
        // Deletes empty the leaf it now remembers.
        for i in 890..1000u64 {
            t.delete(&key(i)).unwrap();
        }
        assert_eq!(scan(&mut seeker, &t, 880, 10_000), {
            let mut want: Vec<u64> = (880..890).collect();
            want.extend((10..100).map(|i| 100 * i));
            want
        });
        // A seeker used on another tree ignores the leaf it remembers.
        let mut other = BTree::create(&env, "o").unwrap();
        other.insert(&key(7), b"x").unwrap();
        assert_eq!(scan(&mut seeker, &other, 0, 10), vec![7]);
    }

    #[test]
    fn prefix_scan() {
        let env = Env::memory();
        let mut t = BTree::create(&env, "t").unwrap();
        for (k, v) in [
            ("author\x001", "a1"),
            ("author\x002", "a2"),
            ("journal\x001", "j1"),
            ("title\x001", "t1"),
        ] {
            t.insert(k.as_bytes(), v.as_bytes()).unwrap();
        }
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
        let mut t = BTree::create(&env, "t").unwrap();
        t.insert(&[0xFF, 0x01], b"a").unwrap();
        t.insert(&[0xFF, 0xFF], b"b").unwrap();
        t.insert(&[0xFF, 0xFF, 0x00], b"c").unwrap();
        t.insert(&[0x10], b"d").unwrap();
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
        let mut t = BTree::create(&env, "t").unwrap();
        for i in 0..500u64 {
            t.insert(&key(i), format!("v{i}").as_bytes()).unwrap();
        }
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
        let mut t = BTree::create(&env, "t").unwrap();
        let big = vec![0xCDu8; 3000];
        t.insert(b"big", &big).unwrap();
        t.insert(b"tiny", b"t").unwrap();
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
        let mut t = BTree::create(&env, "t").unwrap();
        for (k, v) in [
            ("author\x001", "a1"),
            ("author\x002", "a2"),
            ("journal\x001", "j1"),
        ] {
            t.insert(k.as_bytes(), v.as_bytes()).unwrap();
        }
        let mut vals: Vec<Vec<u8>> = Vec::new();
        t.scan_prefix(b"author\x00", |_, v| {
            vals.push(v.to_vec());
            true
        })
        .unwrap();
        assert_eq!(vals, vec![b"a1".to_vec(), b"a2".to_vec()]);
    }

    #[test]
    fn delete_removes_entries() {
        let env = Env::memory();
        let mut t = BTree::create(&env, "t").unwrap();
        for i in 0..50u64 {
            t.insert(&key(i), b"x").unwrap();
        }
        for i in (0..50u64).step_by(2) {
            assert!(t.delete(&key(i)).unwrap());
        }
        assert!(!t.delete(&key(0)).unwrap(), "double delete");
        assert_eq!(t.len(), 25);
        for i in 0..50u64 {
            assert_eq!(t.get(&key(i)).unwrap().is_some(), i % 2 == 1);
        }
    }

    #[test]
    fn overflow_values_roundtrip() {
        let env = Env::memory_with(EnvConfig {
            page_size: 512,
            pool_bytes: 64 * 512,
        });
        let mut t = BTree::create(&env, "t").unwrap();
        let big = vec![0xABu8; 5000]; // ~10 overflow pages at 512B
        t.insert(b"big", &big).unwrap();
        t.insert(b"small", b"s").unwrap();
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
        let mut bulk = BTree::create(&env, "bulk").unwrap();
        bulk.bulk_load((0..n).map(|i| (key(i), format!("v{i}").into_bytes())))
            .unwrap();
        assert_eq!(bulk.len(), n);
        for i in (0..n).step_by(97) {
            assert_eq!(
                bulk.get(&key(i)).unwrap(),
                Some(format!("v{i}").into_bytes())
            );
        }
        let keys: Vec<Vec<u8>> = bulk.iter().map(|r| r.unwrap().0).collect();
        assert_eq!(keys.len(), n as usize);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        // Bulk-loaded trees accept subsequent inserts.
        let mut bulk = bulk;
        bulk.insert(&key(n + 1), b"late").unwrap();
        assert_eq!(bulk.get(&key(n + 1)).unwrap(), Some(b"late".to_vec()));
    }

    #[test]
    fn bulk_load_rejects_unsorted() {
        let env = Env::memory();
        let mut t = BTree::create(&env, "t").unwrap();
        let err = t
            .bulk_load(vec![(key(2), vec![]), (key(1), vec![])])
            .unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
    }

    #[test]
    fn bulk_load_rejects_duplicates() {
        let env = Env::memory();
        let mut t = BTree::create(&env, "t").unwrap();
        let err = t
            .bulk_load(vec![(key(1), vec![]), (key(1), vec![])])
            .unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
    }

    #[test]
    fn bulk_load_empty_iter() {
        let env = Env::memory();
        let mut t = BTree::create(&env, "t").unwrap();
        t.bulk_load(Vec::new()).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
        // And still usable.
        t.insert(b"x", b"y").unwrap();
        assert_eq!(t.get(b"x").unwrap(), Some(b"y".to_vec()));
    }

    #[test]
    fn key_too_large_rejected() {
        let env = Env::memory_with(EnvConfig {
            page_size: 512,
            pool_bytes: 64 * 512,
        });
        let mut t = BTree::create(&env, "t").unwrap();
        let err = t.insert(&[0u8; 100], b"").unwrap_err();
        assert!(matches!(err, StorageError::KeyTooLarge { .. }));
    }

    #[test]
    fn v1_format_pages_rejected() {
        let env = Env::memory();
        let mut t = BTree::create(&env, "t").unwrap();
        t.insert(b"k", b"v").unwrap();
        // Rewrite the root as a v1-style page: the old format had no
        // version byte — byte 0 held the node type directly.
        env.with_page_mut(t.file_id(), PageId(1), |data| {
            data[0] = crate::node::TYPE_LEAF;
        })
        .unwrap();
        let err = t.get(b"k").unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(m) if m.contains("page format v1, expected v2")),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn read_path_counters_tick() {
        let env = Env::memory();
        let mut t = BTree::create(&env, "t").unwrap();
        for i in 0..100u64 {
            t.insert(&key(i), b"v").unwrap();
        }
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
                let mut t = BTree::create(&env, "idx")?;
                for i in 0..1000u64 {
                    t.insert(&key(i), format!("v{i}").as_bytes())?;
                }
                Ok::<_, StorageError>(())
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
            let mut t = BTree::temp(&env).unwrap();
            t.insert(b"k", b"v").unwrap();
            id = t.file_id();
        }
        assert!(env.page_count(id).is_err());
    }

    #[test]
    fn first_key_and_contains() {
        let env = Env::memory();
        let mut t = BTree::create(&env, "t").unwrap();
        assert_eq!(t.first_key().unwrap(), None);
        t.insert(&key(5), b"").unwrap();
        t.insert(&key(3), b"").unwrap();
        assert_eq!(t.first_key().unwrap(), Some(key(3)));
        assert!(t.contains(&key(5)).unwrap());
        assert!(!t.contains(&key(4)).unwrap());
    }
}
